"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from perfbench import run, spans
from perfbench.workloads import (
    WORKLOADS,
    Outcome,
    dataset_path,
    make_workload,
)

ROOT = Path(__file__).resolve().parents[1]


# -- the percentile rule -------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, []),
        (19, []),
        (20, [50]),
        (99, [50]),
        (100, [50, 90]),
        (999, [50, 90]),
        (1000, [50, 90, 99]),
        (10000, [50, 90, 99, 99.9]),
    ],
)
def test_reportable_percentiles_leave_ten_samples_beyond(n, expected):
    assert run.reportable_percentiles(n) == expected


def test_percentile_interpolates_and_refuses_a_thin_tail():
    samples = list(range(1, 101))  # 1..100
    assert run.percentile(samples, 50) == pytest.approx(50.5)
    assert run.percentile(samples, 90) == pytest.approx(90.1)
    with pytest.raises(ValueError, match="fewer than 10 beyond"):
        run.percentile(samples[:99], 90)


def test_gaps_stay_within_run_segments():
    outcome = Outcome(
        wall_s=1.0, digest="d", probes=1, traffic_saved_frac=0.5,
        hosts_missed_frac=0.1,
        marks=[[0, 2_000_000, 5_000_000], [9_000_000, 10_000_000]],
    )
    assert run.gaps_ms(outcome) == [2.0, 3.0, 1.0]


# -- rescaling to the reference host speed -------------------------------


def test_host_speed_rescales_by_the_kernels_around_a_section():
    speed = run.HostSpeed(kernel=iter([0.1, 0.3, 0.2, 0.4]).__next__)
    reference = run.REFERENCE_KERNEL_S
    assert speed.scale() == pytest.approx(reference / 0.2)
    speed.mark()  # an untimed section in between
    assert speed.scale() == pytest.approx(reference / 0.3)
    assert speed.samples == [0.1, 0.3, 0.2, 0.4]


# -- spans and self time -------------------------------------------------


def _recorder():
    """A recorder whose clock ticks by one on every reading."""
    return spans.SpanRecorder(clock=itertools.count().__next__)


def test_self_time_subtracts_nested_children():
    recorder = _recorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: (inner(), inner()))
    outer()  # outer [0, 5], inner [1, 2] and [3, 4]
    totals = spans.layer_totals(recorder.spans)
    assert totals == {"outer": (3, 1), "inner": (2, 2)}
    assert spans.unattributed_ns(recorder.spans, 10) == 5


def test_generator_layers_are_timed_per_next():
    recorder = _recorder()

    def walk():
        yield from (1, 2)

    def mapping():
        for value in walk_layer():
            yield value * 10

    walk_layer = recorder.wrap_generator("walk", walk)
    map_layer = recorder.wrap_generator("map", mapping)
    engine = recorder.wrap("engine", lambda: sum(map_layer()))
    assert engine() == 30
    # engine [0, 13] holds three map next() spans of 3 ticks, each
    # holding one walk next() of 1 tick; the exhausting next() counts 0.
    totals = spans.layer_totals(recorder.spans)
    assert totals["engine"] == (13 - 3 * 3, 1)
    assert totals["map"] == (3 * 3 - 3 * 1, 2)
    assert totals["walk"] == (3, 2)
    parents = {s[0]: s[4] for s in recorder.spans}
    names = {s[0]: s[1] for s in recorder.spans}
    for span in recorder.spans:
        if span[1] == "walk":
            assert names[parents[span[0]]] == "map"
    assert sum(spans.self_times(recorder.spans).values()) == 13


def test_traced_wraps_every_call_site_and_restores():
    import repro.orchestrator.campaign as campaign
    import repro.scan.sharded as sharded
    from repro.census.addrset import AddressSet

    originals = (campaign.run_sharded, AddressSet.__and__,
                 sharded.get_executor)
    recorder = spans.SpanRecorder()
    with spans.traced(recorder):
        assert campaign.run_sharded is not originals[0]
        assert campaign.run_sharded is sharded.run_sharded
        a = AddressSet([1, 2, 3])
        assert len(a & AddressSet([2, 3, 4])) == 2
    assert (campaign.run_sharded, AddressSet.__and__,
            sharded.get_executor) == originals
    assert {s[1] for s in recorder.spans} == {"census.setalg"}
    assert [s[4] for s in recorder.spans].count(None) == 1


# -- checking outputs ----------------------------------------------------


class _FakeWorkload:
    """Returns a fixed digest; ``broken`` iterations raise."""

    spawns_workers = False
    traced_observe = "off"

    def __init__(self, digests, broken=()):
        self.digests = iter(digests)
        self.broken = set(broken)
        self.calls = 0

    def setup(self):
        return 0.01

    def reference(self):
        return "good"

    def iterate(self, observe="off"):
        self.calls += 1
        if self.calls in self.broken:
            raise RuntimeError("boom")
        marks = [[i * 1_000_000 for i in range(40)]]
        return Outcome(
            wall_s=0.01 * self.calls, digest=next(self.digests), probes=100,
            traffic_saved_frac=0.5, hosts_missed_frac=0.1, marks=marks,
            counts={"scan.probes": 100},
        )


def _host(kernel_s):
    """A host on which every kernel takes ``kernel_s`` seconds."""
    return run.HostSpeed(kernel=lambda: kernel_s)


def test_digest_mismatch_and_raises_count_as_failures():
    workload = _FakeWorkload(["good", "bad", "good", "good", "good"],
                             broken={3})
    result = run.measure(workload, seconds=0, trace=0, setups=1,
                         speed=_host(run.REFERENCE_KERNEL_S))
    assert result["attempted"] == 5
    assert result["failed"] == 2
    assert not result["correct"]
    assert any("differs from the reference" in f for f in result["failures"])
    assert any("RuntimeError: boom" in f for f in result["failures"])
    # Failed iterations are never timings: 0.02 and 0.03 are excluded.
    walls = [i["wall_s"] for i in result["iterations"]]
    assert walls == pytest.approx([0.01, 0.04, 0.05])


def test_end_to_end_timings_are_at_the_reference_speed():
    workload = _FakeWorkload(["good"] * 5)
    # Every kernel takes twice the reference: the host runs at half speed.
    result = run.measure(workload, seconds=0, trace=0, setups=1,
                         speed=_host(2 * run.REFERENCE_KERNEL_S))
    assert result["correct"], result["failures"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Three iterations of 0.01, 0.02 and 0.03 s with 1 ms gaps, and a
    # set-up of 0.01 s, all halved.
    assert result["raw"]["wall_s"] == pytest.approx(0.02)
    assert values["wall_s"] == pytest.approx(0.01)
    assert values["setup_s"] == pytest.approx(0.005)
    assert values["probes_per_s"] == pytest.approx(100 / 0.01)
    assert values["checkpoint_gap_p90_ms"] == pytest.approx(0.5)


def test_changing_deterministic_counts_are_flagged():
    outcome = lambda probes: Outcome(  # noqa: E731
        wall_s=1.0, digest="d", probes=probes, traffic_saved_frac=0.5,
        hosts_missed_frac=0.1, marks=[[0, 1]], counts={"scan.probes": probes},
    )
    runs = [(False, 1, outcome(5)), (True, 2, outcome(5))]
    assert run.repeat_check(runs) is None
    runs.append((False, 3, outcome(6)))
    assert "scan.probes changed" in run.repeat_check(runs)


# -- smoke run of every workload on tiny presets -------------------------


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    from repro.census.loader import get_dataset

    directory = tmp_path_factory.mktemp("data")
    for preset in ("tiny", "v6-tiny"):
        get_dataset(preset=preset, seed=0, cache_dir=directory)
        assert dataset_path(directory, preset).exists()
    return directory


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke(name, trace, tiny_data, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
    monkeypatch.setenv("REPRO_OBS", "off")
    workload = make_workload(
        name, seed=3, data_dir=tiny_data, scratch=tmp_path,
        presets={"small": "tiny", "v6-small": "v6-tiny"},
    )
    result = run.measure(workload, seconds=0, trace=trace, setups=1)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert set(result["metrics"]) == set(units)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(i["scale"] > 0 for i in result["iterations"])
    if trace:
        assert values["traced_wall_s"] > 0
        if name.endswith("campaign"):
            assert values["unattributed_frac"] < 0.05
            assert values["orchestrator.checkpoint_saves"] == 37
        if name == "v4-distributed":
            assert values["scan.distributed.worker_busy_s"] > 0
            assert values["scan.distributed.frame_bytes"] > 0
            assert values["orchestrator.checkpoint_load_s"] > 0
    else:
        assert all(values[k] > 0 for k in units if k != "hosts_missed_frac")
    json.dumps(result["metrics"])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
