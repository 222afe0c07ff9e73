"""Orchestrator units: spec, policy, pacing, checkpoints, wave behavior."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.orchestrator import (
    CampaignRunner,
    CampaignSpec,
    CheckpointStore,
    PacedTargets,
    ReseedPolicy,
    TokenBucket,
    compile_waves,
    run_campaign,
)
from repro.orchestrator.checkpoint import CHECKPOINT_VERSION
from repro.orchestrator.waves import (
    explore_unselected,
    hold_or_reseed,
    selection_stats,
)

SPEC = CampaignSpec(
    preset="mini",
    waves=3,
    phi=0.9,
    shards=3,
    executor="serial",
    batch_size=1 << 12,
)


# ---------------------------------------------------------------------------
# Spec and policy
# ---------------------------------------------------------------------------


class TestCampaignSpec:
    def test_roundtrips_through_dict(self):
        spec = SPEC.resolved()
        again = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert again == spec

    def test_resolved_pins_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_COUNT_BACKEND", "bitmap")
        resolved = CampaignSpec(shards=5).resolved()
        assert resolved.shards == 5
        assert resolved.executor == "serial"
        assert resolved.family == "v4"
        # The counting path is fixed; the environment never picks it.
        assert resolved.backend == "searchsorted"
        # Resolution is idempotent: a stored spec re-resolves to itself.
        assert resolved.resolved() == resolved

    def test_backend_other_than_searchsorted_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            CampaignSpec(backend="bitmap")

    def test_from_directory_rejects_recorded_trie_backend(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_spec(dict(SPEC.resolved().to_dict(), backend="trie"))
        with pytest.raises(ValueError, match="backend"):
            CampaignRunner.from_directory(tmp_path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shards", 0),
            ("shards", "lots"),
            ("executor", "bogus"),
            ("executor", 5),
            ("executor", ["serial"]),
            # Planned before the process pool was deleted: resuming it
            # fails with a named error, not a traceback.
            ("executor", "process"),
            ("family", "ipv5"),
        ],
    )
    def test_from_directory_rejects_bad_recorded_field(
        self, tmp_path, field, value
    ):
        store = CheckpointStore(tmp_path)
        store.write_spec(dict(SPEC.resolved().to_dict(), **{field: value}))
        with pytest.raises(ValueError, match=field):
            CampaignRunner.from_directory(tmp_path)

    def test_pacing_requires_serial_executor(self):
        spec = CampaignSpec(executor="distributed", probes_per_sec=1000.0)
        with pytest.raises(ValueError, match="serial executor"):
            spec.resolved()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"waves": 0},
            {"phi": 0.0},
            {"phi": 1.5},
            {"view": "sideways"},
            {"explore_frac": 1.0},
            {"batch_size": 0},
            {"probe_budget": -1},
            {"probes_per_sec": 0.0},
            {"name": ""},
            {"probes_per_sec": float("nan")},
            {"probes_per_sec": float("inf")},
            {"wave_retry_backoff": float("nan")},
            {"wave_retry_backoff": float("inf")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CampaignSpec(**kwargs)


class TestReseedPolicy:
    def test_wave_zero_always_seeds(self):
        for policy in (
            ReseedPolicy("never"),
            ReseedPolicy("interval", interval=0),
            ReseedPolicy("hitrate", min_hitrate=0.0),
        ):
            assert policy.decide(0, None) is True

    def test_interval_schedule(self):
        policy = ReseedPolicy("interval", interval=2)
        assert [policy.decide(w, None) for w in range(5)] == [
            True, False, True, False, True,
        ]

    def test_hitrate_trigger_uses_previous_wave(self):
        policy = ReseedPolicy("hitrate", min_hitrate=0.9)
        assert policy.decide(1, 0.95) is False
        assert policy.decide(1, 0.85) is True
        assert policy.decide(1, None) is False

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown reseed mode"):
            ReseedPolicy("sometimes")

    def test_compile_waves_clamps_months(self):
        plans = compile_waves(5, 3, ReseedPolicy("interval", interval=2))
        assert [p.month for p in plans] == [0, 1, 2, 2, 2]
        assert [p.reseed for p in plans] == [True, False, True, False, True]

    def test_compile_waves_hitrate_is_conditional(self):
        plans = compile_waves(3, 3, ReseedPolicy("hitrate", min_hitrate=0.5))
        assert plans[0].reseed is True
        assert plans[1].reseed is None and plans[2].reseed is None


# ---------------------------------------------------------------------------
# Pacing
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.now += seconds


class TestTokenBucket:
    def test_burst_within_capacity_never_sleeps(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, clock=clock, sleep=clock.sleep)
        assert bucket.throttle(100) == 0.0
        assert bucket.slept == 0.0

    def test_sustained_rate_is_bounded(self):
        clock = FakeClock()
        bucket = TokenBucket(1000.0, clock=clock, sleep=clock.sleep)
        for _ in range(10):
            bucket.throttle(500)
        # 5000 tokens at 1000/sec with a 1000-token burst head start.
        assert clock.now == pytest.approx(4.0)
        assert bucket.consumed == 5000
        assert bucket.achieved_rate == pytest.approx(5000 / 4.0)

    def test_oversized_request_allowed(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, capacity=10.0, clock=clock,
                             sleep=clock.sleep)
        bucket.throttle(1000)  # 100x the burst capacity
        assert clock.now == pytest.approx((1000 - 10) / 100.0)

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(10.0, capacity=0.0)

    def test_paced_targets_passes_batches_through(self):
        from repro.scan.sharded import IntervalTargets

        clock = FakeClock()
        bucket = TokenBucket(1e12, clock=clock, sleep=clock.sleep)
        targets = IntervalTargets(5000, seed=3)
        plain = [b.tolist() for b in targets.batches(512)]
        paced = [
            b.tolist()
            for b in PacedTargets(targets, bucket).batches(512)
        ]
        assert paced == plain
        assert bucket.consumed == 5000

    def test_overshooting_sleep_credits_elapsed_time(self):
        # Regression: throttle used to zero the bucket after sleeping,
        # discarding every token accrued while the OS overslept.
        clock = FakeClock()
        bucket = TokenBucket(
            100.0, clock=clock,
            sleep=lambda seconds: clock.sleep(seconds * 1.5),
        )
        bucket.throttle(100)  # drains the initial burst, no sleep
        bucket.throttle(100)  # asks for 1.0s, the clock advances 1.5s
        assert bucket.slept == pytest.approx(1.0)
        # The 0.5s overshoot accrued 50 tokens; they must be spendable.
        assert bucket.throttle(50) == 0.0
        assert clock.now == pytest.approx(1.5)

    def test_long_paced_run_does_not_drift_below_rate(self):
        # With a sleep that always overshoots by 25%, the credited
        # surplus must pull later waits down so the achieved rate
        # converges to the configured one instead of drifting 25% low.
        clock = FakeClock()
        bucket = TokenBucket(
            1000.0, clock=clock,
            sleep=lambda seconds: clock.sleep(seconds * 1.25),
        )
        for _ in range(100):
            bucket.throttle(500)
        assert bucket.achieved_rate == pytest.approx(1000.0, rel=0.02)
        # The pre-fix bucket lands at 61.25s here (~816 tokens/sec).
        assert clock.now < 50.0

    def test_undershooting_sleep_keeps_the_rate_bounded(self):
        # A sleep returning *early* leaves a deficit the next throttle
        # must wait out — the average rate never exceeds the configured.
        clock = FakeClock()
        bucket = TokenBucket(
            1000.0, clock=clock,
            sleep=lambda seconds: clock.sleep(seconds * 0.5),
        )
        for _ in range(50):
            bucket.throttle(500)
        # Never more than rate * elapsed + the burst head start + the
        # one in-flight request the deficit is charged against.
        assert bucket.consumed <= 1000.0 * clock.now + 1000.0 + 500.0 + 1e-6
        assert bucket.achieved_rate == pytest.approx(1000.0, rel=0.10)

    def test_zero_elapsed_rate_is_json_safe(self):
        # Regression: with tokens consumed but no clock movement (a
        # burst served entirely from capacity), achieved_rate returned
        # float("inf"), which json.dumps emits as a bare Infinity
        # token — invalid JSON in progress.json.
        clock = FakeClock()
        bucket = TokenBucket(100.0, clock=clock, sleep=clock.sleep)
        bucket.throttle(50)  # within burst: the clock never advances
        assert clock.now == 0.0 and bucket.consumed == 50
        assert bucket.achieved_rate == 0.0
        progress = {"achieved_probes_per_sec": bucket.achieved_rate}
        text = json.dumps(progress, allow_nan=False)  # must not raise
        assert json.loads(text) == progress


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "camp")
        manifest = {"wave": 2, "shard": 1, "records": [{"a": 1}]}
        mask = np.array([True, False, True])
        store.save(manifest, {"mask": mask})
        loaded, arrays = store.load()
        assert loaded["wave"] == 2 and loaded["shard"] == 1
        assert loaded["version"] == CHECKPOINT_VERSION
        assert np.array_equal(arrays["mask"], mask)

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"wave": 0}, {"mask": np.zeros(3, dtype=bool)})
        leftovers = [
            p.name for p in tmp_path.iterdir() if ".tmp" in p.name
        ]
        assert leftovers == []

    def test_load_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nothing to resume"):
            CheckpointStore(tmp_path).load()

    def test_reserved_array_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            CheckpointStore(tmp_path).save({}, {"manifest": np.zeros(1)})

    def test_missing_spec_mentions_plan(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="plan"):
            CheckpointStore(tmp_path).read_spec()

    def test_save_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        # Durability regression: rename-without-fsync can surface a
        # truncated "atomic" checkpoint after a power loss.  Both the
        # tmp file (before the rename) and the directory (after it)
        # must be fsynced.
        import os as _os

        store = CheckpointStore(tmp_path)
        real_fsync = _os.fsync
        synced = []

        def recording_fsync(fd):
            synced.append(_os.fstat(fd).st_mode)
            return real_fsync(fd)

        import stat

        monkeypatch.setattr(
            "repro.orchestrator.checkpoint.os.fsync", recording_fsync
        )
        store.save({"wave": 0}, {"mask": np.zeros(3, dtype=bool)})
        assert any(stat.S_ISREG(mode) for mode in synced), "file fsync"
        assert any(stat.S_ISDIR(mode) for mode in synced), "dir fsync"

        synced.clear()
        store.write_status({"finished": False})
        assert any(stat.S_ISREG(mode) for mode in synced)
        assert any(stat.S_ISDIR(mode) for mode in synced)

    def test_orphaned_tmp_files_swept_on_open(self, tmp_path):
        directory = tmp_path / "camp"
        directory.mkdir()
        (directory / "checkpoint.tmp.npz").write_bytes(b"truncated")
        (directory / "status.tmp").write_text("{")
        store = CheckpointStore(directory)
        assert not (directory / "checkpoint.tmp.npz").exists()
        assert not (directory / "status.tmp").exists()
        assert not store.has_checkpoint()

    def test_write_progress_never_emits_non_finite_json(self, tmp_path):
        # Telemetry rates are wall-clock derived, so a pathological
        # clock must degrade to null — never to the Infinity/NaN
        # tokens strict JSON parsers reject.
        store = CheckpointStore(tmp_path)
        store.write_progress(
            {
                "rate": float("inf"),
                "nested": {"x": float("nan"), "deep": [float("-inf")]},
                "ok": 1.5,
                "n": 3,
            }
        )

        def no_constants(token):
            raise AssertionError(
                f"non-finite constant {token!r} in progress.json"
            )

        text = (tmp_path / "progress.json").read_text()
        doc = json.loads(text, parse_constant=no_constants)
        assert doc["rate"] is None
        assert doc["nested"]["x"] is None
        assert doc["nested"]["deep"] == [None]
        assert doc["ok"] == 1.5 and doc["n"] == 3


# ---------------------------------------------------------------------------
# Wave cores
# ---------------------------------------------------------------------------


class TestWaveCores:
    def test_selection_stats_counts_exactly(self, mini_dataset):
        partition = mini_dataset.topology.table.partition("less-specific")
        values = mini_dataset.series_for("http").seed_snapshot.addresses.values
        selected = np.array([True, False, False, False])
        found, size = selection_stats(partition, selected, values)
        assert size == int(partition.sizes[0])
        assert found == int(partition.count_addresses(values)[0])

    def test_explore_absorbs_only_fresh_prefixes(self, mini_dataset):
        partition = mini_dataset.topology.table.partition("less-specific")
        values = mini_dataset.series_for("http").seed_snapshot.addresses.values
        selected = np.array([True, False, False, True])
        rng = np.random.default_rng(1)
        count, hits, fresh = explore_unselected(
            rng, partition, selected, values, 20000
        )
        assert count == 20000
        assert set(partition.index_of(hits).tolist()) <= {1, 2}
        assert np.all(~selected[fresh])
        # Every reported hit really is a responsive address.
        assert np.isin(hits, values).all()

    def test_explore_memory_does_not_scale_with_unselected_space(self):
        from repro.bgp.table import Prefix, RoutingTable

        # An unselected /1: a bitmap of it would take 256 MiB.
        partition = RoutingTable(
            [Prefix.from_cidr("0.0.0.0/1"), Prefix.from_cidr("192.0.2.0/24")]
        ).partition("less-specific")
        selected = np.array([False, True])
        rng = np.random.default_rng(1)
        values = np.unique(rng.integers(0, 1 << 31, 10_000))
        tracemalloc.start()
        try:
            count, hits, _ = explore_unselected(
                rng, partition, selected, values, 10_000
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 10_000
        assert np.isin(hits, values).all()
        assert peak < 4 << 20, f"peak {peak / (1 << 20):.1f} MiB"

    def test_adaptive_charges_no_probes_to_a_full_selection(
        self, mini_dataset, monkeypatch
    ):
        from repro.analysis import adaptive

        # phi=1 selects every prefix: no month has anything to explore.
        monkeypatch.setattr(adaptive, "PHI", 1.0)
        (comparison,) = adaptive.run_adaptive(mini_dataset).comparisons
        assert comparison.absorbed_prefixes == 0
        assert comparison.adaptive_probes == comparison.static_probes
        assert comparison.probe_overhead == 0.0

    def test_hold_or_reseed_accounting(self, mini_dataset):
        from repro.core.tass import TassStrategy

        table = mini_dataset.topology.table
        announced = table.partition("less-specific").address_count()
        series = mini_dataset.series_for("http")
        strategy = TassStrategy(table, phi=0.9)
        selection = strategy.plan(series.seed_snapshot)
        held, probes, rate = hold_or_reseed(
            strategy, selection, series[1], False, announced
        )
        assert held is selection
        assert probes == selection.probe_count()
        assert 0.0 < rate <= 1.0
        reseeded, probes2, rate2 = hold_or_reseed(
            strategy, selection, series[1], True, announced
        )
        assert reseeded is not selection
        assert probes2 == announced and rate2 == 1.0


# ---------------------------------------------------------------------------
# Campaign behavior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_campaign(small_dataset):
    """A two-wave, four-shard campaign spec on ``small`` and the status of
    one uncheckpointed run of it."""
    spec = CampaignSpec(
        preset="small", protocol="http", phi=0.9, waves=2,
        reseed=ReseedPolicy("interval", interval=0), shards=4,
        executor="serial",
    )
    return spec, run_campaign(spec, dataset=small_dataset)


class TestCampaign:
    def test_records_one_per_wave(self, mini_dataset):
        status = run_campaign(SPEC, dataset=mini_dataset)
        assert status["waves_completed"] == 3
        assert [w["wave"] for w in status["waves"]] == [0, 1, 2]
        assert status["finished"] is True
        assert status["budget_exhausted"] is False
        assert status["waves"][0]["reseeded"] is True

    def test_wave_scan_matches_selection_hitrate(self, mini_dataset):
        from repro.core.tass import TassStrategy

        status = run_campaign(SPEC, dataset=mini_dataset)
        table = mini_dataset.topology.table
        series = mini_dataset.series_for("http")
        selection = TassStrategy(table, phi=0.9).plan(series.seed_snapshot)
        wave0 = status["waves"][0]
        assert wave0["probes_sent"] == selection.probe_count()
        assert wave0["responses"] == selection.count_in(
            series[0].addresses.values
        )
        assert wave0["missed"] == wave0["responsive_hosts"] - wave0["responses"]

    def test_interval_policy_reseeds_on_schedule(self, mini_dataset):
        spec = CampaignSpec(
            preset="mini", waves=4, phi=0.9, shards=2, executor="serial",
            reseed=ReseedPolicy("interval", interval=2),
            batch_size=1 << 12,
        )
        status = run_campaign(spec, dataset=mini_dataset)
        assert [w["reseeded"] for w in status["waves"]] == [
            True, False, True, False,
        ]
        assert status["totals"]["reseeds"] == 2

    def test_hitrate_policy_reseeds_when_coverage_drops(self, mini_dataset):
        spec = CampaignSpec(
            preset="mini", waves=3, phi=0.9, shards=1, executor="serial",
            reseed=ReseedPolicy("hitrate", min_hitrate=1.0),
            batch_size=1 << 12,
        )
        status = run_campaign(spec, dataset=mini_dataset)
        # A threshold of 1.0 forces a reseed after every imperfect wave.
        assert all(w["reseeded"] for w in status["waves"])

    def test_probe_budget_stops_campaign(self, mini_dataset):
        one_wave = run_campaign(SPEC, dataset=mini_dataset)["waves"][0]
        spec = CampaignSpec(
            preset="mini", waves=3, phi=0.9, shards=3, executor="serial",
            probe_budget=one_wave["probes_sent"],
            batch_size=1 << 12,
        )
        status = run_campaign(spec, dataset=mini_dataset)
        assert status["budget_exhausted"] is True
        assert status["waves_completed"] == 1
        assert status["finished"] is True

    def test_exploration_absorbs_and_accounts(self, mini_dataset):
        spec = CampaignSpec(
            preset="mini", waves=3, phi=0.7, shards=2, executor="serial",
            explore_frac=0.01, batch_size=1 << 12,
        )
        status = run_campaign(spec, dataset=mini_dataset)
        totals = status["totals"]
        assert totals["explore_probes"] > 0
        for wave in status["waves"]:
            assert wave["probes_sent"] >= wave["explore_probes"]
            assert wave["responses"] >= wave["explore_hits"]

    def test_reseed_scan_charges_announced_space(self, mini_dataset):
        announced = mini_dataset.topology.table.partition(
            "less-specific"
        ).address_count()
        spec = CampaignSpec(
            preset="mini", waves=2, phi=0.9, shards=2, executor="serial",
            reseed_scan=True, batch_size=1 << 12,
        )
        status = run_campaign(spec, dataset=mini_dataset)
        wave0 = status["waves"][0]
        assert wave0["probes_sent"] == announced
        assert wave0["hitrate"] == pytest.approx(1.0)
        # Held waves still scan just the selection.
        assert status["waves"][1]["probes_sent"] < announced

    def test_full_scan_waves_skip_exploration(self, mini_dataset):
        # A discovery scan already probed the unselected space;
        # exploring it again would double-count hosts (hitrate > 1).
        spec = CampaignSpec(
            preset="mini", waves=2, phi=0.9, shards=2, executor="serial",
            reseed_scan=True, explore_frac=0.05, batch_size=1 << 12,
        )
        status = run_campaign(spec, dataset=mini_dataset)
        wave0 = status["waves"][0]
        assert wave0["explore_probes"] == 0
        assert wave0["hitrate"] == pytest.approx(1.0)
        assert wave0["missed"] == 0
        for wave in status["waves"]:
            assert 0.0 <= wave["hitrate"] <= 1.0
            assert wave["missed"] >= 0
        # The held wave still explores.
        assert status["waves"][1]["explore_probes"] > 0

    def test_shard_count_invariant_accounting(self, mini_dataset):
        baseline = None
        for shards in (1, 2, 5):
            spec = CampaignSpec(
                preset="mini", waves=2, phi=0.9, shards=shards,
                executor="serial", batch_size=1 << 12,
            )
            status = run_campaign(spec, dataset=mini_dataset)
            digest = json.dumps(status["waves"], sort_keys=True)
            if baseline is None:
                baseline = digest
            else:
                assert digest == baseline

    def test_pacing_does_not_change_results(self, mini_dataset):
        unpaced = run_campaign(SPEC, dataset=mini_dataset)
        paced_spec = CampaignSpec(
            preset="mini", waves=3, phi=0.9, shards=3, executor="serial",
            probes_per_sec=1e9, batch_size=1 << 12,
        )
        paced = run_campaign(paced_spec, dataset=mini_dataset)
        assert paced["waves"] == unpaced["waves"]
        assert paced["totals"] == unpaced["totals"]

    def test_checkpointing_does_not_change_results(
        self, mini_dataset, tmp_path
    ):
        unsaved = run_campaign(SPEC, dataset=mini_dataset)
        saved = run_campaign(SPEC, dataset=mini_dataset, directory=tmp_path)
        assert saved["waves"] == unsaved["waves"]
        assert saved["totals"] == unsaved["totals"]

    def test_uncheckpointed_campaign_repeats_on_small_preset(
        self, small_dataset, small_campaign
    ):
        spec, reference = small_campaign
        again = run_campaign(spec, dataset=small_dataset)
        assert again["waves"] == reference["waves"]
        assert again["totals"] == reference["totals"]

    def test_checkpointing_does_not_change_results_on_small_preset(
        self, small_dataset, small_campaign, tmp_path
    ):
        spec, unsaved = small_campaign
        saved = run_campaign(spec, dataset=small_dataset, directory=tmp_path)
        assert saved["waves"] == unsaved["waves"]
        assert saved["totals"] == unsaved["totals"]

    def test_status_json_is_wall_clock_free(self, mini_dataset, tmp_path):
        run_campaign(SPEC, dataset=mini_dataset, directory=tmp_path)
        status_text = (tmp_path / "status.json").read_text()
        status = json.loads(status_text)
        assert "time" not in json.dumps(status)
        # Telemetry lives in progress.json instead.
        progress = json.loads((tmp_path / "progress.json").read_text())
        assert "time" in progress

    def test_mid_campaign_status_totals_are_consistent(
        self, mini_dataset, tmp_path
    ):
        from repro.orchestrator.campaign import status_from_manifest

        class Stop(Exception):
            pass

        runner = CampaignRunner(SPEC, dataset=mini_dataset,
                                directory=tmp_path)
        seen = [0]

        def kill(r):
            seen[0] += 1
            if seen[0] == 5:  # mid wave 1 (wave 0 took 3+1 checkpoints)
                raise Stop()

        with pytest.raises(Stop):
            runner.run(on_checkpoint=kill)
        manifest, _ = CheckpointStore(tmp_path).load()
        status = status_from_manifest(manifest)
        assert status["position"]["wave"] == 1
        assert status["position"]["shard"] == 1
        # In-flight shard responses/blocked are folded in alongside the
        # in-flight probes, keeping mid-campaign totals coherent.
        wave0 = status["waves"][0]
        in_flight = manifest["shard_results"]
        assert status["totals"]["probes_sent"] == (
            wave0["probes_sent"] + sum(s[0] for s in in_flight)
        )
        assert status["totals"]["responses"] == (
            wave0["responses"] + sum(s[1] for s in in_flight)
        )
        assert len(in_flight) == 1

    def test_runner_rejects_foreign_checkpoint_mask(
        self, mini_dataset, tmp_path
    ):
        run_campaign(SPEC, dataset=mini_dataset, directory=tmp_path)
        store = CheckpointStore(tmp_path)
        manifest, _ = store.load()
        store.save(manifest, {"mask": np.zeros(99, dtype=bool)})
        with pytest.raises(ValueError, match="different dataset"):
            CampaignRunner.resume(tmp_path, dataset=mini_dataset)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def cli_env(monkeypatch):
    """Point the CLI's dataset cache at the committed tiny dataset."""
    from pathlib import Path

    monkeypatch.setenv(
        "REPRO_DATA_DIR", str(Path(__file__).parent.parent / "data")
    )


class TestCli:
    PLAN_ARGS = [
        "--preset", "tiny", "--protocol", "http", "--phi", "0.5",
        "--waves", "2", "--shards", "2", "--executor", "serial",
        "--batch-size", "16384",
    ]

    def _plan(self, directory):
        from repro.orchestrator.cli import main

        return main(["plan", "--dir", str(directory), *self.PLAN_ARGS])

    def test_plan_run_status_roundtrip(self, tmp_path, capsys, cli_env):
        from repro.orchestrator.cli import main

        assert self._plan(tmp_path) == 0
        out = capsys.readouterr().out
        assert "wave 0: census month 0 [reseed]" in out
        assert "wave 1: census month 1 [hold]" in out
        assert (tmp_path / "campaign.json").exists()

        assert main(["run", "--dir", str(tmp_path)]) == 0
        assert "2/2 waves" in capsys.readouterr().out

        assert main(["status", "--dir", str(tmp_path), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["waves_completed"] == 2
        assert status["finished"] is True
        assert status["spec"]["shards"] == 2

    def test_run_refuses_to_clobber_checkpoint(self, tmp_path, capsys,
                                               cli_env):
        from repro.orchestrator.cli import main

        self._plan(tmp_path)
        assert main(["run", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["run", "--dir", str(tmp_path)]) == 2
        assert "resume" in capsys.readouterr().err
        assert main(["run", "--dir", str(tmp_path), "--fresh"]) == 0

    def test_run_without_plan_is_a_clean_error(self, tmp_path, capsys,
                                               cli_env):
        from repro.orchestrator.cli import main

        assert main(["run", "--dir", str(tmp_path / "nowhere")]) == 2
        assert "plan" in capsys.readouterr().err

    def test_bad_knob_is_a_clean_error(self, tmp_path, capsys, cli_env):
        from repro.orchestrator.cli import main

        plan = ["plan", "--dir", str(tmp_path), "--preset", "tiny"]
        assert main([*plan, "--shards", "0"]) == 2
        assert "shards must be a positive integer" in capsys.readouterr().err
        assert main([*plan, "--probes-per-sec", "nan"]) == 2
        assert "probes_per_sec" in capsys.readouterr().err
        # A non-integer never reaches the spec: argparse rejects it.
        with pytest.raises(SystemExit) as excinfo:
            main([*plan, "--shards", "lots"])
        assert excinfo.value.code == 2
        assert "--shards: invalid int value" in capsys.readouterr().err
