"""v4 campaign wave totals, with a blocklist, against a closed-form oracle.

For wave ``w`` of a ``tiny`` campaign, the oracle derives from the
definitions alone, with Python ints and sets:
- the selection ``S_w``: :class:`~repro.core.tass.TassStrategy` on the
  month of the last reseed wave (wave 0, then every ``interval`` waves);
- ``blocked``: ``|S_w ∩ B|``, summed over the overlaps of the selected
  prefixes with the blocklist intervals ``B``;
- ``probes_sent``: ``|S_w ∖ B|``;
- ``responses``: ``|T_w ∩ S_w ∖ B|``, the hosts of wave ``w``'s month
  inside the selection and outside the blocklist.

A campaign that explores adds each held wave's exploration terms:
``explore_probes``, the budget ``max(1, int(explore_frac * U))`` over
the ``U`` unselected addresses, and ``explore_hits``, both from the
sorted-draw reference (``conftest.explore_reference``) replayed on the
campaign's seeded generator.  Every prefix a hit lands in joins the
selection of the next held wave, and a wave that scans the whole
announced space (``reseed_scan``) explores nothing.

The built-in blocklist misses every synthetic announced prefix, so the
campaign runs with one that covers parts of the selection instead.  The
oracle calls nothing in ``repro.scan`` or ``repro.orchestrator`` beyond
running the campaign whose ``status.json`` it checks.

Each shard's counts are checked too, in every checkpoint generation:
the scalar reference walk (``conftest.reference_walk``) deals wave
``w``'s coordinates to the shards, each coordinate is mapped through
the selected intervals to its address, and the shard's ``probes_sent``,
``responses``, ``blocked`` and ``batches`` follow by counting.  Only
the group parameters (prime, generator, start) come from
:class:`~repro.scan.permutation.CyclicPermutation`.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

from conftest import explore_reference, reference_walk
from repro import obs
from repro.census.loader import CensusDataset
from repro.core.tass import TassStrategy
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
from repro.scan.blocklist import Blocklist
from repro.scan.permutation import CyclicPermutation

WAVES = 4
INTERVAL = 2
PHI = 0.9


@pytest.fixture(scope="module")
def dataset():
    return CensusDataset.generate("tiny", seed=0)


@pytest.fixture(autouse=True)
def _quiet(clear_knobs, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "off")
    yield
    obs.take_executor_telemetry()


def _selections(dataset) -> list[list[tuple[int, int]]]:
    """Each wave's selected prefixes as ``(start, end)`` Python ints."""
    partition = dataset.topology.table.partition("less-specific")
    series = dataset.series_for("http")
    out = []
    for wave in range(WAVES):
        if wave % INTERVAL == 0:
            month = min(wave, len(series) - 1)
            chosen = TassStrategy(partition, phi=PHI).plan(series[month])
            selected = [
                (int(partition.starts[i]), int(partition.ends[i]))
                for i in sorted(int(i) for i in chosen.indices)
            ]
        out.append(selected)
    return out


def _blocklist(dataset) -> list[tuple[int, int]]:
    """Intervals over parts of the selected space: the middle quarter of
    every other wave-0 prefix, one interval across the boundary of two
    selected neighbours where there are any, and one prefix whole."""
    selected = _selections(dataset)[0]
    blocks = [
        (start + (end - start) // 4, start + (end - start) // 2)
        for start, end in selected[::2]
    ]
    for (_, end), (start, _) in zip(selected, selected[1:]):
        if end == start:
            blocks.append((end - 8, end + 8))
            break
    blocks.append(selected[-1])
    return blocks


def _oracle(dataset, blocks) -> list[tuple[int, int, int]]:
    """``(probes_sent, responses, blocked)`` of every wave."""
    series = dataset.series_for("http")
    return [
        _scan_terms(selected, blocks, series[min(wave, len(series) - 1)])
        for wave, selected in enumerate(_selections(dataset))
    ]


def _scan_terms(selected, blocks, snapshot) -> tuple[int, int, int]:
    """``(probes_sent, responses, blocked)`` of a scan of the
    ``selected`` intervals past the blocklist ``blocks``, answered by
    the hosts of ``snapshot``."""
    size = sum(end - start for start, end in selected)
    blocked = sum(
        max(0, min(end, b_end) - max(start, b_start))
        for start, end in selected
        for b_start, b_end in _disjoint(blocks)
    )
    hosts = {int(h) for h in snapshot.addresses.values}
    responses = sum(
        1
        for h in hosts
        if any(start <= h < end for start, end in selected)
        and not any(b_start <= h < b_end for b_start, b_end in blocks)
    )
    return size - blocked, responses, blocked


def _disjoint(blocks) -> list[tuple[int, int]]:
    """``blocks`` merged into sorted disjoint intervals."""
    merged = []
    for start, end in sorted(blocks):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


SHARDS = 3
SCAN_SEED = 5


def _run(dataset, executor, directory, monkeypatch, blocks=None, **fields):
    """Run the ``tiny`` campaign blocked by ``blocks`` (default
    :func:`_blocklist`), its spec changed by ``fields``; its blocklist
    intervals."""
    if blocks is None:
        blocks = _blocklist(dataset)
    monkeypatch.setattr(
        "repro.orchestrator.campaign.default_blocklist",
        lambda: Blocklist(*zip(*blocks)),
    )
    spec = CampaignSpec(**{
        "preset": "tiny",
        "phi": PHI,
        "waves": WAVES,
        "reseed": ReseedPolicy("interval", interval=INTERVAL),
        "shards": SHARDS,
        "executor": executor,
        "use_blocklist": True,
        "explore_frac": 0.0,
        "scan_seed": SCAN_SEED,
        **fields,
    })
    runner = CampaignRunner(spec, dataset=dataset, directory=directory)
    runner.store.write_spec(runner.spec.to_dict())
    runner.run()
    return blocks


EXPLORE_FRAC = 0.02
#: Waves 0 and 3 reseed with a full scan; waves 1 and 2 hold and explore.
EXPLORE_INTERVAL = 3


def _explore_oracle(dataset, blocks) -> list[tuple[int, ...]]:
    """``(probes_sent, responses, blocked, explore_probes,
    explore_hits)`` of every wave of the exploring campaign.

    Exploration draws over the whole unselected space: it ignores the
    blocklist (``explore_unselected`` takes none).  :func:`_blocklist`
    lies inside the wave-0 selection, so no draw here lands in blocked
    space and this oracle does not cover that case;
    ``test_exploration_skips_blocked_unselected_space`` does.
    """
    partition = dataset.topology.table.partition("less-specific")
    announced = [
        (int(start), int(end))
        for start, end in zip(partition.starts, partition.ends)
    ]
    series = dataset.series_for("http")
    rng = np.random.default_rng([SCAN_SEED, 0x5EED])
    out = []
    for wave in range(WAVES):
        snapshot = series[min(wave, len(series) - 1)]
        if wave % EXPLORE_INTERVAL == 0:
            chosen = TassStrategy(partition, phi=PHI).plan(snapshot)
            mask = np.zeros(len(partition), dtype=bool)
            mask[chosen.indices] = True
            out.append((*_scan_terms(announced, blocks, snapshot), 0, 0))
            continue
        selected = [announced[i] for i in np.flatnonzero(mask)]
        probes, responses, blocked = _scan_terms(selected, blocks, snapshot)
        unselected = sum(end - start for start, end in announced) - sum(
            end - start for start, end in selected
        )
        budget = max(1, int(EXPLORE_FRAC * unselected)) if unselected else 0
        count, hits, fresh = explore_reference(
            rng, partition, mask, snapshot.addresses.values, budget
        )
        mask[fresh] = True
        out.append(
            (probes + count, responses + len(hits), blocked, count, len(hits))
        )
    return out


@pytest.mark.parametrize("executor", ["serial", "distributed"])
def test_exploring_wave_totals_match_the_oracle(
    dataset, executor, tmp_path, monkeypatch
):
    blocks = _run(
        dataset,
        executor,
        tmp_path,
        monkeypatch,
        reseed=ReseedPolicy("interval", interval=EXPLORE_INTERVAL),
        reseed_scan=True,
        explore_frac=EXPLORE_FRAC,
    )
    waves = json.loads((tmp_path / "status.json").read_text())["waves"]
    got = [
        (
            w["probes_sent"],
            w["responses"],
            w["blocked"],
            w["explore_probes"],
            w["explore_hits"],
        )
        for w in waves
    ]
    assert got == _explore_oracle(dataset, blocks)
    # The check has teeth: both held waves find hosts by exploring, and
    # the second holds the prefixes the first absorbed.
    assert [w["explore_hits"] > 0 for w in waves] == [False, True, True, False]
    assert waves[1]["absorbed_prefixes"] > 0
    assert waves[2]["selected_prefixes"] == (
        waves[1]["selected_prefixes"] + waves[1]["absorbed_prefixes"]
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="explore_unselected takes no blocklist: exploration probes "
    "and counts hits in blocked unselected space",
)
def test_exploration_skips_blocked_unselected_space(
    dataset, tmp_path, monkeypatch
):
    """With every unselected prefix blocked, exploration has nothing it
    may probe, so no wave may count an exploration hit."""
    partition = dataset.topology.table.partition("less-specific")
    selected = set(_selections(dataset)[0])
    unselected = [
        (int(start), int(end))
        for start, end in zip(partition.starts, partition.ends)
        if (int(start), int(end)) not in selected
    ]
    _run(
        dataset,
        "serial",
        tmp_path,
        monkeypatch,
        blocks=unselected,
        reseed=ReseedPolicy("interval", interval=EXPLORE_INTERVAL),
        reseed_scan=True,
        explore_frac=EXPLORE_FRAC,
    )
    waves = json.loads((tmp_path / "status.json").read_text())["waves"]
    assert [w["explore_hits"] for w in waves] == [0] * WAVES


@lru_cache(maxsize=None)
def _shard_oracle(dataset, wave):
    """``[probes_sent, responses, blocked, batches]`` of each shard of
    ``wave``: its reference walk, mapped through the selection."""
    selected = _selections(dataset)[wave]
    starts = np.array([start for start, _ in selected])
    offsets = np.cumsum([0] + [end - start for start, end in selected])
    perm = CyclicPermutation(int(offsets[-1]), seed=SCAN_SEED + wave)
    series = dataset.series_for("http")
    hosts = series[min(wave, len(series) - 1)].addresses.values
    out = []
    for batches in reference_walk(perm, SHARDS, CampaignSpec.batch_size):
        coords = np.array([c for batch in batches for c in batch])
        interval = np.searchsorted(offsets, coords, side="right") - 1
        addresses = starts[interval] + coords - offsets[interval]
        blocked = np.zeros(len(addresses), dtype=bool)
        for b_start, b_end in _blocklist(dataset):
            blocked |= (b_start <= addresses) & (addresses < b_end)
        hits = np.isin(addresses, hosts) & ~blocked
        out.append([
            int((~blocked).sum()),
            int(hits.sum()),
            int(blocked.sum()),
            sum(1 for batch in batches if batch),
        ])
    return out


@pytest.mark.parametrize("executor", ["serial", "distributed"])
def test_blocked_wave_totals_match_the_oracle(
    dataset, executor, tmp_path, monkeypatch
):
    blocks = _run(dataset, executor, tmp_path, monkeypatch)
    status = json.loads((tmp_path / "status.json").read_text())
    got = [
        (w["probes_sent"], w["responses"], w["blocked"])
        for w in status["waves"]
    ]
    expected = _oracle(dataset, blocks)
    assert got == expected
    # The check has teeth: every wave blocks part of its selection, and
    # some blocked address is a host the wave would have found.
    assert all(0 < blocked < probes for probes, _, blocked in expected)
    unblocked = _oracle(dataset, [])
    assert all(r > r_b for (_, r, _), (_, r_b, _) in zip(unblocked, expected))


@pytest.mark.parametrize("parts", [1, 2])
def test_shard_results_match_the_reference_walk(
    dataset, parts, tmp_path, monkeypatch
):
    monkeypatch.setattr("repro.scan.executors._usable_cpus", lambda: parts)
    monkeypatch.setenv("REPRO_CKPT_KEEP", "1000")  # keep every generation
    _run(dataset, "serial", tmp_path, monkeypatch)
    checked = set()
    for path in sorted(tmp_path.glob("checkpoint.*.npz")):
        with np.load(path) as npz:
            manifest = json.loads(str(npz["manifest"]))
        wave = manifest["wave"]
        for shard, counts in enumerate(manifest["shard_results"]):
            assert counts == _shard_oracle(dataset, wave)[shard], (
                path.name, shard
            )
            checked.add((wave, shard))
    assert checked == {
        (wave, shard) for wave in range(WAVES) for shard in range(SHARDS)
    }
