"""v6 campaign wave totals against a closed-form oracle.

For wave ``w`` of a ``v6-tiny`` campaign the oracle derives, from the
definitions alone and with Python sets:
- the selection: :class:`~repro.core.tass.TassStrategy` on the month of
  the last reseed wave (wave 0, then every ``interval`` waves);
- the hitlist: that month's addresses inside the selected prefixes;
- the samples: ``start + (b + a*j) % size`` for ``j < min(size,
  samples)`` in each selected prefix ``i``, with ``(b, a)`` re-derived
  from ``random.Random(f"v6-sample:{scan_seed + w}:{i}")``;
- ``probes_sent``: the hitlist plus every sample not already on it;
- ``responses``: those probes that are wave ``w``'s month's hosts.

It calls nothing in ``repro.scan`` or ``repro.orchestrator`` beyond
running the campaign whose ``status.json`` it checks.

On ``v6-tiny`` every prefix spans 2^80 or more addresses, so a sample
never lands on a host or on the hitlist.  The ``dense`` world's
prefixes hold 4 to 1,024 addresses, most of them hosts: there the
samples respond, collide with the hitlist and exhaust small prefixes.
"""

import json

import numpy as np
import pytest

from conftest import v6_draws
from repro import obs
from repro.bgp.table import Prefix, RoutingTable
from repro.census.loader import (
    CensusDataset,
    Snapshot,
    SnapshotSeries,
    Topology,
)
from repro.core.addrspace import V6
from repro.core.tass import TassStrategy
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy

WAVES = 4
INTERVAL = 2


def _dense_world(months: int = 3) -> CensusDataset:
    """Small v6 prefixes, densely populated, with monthly churn."""
    cidrs = {
        "2001:db8::/120": 0.6,
        "2001:db8::100/124": 0.8,
        "2001:db8:0:1::/118": 0.5,
        "2001:db8:0:2::/126": 0.75,
        "2001:db8:0:3::/112": 0.001,
    }
    prefixes = [Prefix.from_cidr(c) for c in cidrs]
    rng = np.random.default_rng(5)
    snapshots = []
    for month in range(months):
        hosts = set()
        for prefix, density in zip(prefixes, cidrs.values()):
            size = prefix.end - prefix.start
            count = max(1, int(size * density))
            offsets = rng.choice(size, size=count, replace=False)
            hosts.update(prefix.start + int(o) for o in offsets)
        values = V6.encode(sorted(hosts))
        snapshots.append(
            Snapshot(values, np.arange(len(hosts)),
                     np.zeros(len(hosts), dtype=np.int8), month=month)
        )
    series = {"http": SnapshotSeries("http", snapshots)}
    asns = {p: 64512 + i for i, p in enumerate(prefixes)}
    blocks = [(prefixes[0].start, prefixes[0].start + (1 << 96))]
    return CensusDataset(
        "dense-v6", 5, Topology(RoutingTable(prefixes), asns, blocks), series
    )


@pytest.fixture(scope="module", params=["v6-tiny", "dense"])
def dataset(request):
    if request.param == "dense":
        return _dense_world()
    return CensusDataset.generate("v6-tiny", seed=0)


@pytest.fixture(autouse=True)
def _quiet(monkeypatch):
    for knob in ("REPRO_FS_FAULT_PLAN", "REPRO_FAULT_PLAN",
                 "REPRO_CKPT_KEEP"):
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_OBS", "off")
    yield
    obs.take_executor_telemetry()


def _oracle(dataset, phi, samples, scan_seed) -> list[tuple[int, int]]:
    """``(probes_sent, responses)`` of every wave, from the definitions."""
    partition = dataset.topology.table.partition("less-specific")
    series = dataset.series_for("http")
    starts, ends = V6.decode(partition.starts), V6.decode(partition.ends)
    out = []
    for wave in range(WAVES):
        month = min(wave, len(series) - 1)
        if wave % INTERVAL == 0:
            chosen = TassStrategy(partition, phi=phi).plan(series[month])
            selected = sorted(int(i) for i in chosen.indices)
            seed_hosts = V6.decode(series[month].addresses.values)
        prefixes = [(starts[i], ends[i]) for i in selected]
        hitlist = {
            h for h in seed_hosts if any(s <= h < e for s, e in prefixes)
        }
        sampled = set()
        for i, (start, end) in enumerate(prefixes):
            size = end - start
            b, a = v6_draws(scan_seed + wave, i, size)
            sampled.update(
                start + (b + a * j) % size for j in range(min(size, samples))
            )
        probes = hitlist | sampled
        truth = set(V6.decode(series[month].addresses.values))
        out.append((len(probes), len(probes & truth)))
    return out


@pytest.mark.parametrize("samples", [0, 1, 64])
@pytest.mark.parametrize("shards", [1, 4])
def test_wave_totals_match_the_oracle(dataset, samples, shards, tmp_path):
    spec = CampaignSpec(
        preset="v6-tiny",
        family="v6",
        phi=0.9,
        waves=WAVES,
        reseed=ReseedPolicy("interval", interval=INTERVAL),
        shards=shards,
        executor="serial",
        samples_per_prefix=samples,
        scan_seed=11,
    )
    runner = CampaignRunner(spec, dataset=dataset, directory=tmp_path)
    runner.store.write_spec(runner.spec.to_dict())
    runner.run()
    status = json.loads((tmp_path / "status.json").read_text())
    got = [(w["probes_sent"], w["responses"]) for w in status["waves"]]
    assert got == _oracle(dataset, 0.9, samples, scan_seed=11)
    assert [w["reseeded"] for w in status["waves"]] == [
        w % INTERVAL == 0 for w in range(WAVES)
    ]


def test_dense_world_exercises_samples():
    """On the dense world, samples find hosts the hitlist lacks, land
    on hitlist addresses, and exhaust prefixes smaller than the budget;
    otherwise the oracle would not check them."""
    world = _dense_world()
    with_samples = _oracle(world, 0.9, 64, scan_seed=11)
    hitlist_only = _oracle(world, 0.9, 0, scan_seed=11)
    assert any(r > h for (_, r), (_, h) in zip(with_samples, hitlist_only))
    partition = world.topology.table.partition("less-specific")
    plan = TassStrategy(partition, phi=0.9).plan(world.series_for("http")[0])
    sizes = partition.sizes[plan.indices]
    assert (sizes < 64).any() and (sizes > 64).any()
    budget = int(np.minimum(sizes, 64).sum())
    (probes, _), (hitlist, _) = with_samples[0], hitlist_only[0]
    assert probes < hitlist + budget
