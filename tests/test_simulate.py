"""simulate_campaign hitrate accounting (no dataset fixture)."""

import numpy as np
import pytest

from repro.bgp.table import Partition, Prefix
from repro.census.addrset import AddressSet
from repro.core.simulate import Campaign, simulate_campaign
from repro.core.tass import TassStrategy


class _Snapshot:
    def __init__(self, values):
        self.addresses = AddressSet(values)


class _Series:
    def __init__(self, snapshots):
        self._snapshots = list(snapshots)

    @property
    def seed_snapshot(self):
        return self._snapshots[0]

    def __iter__(self):
        return iter(self._snapshots)

    def __len__(self):
        return len(self._snapshots)


def _partition():
    return Partition.from_prefixes(
        [Prefix.from_cidr("10.0.0.0/24"), Prefix.from_cidr("10.1.0.0/24")]
    )


_BASE0 = Prefix.from_cidr("10.0.0.0/24").network
_BASE1 = Prefix.from_cidr("10.1.0.0/24").network


def test_hitrate_accounting_month_by_month():
    partition = _partition()
    # Seed: 4 hosts in prefix 0, 1 in prefix 1 -> phi=0.8 selects only 0.
    seed = _Snapshot([_BASE0 + i for i in range(4)] + [_BASE1])
    # Month 1: half the population left the selection.
    month1 = _Snapshot([_BASE0, _BASE0 + 1, _BASE1, _BASE1 + 1])
    # Month 2: everyone inside the selection again.
    month2 = _Snapshot([_BASE0 + 7, _BASE0 + 8])
    strategy = TassStrategy(partition, phi=0.8)
    campaign = simulate_campaign(strategy, _Series([seed, month1, month2]))
    assert campaign.hitrates() == [pytest.approx(0.8), 0.5, 1.0]
    assert campaign.final_hitrate() == 1.0
    assert campaign.decay_per_month() == pytest.approx((1.0 - 0.8) / 2)
    assert campaign.total_probes() == 3 * 256  # one /24, three months
    assert campaign.selection.probe_count() == 256


def test_empty_months_count_as_zero_hitrate():
    partition = _partition()
    seed = _Snapshot([_BASE0])
    campaign = simulate_campaign(
        TassStrategy(partition, phi=1.0), _Series([seed, _Snapshot([])])
    )
    assert campaign.hitrates() == [1.0, 0.0]


def test_campaign_without_probe_costs():
    campaign = Campaign([0.5], selection=None)
    assert campaign.total_probes() == 0
    assert campaign.decay_per_month() == 0.0
