"""Wave compilation, reseed policy, and the shared per-wave cores.

The orchestrator and the analysis layer answer the same per-wave
questions — how well does the current selection cover this month's
population, what does holding vs re-seeding cost, where should an
exploration budget go — so the cores live here, importable by both:
:mod:`repro.analysis.adaptive` and :mod:`repro.analysis.reseeding`
build their figures from these functions, and
:class:`~repro.orchestrator.campaign.CampaignRunner` drives real
(simulated) scans through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Module-level on purpose: this feeds per-wave hot loops, which must
# not pay an import-machinery lookup per wave.
from repro.bgp.backends import COUNT_CACHE

__all__ = [
    "RESEED_MODES",
    "ReseedPolicy",
    "WavePlan",
    "compile_waves",
    "selection_stats",
    "explore_unselected",
    "hold_or_reseed",
]

RESEED_MODES = ("never", "interval", "hitrate")

#: :func:`explore_unselected` buckets coordinate ``c`` as ``c >> shift``
#: into a 2^16-entry (64 KiB) bool table, the shift being the smallest
#: that fits the unselected space.
_BUCKET_BITS = 16


# ---------------------------------------------------------------------------
# Reseed policy and static wave compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReseedPolicy:
    """When does a campaign re-derive its selection from a fresh census?

    - ``never``    — the wave-0 selection is kept for the whole campaign;
    - ``interval`` — re-seed every ``interval`` waves (0 = never);
    - ``hitrate``  — re-seed whenever the previous wave's achieved
      hitrate fell below ``min_hitrate`` (the adaptive trigger: the
      response/missed accounting of one wave drives the next).
    """

    mode: str = "interval"
    interval: int = 0
    min_hitrate: float = 0.0

    def __post_init__(self):
        if self.mode not in RESEED_MODES:
            raise ValueError(
                f"unknown reseed mode {self.mode!r}; "
                f"choose one of {RESEED_MODES}"
            )
        if self.interval < 0:
            raise ValueError("reseed interval must be >= 0")
        if not 0.0 <= self.min_hitrate <= 1.0:
            raise ValueError("min_hitrate must be in [0, 1]")

    def decide(self, wave: int, previous_hitrate: float | None) -> bool:
        """Re-seed at ``wave``?  Wave 0 always seeds."""
        if wave == 0:
            return True
        if self.mode == "never":
            return False
        if self.mode == "interval":
            return self.interval > 0 and wave % self.interval == 0
        return (
            previous_hitrate is not None
            and previous_hitrate < self.min_hitrate
        )

    def static_schedule(self) -> bool:
        """Is the reseed schedule known before the campaign runs?"""
        return self.mode != "hitrate"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "interval": self.interval,
            "min_hitrate": self.min_hitrate,
        }


@dataclass(frozen=True)
class WavePlan:
    """The static part of one wave: which month it scans, reseed intent.

    ``reseed`` is ``None`` when the decision is runtime-conditional
    (the ``hitrate`` policy) — the runner resolves it from the previous
    wave's accounting.
    """

    wave: int
    month: int
    reseed: bool | None


def compile_waves(waves: int, months: int, policy: ReseedPolicy):
    """Compile a campaign spec into its static wave sequence.

    Wave ``w`` scans the census month ``min(w, months - 1)`` — a
    campaign longer than the dataset keeps scanning the last month's
    population rather than wrapping back to the (stale) seed.
    """
    if waves < 1:
        raise ValueError("a campaign needs at least one wave")
    if months < 1:
        raise ValueError("a campaign needs at least one census month")
    static = policy.static_schedule()
    return [
        WavePlan(
            wave=w,
            month=min(w, months - 1),
            reseed=policy.decide(w, None) if static or w == 0 else None,
        )
        for w in range(waves)
    ]


# ---------------------------------------------------------------------------
# Per-wave cores (shared with repro.analysis.adaptive / .reseeding)
# ---------------------------------------------------------------------------


def selection_stats(partition, selected, values):
    """(responsive addresses found, probe cost) of a masked selection.

    Counts via the full-partition pass so immutable snapshot arrays
    hit :data:`~repro.bgp.backends.COUNT_CACHE` — every masked query
    against the same snapshot (static vs adaptive, wave after wave)
    reduces to a masked sum over one shared counting pass.
    """
    found = COUNT_CACHE.counts(partition, values)[selected].sum()
    return int(found), int(partition.sizes[selected].sum())


def explore_unselected(rng, partition, selected, values, n):
    """Spend an ``n``-probe exploration budget on the unselected space.

    Draws ``n`` uniform probes over the unselected space's flat
    coordinates ``[0, total)`` (unselected prefixes end to end, in
    address order) and scores each against the responsive ``values``
    (sorted ascending) that fall there.  Returns ``(probe_count,
    unique_hits, fresh_indices)``, both arrays sorted — the caller
    decides whether to absorb (``selected[fresh_indices] = True``).

    Memory is fixed, whatever the unselected space's size: each host's
    coordinate marks one of 2^16 buckets, and only the draws that land
    in a marked bucket are matched exactly.
    """
    unselected = np.flatnonzero(~selected)
    sizes = partition.sizes[unselected]
    total = int(sizes.sum())
    empty = np.empty(0, dtype=np.int64)
    if total == 0 or n == 0:
        return 0, empty, empty
    draws = rng.integers(0, total, size=n)
    # Each unselected prefix's responsive hosts are one slice of the
    # sorted values; a host's coordinate is its offset within its
    # prefix plus the prefix's cumulative-size offset.
    lo = np.searchsorted(values, partition.starts[unselected])
    counts = np.searchsorted(values, partition.ends[unselected]) - lo
    owner = np.repeat(np.arange(len(unselected)), counts)
    rows = np.arange(len(owner)) + (lo - (np.cumsum(counts) - counts))[owner]
    hosts = values[rows]
    offsets = np.cumsum(sizes) - sizes
    coords = hosts + (offsets - partition.starts[unselected])[owner]
    shift = max(0, (total - 1).bit_length() - _BUCKET_BITS)
    marked = np.zeros(1 << _BUCKET_BITS, dtype=bool)
    marked[coords >> shift] = True
    drawn = np.sort(draws[marked[draws >> shift]])
    drawn = drawn[_first_of_runs(drawn)]
    # Coordinates rise with the hosts, so coords is sorted.
    at = np.searchsorted(coords, drawn).clip(max=len(coords) - 1)
    at = at[coords[at] == drawn]
    parts = unselected[owner[at]]
    return n, hosts[at], parts[_first_of_runs(parts)]


def _first_of_runs(sorted_values):
    """Mask of the first element of each run of equal values in a sorted
    array: ``np.unique``'s dedupe, which under NumPy 2.4 costs ~20x a
    sort plus this mask on int64."""
    keep = np.ones(len(sorted_values), dtype=bool)
    keep[1:] = sorted_values[1:] != sorted_values[:-1]
    return keep


def hold_or_reseed(strategy, selection, snapshot, reseed, announced):
    """One campaign wave of the paper's step-5 accounting.

    Re-seeding scans the whole announced space (``announced`` probes)
    — which both measures everything (hitrate 1.0) and re-derives the
    selection for later waves.  Holding scans the current selection
    only.  Returns ``(selection, probes, hitrate)``.
    """
    if reseed:
        return strategy.plan(snapshot), announced, 1.0
    values = snapshot.addresses.values
    rate = selection.count_in(values) / len(values) if len(values) else 0.0
    return selection, selection.probe_count(), rate
