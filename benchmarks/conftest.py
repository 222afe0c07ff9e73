"""Dataset-scale checks of the simulator on the seed-0 ``small`` preset.

The paper's passes live in ``repro.analysis.PASSES`` and their shapes in
``tests/test_paper_shapes.py``; what stays here re-asserts the
simulator's invariants (counting backends agree, results do not depend
on shard count, executor or checkpointing) on a generated preset rather
than the hand-built worlds of ``tests/``.  Nothing here is timed:
perfbench measures speed.  The first run generates and caches the
dataset under ``data/``.
"""

from __future__ import annotations

import pytest

from repro.census.loader import get_dataset


@pytest.fixture(scope="session")
def dataset():
    return get_dataset(preset="small", seed=0)
