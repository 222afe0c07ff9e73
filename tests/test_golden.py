"""Golden regression tests: paper outputs snapshotted on the tiny preset.

Each rendered figure/table is diffed against a committed snapshot under
``tests/golden/`` so refactors (counting changes, sharded
execution, vectorization changes) cannot silently change the numbers
the reproduction reports.  To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py
"""

import os
from pathlib import Path

import pytest

from repro.analysis.adaptive import render_adaptive, run_adaptive
from repro.analysis.churn_decomposition import (
    render_churn_decomposition,
    run_churn_decomposition,
)
from repro.analysis.efficiency import render_efficiency, run_efficiency
from repro.analysis.figure1 import render_figure1, run_figure1
from repro.analysis.figure2 import render_figure2, run_figure2
from repro.analysis.figure3 import render_figure3, run_figure3
from repro.analysis.figure4 import render_figure4, run_figure4
from repro.analysis.figure5 import render_figure5, run_figure5
from repro.analysis.figure6 import render_figure6, run_figure6
from repro.analysis.missed import render_missed_hosts, run_missed_hosts
from repro.analysis.reseeding import render_reseeding, run_reseeding
from repro.analysis.section34 import render_section34, run_section34
from repro.analysis.table1 import render_table1, run_table1
from repro.census.loader import get_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "figure1": (run_figure1, render_figure1),
    "figure2": (run_figure2, render_figure2),
    "figure3": (run_figure3, render_figure3),
    "figure4": (run_figure4, render_figure4),
    "figure5": (run_figure5, render_figure5),
    "figure6": (run_figure6, render_figure6),
    "table1": (run_table1, render_table1),
    "section34": (run_section34, render_section34),
    "efficiency": (run_efficiency, render_efficiency),
    "missed_hosts": (run_missed_hosts, render_missed_hosts),
    "reseeding": (run_reseeding, render_reseeding),
    "adaptive": (run_adaptive, render_adaptive),
    "churn_decomposition": (
        run_churn_decomposition,
        render_churn_decomposition,
    ),
}


@pytest.fixture(scope="module")
def tiny_dataset():
    return get_dataset(preset="tiny", seed=0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tiny_dataset):
    run, render = CASES[name]
    text = render(run(tiny_dataset)) + "\n"
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden snapshot {path}; regenerate with "
        "REPRO_UPDATE_GOLDEN=1"
    )
    assert text == path.read_text(), (
        f"{name} output changed; if intentional, regenerate goldens with "
        "REPRO_UPDATE_GOLDEN=1"
    )

