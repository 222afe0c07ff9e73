"""Analysis layer: regeneration of every figure and table of the paper.

:data:`PASSES` is the one ordered list of the paper's analysis passes.
Each entry names the pass's ``"module:run_*"`` and ``"module:render_*"``
functions and the paper item it reproduces.  The functions are named by
strings, so the list can be handed to a tree that predates it.  A
pass's name is the stem of its rendered file: :func:`write_passes` writes
``<out>/<name>.txt`` as ``render(run(dataset)) + "\\n"``, the format of
``tests/golden/``.  ``python -m repro.analysis`` is the command-line
front end.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import NamedTuple

__all__ = ["PASSES", "Pass", "write_passes"]


class Pass(NamedTuple):
    run: str
    render: str
    paper: str


#: Pass name (the stem of its functions and of its file) -> :class:`Pass`.
PASSES: dict[str, Pass] = {
    stem: Pass(f"repro.analysis.{module}:run_{stem}",
               f"repro.analysis.{module}:render_{stem}", paper)
    for module, stem, paper in (
        ("table1", "table1", "Table 1: space coverage per phi"),
        ("figure1", "figure1", "Figure 1: scanning scopes"),
        ("figure2", "figure2", "Figure 2: prefix deaggregation"),
        ("figure3", "figure3", "Figure 3: hosts per prefix length"),
        ("figure4", "figure4", "Figure 4: density-ranked coverage"),
        ("figure5", "figure5", "Figure 5: hitlist hitrate over time"),
        ("figure6", "figure6", "Figure 6: TASS hitrate over time"),
        ("section34", "section34", "§3.4: headline statistics (FTP)"),
        ("efficiency", "efficiency",
         "§1/§4: efficiency against full scans"),
        ("missed", "missed_hosts", "§5: found vs missed hosts"),
        ("reseeding", "reseeding", "TASS step 5: re-seed interval sweep"),
        ("adaptive", "adaptive",
         "adaptive TASS: exploring unselected space"),
        ("churn_decomposition", "churn_decomposition",
         "§2: decomposition of hitlist loss"),
    )
}


def _resolve(ref: str):
    module, name = ref.split(":")
    return getattr(importlib.import_module(module), name)


def write_passes(dataset, out, names=PASSES) -> list[Path]:
    """Write ``<out>/<name>.txt`` for each pass in ``names``; returns the
    paths written, in order."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in names:
        entry = PASSES[name]
        text = _resolve(entry.render)(_resolve(entry.run)(dataset))
        path = out / f"{name}.txt"
        path.write_text(text + "\n")
        paths.append(path)
    return paths
