"""Golden regression tests: paper outputs snapshotted on the tiny preset.

Each pass of :data:`repro.analysis.PASSES` is written through the
function ``python -m repro.analysis`` uses and diffed against its
committed snapshot under ``tests/golden/``, so refactors (counting
changes, sharded execution, vectorization changes) cannot silently
change the numbers the reproduction reports.  To regenerate after an
*intentional* change::

    PYTHONPATH=src python -m repro.analysis --preset tiny --out tests/golden
"""

from pathlib import Path

import pytest

from repro.analysis import PASSES, write_passes
from repro.analysis.__main__ import main
from repro.census.loader import get_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def tiny_dataset():
    return get_dataset(preset="tiny", seed=0)


@pytest.mark.parametrize("name", sorted(PASSES))
def test_output_matches_golden(name, tiny_dataset, tmp_path):
    (path,) = write_passes(tiny_dataset, tmp_path, [name])
    assert path.read_text() == (GOLDEN_DIR / path.name).read_text(), (
        f"{name} output changed; if intentional, regenerate with "
        "`PYTHONPATH=src python -m repro.analysis --preset tiny "
        "--out tests/golden`"
    )


def test_cli_writes_the_named_passes(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--preset", "tiny", "--out", str(out), "figure4", "table1"]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "figure4.txt", "table1.txt"
    ]
    for path in out.iterdir():
        assert path.read_text() == (GOLDEN_DIR / path.name).read_text()
    assert capsys.readouterr().out.splitlines() == [
        f"{out / 'figure4.txt'}  {PASSES['figure4'].paper}",
        f"{out / 'table1.txt'}  {PASSES['table1'].paper}",
    ]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["figure7"], "unknown pass(es): figure7"),
        (["--preset", "huge"], "unknown preset 'huge'"),
        (["--preset", "v6-tiny"], "preset 'v6-tiny' is v6"),
    ],
)
def test_cli_refuses_bad_input_before_writing(tmp_path, capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "out"), *argv])
    assert exc.value.code == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_golden_dir_holds_one_file_per_pass():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(PASSES)


def test_perfbench_runs_the_registry_in_order():
    # perfbench keeps its own pass list; its order sets the count-cache
    # hits of the ``paper-analysis`` workload, so it must not drift.
    from perfbench.workloads import PASSES as PERFBENCH_PASSES

    assert [(module, stem) for _, module, stem in PERFBENCH_PASSES] == [
        (entry.run.split(":")[0], name) for name, entry in PASSES.items()
    ]


def test_readme_table_lists_every_pass():
    readme = (GOLDEN_DIR.parents[1] / "README.md").read_text()
    for name, entry in PASSES.items():
        assert f"| `{name}.txt` | {entry.paper} |" in readme, name
