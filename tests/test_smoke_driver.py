"""``scripts/smoke.py``: its arms are the CI matrix, and a bad command
line exits 2 before any campaign starts.

No campaign runs here: CI's ``smoke`` and ``identity-smoke`` jobs run
the arms.
"""

import re
import subprocess
from pathlib import Path

import pytest

from scripts import smoke

CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def test_ci_runs_every_arm_of_the_driver():
    text = CI.read_text()
    matrix = re.findall(r"^\s+arm: \[(.*)\]$", text, re.M)
    assert len(matrix) == 1, "one smoke job with one arm matrix"
    arms = [arm.strip() for arm in matrix[0].split(",")]
    identity = re.findall(r"python scripts/smoke\.py identity \S+", text)
    assert len(identity) == 1, "one identity-smoke job"
    assert len(set(arms)) == len(arms)
    assert arms + ["identity"] == list(smoke.ARMS)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no_such_arm"],
        ["orchestrator", "no_such_arm"],
        ["identity"],
        ["orchestrator", "identity"],
        ["identity", "base", "tiny", "v6-tiny", "extra"],
    ],
    ids=["none", "unknown", "one-unknown", "identity-no-base",
         "identity-not-alone", "identity-too-many"],
)
def test_bad_command_line_exits_2_before_any_campaign(
    argv, capsys, monkeypatch
):
    def no_process(*args, **kwargs):
        raise AssertionError("the driver started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(subprocess, "check_output", no_process)
    with pytest.raises(SystemExit) as exc:
        smoke.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: smoke.py ARM")
