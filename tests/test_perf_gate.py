"""The perf gate's verdicts on synthetic perfbench records.

``scripts/perf_gate.py`` compares the best of each side's perfbench
runs per end-to-end metric against the metric's ``BENCHMARK.json``
bound; these tests drive its comparison functions directly, with no
subprocess and no timing.
"""

import pytest

from scripts import perf_gate

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "probes_per_s", "unit": "probes/s", "better": "higher",
        "bound": 0.25}


def record(wall_s=1.0, probes_per_s=1000.0, correct=True, failed=0,
           attempted=20):
    """The closing JSON line of one ``perfbench/run.py --trace 0`` run."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "probes_per_s": {"value": probes_per_s, "unit": "probes/s"},
        },
    }


def gate(base, head, metrics=(WALL, RATE)):
    return perf_gate.compare("v4-campaign", base, head, metrics)


def test_30pct_slower_wall_fails():
    rows, failures = gate([record(), record()], [record(1.3), record(1.3)])
    assert len(failures) == 1 and "wall_s" in failures[0]
    assert any("wall_s" in row and row.endswith("FAIL") for row in rows)


def test_10pct_slower_wall_passes():
    rows, failures = gate([record(), record()], [record(1.1), record(1.1)])
    assert failures == []
    assert len(rows) == 2 and all(row.endswith("ok") for row in rows)


def test_30pct_lower_rate_fails():
    slow = record(probes_per_s=700.0)
    _, failures = gate([record(), record()], [slow, slow])
    assert len(failures) == 1 and "probes_per_s" in failures[0]


def test_best_of_two_absorbs_one_noisy_head_run():
    noisy = record(wall_s=1.6, probes_per_s=600.0)
    _, failures = gate([record(), record()], [noisy, record(1.05)])
    assert failures == []


def test_incorrect_head_run_fails():
    _, failures = gate([record(), record()], [record(correct=False),
                                              record()])
    assert any("correct: false" in failure for failure in failures)


def test_higher_failed_share_fails():
    _, failures = gate(
        [record(failed=0), record(failed=1)],
        [record(failed=1), record(failed=1)],
    )
    assert len(failures) == 1 and "failed share" in failures[0]


def test_workload_missing_on_base_is_reported_not_failed():
    rows, failures = gate([None, None], [record(), record()])
    assert failures == []
    assert len(rows) == 1 and "no base run" in rows[0]


def test_crashed_head_run_fails():
    _, failures = gate([record(), record()], [None, record()])
    assert any("exited non-zero" in failure for failure in failures)


@pytest.mark.parametrize("ratio, passes", [(1.06, False), (1.04, True)])
def test_overhead_bound(ratio, passes):
    off = [1.0, 0.9, 1.1]
    _, failures = perf_gate.overhead(off, [t * ratio for t in off])
    assert (failures == []) == passes


def test_overhead_fails_on_wrong_output():
    _, failures = perf_gate.overhead([1.0], [1.0], wrong=1)
    assert len(failures) == 1


def test_committed_metrics_are_gateable():
    workloads, metrics, seconds = perf_gate.load_benchmark()
    assert perf_gate.OVERHEAD_WORKLOAD in workloads
    assert seconds > 0
    for metric in metrics:
        assert metric["better"] in perf_gate.BEST, metric
        assert 0 < metric["bound"] < 1, metric
