"""Tests of the performance gate's decision (benchmarks/perf_gate.py).

The gate's runs take minutes, so only its pure parts are tested here, on
fixed samples: no subprocess, no timing.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_gate",
    Path(__file__).resolve().parents[1] / "benchmarks" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

#: ten parent samples with median 1000 and quartile distance 30 (3%).
PARENT = (960.0, 985.0, 985.0, 990.0, 995.0, 1005.0, 1010.0, 1015.0, 1015.0, 1040.0)


def _run(tests_per_s, code=0, correct=True):
    """A run as ``run_perfbench`` returns it: exit code, last line parsed."""
    metrics = {"tests_per_s": tests_per_s, "setup_s": 0.3,
               "peak_rss_mb": 60.0, "coverage_points": 4000}
    return code, {"correct": correct, "attempted": 15, "failed": 0,
                  "metrics": {name: {"value": value, "unit": "-"}
                              for name, value in metrics.items()}}


def _runs(samples):
    return [_run(value) for value in samples]


def test_parent_samples_have_a_three_percent_quartile_distance():
    q1, median, q3 = perf_gate.quartiles(PARENT)
    assert median == 1000.0
    assert q3 - q1 == pytest.approx(30.0)


def test_identical_samples_pass():
    assert perf_gate.decide("rocket-v7", _runs(PARENT), _runs(PARENT)) == []


def test_a_change_ten_percent_slower_fails():
    slower = [0.9 * value for value in PARENT]
    problems = perf_gate.decide("cva6-csr", _runs(PARENT), _runs(slower))
    assert len(problems) == 1
    assert problems[0].startswith("cva6-csr: the change's median 900.0 tests/s")


def test_a_change_within_the_parents_quartile_distance_passes():
    slower = [0.98 * value for value in PARENT]
    assert perf_gate.decide("rocket-v7", _runs(PARENT), _runs(slower)) == []


def test_a_failed_run_fails_and_is_named():
    change = _runs(PARENT)
    change[3] = (1, None)
    parent = _runs(PARENT)
    parent[6] = _run(1000.0, code=1, correct=False)
    parent[8] = _run(1000.0, correct=False)
    assert perf_gate.decide("rocket-v7", parent, change) == [
        "rocket-v7 pair 6: the parent run exited 1",
        'rocket-v7 pair 8: the parent run printed no "correct": true',
        "rocket-v7 pair 3: the change run exited 1",
    ]


def test_pair_runs_the_parent_first_iff_even():
    assert [perf_gate.order(pair) for pair in range(4)] == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent")]


def test_report_counts_the_pairs_the_change_won():
    change = _runs(PARENT)
    change[0] = _run(PARENT[0] + 1)
    change[1] = _run(PARENT[1] - 1)
    lines = perf_gate.report("rocket-v7", _runs(PARENT), change)
    assert "| parent | 1000.0 [985.0, 1015.0] | 0.3 | 60 | 4000 |" in lines
    assert "The change won 1 of 10 pairs: pass." in lines
