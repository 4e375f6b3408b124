"""Evaluation metrics: detection speedups, coverage speedups and increments.

The definitions follow the paper's evaluation (Sec. IV):

* **Detection speedup** (Table I) -- the ratio of the number of tests the
  baseline needs to first detect a vulnerability to the number of tests the
  MAB fuzzer needs, averaged over trials.
* **Coverage speedup** (Fig. 4, left axis) -- how many times fewer tests the
  MAB fuzzer needs to reach the baseline's end-of-campaign coverage.
* **Coverage increment** (Fig. 4, right axis) -- the relative increase in
  covered points at the end of the campaign, in percent.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.coverage.database import CoverageSample
from repro.fuzzing.results import FuzzCampaignResult


# ------------------------------------------------------------------ detection
def mean_detection_tests(results: Iterable[FuzzCampaignResult], bug_id: str,
                         censor_at: Optional[int] = None) -> Optional[float]:
    """Average tests-to-detection for ``bug_id`` over trials.

    Trials that never detected the bug are treated as censored at
    ``censor_at`` tests (default: the campaign length); if *no* trial
    detected the bug, ``None`` is returned.
    """
    values: List[float] = []
    any_detected = False
    for result in results:
        tests = result.detection_tests(bug_id)
        if tests is None:
            values.append(float(censor_at if censor_at is not None else result.num_tests))
        else:
            any_detected = True
            values.append(float(tests))
    if not values or not any_detected:
        return None
    return sum(values) / len(values)


def detection_speedup(baseline: Iterable[FuzzCampaignResult],
                      candidate: Iterable[FuzzCampaignResult],
                      bug_id: str,
                      censor_baseline: bool = True) -> Optional[float]:
    """Speedup of ``candidate`` over ``baseline`` in detecting ``bug_id``.

    Undetected trials are censored at their campaign length, so:

    * candidate missed, baseline detected -> conservative speedup < 1;
    * baseline missed, candidate detected -> a *lower bound* on the true
      speedup (> 1), provided ``censor_baseline`` is True;
    * neither detected -> ``None`` (no information).
    """
    baseline = list(baseline)
    candidate = list(candidate)
    base_tests = mean_detection_tests(baseline, bug_id)
    cand_tests = mean_detection_tests(
        candidate, bug_id,
        censor_at=max((r.num_tests for r in candidate), default=None))
    if base_tests is None:
        if not censor_baseline or cand_tests is None:
            return None
        base_tests = float(sum(r.num_tests for r in baseline) / len(baseline))
    if cand_tests is None:
        cand_tests = float(max(r.num_tests for r in candidate))
    return base_tests / cand_tests


# ------------------------------------------------------------------- coverage
def mean_coverage_curve(results: Sequence[FuzzCampaignResult],
                        num_samples: int = 50) -> List[CoverageSample]:
    """Average the coverage-vs-tests curves of several trials.

    The curves are sampled at ``num_samples`` evenly spaced test counts so
    that trials remain comparable.
    """
    results = list(results)
    if not results:
        return []
    horizon = min(r.num_tests for r in results)
    num_samples = min(num_samples, horizon)
    sample_points = [
        int(round((i + 1) * horizon / num_samples)) - 1 for i in range(num_samples)
    ]
    averaged = []
    for test_index in sample_points:
        mean_covered = sum(r.coverage_at(test_index) for r in results) / len(results)
        averaged.append(CoverageSample(test_index=test_index,
                                       covered=int(round(mean_covered))))
    return averaged


def coverage_speedup(baseline: Sequence[FuzzCampaignResult],
                     candidate: Sequence[FuzzCampaignResult]) -> float:
    """How many times fewer tests ``candidate`` needs to match ``baseline``'s coverage.

    The target is the baseline's mean end-of-campaign coverage.  If the
    candidate never reaches it, the roles are inverted on the candidate's
    final coverage, producing a value below 1.
    """
    baseline = list(baseline)
    candidate = list(candidate)
    if not baseline or not candidate:
        raise ValueError("both result sets must be non-empty")
    baseline_final = sum(r.coverage_count for r in baseline) / len(baseline)
    baseline_tests = sum(r.num_tests for r in baseline) / len(baseline)

    candidate_times = [r.tests_to_reach_coverage(int(baseline_final)) for r in candidate]
    if all(t is not None for t in candidate_times):
        mean_candidate = sum(candidate_times) / len(candidate_times)
        return baseline_tests / max(mean_candidate, 1.0)

    # Candidate never reached the baseline's coverage: measure how quickly
    # the baseline reaches the *candidate's* final coverage instead.
    candidate_final = sum(r.coverage_count for r in candidate) / len(candidate)
    candidate_tests = sum(r.num_tests for r in candidate) / len(candidate)
    baseline_times = [r.tests_to_reach_coverage(int(candidate_final)) for r in baseline]
    usable = [t for t in baseline_times if t is not None]
    if not usable:
        return 1.0
    mean_baseline = sum(usable) / len(usable)
    return mean_baseline / max(candidate_tests, 1.0)


def coverage_increment_percent(baseline: Sequence[FuzzCampaignResult],
                               candidate: Sequence[FuzzCampaignResult]) -> float:
    """Relative end-of-campaign coverage increase of ``candidate`` vs ``baseline`` (%)."""
    baseline = list(baseline)
    candidate = list(candidate)
    if not baseline or not candidate:
        raise ValueError("both result sets must be non-empty")
    baseline_final = sum(r.coverage_count for r in baseline) / len(baseline)
    candidate_final = sum(r.coverage_count for r in candidate) / len(candidate)
    if baseline_final == 0:
        return 0.0
    return 100.0 * (candidate_final - baseline_final) / baseline_final

