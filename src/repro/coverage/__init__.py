"""Coverage substrate: points, bitsets, CSR transitions and the database.

The paper uses *branch coverage* reported by the RTL simulator as its
feedback and comparison metric (Sec. IV-A).  Here every modelled
microarchitectural decision in a DUT is a named *coverage point*; a test's
coverage is the set of points its execution hit.
"""

from repro.coverage.points import coverage_point, parse_point
from repro.coverage.csr_transitions import (
    COVERAGE_MODELS,
    TRANSITION_TABLE,
    CsrTransitionTracker,
    is_transition_point,
    transition_point,
)
from repro.coverage.database import CoverageDatabase, CoverageSample

__all__ = [
    "coverage_point",
    "parse_point",
    "COVERAGE_MODELS",
    "CsrTransitionTracker",
    "is_transition_point",
    "transition_point",
    "TRANSITION_TABLE",
    "CoverageDatabase",
    "CoverageSample",
]
