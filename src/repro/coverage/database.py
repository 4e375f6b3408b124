"""Cumulative coverage database for a fuzzing campaign.

Tracks which points have been covered so far, which test first covered each
point, and the coverage-vs-tests curve -- the raw material for Fig. 3 and
for the reward computation (global-new points).

Coverage is an ``int`` mask throughout (:mod:`repro.coverage.bitset`);
point names are built only for readers (:attr:`CoverageDatabase.covered`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.coverage.bitset import GLOBAL_BITS, point_bit, points_of
from repro.utils.wire import Record


@dataclass(frozen=True)
class CoverageSample(Record):
    """One point of the coverage-versus-tests curve (a wire record)."""

    test_index: int
    covered: int


class CoverageDatabase:
    """Campaign-level cumulative coverage bookkeeping.

    ``space_mask`` (the DUT's coverage space) rejects points outside it;
    ``None`` accepts any point.
    """

    def __init__(self, space_mask: Optional[int] = None) -> None:
        self.space_mask = space_mask
        self.covered_mask = 0
        self._covered_count = 0
        #: ``(test_index, new-point mask)`` of every test that added points.
        self._first_hits: List[Tuple[int, int]] = []
        self._curve: List[CoverageSample] = []

    # ------------------------------------------------------------------ updates
    def record(self, test_index: int, coverage: int) -> int:
        """Record the coverage mask of one executed test.

        Returns the mask of the *globally new* points this test contributed
        (truthy exactly when the test added points).
        """
        new = coverage & ~self.covered_mask
        if new:
            space = self.space_mask
            if space is not None and new & ~space:
                outside = sorted(points_of(new & ~space))
                raise ValueError(
                    f"coverage points outside the DUT space: {outside[:5]}")
            self.covered_mask |= new
            self._covered_count += new.bit_count()
            self._first_hits.append((test_index, new))
        self._curve.append(CoverageSample(test_index, self._covered_count))
        return new

    # ------------------------------------------------------------------ queries
    @property
    def covered(self) -> frozenset:
        """The covered points as names (built on every access)."""
        return points_of(self.covered_mask)

    @property
    def covered_count(self) -> int:
        return self._covered_count

    def is_covered(self, point: str) -> bool:
        return self.first_hit(point) is not None

    def first_hit(self, point: str) -> Optional[int]:
        """Index of the test that first covered ``point`` (or ``None``)."""
        if point not in GLOBAL_BITS:
            return None
        bit = 1 << point_bit(point)
        for test_index, new in self._first_hits:
            if new & bit:
                return test_index
        return None

    def percent(self) -> float:
        """Covered percentage of the space (requires a known space)."""
        if not self.space_mask:
            raise ValueError("coverage space unknown; cannot compute percent")
        return 100.0 * self._covered_count / self.space_mask.bit_count()

    def curve(self) -> List[CoverageSample]:
        """The full coverage-vs-tests curve (one sample per recorded test)."""
        return list(self._curve)

    def curve_at(self, test_indices: Iterable[int]) -> List[CoverageSample]:
        """Downsample the curve at the given test indices."""
        samples = []
        curve = self._curve
        for target in test_indices:
            covered = 0
            for sample in curve:
                if sample.test_index <= target:
                    covered = sample.covered
                else:
                    break
            samples.append(CoverageSample(target, covered))
        return samples

    def tests_to_reach(self, target_covered: int) -> Optional[int]:
        """Number of tests needed to reach ``target_covered`` points (or ``None``)."""
        for sample in self._curve:
            if sample.covered >= target_covered:
                return sample.test_index + 1
        return None
