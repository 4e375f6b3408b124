"""Integer-bitset coverage: stable bit indices for coverage points.

String-named coverage points (:mod:`repro.coverage.points`) are ideal for
debugging, serialisation and set algebra at campaign granularity -- but on
the *per-commit* hot path of the DUT harness, building and set-inserting
tuples of strings is the dominant cost of an instrumented run.  This module
maps every point name onto a process-global **bit index** so a commit's
coverage observation collapses to ``cov |= mask`` on plain integers:

* a point receives its bit the first time it is registered (model
  construction registers whole coverage spaces up front, emission helpers
  register lazily on first observation), and keeps it for the life of the
  process -- masks memoised anywhere stay valid forever;
* a *mask* is an ``int`` with one bit per point of an emission situation,
  memoised by a bounded situation key at each emission site (point names
  are built only on a memo miss); and
* ``points_of`` materialises an accumulated coverage integer back into the
  canonical ``frozenset`` of point names -- deferred to *result*
  construction (once per run), so nothing downstream of
  :class:`~repro.rtl.harness.DutRunResult` changes.

Bit assignment depends on registration order and therefore differs between
processes; that is deliberate and safe, because masks never cross a process
boundary -- only the materialised point-name sets do (they are what the
trial wire format serialises), which keeps serial/pool/distributed results
bit-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class PointBitIndex:
    """Append-only point-name <-> bit-index registry."""

    __slots__ = ("_bits", "_points", "_materialised")

    #: bound on the coverage-int -> frozenset memo (see :meth:`points_of`).
    _MATERIALISED_MAX = 4096

    def __init__(self) -> None:
        self._bits: Dict[str, int] = {}
        self._points: List[str] = []
        self._materialised: Dict[int, frozenset] = {}

    def bit(self, point: str) -> int:
        """The stable bit index of ``point`` (assigned on first use)."""
        index = self._bits.get(point)
        if index is None:
            index = self._bits[point] = len(self._points)
            self._points.append(point)
        return index

    def mask(self, points: Iterable[str]) -> int:
        """One-bit-per-point mask for ``points`` (registering as needed)."""
        value = 0
        bits = self._bits
        for point in points:
            index = bits.get(point)
            if index is None:
                index = self.bit(point)
            value |= 1 << index
        return value

    def points_of(self, cov: int) -> frozenset:
        """Materialise an accumulated coverage integer back into point names.

        Memoised by the coverage integer itself: campaigns and benchmarks
        re-run identical programs constantly (bandit arms replay seeds,
        duplicate mutants are common), and identical runs accumulate the
        identical bitset, so the ~kilobit-to-frozenset expansion is paid
        once per distinct outcome instead of once per run.  Safe because
        bit assignments are append-only for the life of the process.  The
        memo is bounded; a wipe only costs re-materialisation.
        """
        cached = self._materialised.get(cov)
        if cached is not None:
            return cached
        names = self._points
        out = []
        bits = cov
        while bits:
            low = bits & -bits
            out.append(names[low.bit_length() - 1])
            bits ^= low
        result = frozenset(out)
        if len(self._materialised) >= self._MATERIALISED_MAX:
            self._materialised.clear()
        self._materialised[cov] = result
        return result

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, point: str) -> bool:
        return point in self._bits


#: the process-global registry every emission site shares.  A single index
#: keeps masks for the DUT-independent families (decode/operand/trap/...)
#: shareable between DUT models instead of per-space.
GLOBAL_BITS = PointBitIndex()

#: module-level fast paths bound once (one attribute load per call site).
point_bit = GLOBAL_BITS.bit
mask_of = GLOBAL_BITS.mask
points_of = GLOBAL_BITS.points_of


def point_mask(*parts: object) -> int:
    """Single-point mask for ``coverage_point(*parts)`` (table-builder helper)."""
    from repro.coverage.points import coverage_point

    return 1 << point_bit(coverage_point(*parts))
