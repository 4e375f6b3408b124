"""Integer-bitset coverage: stable bit indices for coverage points.

String-named coverage points (:mod:`repro.coverage.points`) are what a
person reads and what crosses a process boundary, but inside a process a
test's coverage is an ``int`` *mask* from the DUT to the bandit.  This
module maps every point name onto a process-global **bit index**, so a
commit's coverage observation collapses to ``cov |= mask`` and every
campaign-level set operation (new-to-the-campaign, new-to-the-arm, novel
to the corpus) is integer ``&``/``|``/``~`` plus ``int.bit_count()``:

* a point receives its bit the first time it is registered (a DUT's
  coverage space is registered when its per-process memo is built,
  emission helpers register lazily on first observation), and keeps it for
  the life of the process -- masks memoised anywhere stay valid forever;
* a *mask* is an ``int`` with one bit per point, memoised by a bounded
  situation key at each emission site (point names are built only on a
  memo miss); and
* :func:`points_of` expands a mask back into the canonical ``frozenset``
  of point names.  It runs only at the boundary: wire and journal
  payloads, corpus ``to_dict``, ``CoverageDatabase.covered``, trial-end
  metadata and tests -- never once per test in the fuzzing loop.

Bit assignment depends on registration order and therefore differs between
processes; that is deliberate and safe, because masks never cross a process
boundary -- only sorted point-name lists do (they are what the trial wire
format, the journal and corpus payloads carry), which keeps
serial/pool/distributed results bit-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class PointBitIndex:
    """Append-only point-name <-> bit-index registry."""

    __slots__ = ("_bits", "_points")

    def __init__(self) -> None:
        self._bits: Dict[str, int] = {}
        self._points: List[str] = []

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
        """Expand a coverage mask into its point names.

        One pass over the mask's binary digits: ``str.find`` jumps from one
        set bit to the next, so the cost is linear in the mask width plus
        the number of points, without a big-integer operation per bit.
        """
        names = self._points
        digits = bin(cov)[:1:-1]  # digits[i] is bit i
        out = []
        index = digits.find("1")
        while index >= 0:
            out.append(names[index])
            index = digits.find("1", index + 1)
        return frozenset(out)

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
