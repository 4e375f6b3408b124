"""Reusable microarchitectural components for the DUT models.

Each component declares its coverage family once, as its ``table``: a dict
from every observable situation key to the mask (:mod:`repro.coverage.
bitset`) of the points that situation hits.  Its ``*_mask`` runtime
methods (``access_mask``/``update_mask``/``observe_mask``) update the
component's state for one event and return that event's table entry, so
recording coverage is a dict get plus an ``|=``; the component's points
are the table's :func:`~repro.coverage.bitset.union`, which is how the
DUT's coverage space counts them.

Components model state at the granularity needed for realistic coverage
structure (set-indexed caches with dirty evictions, a bimodal branch
predictor, register-hazard tracking, functional-unit corner cases), not at
cycle accuracy: the fuzzers only consume coverage and architectural state.

A table is built whole on first use per (name, size), and shared by every
instance: components are built fresh for every program run, so a
per-instance table would re-pay the string building each run.  The DUT
models follow the same rule one level up: a trial builds a fresh model, so
a model's coverage space, its mask and its structural tables are
per-process memos too (:mod:`repro.rtl.harness`).
"""

from __future__ import annotations

from functools import cache
from typing import Dict, List, Optional, Tuple

from repro.coverage.bitset import point_mask
from repro.isa.encoding import InstrClass
from repro.utils.bits import to_signed


@cache
def _cache_table(name: str, num_sets: int) -> Dict[Tuple, int]:
    """(is_store, set index, hit, victim_dirty) -> mask of one access;
    ``victim_dirty`` is ``None`` unless a miss evicted a line."""
    table = {}
    for is_store in (False, True):
        access = point_mask(name, "access", "store" if is_store else "load")
        for index in range(num_sets):
            table[is_store, index, True, None] = (
                access | point_mask(name, f"set{index}", "hit"))
            miss = access | point_mask(name, f"set{index}", "miss")
            table[is_store, index, False, None] = miss
            evict = miss | point_mask(name, f"set{index}", "evict")
            for dirty in (False, True):
                table[is_store, index, False, dirty] = evict | point_mask(
                    name, "writeback", "dirty" if dirty else "clean")
    return table


class CacheModel:
    """A set-associative write-back cache emitting per-set hit/miss/evict points."""

    def __init__(self, name: str, num_sets: int = 64, ways: int = 2,
                 line_bytes: int = 64) -> None:
        if num_sets <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache parameters must be positive")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.table = _cache_table(name, num_sets)
        # Per set: list of (tag, dirty) in LRU order (front = most recent).
        self._sets: Dict[int, List[Tuple[int, bool]]] = {}

    def reset(self) -> None:
        self._sets.clear()

    def _touch(self, address: int,
               is_store: bool) -> Tuple[int, bool, Optional[bool]]:
        """Update cache state for one access.

        Returns ``(set index, hit, victim_dirty)``; ``victim_dirty`` is
        ``None`` unless the miss evicted a line.
        """
        line = address // self.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        entries = self._sets.setdefault(index, [])
        for position, (entry_tag, dirty) in enumerate(entries):
            if entry_tag == tag:
                entries.pop(position)
                entries.insert(0, (tag, dirty or is_store))
                return index, True, None
        victim_dirty = None
        if len(entries) >= self.ways:
            _victim_tag, victim_dirty = entries.pop()
        entries.insert(0, (tag, is_store))
        return index, False, victim_dirty

    def access_mask(self, address: int, is_store: bool = False) -> int:
        """Access ``address``; return the exercised points as a bitset mask."""
        index, hit, victim_dirty = self._touch(address, is_store)
        return self.table[is_store, index, hit, victim_dirty]

    def repeat_hit_mask(self, address: int) -> int:
        """Mask of a guaranteed *load re-hit* on the line just accessed.

        A load to a line that is already at the front of its set's LRU list
        hits, moves nothing and dirties nothing -- ``access_mask`` would
        return exactly this mask and leave the cache state untouched.  The
        fused superblock loop exploits that: sequential fetches share a
        64-byte line, so only the first fetch of each line needs the real
        LRU update; the remaining ~15 can ``|=`` this precomputed constant.
        Only valid when ``address``'s line is known to be most-recent in
        its set (i.e. the previous access touched the same line).
        """
        return self.table[False, (address // self.line_bytes) % self.num_sets,
                          True, None]

    def line_is_dirty(self, address: int) -> bool:
        """Whether the line containing ``address`` is currently dirty."""
        line = address // self.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        for entry_tag, dirty in self._sets.get(index, ()):
            if entry_tag == tag:
                return dirty
        return False


@cache
def _predictor_table(name: str, entries: int) -> Dict[Tuple, int]:
    """(entry index, taken, prediction correct) -> mask of one branch."""
    return {(index, taken, correct):
            point_mask(name, f"entry{index}", "taken" if taken else "nottaken")
            | point_mask(name, "predict", "correct" if correct else "mispredict")
            for index in range(entries) for taken in (False, True)
            for correct in (False, True)}


class BranchPredictor:
    """Bimodal 2-bit predictor with per-entry outcome coverage."""

    def __init__(self, name: str = "bpred", entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.name = name
        self.entries = entries
        self.table = _predictor_table(name, entries)
        self._counters: Dict[int, int] = {}

    def reset(self) -> None:
        self._counters.clear()

    def update_mask(self, pc: int, taken: bool) -> int:
        """Record one branch outcome; return the coverage points as a mask."""
        index = (pc >> 2) % self.entries
        counter = self._counters.get(index, 1)
        predicted_taken = counter >= 2
        if taken:
            counter = min(counter + 1, 3)
        else:
            counter = max(counter - 1, 0)
        self._counters[index] = counter
        return self.table[index, taken, predicted_taken == taken]


@cache
def _hazard_table(name: str, window: int) -> Dict:
    """Single-point masks: ``("rs1"|"rs2"|"waw", distance)``,
    ``("fwd", register)`` and ``"no_hazard"``."""
    table: Dict = {"no_hazard": point_mask(name, "no_hazard")}
    for distance in range(1, window + 1):
        table["rs1", distance] = point_mask(name, f"raw_dist{distance}", "rs1")
        table["rs2", distance] = point_mask(name, f"raw_dist{distance}", "rs2")
        table["waw", distance] = point_mask(name, f"waw_dist{distance}")
    for reg in range(32):
        table["fwd", reg] = point_mask(name, "forward_reg", f"x{reg}")
    return table


class HazardTracker:
    """Tracks recent destination registers to expose forwarding/stall paths."""

    def __init__(self, name: str = "hazard", window: int = 3) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self.table = _hazard_table(name, window)
        self._recent: List[Optional[int]] = []

    def reset(self) -> None:
        self._recent.clear()

    def observe_mask(self, rd: Optional[int], rs1: Optional[int],
                     rs2: Optional[int]) -> int:
        """Record one instruction's register usage; return points as a mask.

        The one hazard check.  It reads only static register fields and
        the window, so the DUT harness memoises a block's replay through
        it (:meth:`repro.rtl.harness.DutExecutor.run_block`).
        """
        table = self.table
        mask = 0
        for distance, prior_rd in enumerate(reversed(self._recent), start=1):
            if not prior_rd:  # x0 (or no destination) forwards nothing
                continue
            if rs1 == prior_rd:
                mask |= table["rs1", distance] | table["fwd", prior_rd]
            if rs2 == prior_rd:
                mask |= table["rs2", distance] | table["fwd", prior_rd]
            if rd == prior_rd:
                mask |= table["waw", distance]
        self._recent.append(rd)
        if len(self._recent) > self.window:
            self._recent.pop(0)
        return mask or table["no_hazard"]


#: Operand magnitude buckets used by the functional-unit monitor.
_OPERAND_BUCKETS = ("zero", "one", "neg", "small", "large")


def _operand_bucket(value: int) -> str:
    signed = to_signed(value)
    if signed == 0:
        return "zero"
    if signed == 1:
        return "one"
    if signed < 0:
        return "neg"
    if signed < 4096:
        return "small"
    return "large"


@cache
def _fu_table(name: str) -> Dict[Tuple, int]:
    """(unit, operand buckets, divide by zero, corner) -> mask of one
    mul/div; the corner is a non-zero upper half for ``mul`` and a signed
    overflow for ``div``."""
    upper = point_mask(name, "mul", "upper_nonzero")
    by_zero = point_mask(name, "div", "by_zero")
    overflow = point_mask(name, "div", "overflow")
    table = {}
    for a in _OPERAND_BUCKETS:
        for b in _OPERAND_BUCKETS:
            bucket = f"{a}_{b}"
            mul = point_mask(name, "mul", bucket)
            div = point_mask(name, "div", bucket)
            for corner in (False, True):
                table["mul", bucket, False, corner] = mul | (upper if corner else 0)
                for zero in (False, True):
                    table["div", bucket, zero, corner] = (
                        div | (by_zero if zero else 0) | (overflow if corner else 0))
    return table


class FunctionalUnitMonitor:
    """Coverage of multiplier/divider corner cases."""

    def __init__(self, name: str = "fu") -> None:
        self.name = name
        self.table = _fu_table(name)

    def reset(self) -> None:  # stateless, present for interface symmetry
        return None

    def observe_mask(self, cls: InstrClass, rs1_value: int, rs2_value: int,
                     result: int) -> int:
        """Record one mul/div operation; return its coverage points as a mask."""
        if cls is not InstrClass.MUL and cls is not InstrClass.DIV:
            return 0
        bucket = f"{_operand_bucket(rs1_value)}_{_operand_bucket(rs2_value)}"
        if cls is InstrClass.DIV:
            overflow = (to_signed(rs1_value) == -(2**63)
                        and to_signed(rs2_value) == -1)
            return self.table["div", bucket, rs2_value == 0, overflow]
        return self.table["mul", bucket, False, bool(result >> 63)]
