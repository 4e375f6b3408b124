"""Reusable microarchitectural components for the DUT models.

Each component exposes two faces that must stay consistent:

* ``space()`` -- the full set of coverage points the component can ever emit
  (used to enumerate the DUT's coverage space), and
* ``*_mask`` runtime methods (``access_mask``/``update_mask``/
  ``observe_mask``) that update the component's state for one event and
  return the points it hit as an integer bitset
  (:mod:`repro.coverage.bitset`), memoised per observable situation so
  recording coverage is a dict get plus an ``|=``.

Components model state at the granularity needed for realistic coverage
structure (set-indexed caches with dirty evictions, a bimodal branch
predictor, register-hazard tracking, functional-unit corner cases), not at
cycle accuracy: the fuzzers only consume coverage and architectural state.

The mask memos are *class*-level (keyed by component name, so an icache and
a dcache never collide) because component instances are built fresh for
every program run -- a per-instance memo would re-pay the string-building
cost each run.  The DUT models follow the same rule one level up: a trial
builds a fresh model, so a model's coverage space, its mask and its
structural emission tables are per-process memos too
(:mod:`repro.rtl.harness`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.coverage.bitset import mask_of, point_bit
from repro.coverage.points import coverage_point
from repro.isa.encoding import InstrClass
from repro.utils.bits import to_signed


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
        # Per set: list of (tag, dirty) in LRU order (front = most recent).
        self._sets: Dict[int, List[Tuple[int, bool]]] = {}

    def reset(self) -> None:
        self._sets.clear()

    def space(self) -> Set[str]:
        points = set()
        for index in range(self.num_sets):
            points.add(coverage_point(self.name, f"set{index}", "hit"))
            points.add(coverage_point(self.name, f"set{index}", "miss"))
            points.add(coverage_point(self.name, f"set{index}", "evict"))
        points.add(coverage_point(self.name, "writeback", "dirty"))
        points.add(coverage_point(self.name, "writeback", "clean"))
        points.add(coverage_point(self.name, "access", "load"))
        points.add(coverage_point(self.name, "access", "store"))
        return points

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

    def _points_for(self, is_store: bool, index: int, hit: bool,
                    victim_dirty: Optional[bool]) -> List[str]:
        points = [coverage_point(self.name, "access", "store" if is_store else "load")]
        if hit:
            points.append(coverage_point(self.name, f"set{index}", "hit"))
            return points
        points.append(coverage_point(self.name, f"set{index}", "miss"))
        if victim_dirty is not None:
            points.append(coverage_point(self.name, f"set{index}", "evict"))
            points.append(coverage_point(
                self.name, "writeback", "dirty" if victim_dirty else "clean"))
        return points

    #: (name, is_store, index, hit, victim_dirty) -> mask, shared by all
    #: instances (components are rebuilt per run; situations are bounded).
    _MASK_MEMO: Dict[Tuple, int] = {}

    def access_mask(self, address: int, is_store: bool = False) -> int:
        """Access ``address``; return the exercised points as a bitset mask."""
        index, hit, victim_dirty = self._touch(address, is_store)
        key = (self.name, is_store, index, hit, victim_dirty)
        mask = self._MASK_MEMO.get(key)
        if mask is None:
            mask = self._MASK_MEMO[key] = mask_of(
                self._points_for(is_store, index, hit, victim_dirty))
        return mask

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
        index = (address // self.line_bytes) % self.num_sets
        key = (self.name, False, index, True, None)
        mask = self._MASK_MEMO.get(key)
        if mask is None:
            mask = self._MASK_MEMO[key] = mask_of(
                self._points_for(False, index, True, None))
        return mask

    def line_is_dirty(self, address: int) -> bool:
        """Whether the line containing ``address`` is currently dirty."""
        line = address // self.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        for entry_tag, dirty in self._sets.get(index, ()):
            if entry_tag == tag:
                return dirty
        return False


class BranchPredictor:
    """Bimodal 2-bit predictor with per-entry outcome coverage."""

    def __init__(self, name: str = "bpred", entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.name = name
        self.entries = entries
        self._counters: Dict[int, int] = {}

    def reset(self) -> None:
        self._counters.clear()

    def space(self) -> Set[str]:
        points = set()
        for index in range(self.entries):
            points.add(coverage_point(self.name, f"entry{index}", "taken"))
            points.add(coverage_point(self.name, f"entry{index}", "nottaken"))
        points.add(coverage_point(self.name, "predict", "correct"))
        points.add(coverage_point(self.name, "predict", "mispredict"))
        return points

    def _observe(self, pc: int, taken: bool) -> Tuple[int, bool]:
        """Update the predictor for one branch; return ``(index, correct)``."""
        index = (pc >> 2) % self.entries
        counter = self._counters.get(index, 1)
        predicted_taken = counter >= 2
        if taken:
            counter = min(counter + 1, 3)
        else:
            counter = max(counter - 1, 0)
        self._counters[index] = counter
        return index, predicted_taken == taken

    def _points_for(self, index: int, taken: bool, correct: bool) -> List[str]:
        return [
            coverage_point(self.name, f"entry{index}",
                           "taken" if taken else "nottaken"),
            coverage_point(self.name, "predict",
                           "correct" if correct else "mispredict"),
        ]

    _MASK_MEMO: Dict[Tuple, int] = {}

    def update_mask(self, pc: int, taken: bool) -> int:
        """Record one branch outcome; return the coverage points as a mask."""
        index, correct = self._observe(pc, taken)
        key = (self.name, index, taken, correct)
        mask = self._MASK_MEMO.get(key)
        if mask is None:
            mask = self._MASK_MEMO[key] = mask_of(
                self._points_for(index, taken, correct))
        return mask


class HazardTracker:
    """Tracks recent destination registers to expose forwarding/stall paths."""

    def __init__(self, name: str = "hazard", window: int = 3) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self._recent: List[Optional[int]] = []

    def reset(self) -> None:
        self._recent.clear()

    def space(self) -> Set[str]:
        points = set()
        for distance in range(1, self.window + 1):
            points.add(coverage_point(self.name, f"raw_dist{distance}", "rs1"))
            points.add(coverage_point(self.name, f"raw_dist{distance}", "rs2"))
            points.add(coverage_point(self.name, f"waw_dist{distance}"))
        for reg in range(32):
            points.add(coverage_point(self.name, "forward_reg", f"x{reg}"))
        points.add(coverage_point(self.name, "no_hazard"))
        return points

    #: (name, window) -> precomputed single-point mask tables.
    _MASK_TABLES: Dict[Tuple[str, int], Dict] = {}

    def _mask_table(self) -> Dict:
        table = self._MASK_TABLES.get((self.name, self.window))
        if table is None:
            table = {}
            for distance in range(1, self.window + 1):
                table["rs1", distance] = 1 << point_bit(
                    coverage_point(self.name, f"raw_dist{distance}", "rs1"))
                table["rs2", distance] = 1 << point_bit(
                    coverage_point(self.name, f"raw_dist{distance}", "rs2"))
                table["waw", distance] = 1 << point_bit(
                    coverage_point(self.name, f"waw_dist{distance}"))
            for reg in range(32):
                table["fwd", reg] = 1 << point_bit(
                    coverage_point(self.name, "forward_reg", f"x{reg}"))
            table["no_hazard"] = 1 << point_bit(
                coverage_point(self.name, "no_hazard"))
            self._MASK_TABLES[(self.name, self.window)] = table
        return table

    def observe_mask(self, rd: Optional[int], rs1: Optional[int],
                     rs2: Optional[int]) -> int:
        """Record one instruction's register usage; return points as a mask."""
        table = self._mask_table()
        mask = 0
        hazard = False
        for distance, prior_rd in enumerate(reversed(self._recent), start=1):
            if prior_rd is None or prior_rd == 0:
                continue
            if rs1 is not None and rs1 == prior_rd:
                mask |= table["rs1", distance] | table["fwd", prior_rd]
                hazard = True
            if rs2 is not None and rs2 == prior_rd:
                mask |= table["rs2", distance] | table["fwd", prior_rd]
                hazard = True
            if rd is not None and rd != 0 and rd == prior_rd:
                mask |= table["waw", distance]
                hazard = True
        if not hazard:
            mask = table["no_hazard"]
        self._recent.append(rd)
        if len(self._recent) > self.window:
            self._recent.pop(0)
        return mask


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


class FunctionalUnitMonitor:
    """Coverage of multiplier/divider corner cases."""

    def __init__(self, name: str = "fu") -> None:
        self.name = name

    def reset(self) -> None:  # stateless, present for interface symmetry
        return None

    def space(self) -> Set[str]:
        points = set()
        for a in _OPERAND_BUCKETS:
            for b in _OPERAND_BUCKETS:
                points.add(coverage_point(self.name, "mul", f"{a}_{b}"))
                points.add(coverage_point(self.name, "div", f"{a}_{b}"))
        points.add(coverage_point(self.name, "div", "by_zero"))
        points.add(coverage_point(self.name, "div", "overflow"))
        points.add(coverage_point(self.name, "mul", "upper_nonzero"))
        return points

    def _situation(self, cls: InstrClass, rs1_value: int, rs2_value: int,
                   result: int) -> Optional[Tuple]:
        """The bounded situation key of one mul/div observation (or ``None``)."""
        if cls not in (InstrClass.MUL, InstrClass.DIV):
            return None
        bucket = f"{_operand_bucket(rs1_value)}_{_operand_bucket(rs2_value)}"
        if cls is InstrClass.DIV:
            overflow = (to_signed(rs1_value) == -(2**63)
                        and to_signed(rs2_value) == -1)
            return ("div", bucket, rs2_value == 0, overflow)
        return ("mul", bucket, False, bool(result >> 63))

    def _points_for(self, unit: str, bucket: str, by_zero: bool,
                    corner: bool) -> List[str]:
        points = [coverage_point(self.name, unit, bucket)]
        if unit == "div":
            if by_zero:
                points.append(coverage_point(self.name, "div", "by_zero"))
            if corner:
                points.append(coverage_point(self.name, "div", "overflow"))
        elif corner:
            points.append(coverage_point(self.name, "mul", "upper_nonzero"))
        return points

    _MASK_MEMO: Dict[Tuple, int] = {}

    def observe_mask(self, cls: InstrClass, rs1_value: int, rs2_value: int,
                     result: int) -> int:
        """Record one mul/div operation; return its coverage points as a mask."""
        situation = self._situation(cls, rs1_value, rs2_value, result)
        if situation is None:
            return 0
        key = (self.name, situation)
        mask = self._MASK_MEMO.get(key)
        if mask is None:
            mask = self._MASK_MEMO[key] = mask_of(self._points_for(*situation))
        return mask
