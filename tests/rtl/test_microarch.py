"""Tests for the reusable microarchitectural components."""

import pytest

from repro.coverage.bitset import points_of, union
from repro.isa.encoding import InstrClass
from repro.rtl.microarch import (
    BranchPredictor,
    CacheModel,
    FunctionalUnitMonitor,
    HazardTracker,
)


class TestCacheModel:
    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            CacheModel("c", num_sets=0)

    def test_miss_then_hit(self):
        cache = CacheModel("dcache", num_sets=4, ways=2)
        first = points_of(cache.access_mask(0x1000))
        second = points_of(cache.access_mask(0x1000))
        assert any(p.endswith(".miss") for p in first)
        assert any(p.endswith(".hit") for p in second)

    def test_same_set_different_tag_misses(self):
        cache = CacheModel("dcache", num_sets=4, ways=2, line_bytes=64)
        cache.access_mask(0x0)
        # same set (set 0), different tag
        points = points_of(cache.access_mask(0x0 + 4 * 64))
        assert any(p.endswith(".miss") for p in points)

    def test_eviction_after_ways_exceeded(self):
        cache = CacheModel("dcache", num_sets=2, ways=1, line_bytes=64)
        cache.access_mask(0x0)
        # same set, evicts the first line
        points = points_of(cache.access_mask(0x0 + 2 * 64))
        assert any(".evict" in p for p in points)
        assert any("writeback.clean" in p for p in points)

    def test_dirty_eviction(self):
        cache = CacheModel("dcache", num_sets=2, ways=1, line_bytes=64)
        cache.access_mask(0x0, is_store=True)
        points = points_of(cache.access_mask(0x0 + 2 * 64))
        assert any("writeback.dirty" in p for p in points)

    def test_line_is_dirty(self):
        cache = CacheModel("dcache", num_sets=4, ways=2)
        cache.access_mask(0x200, is_store=True)
        assert cache.line_is_dirty(0x200)
        assert cache.line_is_dirty(0x23F)  # same 64-byte line
        assert not cache.line_is_dirty(0x400)

    def test_store_hit_marks_dirty(self):
        cache = CacheModel("dcache", num_sets=4, ways=2)
        cache.access_mask(0x80, is_store=False)
        assert not cache.line_is_dirty(0x80)
        cache.access_mask(0x80, is_store=True)
        assert cache.line_is_dirty(0x80)

    def test_reset(self):
        cache = CacheModel("dcache", num_sets=4, ways=2)
        cache.access_mask(0x80, is_store=True)
        cache.reset()
        assert not cache.line_is_dirty(0x80)

    def test_emitted_points_within_space(self):
        cache = CacheModel("dcache", num_sets=4, ways=1)
        space = points_of(union(cache.table))
        emitted = set()
        for address in range(0, 0x2000, 72):
            emitted.update(points_of(
                cache.access_mask(address, is_store=address % 144 == 0)))
        assert emitted <= space

    def test_space_size(self):
        cache = CacheModel("c", num_sets=8, ways=2)
        # 3 per-set events + 2 writeback + 2 access kinds.
        assert len(points_of(union(cache.table))) == 8 * 3 + 4


class TestBranchPredictor:
    def test_space_size(self):
        table = BranchPredictor("b", entries=16).table
        assert len(points_of(union(table))) == 16 * 2 + 2

    def test_outcome_points(self):
        predictor = BranchPredictor("b", entries=8)
        points = points_of(predictor.update_mask(0x4000_0000, taken=True))
        assert any(p.endswith(".taken") for p in points)

    def test_learns_direction(self):
        predictor = BranchPredictor("b", entries=8)
        pc = 0x4000_0010
        predictor.update_mask(pc, taken=True)
        predictor.update_mask(pc, taken=True)
        points = points_of(predictor.update_mask(pc, taken=True))
        assert "b.predict.correct" in points

    def test_mispredict_on_change(self):
        predictor = BranchPredictor("b", entries=8)
        pc = 0x4000_0010
        for _ in range(3):
            predictor.update_mask(pc, taken=True)
        points = points_of(predictor.update_mask(pc, taken=False))
        assert "b.predict.mispredict" in points

    def test_emitted_within_space(self):
        predictor = BranchPredictor("b", entries=4)
        space = points_of(union(predictor.table))
        emitted = set()
        for pc in range(0x4000_0000, 0x4000_0100, 4):
            emitted.update(points_of(predictor.update_mask(pc, taken=pc % 8 == 0)))
        assert emitted <= space


class TestHazardTracker:
    def test_raw_hazard_detected(self):
        tracker = HazardTracker(window=2)
        tracker.observe_mask(rd=5, rs1=None, rs2=None)
        points = points_of(tracker.observe_mask(rd=6, rs1=5, rs2=None))
        assert any("raw_dist1.rs1" in p for p in points)
        assert any("forward_reg.x5" in p for p in points)

    def test_distance_two(self):
        tracker = HazardTracker(window=3)
        tracker.observe_mask(rd=5, rs1=None, rs2=None)
        tracker.observe_mask(rd=6, rs1=None, rs2=None)
        points = points_of(tracker.observe_mask(rd=7, rs1=None, rs2=5))
        assert any("raw_dist2.rs2" in p for p in points)

    def test_waw_hazard(self):
        tracker = HazardTracker(window=2)
        tracker.observe_mask(rd=5, rs1=None, rs2=None)
        points = points_of(tracker.observe_mask(rd=5, rs1=None, rs2=None))
        assert any("waw_dist1" in p for p in points)

    def test_x0_never_hazard(self):
        tracker = HazardTracker(window=2)
        tracker.observe_mask(rd=0, rs1=None, rs2=None)
        points = points_of(tracker.observe_mask(rd=1, rs1=0, rs2=None))
        assert any("no_hazard" in p for p in points)

    def test_window_limits_detection(self):
        tracker = HazardTracker(window=1)
        tracker.observe_mask(rd=5, rs1=None, rs2=None)
        tracker.observe_mask(rd=6, rs1=None, rs2=None)
        points = points_of(tracker.observe_mask(rd=7, rs1=5, rs2=None))
        assert not any("raw" in p for p in points)

    def test_emitted_within_space(self):
        tracker = HazardTracker(window=2)
        space = points_of(union(tracker.table))
        emitted = set()
        for i in range(40):
            emitted.update(points_of(
                tracker.observe_mask(rd=i % 8, rs1=(i + 1) % 8, rs2=(i + 3) % 8)))
        assert emitted <= space


class TestFunctionalUnitMonitor:
    def test_ignores_non_muldiv(self):
        assert points_of(FunctionalUnitMonitor().observe_mask(
            InstrClass.ARITH, 1, 2, 3)) == frozenset()

    def test_mul_buckets(self):
        points = points_of(FunctionalUnitMonitor().observe_mask(InstrClass.MUL, 0, 1, 0))
        assert "fu.mul.zero_one" in points

    def test_div_by_zero(self):
        points = points_of(FunctionalUnitMonitor().observe_mask(InstrClass.DIV, 10, 0, 0))
        assert "fu.div.by_zero" in points

    def test_div_overflow(self):
        most_negative = 1 << 63
        minus_one = (1 << 64) - 1
        points = points_of(FunctionalUnitMonitor().observe_mask(
            InstrClass.DIV, most_negative, minus_one, most_negative))
        assert "fu.div.overflow" in points

    def test_mul_upper_nonzero(self):
        points = points_of(FunctionalUnitMonitor().observe_mask(
            InstrClass.MUL, 2**40, 2**40, 2**63))
        assert "fu.mul.upper_nonzero" in points

    def test_emitted_within_space(self):
        monitor = FunctionalUnitMonitor()
        space = points_of(union(monitor.table))
        emitted = set()
        for a in (0, 1, 5, 2**63, 2**13):
            for b in (0, 1, 3, (1 << 64) - 1):
                emitted.update(points_of(monitor.observe_mask(
                    InstrClass.MUL, a, b, (a * b) & ((1 << 64) - 1))))
                emitted.update(points_of(monitor.observe_mask(InstrClass.DIV, a, b, 0)))
        assert emitted <= space
