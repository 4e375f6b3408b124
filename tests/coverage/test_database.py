"""Tests for the cumulative coverage database."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage.bitset import mask_of, points_of
from repro.coverage.database import CoverageDatabase


class TestRecord:
    def test_new_points_returned(self):
        db = CoverageDatabase()
        assert db.record(0, mask_of(["a", "b"])) == mask_of({"a", "b"})
        assert db.record(1, mask_of(["b", "c"])) == mask_of({"c"})
        assert db.covered_count == 3

    def test_first_hit(self):
        db = CoverageDatabase()
        db.record(0, mask_of(["a"]))
        db.record(5, mask_of(["a", "b"]))
        assert db.first_hit("a") == 0
        assert db.first_hit("b") == 5
        assert db.first_hit("zzz") is None

    def test_space_enforced(self):
        db = CoverageDatabase(space_mask=mask_of({"a"}))
        with pytest.raises(ValueError):
            db.record(0, mask_of(["nope"]))

    def test_percent(self):
        db = CoverageDatabase(space_mask=mask_of({"a", "b", "c", "d"}))
        db.record(0, mask_of(["a"]))
        assert db.percent() == pytest.approx(25.0)

    def test_percent_requires_space(self):
        with pytest.raises(ValueError):
            CoverageDatabase().percent()

    def test_is_covered(self):
        db = CoverageDatabase()
        db.record(0, mask_of(["a"]))
        assert db.is_covered("a")
        assert not db.is_covered("b")


class TestCurve:
    def test_curve_monotonic(self):
        db = CoverageDatabase()
        db.record(0, mask_of(["a"]))
        db.record(1, mask_of([]))
        db.record(2, mask_of(["b", "c"]))
        curve = db.curve()
        assert [s.covered for s in curve] == [1, 1, 3]
        assert [s.test_index for s in curve] == [0, 1, 2]

    def test_curve_at(self):
        db = CoverageDatabase()
        db.record(0, mask_of(["a"]))
        db.record(3, mask_of(["b"]))
        samples = db.curve_at([0, 1, 3, 10])
        assert [s.covered for s in samples] == [1, 1, 2, 2]

    def test_tests_to_reach(self):
        db = CoverageDatabase()
        db.record(0, mask_of(["a"]))
        db.record(1, mask_of(["b", "c"]))
        assert db.tests_to_reach(1) == 1
        assert db.tests_to_reach(3) == 2
        assert db.tests_to_reach(10) is None


# ----------------------------------------------------------------- properties
@given(st.lists(st.sets(st.integers(0, 50).map(lambda i: f"p{i}"), max_size=10),
                max_size=20))
@settings(max_examples=80, deadline=None)
def test_curve_is_nondecreasing_and_matches_union(test_coverages):
    db = CoverageDatabase()
    union = set()
    for index, points in enumerate(test_coverages):
        new = db.record(index, mask_of(points))
        assert points_of(new) == points - union
        union |= points
    curve = db.curve()
    assert all(curve[i].covered <= curve[i + 1].covered for i in range(len(curve) - 1))
    assert db.covered_count == len(union)
