"""Tests for deterministic RNG management."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import WeightedPicker, derive_rng, make_rng, pick, split_rng


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, size=5)
        b = make_rng(42).integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_passthrough_generator(self):
        generator = np.random.default_rng(7)
        assert make_rng(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveRng:
    def test_same_tag_same_parent_state(self):
        a = derive_rng(make_rng(1), "mutation").integers(0, 10**6)
        b = derive_rng(make_rng(1), "mutation").integers(0, 10**6)
        assert a == b

    def test_different_tags_differ(self):
        parent = make_rng(1)
        a = derive_rng(parent, "a")
        b = derive_rng(parent, "b")
        assert list(a.integers(0, 10**6, 8)) != list(b.integers(0, 10**6, 8))


class TestSplitRng:
    def test_count(self):
        children = split_rng(make_rng(3), 4)
        assert len(children) == 4

    def test_children_independent_streams(self):
        children = split_rng(make_rng(3), 2)
        a = list(children[0].integers(0, 10**6, 8))
        b = list(children[1].integers(0, 10**6, 8))
        assert a != b

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            split_rng(make_rng(0), -1)

    def test_deterministic_given_parent_seed(self):
        first = [g.integers(0, 10**6) for g in split_rng(make_rng(9), 3)]
        second = [g.integers(0, 10**6) for g in split_rng(make_rng(9), 3)]
        assert first == second


# ------------------------------------------------------------- draw helpers
def _interleave(ours, theirs):
    """Draws that diverge if the helper used the stream differently."""
    assert ours.integers(0, 7) == theirs.integers(0, 7)
    assert ours.random() == theirs.random()


def _exp3_probabilities(weights, eta=0.1):
    total = sum(weights)
    return [(1.0 - eta) * w / total + eta / len(weights) for w in weights]


#: weight vectors with zeros, a single nonzero weight and tiny weights.
EDGE_WEIGHTS = (
    [1.0],
    [0.0, 0.0, 3.0],
    [0.0] * 13 + [1e-300],
    [5e-324, 5e-324, 1e-320],
    [1e-12, 1.0, 0.0, 1e-12, 0.0],
    [0.22, 0.12, 0.08, 0.06, 0.06, 0.05, 0.11, 0.09, 0.08, 0.02, 0.05,
     0.02, 0.02, 0.02],
    [7.0] * 50,
)

positive_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-300, 1e-290), st.floats(0.0, 1e6)),
    min_size=1, max_size=50).filter(lambda weights: sum(weights) > 0)


class TestPick:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_matches_generator_choice(self, seed, length):
        numbers = list(range(1000, 1000 + length))
        names = tuple(f"m{i}" for i in range(length))
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(5):
            assert pick(ours, numbers) == theirs.choice(numbers)
            _interleave(ours, theirs)
            assert pick(ours, names) == str(theirs.choice(names))
            _interleave(ours, theirs)

    def test_returns_the_stored_element(self):
        assert type(pick(make_rng(0), (3, 4))) is int

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            pick(make_rng(0), [])


class TestWeightedPicker:
    @staticmethod
    def _assert_twin_draws(picker, probabilities, seed, draws=20):
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(draws):
            assert picker.draw(ours) == theirs.choice(len(probabilities),
                                                      p=probabilities)
            _interleave(ours, theirs)

    @given(st.integers(0, 2**32 - 1), positive_weights)
    @settings(max_examples=200, deadline=None)
    def test_matches_generator_choice(self, seed, weights):
        array = np.asarray(weights, dtype=float)
        self._assert_twin_draws(WeightedPicker(weights), array / array.sum(), seed)

    @pytest.mark.parametrize("weights", EDGE_WEIGHTS)
    def test_edge_weights_match_generator_choice(self, weights):
        array = np.asarray(weights, dtype=float)
        for seed in range(25):
            self._assert_twin_draws(WeightedPicker(weights), array / array.sum(),
                                    seed)

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(1e-12, 1e12), min_size=1, max_size=50),
           st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_exp3_distributions_match_generator_choice(self, seed, weights, eta):
        probabilities = _exp3_probabilities(weights, eta)
        self._assert_twin_draws(WeightedPicker.from_probabilities(probabilities),
                                np.array(probabilities), seed)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("weights", [
        [float("nan"), 1.0], [float("inf"), 1.0], [1.0, float("-inf")],
        [-0.5, 1.0], [0.0, 0.0], [], [1e308, 1e308]])
    def test_invalid_weights_raise_when_built(self, weights):
        with pytest.raises(ValueError):
            WeightedPicker(weights)

    @pytest.mark.parametrize("probabilities", [
        [float("nan"), 1.0], [-0.1, 1.1], [0.5, 0.5 + 1e-6], [0.3, 0.3],
        [float("inf"), 0.0]])
    def test_probabilities_keep_choice_checks(self, probabilities):
        with pytest.raises(ValueError):
            make_rng(0).choice(len(probabilities), p=probabilities)
        with pytest.raises(ValueError):
            WeightedPicker.from_probabilities(probabilities)

    def test_probabilities_within_tolerance_accepted(self):
        probabilities = [0.5, 0.5 + 1e-10]
        make_rng(0).choice(2, p=probabilities)
        self._assert_twin_draws(WeightedPicker.from_probabilities(probabilities),
                                probabilities, seed=3)


def test_no_generator_choice_calls_in_src():
    """Categorical draws use the helpers; ``Generator.choice`` costs ~13 us a call."""
    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    calls = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "choice"):
                calls.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    assert not calls, (
        "call repro.utils.rng.pick(rng, seq) for a uniform draw, or a "
        "WeightedPicker for a weighted one, instead of .choice(): "
        + ", ".join(calls))
