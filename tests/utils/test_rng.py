"""Tests for deterministic RNG management."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzzing.mutation import MutationEngine
from repro.isa.generator import SeedGenerator
from repro.isa.scenarios import (
    MixedSeedGenerator,
    TrapScenarioGenerator,
    make_seed_provider,
)
from repro.utils.rng import (
    RandomStream,
    WeightedPicker,
    derive_rng,
    make_rng,
    pick,
)


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a, b = make_rng(42), make_rng(42)
        assert type(a) is RandomStream
        assert [a.integers(0, 1000) for _ in range(5)] \
            == [b.integers(0, 1000) for _ in range(5)]

    def test_passthrough_generator(self):
        generator = np.random.default_rng(7)
        assert make_rng(generator) is generator

    def test_passthrough_stream(self):
        stream = make_rng(7)
        assert make_rng(stream) is stream

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), RandomStream)


class TestDeriveRng:
    def test_same_tag_same_parent_state(self):
        a = derive_rng(make_rng(1), "mutation")
        b = derive_rng(make_rng(1), "mutation")
        assert type(a) is RandomStream
        assert a.integers(0, 10**6) == b.integers(0, 10**6)

    def test_different_tags_differ(self):
        parent = make_rng(1)
        a = derive_rng(parent, "a")
        b = derive_rng(parent, "b")
        assert [a.integers(0, 10**6) for _ in range(8)] \
            != [b.integers(0, 10**6) for _ in range(8)]

    @given(st.integers(0, 2**32 - 1), st.text(max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_numpy_parent_derives_the_same_stream(self, seed, tag):
        ours = derive_rng(make_rng(seed), tag)
        theirs = derive_rng(np.random.default_rng(seed), tag)
        assert type(theirs) is RandomStream
        for _ in range(8):
            assert ours.integers(0, 2**32) == theirs.integers(0, 2**32)
            assert ours.random() == theirs.random()


# ------------------------------------------------------------ the stream
#: Spans ``n`` of the ``integers(low, low + n)`` draws: no draw (1), 32-bit
#: draws, the full 32-bit width (2**32), 64-bit draws, and one span per
#: width that rejects a quarter of its words (3 * 2**30, 3 * 2**62).
SPANS = (1, 2, 3, 7, 32, 2**31, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1,
         3 * 2**62, 2**63)

#: Calls a stream hands to numpy.  The ``int32``/``float32`` draws read
#: 32-bit words through PCG64's ``has_uint32`` buffer; ``beta`` is what
#: ``examples/custom_bandit.py`` draws.
NUMPY_CALLS = (
    ("dirichlet", [0.5, 1.0, 2.0]),
    ("integers", 0, 1000, None, np.int32),
    ("integers", 0, 1000, 3, np.int32),
    ("random", None, np.float32),
    ("beta", 2.0, 3.0),
    ("choice", 10, 2),
    ("integers", 0, 2**40, 2),
    ("integers", np.int64(-5), np.int64(2**40)),
    ("standard_normal",),
)


def _integers(n):
    return st.integers(-2**63, 2**63 - n).map(lambda low: ("integers", low, low + n))


operations = st.one_of(
    st.just(("random",)),
    st.sampled_from(SPANS).flatmap(_integers),
    st.sampled_from((1, 7, 2**32 + 1)).map(lambda n: ("integers", n)),
    st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4).map(
        lambda alpha: ("dirichlet", alpha)),
    st.sampled_from(NUMPY_CALLS),
)


def _apply(rng, operation):
    name, *args = operation
    value = getattr(rng, name)(*args)
    return value.tolist() if isinstance(value, np.ndarray) else value


def _position(rng):
    """The bit generator's state and the half its buffer holds, if any."""
    state = rng.bit_generator.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


def _assert_twins(operations, seed):
    ours, theirs = make_rng(seed), np.random.default_rng(seed)
    for operation in operations:
        value = _apply(ours, operation)
        assert value == _apply(theirs, operation), operation
        if (operation[0] in ("random", "integers") and len(operation) <= 3
                and all(type(arg) is int for arg in operation[1:])):
            assert type(value) is (float if operation[0] == "random" else int)
    assert _position(ours) == _position(theirs)


class TestRandomStream:
    """A stream returns what a numpy generator with its seed returns."""

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(operations, st.integers(1, 6)),
                    min_size=60, max_size=100),
           st.integers(0, 100), st.integers(0, 3), st.sampled_from(NUMPY_CALLS))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_generator(self, seed, runs, at, pairs, numpy_call):
        # Each drawn operation repeats 1-6 times, so a list spans several
        # 64-word blocks.  An odd number of 32-bit draws leaves a half held
        # over the numpy call inserted after them.
        runs[at:at] = [(("integers", 0, 7), 2 * pairs + 1), (numpy_call, 1),
                       (("integers", 0, 7), 1)]
        _assert_twins([op for op, repeat in runs for _ in range(repeat)], seed)

    @pytest.mark.parametrize("used", range(0, 130, 3))
    def test_numpy_calls_at_every_block_position(self, used):
        """The rewind, the held half and the refill, wherever the block stands.

        The half moves both ways: the stream's into a ``dirichlet`` and an
        ``int32`` draw, and numpy's back into the stream.
        """
        int32 = ("integers", 0, 7, None, np.int32)
        operations = ([("random",)] * used
                      + [("integers", 0, 7), ("dirichlet", [0.3, 2.0]),
                         ("integers", 0, 7), int32, ("integers", 0, 7), int32,
                         int32, ("integers", 0, 7), ("integers", 0, 2**32 + 1)]
                      + [("random",), ("integers", -3, 3 * 2**30)] * 70)
        _assert_twins(operations, seed=used)

    @pytest.mark.parametrize("low, high", [
        (5, 5), (3, 1), (0, 0), (0, 2**63 + 1), (-2**63 - 1, 0)])
    def test_bad_bounds_raise_as_numpy_does(self, low, high):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(low, high)
        with pytest.raises(ValueError):
            make_rng(0).integers(low, high)

    def test_has_every_generator_method(self):
        methods = {name for name in dir(np.random.Generator)
                   if not name.startswith("_")}
        assert methods <= set(dir(RandomStream))


class TestConsumerTwins:
    """Components built from a seed draw what they drew from numpy's generator."""

    @pytest.mark.parametrize("scenario, provider_type", [
        ("user", SeedGenerator), ("trap", TrapScenarioGenerator),
        ("mixed", MixedSeedGenerator)])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_seed_providers(self, scenario, provider_type, seed):
        ours = make_seed_provider(scenario, None, seed)
        theirs = make_seed_provider(scenario, None, np.random.default_rng(seed))
        assert type(ours) is provider_type
        assert [p.words() for p in ours.generate_many(8)] \
            == [p.words() for p in theirs.generate_many(8)]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_mutation_engine(self, seed):
        parents = SeedGenerator(None, 11).generate_many(3)
        ours = MutationEngine(rng=seed)
        theirs = MutationEngine(rng=np.random.default_rng(seed))
        for parent in parents:
            assert [m.words() for m in ours.mutate(parent, 8)] \
                == [m.words() for m in theirs.mutate(parent, 8)]


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
        ours, theirs = make_rng(seed), np.random.default_rng(seed)
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
        ours, theirs = make_rng(seed), np.random.default_rng(seed)
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
            np.random.default_rng(0).choice(len(probabilities),
                                            p=probabilities)
        with pytest.raises(ValueError):
            WeightedPicker.from_probabilities(probabilities)

    def test_probabilities_within_tolerance_accepted(self):
        probabilities = [0.5, 0.5 + 1e-10]
        np.random.default_rng(0).choice(2, p=probabilities)
        self._assert_twin_draws(WeightedPicker.from_probabilities(probabilities),
                                probabilities, seed=3)


#: What ``src`` may call on a generator: the two draws a stream computes
#: itself, and ``dirichlet``, once per seed, which it hands to numpy.
STREAM_METHODS = {"random", "integers", "dirichlet"}


def _name_of(node):
    """``x`` for ``x`` and for ``obj.x``, else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_no_generator_choice_calls_in_src():
    """Every generator in ``src`` is a stream, kept on its fast path.

    Categorical draws use the helpers (``Generator.choice`` costs ~13 us a
    call), only ``repro.utils.rng`` calls ``default_rng``, and an
    ``rng``/``_rng`` receiver is called only with ``random``, ``integers``
    or ``dirichlet``: a stream hands any other call to numpy, at ~7 us.
    """
    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    choice, default_rng, other = [], [], []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root.parent).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name, site = _name_of(node.func), f"{where}:{node.lineno}"
            if name == "choice":
                choice.append(site)
            if name == "default_rng" and where != "repro/utils/rng.py":
                default_rng.append(site)
            if (isinstance(node.func, ast.Attribute)
                    and _name_of(node.func.value) in ("rng", "_rng")
                    and name not in STREAM_METHODS):
                other.append(f"{site} .{name}()")
    assert not choice, (
        "call repro.utils.rng.pick(rng, seq) for a uniform draw, or a "
        "WeightedPicker for a weighted one, instead of .choice(): "
        + ", ".join(choice))
    assert not default_rng, (
        "build generators with repro.utils.rng.make_rng/derive_rng, not "
        "default_rng: " + ", ".join(default_rng))
    assert not other, (
        "a RandomStream computes only random() and integers(low, high) "
        "itself; add a stream method and a twin test before drawing with "
        "another: " + ", ".join(other))
