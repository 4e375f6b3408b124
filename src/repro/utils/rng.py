"""Deterministic random-number-generator management.

Every stochastic component in the library draws from an explicit
generator: a :class:`RandomStream` that :func:`make_rng` builds from a seed,
or a caller's own :class:`numpy.random.Generator`, used as is.  Campaigns
built from the same master seed are bit-reproducible, which both the
test-suite and the benchmark harness rely on.  The helpers below centralise
how generators are created and how child generators are derived from a
parent so that adding a new consumer of randomness does not silently change
the stream seen by existing consumers.

A stream has every method of numpy's ``Generator`` and returns for each
exactly what a ``Generator`` with the same seed returns (pinned value for
value by ``tests/utils/test_rng.py``).  It computes scalar ``random()``
and ``integers(low, high)`` in Python from raw 64-bit words, skipping
numpy's per-call overhead: ~0.6 us per ``integers`` call against ~1.9 us,
and ~0.2 us per ``random()`` against ~0.5 us (numpy 2.4, one core of a
shared Xeon VM).  It hands every other call to numpy at ~7 us more, so
components call only those two, and ``dirichlet`` once per seed.

Categorical draws go through :func:`pick` (one element of a sequence,
uniformly) and :class:`WeightedPicker` (an index, by weight), never through
``Generator.choice``.  Both draw from the stream exactly as ``choice`` does
and return the same element or index for the same generator state (pinned
by ``tests/utils/test_rng.py``), without ``choice``'s per-call array
conversion and validation: ~13 us per ``choice`` call against under 1 us
for the ``integers`` call :func:`pick` makes on a stream, and for the
``random`` call behind :meth:`WeightedPicker.draw`.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence, TypeVar, Union

import numpy as np

T = TypeVar("T")

#: ``Generator.choice``'s tolerance on the sum of a probability vector.
_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)

#: Raw 64-bit words a stream fetches from its bit generator at a time.
_BLOCK = 64
#: ``random()`` is a word's top 53 bits times this.
_TWO_M53 = 2.0 ** -53


class RandomStream:
    """A seeded PCG64 generator that computes numpy's scalar draws in Python.

    ``RandomStream(seed)`` owns ``numpy.random.default_rng(seed)`` and
    returns what that generator returns, call for call.  It reads the bit
    generator's raw 64-bit words, ``_BLOCK`` at a time, and computes from
    them the scalar ``random()`` and ``integers(low, high)`` (or
    ``integers(high)``) draws:

    * ``random()`` is ``(w >> 11) * 2**-53`` for the next word ``w``.
    * ``integers(low, high)`` is Lemire's bounded draw of the span
      ``r = high - low - 1``: over 32-bit words when ``r < 2**32`` and over
      64-bit words otherwise.  ``r == 0`` draws nothing.  A 32-bit word is
      the low half of a fresh 64-bit word, and its high half is held for
      the next 32-bit draw, as PCG64's ``has_uint32`` buffer holds it;
      ``random()`` and 64-bit draws leave the held half alone.  The result
      is a Python ``int``.

    Every other ``Generator`` method, and ``random``/``integers`` with a
    ``size``, ``dtype``, ``out`` or ``endpoint``, or bounds that are not
    ``int``, is numpy's own, called where the stream stands: the bit
    generator is rewound over the block's unread words
    (``advance(-unused)``), the held half goes into its ``has_uint32``
    buffer, numpy draws, and the stream takes the buffer back.  That costs
    ~7 us a call on top of numpy's own.  Reading ``bit_generator`` hands
    it over the same way, and does not take it back.
    """

    __slots__ = ("_generator", "_bits", "_words", "_half")

    def __init__(self, seed: Optional[int] = None) -> None:
        self._generator = np.random.default_rng(seed)
        self._bits = self._generator.bit_generator
        self._words: List[int] = []  # unused words of the block, next last
        self._half: Optional[int] = None

    def _refill(self) -> List[int]:
        words = self._bits.random_raw(_BLOCK).tolist()
        words.reverse()
        self._words = words
        return words

    def _uint64(self) -> int:
        return (self._words or self._refill()).pop()

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = (self._words or self._refill()).pop()
            self._half = word >> 32
            return word & 0xFFFF_FFFF
        self._half = None
        return half

    def random(self, size=None, dtype=None, out=None):
        """A float in [0, 1): ``Generator.random()``."""
        if size is not None or dtype is not None or out is not None:
            return self._numpy("random", size,
                               np.float64 if dtype is None else dtype, out)
        return ((self._words or self._refill()).pop() >> 11) * _TWO_M53

    def integers(self, low, high=None, size=None, dtype=None, endpoint=False):
        """An ``int`` in [low, high), or in [0, low) without ``high``.

        Like numpy's default ``int64`` draw, it raises ``ValueError``
        unless ``-2**63 <= low < high <= 2**63``.
        """
        if (type(low) is not int or type(high) is not int
                or size is not None or dtype is not None or endpoint):
            if high is None:
                return self.integers(0, low, size, dtype, endpoint)
            return self._numpy("integers", low, high, size,
                               np.int64 if dtype is None else dtype, endpoint)
        if not -0x8000_0000_0000_0000 <= low < high <= 0x8000_0000_0000_0000:
            raise ValueError(f"integers needs -2**63 <= low < high <= 2**63, "
                             f"got low={low}, high={high}")
        span = high - low - 1
        # At the full width (span 2**32 - 1 or 2**64 - 1) the threshold is
        # 0, and the draw is the word itself, as numpy returns it.
        if span <= 0xFFFF_FFFF:
            if not span:
                return low
            bound = span + 1
            product = self._uint32() * bound
            if product & 0xFFFF_FFFF < bound:
                threshold = (0xFFFF_FFFF - span) % bound
                while product & 0xFFFF_FFFF < threshold:
                    product = self._uint32() * bound
            return low + (product >> 32)
        bound = span + 1
        product = self._uint64() * bound
        if product & 0xFFFF_FFFF_FFFF_FFFF < bound:
            threshold = (0xFFFF_FFFF_FFFF_FFFF - span) % bound
            while product & 0xFFFF_FFFF_FFFF_FFFF < threshold:
                product = self._uint64() * bound
        return low + (product >> 64)

    def _hand_over(self) -> None:
        """Leave the bit generator where the stream stands, its half held."""
        if self._words:
            self._bits.advance(-len(self._words))
            self._words = []
        state = self._bits.state
        state["has_uint32"] = int(self._half is not None)
        state["uinteger"] = self._half or 0
        self._bits.state = state

    def _numpy(self, name: str, *args, **kwargs):
        """``Generator.<name>(*args, **kwargs)``, drawn where this stream stands."""
        self._hand_over()
        try:
            return getattr(self._generator, name)(*args, **kwargs)
        finally:
            state = self._bits.state
            self._half = state["uinteger"] if state["has_uint32"] else None

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        """The PCG64 bit generator, handed over where the stream stands."""
        self._hand_over()
        return self._bits


def _numpy_method(name: str):
    def method(self, *args, **kwargs):
        return self._numpy(name, *args, **kwargs)
    method.__name__ = name
    method.__qualname__ = f"RandomStream.{name}"
    method.__doc__ = f"``Generator.{name}``, drawn where the stream stands."
    return method


# Explicit methods, not ``__getattr__``: a class with ``__getattr__`` loses
# CPython's specialised attribute loads, which costs ~0.2 us an ``integers``.
for _name in dir(np.random.Generator):
    if (not _name.startswith("_") and not hasattr(RandomStream, _name)
            and callable(getattr(np.random.Generator, _name))):
        setattr(RandomStream, _name, _numpy_method(_name))
del _name


#: A generator components draw from: a stream, or a caller's numpy one.
Rng = Union[RandomStream, np.random.Generator]
SeedLike = Union[int, RandomStream, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> Rng:
    """Return a generator for ``seed``.

    An integer, or ``None`` for nondeterministic entropy, gives a new
    :class:`RandomStream`.  A stream or a :class:`numpy.random.Generator` is
    returned unchanged: a caller's own numpy generator stays the caller's,
    since a stream over it would read ahead of the caller's own draws.  It
    yields the same values, as numpy scalars.
    """
    if isinstance(seed, (RandomStream, np.random.Generator)):
        return seed
    return RandomStream(seed)


def derive_rng(parent: Rng, tag: str) -> RandomStream:
    """Derive a child stream from ``parent`` keyed by a string ``tag``.

    The tag is hashed (with a process-independent hash, so results do not
    depend on ``PYTHONHASHSEED``) into the child seed so that two different
    consumers of the same parent never share a stream, and the derivation is
    stable across runs (unlike ``parent.spawn`` whose result depends on
    spawn order).  The child is :func:`make_rng` of that seed, whether the
    parent is a stream or a numpy generator.
    """
    tag_value = zlib.crc32(tag.encode("utf-8")) * 0x9E37_79B9
    return make_rng(int(parent.integers(0, 2**63)) ^ tag_value)


def pick(rng: Rng, seq: Sequence[T]) -> T:
    """One element of ``seq``, drawn uniformly.

    The same draw as ``rng.choice(seq)``: one ``rng.integers(0, len(seq))``
    call selects the index.  The element is returned as stored in ``seq``,
    not converted to a numpy scalar.
    """
    return seq[int(rng.integers(0, len(seq)))]


def _normalised_cdf(probabilities: Sequence[float]) -> List[float]:
    # Generator.choice's ``cdf = p.cumsum(); cdf /= cdf[-1]`` in Python
    # floats: a cumulative sum adds left to right in float64 either way.
    cdf = list(accumulate(probabilities))
    total = cdf[-1]
    return [value / total for value in cdf]


class WeightedPicker:
    """Draws indices ``0 .. n-1`` with probabilities fixed at construction.

    ``WeightedPicker(weights).draw(rng)`` returns what
    ``rng.choice(len(weights), p=w / w.sum())`` returns for
    ``w = np.asarray(weights, dtype=float)``, from the same single
    ``rng.random()`` draw: the cumulative distribution is built once, the
    way ``choice`` builds it on every call, and :meth:`draw` is a
    ``bisect_right`` on it (``choice``'s ``searchsorted(side="right")``).

    The weights are validated here, once: a negative weight, or a total
    that is not positive and finite (as with a NaN or infinite weight, or
    all weights zero), raises ``ValueError``.
    """

    __slots__ = ("cdf",)

    def __init__(self, weights: Sequence[float]) -> None:
        array = np.asarray(weights, dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        total = array.sum()
        if (array < 0).any() or not 0.0 < total < math.inf:
            raise ValueError("weights must be finite, non-negative and "
                             "not all zero")
        self.cdf: List[float] = _normalised_cdf((array / total).tolist())

    @classmethod
    def from_probabilities(cls, probabilities: Sequence[float]) -> "WeightedPicker":
        """A picker over a distribution taken as given, not renormalised.

        The draw equals ``rng.choice(len(p), p=p)``, and so do the checks
        ``choice`` makes on ``p``: a NaN or negative entry, or a sum more
        than sqrt(machine epsilon) away from 1, raises ``ValueError``.
        """
        if not probabilities:
            raise ValueError("probabilities must not be empty")
        if not all(p >= 0.0 for p in probabilities):  # False for NaN too
            raise ValueError("probabilities must be non-negative and not NaN")
        if abs(math.fsum(probabilities) - 1.0) > _SUM_TOLERANCE:
            raise ValueError("probabilities do not sum to 1")
        picker = cls.__new__(cls)
        picker.cdf = _normalised_cdf(probabilities)
        return picker

    def draw(self, rng: Rng) -> int:
        """One index, drawn with the picker's probabilities."""
        return bisect_right(self.cdf, rng.random())
