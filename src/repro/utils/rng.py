"""Deterministic random-number-generator management.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator`.  Campaigns built from the same master seed
are bit-reproducible, which both the test-suite and the benchmark harness
rely on.  The helpers below centralise how generators are created and how
child generators are derived from a parent so that adding a new consumer of
randomness does not silently change the stream seen by existing consumers.

Categorical draws go through :func:`pick` (one element of a sequence,
uniformly) and :class:`WeightedPicker` (an index, by weight), never through
``Generator.choice``.  Both draw from the stream exactly as ``choice`` does
and return the same element or index for the same generator state (pinned
by ``tests/utils/test_rng.py``), without ``choice``'s per-call array
conversion and validation: ~13 us per ``choice`` call against ~3 us for the
``integers`` call :func:`pick` makes and ~1 us for the ``random`` call behind
:meth:`WeightedPicker.draw` (numpy 2.4).
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from itertools import accumulate
from typing import List, Sequence, TypeVar, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

T = TypeVar("T")

#: ``Generator.choice``'s tolerance on the sum of a probability vector.
_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer, an existing generator (returned unchanged),
    or ``None`` for nondeterministic entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: np.random.Generator, tag: str) -> np.random.Generator:
    """Derive a child generator from ``parent`` keyed by a string ``tag``.

    The tag is hashed (with a process-independent hash, so results do not
    depend on ``PYTHONHASHSEED``) into the child seed so that two different
    consumers of the same parent never share a stream, and the derivation is
    stable across runs (unlike ``parent.spawn`` whose result depends on
    spawn order).
    """
    tag_value = np.uint64(zlib.crc32(tag.encode("utf-8")) * 0x9E37_79B9)
    draw = parent.integers(0, 2**63, dtype=np.int64)
    return np.random.default_rng(int(np.uint64(draw) ^ tag_value))


def split_rng(parent: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``parent`` into ``count`` independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = parent.integers(0, 2**63, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def pick(rng: np.random.Generator, seq: Sequence[T]) -> T:
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

    def draw(self, rng: np.random.Generator) -> int:
        """One index, drawn with the picker's probabilities."""
        return bisect_right(self.cdf, rng.random())
