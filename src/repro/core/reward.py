"""The α-weighted local/global coverage reward (Sec. III-B).

For a pulled arm ``a`` at time ``t``::

    R_t(a) = α * |cov_L_t(a)| + (1 - α) * |cov_G_t(a)|

where ``cov_L`` is the set of points covered by this test that the *arm*
had never covered before and ``cov_G`` is the subset of those that were new
*globally* (not covered by any arm).  Because every arm's history is a
subset of the global history, ``cov_G ⊆ cov_L`` always holds, and with the
paper's α = 0.25 a globally-new point contributes α + (1 - α) = 1.0 while an
arm-only-new point contributes α = 0.25 -- i.e. globally-new points are
worth 3x more ((1)/(0.25) − … as the paper phrases it, "3x importance").

Coverage-point *weights* extend the formula for richer coverage models:
``|cov|`` generalises to ``Σ w(p)`` over the new points, where ``w`` is
resolved per point by longest dotted-prefix match against a weight table
(``{"csr.mcause": 3.0, "trap": 2.0}``).  With no table configured every
weight is 1.0 and the reward collapses to the paper's counts exactly.
The CSR-transition coverage family (``csr.<reg>.<old>-><new>``, see
docs/coverage.md) is the intended consumer: weighting it above the hit-set
families steers the bandit toward arms that move the privileged state
machine, not just arms that touch new decode points.

Coverage arrives as ``int`` masks (:mod:`repro.coverage.bitset`).  Point
names are built only when weights are configured, and weights are summed
in sorted point-name order: float addition is not associative, and a
hash-ordered sum would differ between interpreters (distributed workers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.coverage.bitset import points_of


@dataclass(frozen=True)
class RewardBreakdown:
    """The reward of one pull, together with its coverage components.

    ``local_new`` / ``global_new`` are coverage masks.  ``local_value`` /
    ``global_value`` hold the *weighted* sums when the computer was
    configured with point weights; ``None`` means unweighted (the value
    falls back to the plain counts).
    """

    local_new: int
    global_new: int
    alpha: float
    local_value: Optional[float] = None
    global_value: Optional[float] = None

    @property
    def local_count(self) -> int:
        return self.local_new.bit_count()

    @property
    def global_count(self) -> int:
        return self.global_new.bit_count()

    @property
    def value(self) -> float:
        """R_t(a) = α Σw(cov_L) + (1 − α) Σw(cov_G) (weights default to 1)."""
        local = self.local_count if self.local_value is None else self.local_value
        global_ = (self.global_count if self.global_value is None
                   else self.global_value)
        return self.alpha * local + (1.0 - self.alpha) * global_


class RewardComputer:
    """Computes the MABFuzz reward from per-test coverage observations.

    Args:
        alpha: weight of arm-locally new coverage (the paper's α).
        point_weights: optional ``dotted-prefix -> weight`` table.  A
            point's weight is the entry with the longest matching prefix
            (``"csr.mcause"`` beats ``"csr"`` for ``csr.mcause.none->...``);
            unmatched points weigh 1.0.
    """

    def __init__(self, alpha: float = 0.25,
                 point_weights: Optional[Mapping[str, float]] = None) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.alpha = alpha
        if point_weights:
            for prefix, weight in point_weights.items():
                if weight < 0.0:
                    raise ValueError(
                        f"point weight for {prefix!r} must be non-negative")
            self.point_weights = dict(point_weights)
        else:
            self.point_weights = None

    # ------------------------------------------------------------------ weights
    def point_weight(self, point: str) -> float:
        """Weight of one coverage point (longest dotted-prefix match)."""
        weights = self.point_weights
        if weights is None:
            return 1.0
        prefix = point
        while True:
            weight = weights.get(prefix)
            if weight is not None:
                return weight
            cut = prefix.rfind(".")
            if cut < 0:
                return 1.0
            prefix = prefix[:cut]

    def _weighted_sum(self, mask: int) -> float:
        """Σ w(p) over ``mask``'s points, in sorted point-name order."""
        return sum(self.point_weight(point) for point in sorted(points_of(mask)))

    # ------------------------------------------------------------------ compute
    def compute(self,
                arm_coverage: int,
                test_coverage: int,
                global_new_points: int) -> RewardBreakdown:
        """Build the reward breakdown for one executed test.

        Args (all coverage masks):
            arm_coverage: points the pulled arm had covered before this test.
            test_coverage: points covered by the test just executed.
            global_new_points: subset of ``test_coverage`` that no arm had
                covered before (as reported by the coverage database).
        """
        local_new = test_coverage & ~arm_coverage
        global_new = global_new_points & local_new
        if self.point_weights is None:
            return RewardBreakdown(local_new=local_new, global_new=global_new,
                                   alpha=self.alpha)
        return RewardBreakdown(
            local_new=local_new, global_new=global_new, alpha=self.alpha,
            local_value=self._weighted_sum(local_new),
            global_value=self._weighted_sum(global_new),
        )
