"""Seller-side interval bounds on the counterparty's performance and gain.

A seller who knows its own gain ratio and both quoted merge weights can box
in the buyer's gain ratio and the post-decision performance ratio of the two
agents, without ever seeing the buyer's numbers. The derivations bound norms
of convex combinations via the triangle inequality, so the closed forms can
square linear expressions whose sign is not fixed. Endpoints are handled as
interval propagation:

* lower endpoints clamp the possibly-negative linear expression at zero
  before squaring (the clamped cases are flagged);
* the upper endpoint on the buyer's gain divides by the smallest achievable
  magnitude of a linear sweep over the ratio interval. When that magnitude
  straddles zero the bound is reported as the +inf sentinel, because a merge
  can land exactly on the true parameters;
* an endpoint whose square overflows the float range is +inf.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "UNBOUNDED",
    "TradeScenario",
    "GainBounds",
    "buyer_gain_bounds",
    "perf_ratio_bounds",
    "SoundnessReport",
    "soundness_sweep",
]

UNBOUNDED = math.inf

# Denominators at or below this are reported as the +inf sentinel.
_DEN_EPS = 1e-12

# Audit dimension: the bounds use only norms, so any works; 8 keeps a trial cheap.
AUDIT_DIM = 8
# Relative slack on each interval end: bound and ratio round along different paths.
AUDIT_REL_SLACK = 1e-9


class TradeScenario(Enum):
    BUYER_GAIN = "buyer-gain"
    NO_BUY_NO_SELL = "no-buy-no-sell"
    BUY_NO_SELL = "buy-no-sell"
    NO_BUY_SELL = "no-buy-sell"
    BUY_SELL = "buy-sell"


@dataclass(frozen=True)
class GainBounds:
    """Closed interval (upper possibly +inf) on a squared-norm ratio."""

    lower: float
    upper: float
    lower_clamped: bool = False

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError(f"lower bound must be non-negative, got {self.lower}")
        if math.isfinite(self.upper) and self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    def contains(self, value: float, rel_slack: float = 0.0) -> bool:
        lo = self.lower * (1.0 - rel_slack)
        hi = self.upper if math.isinf(self.upper) else self.upper * (1.0 + rel_slack)
        return lo <= value <= hi


def _check_domain(gain_a: float, alpha: float, beta: float) -> None:
    if not gain_a > 0 or not math.isfinite(gain_a):
        raise ValueError(f"gain ratio must be positive and finite, got {gain_a}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")


def _square(v: float) -> float:
    # ``v ** 2``, or +inf where that overflows (Python raises there).
    try:
        return v**2
    except OverflowError:
        return math.inf


def buyer_gain_bounds(gain_a: float, alpha: float, beta: float) -> GainBounds:
    """Bounds on the buyer's gain ratio from (own gain, both merge weights).

    With ``s = sqrt(gain_a)`` the closed forms are

        lower = (max(1 - s(1-alpha), 0) / ((1-beta) + s(1-alpha-beta+2 alpha beta)))^2
        upper = ((1 + s(1-alpha)) / f)^2

    where ``f`` is the least magnitude the upper denominator can take over the
    feasible ratio interval; ``f <= 1e-12`` reports the +inf sentinel. At
    alpha = beta = 1 both endpoints collapse to ``(1/s)^2``, within two ulps
    of ``1 / gain_a`` (for ``s <= 1e-12`` the upper end is the sentinel).
    """
    _check_domain(gain_a, alpha, beta)
    s = math.sqrt(gain_a)
    x = 1.0 - s * (1.0 - alpha)  # lower numerator; sign not fixed
    y = 1.0 + s * (1.0 - alpha)
    den_lo = (1.0 - beta) + s * (1.0 - alpha - beta + 2.0 * alpha * beta)
    clamped = x < 0.0
    lower = _square(max(x, 0.0) / den_lo)

    # Denominator sweep endpoints: a at the smallest achievable ratio |x|,
    # b at the largest ratio y. Straddling zero means the denominator can
    # vanish, so the bound is unbounded above.
    a = (1.0 - beta) * abs(x) - alpha * beta * s
    b = (1.0 - beta) * y - alpha * beta * s
    if a > _DEN_EPS:
        f = a
    elif b < -_DEN_EPS:
        f = -b
    else:
        f = 0.0
    upper = UNBOUNDED if f <= _DEN_EPS else _square(y / f)
    return GainBounds(lower, upper, clamped)


def perf_ratio_bounds(gain_a: float, alpha: float, beta: float) -> dict[TradeScenario, GainBounds]:
    """Bounds on the post-decision performance ratio in every trade scenario.

    Returns ``{TradeScenario: GainBounds}`` for NO_BUY_NO_SELL, BUY_NO_SELL,
    NO_BUY_SELL and BUY_SELL, in that order. The no-buy/no-sell interval
    comes from the triangle inequality on the seller's merge identity; the
    sell variants widen it by the buyer's merge sweep, and each buy variant
    is its no-buy interval times ``gain_a`` exactly.
    """
    _check_domain(gain_a, alpha, beta)
    s = math.sqrt(gain_a)
    e_minus = 1.0 / (alpha * s) - (1.0 - alpha) / alpha
    e_plus = 1.0 / (alpha * s) + (1.0 - alpha) / alpha
    intervals = {}
    for no_buy, buy, lo_expr, hi_expr in (
        (TradeScenario.NO_BUY_NO_SELL, TradeScenario.BUY_NO_SELL, e_minus, e_plus),
        (TradeScenario.NO_BUY_SELL, TradeScenario.BUY_SELL,
         (1.0 - beta) * e_minus - beta, (1.0 - beta) * e_plus + beta),
    ):
        clamped = lo_expr < 0.0
        lower, upper = _square(max(lo_expr, 0.0)), _square(hi_expr)
        intervals[no_buy] = GainBounds(lower, upper, clamped)
        intervals[buy] = GainBounds(lower * gain_a, upper * gain_a, clamped)
    return intervals


@dataclass(frozen=True)
class SoundnessReport:
    """Result of a randomized sweep checking realized ratios against bounds."""

    trials: int
    violations: tuple[dict, ...]
    lower_clamp_count: int
    unbounded_upper_count: int

    @property
    def ok(self) -> bool:
        return not self.violations


def soundness_sweep(trials: int, rng: np.random.Generator) -> SoundnessReport:
    """Construct random trade instances and check every bound family on them.

    Each trial draws true parameters, both agents' parameter estimates, and
    merge weights, then verifies that the realized buyer gain and all four
    scenario ratios fall inside the corresponding computed intervals, up to
    ``AUDIT_REL_SLACK``.
    """
    violations: list[dict] = []
    clamps = unbounded = 0
    for trial in range(trials):
        theta_star = rng.standard_normal(AUDIT_DIM)
        scale_a = math.exp(rng.uniform(-2.0, 2.0))
        scale_b = math.exp(rng.uniform(-2.0, 2.0))
        dot_a = theta_star + scale_a * rng.standard_normal(AUDIT_DIM)
        dot_b = theta_star + scale_b * rng.standard_normal(AUDIT_DIM)
        alpha = rng.uniform(1e-3, 1.0)
        beta = rng.uniform(1e-3, 1.0)

        bar_a = (1.0 - alpha) * dot_a + alpha * dot_b
        bar_b = (1.0 - beta) * dot_b + beta * dot_a
        err = lambda v: float(np.sum((v - theta_star) ** 2))  # noqa: E731
        err_dot_a, err_dot_b = err(dot_a), err(dot_b)
        err_bar_a, err_bar_b = err(bar_a), err(bar_b)
        if min(err_dot_a, err_dot_b, err_bar_a, err_bar_b) <= 1e-300:
            continue  # measure-zero degenerate draw
        gain_a = err_dot_a / err_bar_a

        bounds = {
            TradeScenario.BUYER_GAIN: buyer_gain_bounds(gain_a, alpha, beta),
            **perf_ratio_bounds(gain_a, alpha, beta),
        }
        realized = (  # in the order of ``bounds``
            err_dot_b / err_bar_b, err_dot_b / err_dot_a, err_dot_b / err_bar_a,
            err_bar_b / err_dot_a, err_bar_b / err_bar_a,
        )
        for (scenario, bound), value in zip(bounds.items(), realized):
            clamps += bound.lower_clamped
            unbounded += math.isinf(bound.upper)
            if not bound.contains(value, AUDIT_REL_SLACK):
                violations.append(dict(
                    trial=trial, scenario=scenario.value, realized=value, lower=bound.lower,
                    upper=bound.upper, gain_a=gain_a, alpha=alpha, beta=beta,
                ))
    return SoundnessReport(trials, tuple(violations), clamps, unbounded)
