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
from dataclasses import InitVar, dataclass
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


# The audit's intervals in declaration order: the buyer's gain, then
# perf_ratio_bounds' four scenarios in its return order.
_AUDIT_LABELS = tuple(scenario.value for scenario in TradeScenario)
_SCENARIOS = tuple(TradeScenario)[1:]


def _check_interval(lower: float, upper: float, *inputs: float) -> None:
    """The interval rule: ``0 <= lower <= upper``, upper possibly +inf, no NaN end.

    The error names ``inputs``, the (gain, alpha, beta) the ends came from.
    """
    if not 0.0 <= lower <= upper:
        source = " from gain {!r}, alpha {!r}, beta {!r}".format(*inputs) if inputs else ""
        raise ValueError(f"not an interval: [{lower}, {upper}]{source}; needs 0 <= lower <= upper")


def _contains(lower: float, upper: float, value: float, rel_slack: float) -> bool:
    lo = lower * (1.0 - rel_slack)
    hi = upper if math.isinf(upper) else upper * (1.0 + rel_slack)
    return lo <= value <= hi


@dataclass(frozen=True)
class GainBounds:
    """Closed interval (upper possibly +inf) on a squared-norm ratio.

    ``source``, the (gain, alpha, beta) the ends came from, is not kept: only
    the interval rule's error names it.
    """

    lower: float
    upper: float
    lower_clamped: bool = False
    source: InitVar[tuple] = ()

    def __post_init__(self, source):
        _check_interval(self.lower, self.upper, *source)

    def contains(self, value: float, rel_slack: float = 0.0) -> bool:
        return _contains(self.lower, self.upper, value, rel_slack)


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


def _buyer_ends(gain_a: float, alpha: float, beta: float) -> tuple[float, float, bool]:
    """``(lower, upper, lower_clamped)`` of ``buyer_gain_bounds``."""
    _check_domain(gain_a, alpha, beta)
    s = math.sqrt(gain_a)
    x = 1.0 - s * (1.0 - alpha)  # lower numerator; sign not fixed
    y = 1.0 + s * (1.0 - alpha)
    den_lo = (1.0 - beta) + s * (1.0 - alpha - beta + 2.0 * alpha * beta)
    clamped = x < 0.0
    # den_lo underflows to 0 only for weights near the smallest floats: NaN fails the interval rule.
    lower = _square(max(x, 0.0) / den_lo) if den_lo else math.nan

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
    return lower, upper, clamped


def _scenario_ends(gain_a: float, alpha: float, beta: float) -> list[tuple[float, float, bool]]:
    """``(lower, upper, lower_clamped)`` of each ``perf_ratio_bounds`` interval,
    in ``_SCENARIOS`` order."""
    _check_domain(gain_a, alpha, beta)
    alpha_s = alpha * math.sqrt(gain_a)
    inv = 1.0 / alpha_s if alpha_s else math.nan  # as den_lo in _buyer_ends
    spread = (1.0 - alpha) / alpha
    e_minus, e_plus = inv - spread, inv + spread
    sell_lo, sell_hi = (1.0 - beta) * e_minus - beta, (1.0 - beta) * e_plus + beta
    ends = []
    for lo_expr, hi_expr in ((e_minus, e_plus), (sell_lo, sell_hi)):
        clamped = lo_expr < 0.0
        lower, upper = _square(max(lo_expr, 0.0)), _square(hi_expr)
        ends += (lower, upper, clamped), (lower * gain_a, upper * gain_a, clamped)
    return ends


def buyer_gain_bounds(gain_a: float, alpha: float, beta: float) -> GainBounds:
    """Bounds on the buyer's gain ratio from (own gain, both merge weights).

    With ``s = sqrt(gain_a)`` the closed forms are

        lower = (max(1 - s(1-alpha), 0) / ((1-beta) + s(1-alpha-beta+2 alpha beta)))^2
        upper = ((1 + s(1-alpha)) / f)^2

    where ``f`` is the least magnitude the upper denominator can take over the
    feasible ratio interval; ``f <= 1e-12`` reports the +inf sentinel. At
    alpha = beta = 1 both endpoints collapse to ``(1/s)^2``, within two ulps
    of ``1 / gain_a`` (for ``s <= 1e-12`` the upper end is the sentinel).
    Raises ``ValueError`` naming the inputs where the closed forms leave the
    float range (weights near the smallest floats).
    """
    return GainBounds(*_buyer_ends(gain_a, alpha, beta), (gain_a, alpha, beta))


def perf_ratio_bounds(gain_a: float, alpha: float, beta: float) -> dict[TradeScenario, GainBounds]:
    """Bounds on the post-decision performance ratio in every trade scenario.

    Returns ``{TradeScenario: GainBounds}`` for NO_BUY_NO_SELL, BUY_NO_SELL,
    NO_BUY_SELL and BUY_SELL, in that order. The no-buy/no-sell interval
    comes from the triangle inequality on the seller's merge identity; the
    sell variants widen it by the buyer's merge sweep, and each buy variant
    is its no-buy interval times ``gain_a`` exactly. Raises ``ValueError``
    naming the inputs where the closed forms leave the float range.
    """
    ends = _scenario_ends(gain_a, alpha, beta)
    return {scenario: GainBounds(*e, (gain_a, alpha, beta)) for scenario, e in zip(_SCENARIOS, ends)}


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


def _squared_errors(rows: np.ndarray, center: np.ndarray) -> list[float]:
    """``float(np.sum((row - center) ** 2))`` for each row, bit for bit; overwrites ``rows``."""
    rows -= center
    np.square(rows, out=rows)
    return rows.sum(axis=1).tolist()


def soundness_sweep(trials: int, rng: np.random.Generator) -> SoundnessReport:
    """Construct random trade instances and check every bound family on them.

    Each trial draws true parameters, both agents' parameter estimates, and
    merge weights, then verifies that the realized buyer gain and all four
    scenario ratios fall inside the corresponding computed intervals, up to
    ``AUDIT_REL_SLACK``. It applies ``GainBounds``' rules to the closed forms'
    plain ends, building no object per interval.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    violations: list[dict] = []
    clamps = unbounded = 0
    estimates = np.empty((4, AUDIT_DIM))
    dot_a, dot_b, bar_a, bar_b = estimates
    for trial in range(trials):
        theta_star = rng.standard_normal(AUDIT_DIM)
        scale_a = math.exp(rng.uniform(-2.0, 2.0))
        scale_b = math.exp(rng.uniform(-2.0, 2.0))
        rng.standard_normal(out=estimates[:2])  # both noises in one draw, dot_a's first
        dot_a *= scale_a
        dot_a += theta_star
        dot_b *= scale_b
        dot_b += theta_star
        alpha = rng.uniform(1e-3, 1.0)
        beta = rng.uniform(1e-3, 1.0)
        np.add((1.0 - alpha) * dot_a, alpha * dot_b, out=bar_a)
        np.add((1.0 - beta) * dot_b, beta * dot_a, out=bar_b)

        err_dot_a, err_dot_b, err_bar_a, err_bar_b = _squared_errors(estimates, theta_star)
        if min(err_dot_a, err_dot_b, err_bar_a, err_bar_b) <= 1e-300:
            continue  # measure-zero degenerate draw
        gain_a = err_dot_a / err_bar_a

        intervals = (_buyer_ends(gain_a, alpha, beta), *_scenario_ends(gain_a, alpha, beta))
        realized = (  # in the order of ``_AUDIT_LABELS``
            err_dot_b / err_bar_b, err_dot_b / err_dot_a, err_dot_b / err_bar_a,
            err_bar_b / err_dot_a, err_bar_b / err_bar_a,
        )
        for label, (lower, upper, clamped), value in zip(_AUDIT_LABELS, intervals, realized):
            _check_interval(lower, upper, gain_a, alpha, beta)
            clamps += clamped
            unbounded += math.isinf(upper)
            if not _contains(lower, upper, value, AUDIT_REL_SLACK):
                violations.append(dict(
                    trial=trial, scenario=label, realized=value, lower=lower,
                    upper=upper, gain_a=gain_a, alpha=alpha, beta=beta,
                ))
    return SoundnessReport(trials, tuple(violations), clamps, unbounded)
