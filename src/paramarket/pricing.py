"""Valuations, Nash-bargaining settlement, and Bayesian-optimal seller pricing.

Buyers value a counterparty's parameters at their own gain-from-trade. A
seller cannot observe the buyer's gain, so it builds one interval on it from
the trade bounds and asks either the interval's lower end or the
revenue-maximizing price under a prior on it (the virtual valuation). The
broker settles at the price difference that maximizes the product of both
agents' surpluses, which for the Cobb-Douglas objective is the midpoint rule
implemented here.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .bounds import GainBounds, buyer_gain_bounds

__all__ = [
    "PriorKind",
    "PriorDistribution",
    "ValuationQuadruple",
    "nash_price_difference",
    "cobb_douglas_revenue",
    "myerson_price",
    "seller_virtual_valuation",
    "settle",
    "quote",
]


class PriorKind(Enum):
    UNIFORM = "uniform"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class PriorDistribution:
    """Prior on the buyer's valuation: uniform(lo, hi) or exponential(rate)."""

    kind: PriorKind
    lo: float = 0.0
    hi: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind is PriorKind.UNIFORM:
            if not (0.0 <= self.lo <= self.hi):
                raise ValueError(f"uniform prior needs 0 <= lo <= hi, got [{self.lo}, {self.hi}]")
        elif not self.rate > 0:
            raise ValueError(f"exponential prior needs a positive rate, got {self.rate}")

    @staticmethod
    def uniform(lo: float, hi: float) -> "PriorDistribution":
        return PriorDistribution(PriorKind.UNIFORM, lo=lo, hi=hi)

    @staticmethod
    def exponential(rate: float) -> "PriorDistribution":
        return PriorDistribution(PriorKind.EXPONENTIAL, rate=rate)


@dataclass(frozen=True)
class ValuationQuadruple:
    """All four private valuations in a two-agent round.

    ``v_a_self``  - agent A's ask for its own parameters
    ``v_b_of_a``  - agent B's bid for A's parameters
    ``v_b_self``  - agent B's ask for its own parameters
    ``v_a_of_b``  - agent A's bid for B's parameters
    """

    v_a_self: float
    v_b_of_a: float
    v_b_self: float
    v_a_of_b: float

    def __post_init__(self):
        for name in ("v_a_self", "v_b_of_a", "v_b_self", "v_a_of_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"valuation {name} must be finite")


def nash_price_difference(q: ValuationQuadruple) -> float:
    """Surplus-product-maximizing price difference (A's price minus B's).

    This is the net transfer agent A receives when both directions of the
    round settle; with truthful valuations it equals the difference of the
    two gains-from-trade.
    """
    delta = 0.5 * (q.v_b_of_a + q.v_a_self - q.v_a_of_b - q.v_b_self)
    if math.isinf(delta):  # overflowed: halve each term first (not always: that rounds subnormal terms)
        delta = 0.5 * q.v_b_of_a + 0.5 * q.v_a_self - 0.5 * q.v_a_of_b - 0.5 * q.v_b_self
    return delta


def cobb_douglas_revenue(q: ValuationQuadruple, delta_p: float) -> float:
    """Product of both agents' surpluses at a given price difference.

    Concave quadratic in ``delta_p`` with leading coefficient -1, maximized
    exactly at `nash_price_difference`.
    """
    u_a = delta_p - q.v_a_self + q.v_a_of_b
    u_b = -delta_p - q.v_b_self + q.v_b_of_a
    return u_a * u_b


def myerson_price(prior: PriorDistribution) -> float:
    """Revenue-optimal posted price ``argmax p * (1 - F(p))`` over the support.

    Closed forms: uniform(lo, hi) gives hi/2 clamped up to lo (degenerate
    support returns lo); exponential(rate) gives 1/rate. Interior optima
    satisfy the fixed point ``p = (1 - F(p)) / F'(p)``.
    """
    if prior.kind is PriorKind.UNIFORM:
        return max(prior.hi / 2.0, prior.lo)
    return 1.0 / prior.rate


def seller_virtual_valuation(bounds: GainBounds) -> float:
    """Seller's estimate of the buyer's willingness to pay, from its interval.

    Prices the interval `buyer_gain_bounds` boxes the buyer's gain in: a
    finite interval gets the Bayesian-optimal price under a uniform prior on
    the interval, which lies in it; an unbounded interval falls back to its
    lower endpoint, the only certain part of the estimate.
    """
    if math.isinf(bounds.upper):
        return bounds.lower
    return myerson_price(PriorDistribution.uniform(bounds.lower, bounds.upper))


def settle(buyer_valuation: float, seller_valuation: float) -> float | None:
    """Midpoint payment when the bid covers the ask; None when negotiation fails."""
    if buyer_valuation >= seller_valuation:
        payment = 0.5 * (buyer_valuation + seller_valuation)  # on overflow, halves as in nash_price_difference
        return payment if math.isfinite(payment) else 0.5 * buyer_valuation + 0.5 * seller_valuation
    return None


def quote(rule: str, bid: float, reverse_gain: float, alpha: float, beta: float) -> tuple:
    """``(ask, payment)`` for one priced offer; the payment is None when negotiation fails.

    The seller boxes the buyer's gain once, with `buyer_gain_bounds` on its
    own reverse gain and both merge weights (alpha its own, beta the buyer's),
    and asks the interval's lower end (``lower-bound``) or prices it with
    `seller_virtual_valuation` (``myerson``). A reverse gain of 0 or +inf (the
    seller, or its merge, is exactly at the truth) carries no information, so
    the seller asks the bid, or 0.0 when the bid is unbounded. A finite bid
    settles with `settle`; an unbounded one buys at the ask.
    """
    if 0.0 < reverse_gain < math.inf:
        bounds = buyer_gain_bounds(reverse_gain, alpha, beta)
        ask = bounds.lower if rule == "lower-bound" else seller_virtual_valuation(bounds)
    else:
        ask = bid if math.isfinite(bid) else 0.0
    return ask, settle(bid, ask) if math.isfinite(bid) else ask
