"""Valuations, Nash-bargaining settlement, and Bayesian-optimal seller pricing.

Buyers value a counterparty's parameters at their own gain-from-trade. A
seller cannot observe the buyer's gain, so it builds an interval on it from
the trade bounds and asks the revenue-maximizing price under a prior on that
interval (the virtual valuation). The broker settles at the price difference
that maximizes the product of both agents' surpluses, which for the
Cobb-Douglas objective is the midpoint rule implemented here.
"""

import math
from dataclasses import dataclass
from enum import Enum

from ._search import golden_section_min
from .bounds import buyer_gain_bounds

__all__ = [
    "PriorKind",
    "PriorDistribution",
    "ValuationQuadruple",
    "nash_price_difference",
    "cobb_douglas_revenue",
    "myerson_price",
    "myerson_price_numeric",
    "seller_virtual_valuation",
    "settle",
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

    def cdf(self, p: float) -> float:
        if self.kind is PriorKind.UNIFORM:
            if self.hi == self.lo:
                return 0.0 if p < self.lo else 1.0
            return min(max((p - self.lo) / (self.hi - self.lo), 0.0), 1.0)
        return 1.0 - math.exp(-self.rate * max(p, 0.0))

    def pdf(self, p: float) -> float:
        if self.kind is PriorKind.UNIFORM:
            inside = self.lo <= p <= self.hi and self.hi > self.lo
            return 1.0 / (self.hi - self.lo) if inside else 0.0
        return self.rate * math.exp(-self.rate * p) if p >= 0 else 0.0


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
    return 0.5 * (q.v_b_of_a + q.v_a_self - q.v_a_of_b - q.v_b_self)


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
        if prior.hi == prior.lo:
            return prior.lo
        return max(prior.hi / 2.0, prior.lo)
    return 1.0 / prior.rate


def myerson_price_numeric(prior: PriorDistribution, tol: float = 1e-10) -> float:
    """Golden-section maximizer of expected revenue; cross-check for the closed forms."""
    if prior.kind is PriorKind.UNIFORM:
        if prior.hi == prior.lo:
            return prior.lo
        lo, hi = prior.lo, prior.hi
    else:
        lo, hi = 0.0, 20.0 / prior.rate
    revenue = lambda p: -p * (1.0 - prior.cdf(p))  # noqa: E731
    price, _ = golden_section_min(revenue, lo, hi, tol=tol * max(hi - lo, 1.0))
    return price


def seller_virtual_valuation(gain_a: float, alpha: float, beta: float) -> float:
    """Seller's estimate of the buyer's willingness to pay.

    Boxes the buyer's gain with `buyer_gain_bounds`, then prices it: a finite
    interval gets the Bayesian-optimal price under a uniform prior on the
    interval (clamped back into it); an unbounded interval falls back to its
    lower endpoint, the only certain part of the estimate.
    """
    b = buyer_gain_bounds(gain_a, alpha, beta)
    if math.isinf(b.upper):
        return b.lower
    if b.upper - b.lower <= 0.0:
        return b.lower
    price = myerson_price(PriorDistribution.uniform(b.lower, b.upper))
    return min(max(price, b.lower), b.upper)


def settle(buyer_valuation: float, seller_valuation: float) -> float | None:
    """Midpoint payment when the bid covers the ask; None when negotiation fails."""
    if buyer_valuation >= seller_valuation:
        return 0.5 * (buyer_valuation + seller_valuation)
    return None
