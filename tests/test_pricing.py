import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramarket.bounds import buyer_gain_bounds
from paramarket.pricing import (
    PriorDistribution,
    ValuationQuadruple,
    cobb_douglas_revenue,
    myerson_price,
    nash_price_difference,
    quote,
    seller_virtual_valuation,
    settle,
)

import _helpers
from _helpers import cdf, myerson_price_numeric, pdf, reference_golden_section_min

finite_vals = st.floats(min_value=-100.0, max_value=100.0)


class TestNashPriceDifference:
    def test_symmetric_quadruple_transfers_nothing(self):
        q = ValuationQuadruple(v_a_self=3.0, v_b_of_a=5.0, v_b_self=3.0, v_a_of_b=5.0)
        assert nash_price_difference(q) == 0.0

    def test_hand_value(self):
        q = ValuationQuadruple(v_a_self=2.0, v_b_of_a=4.0, v_b_self=1.0, v_a_of_b=3.0)
        assert nash_price_difference(q) == 1.0

    def test_truthful_case_equals_gain_difference(self):
        # Both sides value A's parameters at A's gain and B's at B's gain.
        gain_a, gain_b = 5.0, 3.0
        q = ValuationQuadruple(v_a_self=gain_a, v_b_of_a=gain_a, v_b_self=gain_b, v_a_of_b=gain_b)
        assert nash_price_difference(q) == gain_a - gain_b

    @settings(max_examples=300)
    @given(finite_vals, finite_vals, finite_vals, finite_vals)
    def test_never_beaten_on_a_dense_grid(self, va_self, vb_of_a, vb_self, va_of_b):
        q = ValuationQuadruple(va_self, vb_of_a, vb_self, va_of_b)
        best = nash_price_difference(q)
        best_value = cobb_douglas_revenue(q, best)
        for delta in np.linspace(best - 50, best + 50, 501):
            assert cobb_douglas_revenue(q, float(delta)) <= best_value + 1e-9


class TestCobbDouglas:
    q = ValuationQuadruple(v_a_self=2.0, v_b_of_a=4.0, v_b_self=1.0, v_a_of_b=3.0)

    def test_hand_value(self):
        assert cobb_douglas_revenue(self.q, 1.0) == 4.0

    def test_concave_quadratic_with_unit_leading_coefficient(self):
        # Second difference of a quadratic equals 2 * leading coefficient.
        f = lambda d: cobb_douglas_revenue(self.q, d)  # noqa: E731
        second = f(1.0) - 2 * f(2.0) + f(3.0)
        assert second == pytest.approx(-2.0, abs=1e-12)


class TestMyersonPrice:
    def test_uniform_closed_form(self):
        assert myerson_price(PriorDistribution.uniform(0.0, 3.0)) == 1.5

    def test_exponential_closed_form(self):
        assert myerson_price(PriorDistribution.exponential(4.0)) == 0.25

    def test_uniform_support_clamp(self):
        # Revenue is decreasing on the support when hi/2 < lo.
        assert myerson_price(PriorDistribution.uniform(2.0, 3.0)) == 2.0

    def test_degenerate_support(self):
        assert myerson_price(PriorDistribution.uniform(1.0, 1.0)) == 1.0

    def test_fixed_point_identity_at_interior_optima(self):
        for prior in (PriorDistribution.uniform(0.0, 4.0), PriorDistribution.exponential(2.5)):
            p = myerson_price(prior)
            hazard = (1.0 - cdf(prior, p)) / pdf(prior, p)
            assert abs(p - hazard) <= 1e-9

    def test_numeric_solver_agrees_on_random_priors(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            if rng.uniform() < 0.5:
                lo = rng.uniform(0.0, 2.0)
                prior = PriorDistribution.uniform(lo, lo + rng.uniform(0.01, 5.0))
            else:
                prior = PriorDistribution.exponential(rng.uniform(0.05, 10.0))
            closed = myerson_price(prior)
            numeric = myerson_price_numeric(prior)
            assert numeric == pytest.approx(closed, rel=1e-6, abs=1e-7)

    def test_numeric_prices_unchanged_by_carried_end_values(self, monkeypatch):
        priors = [PriorDistribution.uniform(0.0, 3.0), PriorDistribution.uniform(1.5, 1.6)]
        priors += [PriorDistribution.uniform(2.0, 9.0), PriorDistribution.exponential(0.3)]
        priors += [PriorDistribution.exponential(4.0), PriorDistribution.exponential(17.0)]
        got = [myerson_price_numeric(prior) for prior in priors]
        monkeypatch.setattr(_helpers, "golden_section_min", reference_golden_section_min)
        assert got == [myerson_price_numeric(prior) for prior in priors]

    def test_invalid_priors_rejected(self):
        with pytest.raises(ValueError):
            PriorDistribution.uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            PriorDistribution.exponential(0.0)


class TestSellerVirtualValuation:
    def test_point_interval(self):
        assert seller_virtual_valuation(buyer_gain_bounds(4.0, 1.0, 1.0)) == pytest.approx(0.25, abs=1e-12)

    def test_finite_interval_prices_at_clamped_half_upper(self):
        b = buyer_gain_bounds(4.0, 0.9, 0.9)
        expected = min(max(b.upper / 2.0, b.lower), b.upper)
        assert math.isfinite(b.upper)
        assert seller_virtual_valuation(b) == pytest.approx(expected, rel=1e-12)

    def test_unbounded_interval_falls_back_to_lower(self):
        b = buyer_gain_bounds(1.0, 0.5, 0.5)
        assert math.isinf(b.upper)
        assert seller_virtual_valuation(b) == b.lower

    def test_result_always_inside_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            g = math.exp(rng.uniform(-3, 3))
            a, be = rng.uniform(1e-3, 1.0), rng.uniform(1e-3, 1.0)
            bounds = buyer_gain_bounds(g, a, be)
            v = seller_virtual_valuation(bounds)
            assert bounds.lower <= v
            assert math.isinf(bounds.upper) or v <= bounds.upper


class TestSettle:
    def test_midpoint_payment(self):
        assert settle(4.0, 2.0) == 3.0

    def test_negotiation_fails(self):
        assert settle(2.0, 4.0) is None

    def test_equal_valuations_trade_at_that_price(self):
        assert settle(5.0, 5.0) == 5.0

    @settings(max_examples=300)
    @given(finite_vals, finite_vals)
    def test_individual_rationality(self, buyer, seller):
        payment = settle(buyer, seller)
        if payment is None:
            assert buyer < seller
        else:
            assert seller <= payment <= buyer


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestHalvedSums:
    def test_valuations_near_the_float_maximum_settle_finite(self):
        # Summed before halving, the two 1e308 terms overflowed to inf.
        q = ValuationQuadruple(v_a_self=1e308, v_b_of_a=1e308, v_b_self=0.0, v_a_of_b=0.0)
        delta = nash_price_difference(q)
        assert delta == 1e308
        assert cobb_douglas_revenue(q, delta) == 0.0
        assert settle(1e308, 1e308) == 1e308
        assert settle(0.0, 0.0) == 0.0
        assert 1.6e308 <= settle(1.7e308, 1.6e308) <= 1.7e308

    @settings(max_examples=500)
    @given(finite_floats, finite_floats, finite_floats, finite_floats)
    def test_the_sum_halved_whole_wherever_it_is_finite(self, va_self, vb_of_a, vb_self, va_of_b):
        # Bit for bit the plain forms wherever those are finite, subnormal
        # sums included (halving a subnormal term first can round it to 0);
        # the sum of halves where they overflow.
        q = ValuationQuadruple(v_a_self=va_self, v_b_of_a=vb_of_a, v_b_self=vb_self, v_a_of_b=va_of_b)
        whole = 0.5 * (vb_of_a + va_self - va_of_b - vb_self)
        halves = 0.5 * vb_of_a + 0.5 * va_self - 0.5 * va_of_b - 0.5 * vb_self
        assert bits(nash_price_difference(q)) == bits(whole if math.isfinite(whole) else halves)
        buyer, seller = max(vb_of_a, va_self), min(vb_of_a, va_self)
        whole, halves = 0.5 * (buyer + seller), 0.5 * buyer + 0.5 * seller
        assert bits(settle(buyer, seller)) == bits(whole if math.isfinite(whole) else halves)
        assert seller <= settle(buyer, seller) <= buyer


class TestQuote:
    @pytest.mark.parametrize("rule", ["lower-bound", "myerson"])
    def test_informative_reverse_gain_settles_at_the_midpoint(self, rule):
        ask = (buyer_gain_bounds(4.0, 0.9, 0.9).lower if rule == "lower-bound"
               else seller_virtual_valuation(buyer_gain_bounds(4.0, 0.9, 0.9)))
        assert quote(rule, 9.0, 4.0, 0.9, 0.9) == (ask, settle(9.0, ask))

    @pytest.mark.parametrize("rule", ["lower-bound", "myerson"])
    @pytest.mark.parametrize("reverse_gain", [0.0, math.inf])
    @pytest.mark.parametrize("bid, expected", [(3.0, (3.0, 3.0)), (math.inf, (0.0, 0.0))])
    def test_uninformative_reverse_gain_asks_the_bid(self, rule, reverse_gain, bid, expected):
        # A seller at the truth (gain 0.0) or merging onto it (+inf) learns
        # nothing about the buyer's gain: it asks a finite bid, else nothing.
        assert quote(rule, bid, reverse_gain, 0.5, 0.5) == expected

    def test_unbounded_bid_buys_at_the_ask(self):
        ask = seller_virtual_valuation(buyer_gain_bounds(4.0, 0.9, 0.9))
        assert quote("myerson", math.inf, 4.0, 0.9, 0.9) == (ask, ask)

    def test_bid_below_the_ask_fails(self):
        ask = buyer_gain_bounds(4.0, 0.9, 0.9).lower
        assert 0.5 * ask > 0.0
        assert quote("lower-bound", 0.5 * ask, 4.0, 0.9, 0.9) == (ask, None)
