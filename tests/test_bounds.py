import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paramarket import bounds as bounds_module
from paramarket.bounds import (
    _DEN_EPS,
    AUDIT_DIM,
    AUDIT_REL_SLACK,
    GainBounds,
    SoundnessReport,
    TradeScenario,
    _squared_errors,
    buyer_gain_bounds,
    perf_ratio_bounds,
    soundness_sweep,
)
from paramarket.broker import WEIGHT_FLOOR

from _helpers import exact_perf_ratios

# Every positive finite gain, subnormal to the float maximum, with the
# extremes and 1 as explicit corners.
gains = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-24, 1.0, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
)
# Every merge weight a market quotes, [WEIGHT_FLOOR, 1], with that floor, the
# audit's floor 1e-3 and the full weight 1 as explicit corners.
weights = st.one_of(
    st.sampled_from([WEIGHT_FLOOR, 1e-3, 1.0]),
    st.floats(min_value=WEIGHT_FLOOR, max_value=1.0),
)


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
    return value


@st.composite
def clamp_boundary(draw):
    """(gain, alpha, beta) within a few ulps of ``1 - s(1 - alpha) = 0``."""
    alpha = draw(st.floats(min_value=WEIGHT_FLOOR, max_value=1.0, exclude_max=True))
    s = 1.0 / (1.0 - alpha)
    return _nudged(s * s, draw(st.integers(-4, 4))), alpha, draw(weights)


@st.composite
def den_eps_straddle(draw):
    """(gain, alpha, beta) within a few ulps of a zero of the upper denominator's sweep.

    The sweep end at the least ratio, ``(1 - beta) |x| - alpha beta s`` with
    ``x = 1 - s(1 - alpha) > 0``, vanishes at
    ``s = (1 - beta) / ((1 - beta)(1 - alpha) + alpha beta)``.
    """
    alpha = draw(weights)
    beta = draw(st.floats(min_value=WEIGHT_FLOOR, max_value=1.0, exclude_max=True))
    s = (1.0 - beta) / ((1.0 - beta) * (1.0 - alpha) + alpha * beta)
    return _nudged(s * s, draw(st.integers(-4, 4))), alpha, beta


triples = st.one_of(st.tuples(gains, weights, weights), clamp_boundary(), den_eps_straddle())
# Every weight _check_domain accepts, subnormals included.
any_weights = st.one_of(
    st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-162, 1.0]),
    st.floats(min_value=5e-324, max_value=1.0, allow_subnormal=True),
)


def _reference_sweep(trials: int, rng: np.random.Generator) -> SoundnessReport:
    """The audit as a plain loop: one ``GainBounds`` per interval, one ``np.sum`` per vector."""
    slack = bounds_module.AUDIT_REL_SLACK
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
            continue
        gain_a = err_dot_a / err_bar_a

        intervals = {
            TradeScenario.BUYER_GAIN: buyer_gain_bounds(gain_a, alpha, beta),
            **perf_ratio_bounds(gain_a, alpha, beta),
        }
        realized = (
            err_dot_b / err_bar_b, err_dot_b / err_dot_a, err_dot_b / err_bar_a,
            err_bar_b / err_dot_a, err_bar_b / err_bar_a,
        )
        for (scenario, bound), value in zip(intervals.items(), realized):
            clamps += bound.lower_clamped
            unbounded += math.isinf(bound.upper)
            if not bound.contains(value, slack):
                violations.append(dict(
                    trial=trial, scenario=scenario.value, realized=value, lower=bound.lower,
                    upper=bound.upper, gain_a=gain_a, alpha=alpha, beta=beta,
                ))
    return SoundnessReport(trials, tuple(violations), clamps, unbounded)


class TestBuyerGainBounds:
    def test_full_swap_collapses_to_reciprocal_gain(self):
        b = buyer_gain_bounds(4.0, 1.0, 1.0)
        assert b.lower == pytest.approx(0.25, abs=1e-15)
        assert b.upper == pytest.approx(0.25, abs=1e-15)

    def test_vanishing_denominator_reports_unbounded(self):
        b = buyer_gain_bounds(1.0, 0.5, 0.5)
        assert b.lower == pytest.approx(0.25, abs=1e-15)
        assert math.isinf(b.upper)

    def test_lower_clamp_flagged(self):
        # Large own gain with a small weight pushes the numerator negative.
        b = buyer_gain_bounds(100.0, 0.2, 0.5)
        assert b.lower == 0.0
        assert b.lower_clamped

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            buyer_gain_bounds(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            buyer_gain_bounds(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            buyer_gain_bounds(1.0, 0.5, 1.5)

    def test_upper_matches_plain_closed_form_on_its_valid_domain(self):
        # Whenever the unclamped closed-form denominator is positive the
        # interval-propagated upper endpoint reduces to it exactly.
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(5000):
            g = math.exp(rng.uniform(-4, 4))
            alpha, beta = rng.uniform(1e-3, 1.0), rng.uniform(1e-3, 1.0)
            s = math.sqrt(g)
            numerator = 1.0 + s * (1.0 - alpha)
            denominator = (1.0 - beta) - s * (1.0 - alpha - beta + 2.0 * alpha * beta)
            if denominator <= 1e-9 or 1.0 - s * (1.0 - alpha) < 0.0:
                continue
            checked += 1
            b = buyer_gain_bounds(g, alpha, beta)
            assert b.upper == pytest.approx((numerator / denominator) ** 2, rel=1e-12)
        assert checked > 500

    def test_interval_is_ordered(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            g = math.exp(rng.uniform(-6, 6))
            b = buyer_gain_bounds(g, rng.uniform(1e-3, 1.0), rng.uniform(1e-3, 1.0))
            assert b.lower >= 0.0
            assert b.lower <= b.upper


class TestScenarioBounds:
    def test_no_buy_no_sell_collapses_at_full_weight(self):
        b = perf_ratio_bounds(4.0, 1.0, 1.0)[TradeScenario.NO_BUY_NO_SELL]
        assert (b.lower, b.upper) == (0.25, 0.25)

    def test_buy_scenarios_scale_by_gain_exactly(self):
        b1 = perf_ratio_bounds(4.0, 1.0, 1.0)[TradeScenario.BUY_NO_SELL]
        assert (b1.lower, b1.upper) == (1.0, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(500):
            g = math.exp(rng.uniform(-4, 4))
            a, be = rng.uniform(1e-3, 1.0), rng.uniform(1e-3, 1.0)
            bounds = perf_ratio_bounds(g, a, be)
            nb, buy = bounds[TradeScenario.NO_BUY_NO_SELL], bounds[TradeScenario.BUY_NO_SELL]
            assert buy.lower == nb.lower * g and buy.upper == nb.upper * g
            nbs, bs = bounds[TradeScenario.NO_BUY_SELL], bounds[TradeScenario.BUY_SELL]
            assert bs.lower == nbs.lower * g and bs.upper == nbs.upper * g

    def test_all_four_scenarios_in_order(self):
        assert list(perf_ratio_bounds(2.0, 0.5, 0.5)) == [
            TradeScenario.NO_BUY_NO_SELL,
            TradeScenario.BUY_NO_SELL,
            TradeScenario.NO_BUY_SELL,
            TradeScenario.BUY_SELL,
        ]

    def test_domain_errors(self):
        for args in [(0.0, 0.5, 0.5), (math.inf, 0.5, 0.5), (1.0, 0.0, 0.5), (1.0, 0.5, 0.0), (1.0, 0.5, 1.5)]:
            with pytest.raises(ValueError):
                perf_ratio_bounds(*args)


class TestScalarBoundProperties:
    @settings(max_examples=600, deadline=None)
    @given(triples)
    def test_construction_never_raises_and_buy_is_no_buy_times_gain(self, triple):
        gain, alpha, beta = triple
        buyer_gain_bounds(gain, alpha, beta)
        bounds = perf_ratio_bounds(gain, alpha, beta)
        for no_buy, buy in [(TradeScenario.NO_BUY_NO_SELL, TradeScenario.BUY_NO_SELL),
                            (TradeScenario.NO_BUY_SELL, TradeScenario.BUY_SELL)]:
            assert bounds[buy] == GainBounds(
                bounds[no_buy].lower * gain, bounds[no_buy].upper * gain, bounds[no_buy].lower_clamped
            )

    @settings(max_examples=600, deadline=None)
    @given(triples)
    def test_lower_clamped_exactly_when_the_numerator_is_negative(self, triple):
        gain, alpha, beta = triple
        s = math.sqrt(gain)
        e_minus = 1.0 / (alpha * s) - (1.0 - alpha) / alpha
        numerators = {
            TradeScenario.BUYER_GAIN: 1.0 - s * (1.0 - alpha),
            TradeScenario.NO_BUY_NO_SELL: e_minus,
            TradeScenario.BUY_NO_SELL: e_minus,
            TradeScenario.NO_BUY_SELL: (1.0 - beta) * e_minus - beta,
            TradeScenario.BUY_SELL: (1.0 - beta) * e_minus - beta,
        }
        bounds = {TradeScenario.BUYER_GAIN: buyer_gain_bounds(gain, alpha, beta),
                  **perf_ratio_bounds(gain, alpha, beta)}
        for scenario, bound in bounds.items():
            assert bound.lower_clamped == (numerators[scenario] < 0.0), scenario
            assert not bound.lower_clamped or bound.lower == 0.0

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(den_eps_straddle(), triples))
    def test_a_finite_upper_end_divides_by_more_than_den_eps(self, triple):
        # The upper end is (y / f)^2 with f > _DEN_EPS, else the +inf sentinel.
        gain, alpha, beta = triple
        y = 1.0 + math.sqrt(gain) * (1.0 - alpha)
        upper = buyer_gain_bounds(gain, alpha, beta).upper
        assert math.isinf(upper) or math.sqrt(upper) * _DEN_EPS <= y * (1.0 + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(gains)
    def test_full_weights_collapse_the_buyer_interval_to_reciprocal_gain(self, gain):
        # Within two ulps of 1/gain; below s = _DEN_EPS the upper end is the
        # +inf sentinel, as the denominator sweep ends at s.
        b = buyer_gain_bounds(gain, 1.0, 1.0)
        assert b.lower == pytest.approx(1.0 / gain, rel=4.5e-16)
        assert b.upper == b.lower if math.sqrt(gain) > _DEN_EPS else math.isinf(b.upper)

    # Instances as soundness_sweep draws them; hypothesis also reaches the
    # ends of each range (scale exponents +-2, weights 1e-3 and 1).
    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale_a=st.floats(-2.0, 2.0),
        log_scale_b=st.floats(-2.0, 2.0),
        alpha=st.floats(1e-3, 1.0),
        beta=st.floats(1e-3, 1.0),
    )
    def test_audit_instances_lie_in_every_interval(self, seed, log_scale_a, log_scale_b, alpha, beta):
        rng = np.random.default_rng(seed)
        theta_star = rng.standard_normal(AUDIT_DIM)
        dot_a = theta_star + math.exp(log_scale_a) * rng.standard_normal(AUDIT_DIM)
        dot_b = theta_star + math.exp(log_scale_b) * rng.standard_normal(AUDIT_DIM)
        bar_a = (1.0 - alpha) * dot_a + alpha * dot_b
        bar_b = (1.0 - beta) * dot_b + beta * dot_a
        err_dot_a, err_dot_b, err_bar_a, err_bar_b = (
            float(np.sum((v - theta_star) ** 2)) for v in (dot_a, dot_b, bar_a, bar_b)
        )
        assume(min(err_dot_a, err_dot_b, err_bar_a, err_bar_b) > 1e-300)
        gain = err_dot_a / err_bar_a
        realized = {
            TradeScenario.BUYER_GAIN: err_dot_b / err_bar_b,
            TradeScenario.NO_BUY_NO_SELL: err_dot_b / err_dot_a,
            TradeScenario.BUY_NO_SELL: err_dot_b / err_bar_a,
            TradeScenario.NO_BUY_SELL: err_bar_b / err_dot_a,
            TradeScenario.BUY_SELL: err_bar_b / err_bar_a,
        }
        bounds = {TradeScenario.BUYER_GAIN: buyer_gain_bounds(gain, alpha, beta),
                  **perf_ratio_bounds(gain, alpha, beta)}
        for scenario, bound in bounds.items():
            assert bound.contains(realized[scenario], AUDIT_REL_SLACK), (scenario, realized[scenario], bound)


class TestWeightsNearTheSmallestFloats:
    """Weights that pass the domain check but where the closed forms leave the float range."""

    @pytest.mark.parametrize("bound, args", [
        (perf_ratio_bounds, (5e-324, 5e-324, 1e-3)),  # alpha * sqrt(gain) underflows to 0
        (buyer_gain_bounds, (5e-324, 5e-324, 1.0)),  # the lower denominator underflows to 0
        (perf_ratio_bounds, (1.0, 5e-324, 1e-3)),  # inf - inf in the lower numerator
    ])
    def test_closed_forms_out_of_range_raise_naming_the_inputs(self, bound, args):
        with pytest.raises(ValueError, match="from gain {!r}, alpha {!r}, beta {!r}".format(*args)):
            bound(*args)

    @settings(max_examples=600, deadline=None)
    @given(gains, any_weights, any_weights)
    def test_every_accepted_input_gives_intervals_or_names_itself(self, gain, alpha, beta):
        for bound in (buyer_gain_bounds, perf_ratio_bounds):
            try:
                result = bound(gain, alpha, beta)
            except ValueError as error:
                assert f"from gain {gain!r}, alpha {alpha!r}, beta {beta!r}" in str(error)
                continue
            for interval in [result] if isinstance(result, GainBounds) else result.values():
                assert 0.0 <= interval.lower <= interval.upper, interval


class TestSoundness:
    def test_randomized_sweep_has_zero_violations(self):
        report = soundness_sweep(3000, np.random.default_rng(7))
        assert report.ok
        assert report.trials == 3000

    def test_negative_trials_raise(self):
        with pytest.raises(ValueError, match="trials"):
            soundness_sweep(-5, np.random.default_rng(0))
        assert soundness_sweep(0, np.random.default_rng(0)) == SoundnessReport(0, (), 0, 0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_report_equals_the_reference_loop(self, seed):
        got = soundness_sweep(2000, np.random.default_rng(seed))
        assert repr(got) == repr(_reference_sweep(2000, np.random.default_rng(seed)))

    def test_forced_violation_rows_equal_the_reference_loop(self, monkeypatch):
        # A negative slack turns ends that realized ratios reach into violations.
        monkeypatch.setattr(bounds_module, "AUDIT_REL_SLACK", -1e-3)
        got = soundness_sweep(2000, np.random.default_rng(3))
        assert len(got.violations) == 18
        assert repr(got) == repr(_reference_sweep(2000, np.random.default_rng(3)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e150, -1e-150), st.floats(1e-150, 1e150)),
                    min_size=5 * AUDIT_DIM, max_size=5 * AUDIT_DIM))
    def test_stacked_row_sums_equal_np_sum_per_vector(self, values):
        rows = np.array(values[:4 * AUDIT_DIM]).reshape(4, AUDIT_DIM)
        center = np.array(values[4 * AUDIT_DIM:])
        expected = [float(np.sum((row - center) ** 2)) for row in rows]
        assert _squared_errors(rows.copy(), center) == expected

    @pytest.mark.parametrize("core", ["_buyer_ends", "_scenario_ends"])
    @pytest.mark.parametrize("ends", [(2.0, 1.0, False), (math.nan, 1.0, False)])
    def test_audit_enforces_the_interval_rule(self, monkeypatch, core, ends):
        original = getattr(bounds_module, core)
        if core == "_buyer_ends":
            monkeypatch.setattr(bounds_module, core, lambda *args: ends)
        else:
            monkeypatch.setattr(bounds_module, core, lambda *args: [*original(*args)[:3], ends])
        with pytest.raises(ValueError, match="not an interval"):
            soundness_sweep(10, np.random.default_rng(0))

    def test_collinear_witnesses_are_contained(self):
        # The two collinear configurations realize the extreme attainable
        # buyer gains for given (own gain, weights); both must sit inside the
        # computed interval, and so must any feasible value between them.
        rng = np.random.default_rng(2)
        for _ in range(3000):
            alpha = rng.uniform(1e-3, 1.0)
            beta = rng.uniform(1e-3, 1.0)
            s = math.exp(rng.uniform(-3, 3))  # sqrt of the seller's gain
            p = np.array([1.0, 0.0])
            for sign in (1.0, -1.0):
                w = sign * p / s
                q = (w - (1 - alpha) * p) / alpha
                bar_b = (1 - beta) * q + beta * p
                dot_norm2 = float(q @ q)
                bar_norm2 = float(bar_b @ bar_b)
                gain_a = s * s  # ||p||^2 / ||w||^2 by construction
                bounds = buyer_gain_bounds(gain_a, alpha, beta)
                if bar_norm2 <= 1e-20:
                    assert math.isinf(bounds.upper)
                    continue
                realized = dot_norm2 / bar_norm2
                assert bounds.contains(realized, rel_slack=1e-9), (
                    gain_a,
                    alpha,
                    beta,
                    realized,
                    bounds,
                )

    def test_degenerate_point_contained_when_feasible(self):
        # 1/gain is the buyer's gain under a full swap; whenever it lies in
        # the attainable range delimited by the collinear witnesses it must
        # also lie in the reported interval.
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(5000):
            alpha = rng.uniform(1e-3, 1.0)
            beta = rng.uniform(1e-3, 1.0)
            s = math.exp(rng.uniform(-2, 2))
            p = np.array([1.0, 0.0])
            witnesses = []
            for sign in (1.0, -1.0):
                q = (sign * p / s - (1 - alpha) * p) / alpha
                bar = (1 - beta) * q + beta * p
                if float(bar @ bar) <= 1e-20:
                    witnesses.append(math.inf)
                else:
                    witnesses.append(float(q @ q) / float(bar @ bar))
            feasible = min(witnesses) <= 1.0 / (s * s) <= max(witnesses)
            if not feasible:
                continue
            checked += 1
            assert buyer_gain_bounds(s * s, alpha, beta).contains(1.0 / (s * s), 1e-9)
        assert checked > 500


class TestGainBoundsType:
    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            GainBounds(-0.1, 1.0)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            GainBounds(2.0, 1.0)

    @pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan)])
    def test_rejects_nan_ends(self, lower, upper):
        with pytest.raises(ValueError):
            GainBounds(lower, upper)

    def test_unbounded_upper_allowed(self):
        b = GainBounds(2.0, math.inf)
        assert b.contains(1e300)


def test_one_dimensional_misses_are_float_rounding_of_exactly_tight_bounds():
    # In one dimension every estimate and merge lies on one line, so each
    # triangle inequality behind the scenario intervals is tight: a realized
    # ratio sits on an interval end, and float rounding can push it outside
    # by more than the audit's slack. In exact arithmetic it stays inside.
    rng = np.random.default_rng(5)
    log_floor = math.log(1e-6)
    slack = Decimal("1e-40")  # far above the 60-digit rounding
    misses = 0
    for _ in range(3000):
        theta = float(rng.standard_normal())
        scale_a = math.exp(rng.uniform(-8.0, 8.0))
        scale_b = math.exp(rng.uniform(-8.0, 8.0))
        dot_a = theta + scale_a * float(rng.standard_normal())
        dot_b = theta + scale_b * float(rng.standard_normal())
        alpha = math.exp(rng.uniform(log_floor, 0.0))
        beta = math.exp(rng.uniform(log_floor, 0.0))
        bar_a = (1.0 - alpha) * dot_a + alpha * dot_b
        bar_b = (1.0 - beta) * dot_b + beta * dot_a
        err_dot_a, err_dot_b, err_bar_a, err_bar_b = (
            (v - theta) * (v - theta) for v in (dot_a, dot_b, bar_a, bar_b))
        if min(err_dot_a, err_dot_b, err_bar_a, err_bar_b) <= 1e-300:
            continue  # measure-zero degenerate draw, as the audit skips it
        realized = (err_dot_b / err_dot_a, err_dot_b / err_bar_a, err_bar_b / err_dot_a, err_bar_b / err_bar_a)
        bounds = perf_ratio_bounds(err_dot_a / err_bar_a, alpha, beta)
        missed = [i for i, (interval, value) in enumerate(zip(bounds.values(), realized))
                  if not interval.contains(value, AUDIT_REL_SLACK)]
        if not missed:
            continue
        exact = exact_perf_ratios([theta], [dot_a], [dot_b], alpha, beta)
        for i in missed:
            lower, upper, value = exact[i]
            with localcontext(Context(prec=60)):
                inside = lower * (1 - slack) <= value <= upper * (1 + slack)
            assert inside, (list(bounds)[i], theta, dot_a, dot_b, alpha, beta)
            misses += 1
    assert misses > 0, "the float closed forms missed no realized ratio"
