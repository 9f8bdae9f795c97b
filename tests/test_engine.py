import dataclasses

from collections import defaultdict

import numpy as np
import pytest

from paramarket.broker import GainKind
from paramarket.core import DivergenceError, LossSpec
from paramarket.engine import (
    AgentSpec,
    BrokerSpec,
    DecisionContext,
    MarketConfig,
    MlpMarketSpec,
    Policy,
    PolicyKind,
    build_market,
    convergence_metrics,
    geometric_decay_check,
    run_simulation,
)
from paramarket.experiments import never_trade_variant, relative_improvement, run_with_twin

BENEFICIAL = Policy(PolicyKind.TRADE_WHEN_BENEFICIAL)
NEVER = Policy(PolicyKind.NEVER_TRADE)
ALWAYS = Policy(PolicyKind.ALWAYS_TRADE)


def linear_cfg(
    seed=0,
    rounds=25,
    gain=GainKind.ERROR_RATIO,
    policies=(BENEFICIAL, BENEFICIAL),
    pricing=False,
    noise_b=0.5,
    trade_every=1,
    trade_start=1,
    decisions=(None, None),
    seller_pricing="myerson",
):
    return MarketConfig(
        seed=seed,
        rounds=rounds,
        gain_kind=gain,
        agents=(
            AgentSpec("a", dim=24, n_samples=100, noise_variance=0.0,
                      policy=policies[0], decision=decisions[0]),
            AgentSpec("b", dim=24, n_samples=36, noise_variance=noise_b,
                      policy=policies[1], decision=decisions[1]),
        ),
        broker=BrokerSpec(n_samples=1500),
        pricing=pricing,
        trade_every=trade_every,
        trade_start=trade_start,
        seller_pricing=seller_pricing,
    )


class TestConfigValidation:
    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            MarketConfig(0, 10, GainKind.ERROR_RATIO,
                         agents=(AgentSpec("a", 4, 10),), broker=BrokerSpec(100))

    def test_pricing_requires_error_ratio(self):
        with pytest.raises(ValueError, match="error-ratio"):
            linear_cfg(gain=GainKind.LOSS_DIFFERENCE, pricing=True)

    def test_fedavg_is_market_wide(self):
        with pytest.raises(ValueError, match="fedavg"):
            linear_cfg(policies=(Policy(PolicyKind.FEDAVG), BENEFICIAL))

    def test_mlp_requires_loss_difference(self):
        with pytest.raises(ValueError, match="loss-difference"):
            MarketConfig(0, 10, GainKind.ERROR_RATIO,
                         agents=(AgentSpec("a", 0, 50), AgentSpec("b", 0, 50)),
                         broker=BrokerSpec(100), model="mlp", mlp=MlpMarketSpec())

    def test_asynchronous_delay_parsing(self):
        p = Policy.parse("asynchronous:7")
        assert p.kind is PolicyKind.ASYNCHRONOUS and p.delay == 7
        with pytest.raises(ValueError):
            Policy(PolicyKind.ALWAYS_TRADE, delay=3)


class TestRoundSemantics:
    def test_identical_agents_never_trade(self):
        # Two agents with the same data and init evolve as plain gradient
        # descent: merges are degenerate and no gain is ever beneficial.
        from paramarket.core import ParameterVector
        from paramarket.engine import AgentState, LinearBrokerEngine, LinearModel, run_prepared_simulation
        from paramarket.linear import synthesize_task

        cfg = linear_cfg(rounds=15)
        rng = np.random.default_rng(13)
        truth = ParameterVector(rng.standard_normal(12))
        task = synthesize_task(12, 80, 0.0, truth, rng)
        broker_task = synthesize_task(12, 600, 0.0, truth, rng)
        init = ParameterVector(np.zeros(12))
        smoothness = 2 * np.linalg.eigvalsh(task.data.inputs.T @ task.data.inputs / 80).max()
        model = LinearModel(task, 0.9 / smoothness, cfg.loss_spec)
        states = tuple(
            AgentState(u, init, model, BENEFICIAL, 1, 80) for u in ("a", "b")
        )
        engine = LinearBrokerEngine(broker_task.data, cfg.loss_spec, GainKind.ERROR_RATIO, truth)
        log = run_prepared_simulation(cfg, states, engine, {"a": 0.0, "b": 0.0})
        assert all(not r.indicator for r in log.trades)
        by_round = defaultdict(dict)
        for row in log.curves:
            by_round[row.round_index][row.agent] = row.broker_loss
        for losses in by_round.values():
            assert losses["a"] == losses["b"]

    def test_never_trade_log_equals_gradient_descent_traces(self):
        log = run_simulation(linear_cfg(policies=(NEVER, NEVER)))
        assert log.trades == []
        # Re-running with trading disabled by frequency must give the same curves.
        log2 = run_simulation(linear_cfg(trade_every=26))
        assert log2.trades == []
        for r1, r2 in zip(log.curves, log2.curves):
            assert r1 == r2

    def test_trade_frequency_rounds(self):
        log = run_simulation(linear_cfg(trade_every=7, rounds=20))
        assert {r.round_index for r in log.trades} <= {7, 14}

    def test_trade_start_round(self):
        log = run_simulation(linear_cfg(trade_start=10, rounds=15))
        assert min(r.round_index for r in log.trades) == 10

    def test_asynchronous_delay_blocks_both_sides(self):
        cfg = linear_cfg(policies=(Policy(PolicyKind.ASYNCHRONOUS, delay=8), BENEFICIAL), rounds=12)
        log = run_simulation(cfg)
        # Agent a neither buys nor sells before its personal start round 9.
        early = [r for r in log.trades if r.round_index < 9]
        assert all("a" not in (r.buyer, r.seller) for r in early)
        late_buyers = {r.buyer for r in log.trades if r.round_index >= 9}
        assert "b" in late_buyers

    def test_indicator_payment_consistency(self):
        for pricing in (False, True):
            log = run_simulation(linear_cfg(pricing=pricing, seller_pricing="lower-bound"))
            for r in log.trades:
                assert r.indicator == (r.payment is not None)

    def test_divergence_carries_round_index(self):
        cfg = dataclasses.replace(
            linear_cfg(),
            agents=(
                AgentSpec("a", dim=24, n_samples=100, step_size=1e80),
                AgentSpec("b", dim=24, n_samples=36, step_size=1e80),
            ),
        )
        with pytest.raises(DivergenceError) as err:
            run_simulation(cfg)
        assert err.value.round_index is not None


class TestPricingRounds:
    def test_money_conservation_every_round(self):
        log = run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound", rounds=30))
        assert sum(r.indicator for r in log.trades) > 0
        per_round = defaultdict(float)
        for row in log.curves:
            per_round[row.round_index] += row.cum_payment
        assert all(v == 0.0 for v in per_round.values())

    def test_payment_between_valuations(self):
        log = run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound", rounds=30))
        for r in log.trades:
            if r.indicator:
                assert r.seller_valuation <= r.payment <= r.buyer_valuation

    def test_failed_negotiation_keeps_local_params(self):
        # Myerson asks in a lopsided market exceed the buyer's bid, so the
        # buyer's final parameters equal its locally trained ones: its curve
        # must match the never-trade twin whenever no trade executed at all.
        cfg = linear_cfg(pricing=True, seller_pricing="myerson", noise_b=2.0, rounds=10)
        log = run_simulation(cfg)
        failed = [r for r in log.trades if r.buyer_valuation is not None and not r.indicator]
        assert failed, "expected at least one failed negotiation"
        if not any(r.indicator for r in log.trades):
            twin = run_simulation(never_trade_variant(cfg))
            assert [r.broker_loss for r in log.curves] == [r.broker_loss for r in twin.curves]


class TestConfidentiality:
    def test_decision_sees_only_own_gain_and_weight(self):
        seen = []

        def spy(ctx):
            seen.append(ctx)
            return ctx.gain.trade_beneficial

        log = run_simulation(linear_cfg(decisions=(spy, spy)))
        assert seen and len(log.trades) > 0
        allowed = {"round_index", "gain", "merge_weight", "policy"}
        assert {f.name for f in dataclasses.fields(DecisionContext)} == allowed
        for ctx in seen:
            assert 0.0 < ctx.merge_weight <= 1.0
            assert ctx.gain.kind is GainKind.ERROR_RATIO


class TestBaselines:
    def test_fedavg_agents_share_parameters(self):
        cfg = MarketConfig(
            seed=5, rounds=12, gain_kind=GainKind.ERROR_RATIO,
            agents=(
                AgentSpec("a", dim=16, n_samples=90, policy=Policy(PolicyKind.FEDAVG)),
                AgentSpec("b", dim=16, n_samples=30, noise_variance=0.4,
                          policy=Policy(PolicyKind.FEDAVG)),
            ),
            broker=BrokerSpec(n_samples=800),
        )
        from paramarket.broker import fedavg_weight
        from paramarket.engine import LinearBrokerEngine, run_prepared_simulation

        states, base, truth = build_market(cfg, np.random.default_rng(cfg.seed))
        views = []

        class Recording(LinearBrokerEngine):
            def begin_round(self, dots):
                views.append(super().begin_round(dots))
                return views[-1]

        engine = Recording(base.data, base.loss_spec, cfg.gain_kind, base.truth)
        log = run_prepared_simulation(cfg, states, engine, truth)
        assert log.trades == run_simulation(cfg).trades
        by_round = defaultdict(dict)
        for row in log.curves:
            by_round[row.round_index][row.agent] = row.broker_loss
        for t, losses in by_round.items():
            if t >= 1:
                assert losses["a"] == pytest.approx(losses["b"], rel=1e-12)
        weights = {r.merge_weight for r in log.trades if r.buyer == "a"}
        assert weights == {30 / 120}
        # Every round merges both ways at the fixed weight, free of charge; the
        # logged gain is the realized broker-loss difference at that weight.
        assert len(log.trades) == 2 * cfg.rounds
        n = {"a": 90, "b": 30}
        for r in log.trades:
            assert r.indicator and r.payment == 0.0
            assert r.gain.kind is GainKind.LOSS_DIFFERENCE
            view = views[r.round_index - 1]
            w = fedavg_weight(n[r.buyer], n[r.seller])
            assert r.merge_weight == w
            assert r.gain.value == view.dot_loss(r.buyer) - view.merged_loss(r.buyer, r.seller, w)

    def test_always_trade_buys_even_without_benefit(self):
        log = run_simulation(linear_cfg(policies=(ALWAYS, ALWAYS), rounds=10))
        bought = [r for r in log.trades if r.indicator and not r.gain.trade_beneficial]
        assert bought, "always-trade should execute some non-beneficial merges"


class TestMarketOutcomes:
    def test_both_agents_beat_their_twins(self):
        log, twin = run_with_twin(linear_cfg(rounds=40))
        imp = relative_improvement(log, twin, "broker_loss")
        assert imp["a"] > 0 and imp["b"] > 0

    def test_no_regret_merges_on_broker_loss(self):
        # Loss-difference mode: an executed trade strictly improves broker loss.
        log = run_simulation(linear_cfg(gain=GainKind.LOSS_DIFFERENCE, rounds=30))
        for r in log.trades:
            if r.indicator:
                assert r.gain.value > 0

    def test_no_regret_merges_error_ratio_mode(self):
        # Every beneficial evaluation's merge weakly improves broker loss
        # (optimizer dominance over the weight interval).
        from paramarket.engine import LinearBrokerEngine, build_market, run_prepared_simulation

        cfg = linear_cfg(rounds=30)
        states, base, truth = build_market(cfg, np.random.default_rng(cfg.seed))

        events = []

        class Recording(LinearBrokerEngine):
            def begin_round(self, dots):
                view = super().begin_round(dots)
                inner_propose, inner_gain = view.propose, view.gain

                def gain(buyer, proposal):
                    g = inner_gain(buyer, proposal)
                    if g.trade_beneficial:
                        events.append((proposal.broker_loss_before, proposal.broker_loss_after))
                    return g

                view.gain = gain
                return view

        engine = Recording(base.data, base.loss_spec, cfg.gain_kind, base.truth)
        run_prepared_simulation(cfg, states, engine, truth)
        assert events
        for before, after in events:
            assert after <= before + 1e-9 * (1 + before)

    def test_three_agent_market_targets_best_seller(self):
        cfg = MarketConfig(
            seed=7, rounds=10, gain_kind=GainKind.ERROR_RATIO,
            agents=(
                AgentSpec("a", dim=16, n_samples=20, noise_variance=0.8),
                AgentSpec("b", dim=16, n_samples=40, noise_variance=0.3),
                AgentSpec("c", dim=16, n_samples=200, noise_variance=0.0),
            ),
            broker=BrokerSpec(n_samples=1600),
        )
        log = run_simulation(cfg)
        sellers_for_a = {r.seller for r in log.trades if r.buyer == "a" and r.round_index <= 5}
        assert sellers_for_a == {"c"}


class TestAnalytics:
    def test_convergence_round_zero_for_huge_epsilon(self):
        log = run_simulation(linear_cfg(rounds=5))
        rounds = convergence_metrics(log, 1e12)
        assert rounds == {"a": 0, "b": 0}

    def test_convergence_monotone_in_epsilon(self):
        log = run_simulation(linear_cfg(rounds=40))
        loose = convergence_metrics(log, 1e-2)
        tight = convergence_metrics(log, 1e-4)
        for agent in ("a", "b"):
            if tight[agent] is not None and loose[agent] is not None:
                assert loose[agent] <= tight[agent]

    def test_decay_check_skips_inapplicable_logs(self):
        log = run_simulation(linear_cfg(policies=(NEVER, NEVER)))
        report = geometric_decay_check(log, rho=1.0)
        assert not report.applicable
        assert "no executed trades" in report.reason

        log_diff = run_simulation(linear_cfg(gain=GainKind.LOSS_DIFFERENCE))
        assert not geometric_decay_check(log_diff, rho=1.0).applicable

    def test_decay_equality_collapse_on_orthonormal_design(self):
        # With a perfectly conditioned buyer design the merge-step factor is
        # exactly the reciprocal gain.
        cfg = MarketConfig(
            seed=11, rounds=12, gain_kind=GainKind.ERROR_RATIO,
            agents=(
                AgentSpec("a", dim=12, n_samples=240, policy=NEVER),
                AgentSpec("b", dim=12, n_samples=12, policy=ALWAYS),
            ),
            broker=BrokerSpec(n_samples=600),
            loss_spec=LossSpec.SUM_OF_SQUARES,
        )
        states, broker_engine, truth = build_market(cfg, np.random.default_rng(cfg.seed))
        # Swap agent b's design for an orthonormal one (rho exactly 1).
        from paramarket.core import LabeledDataset
        from paramarket.engine import LinearModel, run_prepared_simulation
        from paramarket.linear import LinearTask

        b = states[1]
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((12, 12)))
        truth_vec = b.model.task.true_params
        data = LabeledDataset(q, q @ truth_vec.values)
        task = LinearTask(data, truth_vec, 0.0)
        new_b = dataclasses.replace(b, model=LinearModel(task, 0.2, LossSpec.SUM_OF_SQUARES))
        log = run_prepared_simulation(cfg, (states[0], new_b), broker_engine, truth)
        report = geometric_decay_check(log, rho=1.0, agent_id="b")
        assert report.applicable
        assert not report.violations
        gain_by_round = {r.round_index: r.gain.value for r in log.trades if r.buyer == "b" and r.indicator}
        rows = {r.round_index: r for r in log.curves if r.agent == "b"}
        for t, g in gain_by_round.items():
            factor = rows[t].own_loss / rows[t].dot_own_loss
            assert factor == pytest.approx(1.0 / g, rel=1e-9)


class TestDeterminism:
    def test_repeated_runs_are_identical(self):
        a = run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound"))
        b = run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound"))
        assert a.curves == b.curves
        assert a.trades == b.trades
