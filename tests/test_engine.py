import dataclasses
import inspect
import math

from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from paramarket import engine
from paramarket.broker import GainKind, GainReport, gain_error_ratio
from paramarket.config import (
    AgentSpec,
    BrokerSpec,
    ConfigError,
    MarketConfig,
    MlpMarketSpec,
    Policy,
    PolicyKind,
    cell_config,
    load_config,
    load_sweep,
)
from paramarket.core import DivergenceError, LabeledDataset, ParameterVector, empirical_loss
from paramarket.engine import LinearBrokerEngine, build_market, convergence_metrics, run_round, run_simulation
from paramarket.experiments import never_trade_variant, relative_improvement, run_with_twin
from paramarket.linear import gram_lambda_max

from _helpers import RawLinearBroker, geometric_decay_check, post_step_losses, record_post_step_params

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    seller_pricing="myerson",
):
    return MarketConfig(
        seed=seed,
        rounds=rounds,
        gain_kind=gain,
        agents=(
            AgentSpec("a", dim=24, n_samples=100, noise_variance=0.0, policy=policies[0]),
            AgentSpec("b", dim=24, n_samples=36, noise_variance=noise_b, policy=policies[1]),
        ),
        broker=BrokerSpec(n_samples=1500),
        pricing=pricing,
        trade_every=trade_every,
        trade_start=trade_start,
        seller_pricing=seller_pricing,
    )


def neural_cfg():
    agents = (AgentSpec("a", 0, 50), AgentSpec("b", 0, 50))
    return MarketConfig(0, 10, GainKind.LOSS_DIFFERENCE, agents, BrokerSpec(100), mlp=MlpMarketSpec())


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
                         broker=BrokerSpec(100), mlp=MlpMarketSpec())

    @pytest.mark.parametrize("agent_b, market, field", [
        ({"dim": 4}, {}, "dim"),
        ({"noise_variance": 0.5}, {}, "noise_variance"),
        ({"theta_offset": 1.0}, {}, "theta_offset"),
    ])
    def test_mlp_market_rejects_linear_settings(self, agent_b, market, field):
        def mlp_cfg(agent_b, market):
            agents = (AgentSpec("a", 0, 50), AgentSpec("b", **{"dim": 0, "n_samples": 50, **agent_b}))
            return MarketConfig(0, 10, GainKind.LOSS_DIFFERENCE, agents=agents,
                                **{"broker": BrokerSpec(100), "mlp": MlpMarketSpec(), **market})

        mlp_cfg({}, {})
        with pytest.raises(ValueError, match=field):
            mlp_cfg(agent_b, market)

    @pytest.mark.parametrize("field, value", [("favored_classes", (0,)), ("deprived_fraction", 0.5)])
    def test_linear_market_rejects_mlp_settings(self, field, value):
        cfg = linear_cfg()
        a, b = cfg.agents
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, agents=(a, dataclasses.replace(b, **{field: value})))

    @pytest.mark.parametrize("field, value, key", [
        ("trade_start", 0, ("market", "trade_start")),
        # An error-ratio market compares every merge against one shared truth.
        ("agents", (AgentSpec("a", 24, 100), AgentSpec("b", 24, 36, theta_offset=0.5)),
         ("agent b", "theta_offset")),
        ("seed", -1, ("market", "seed")),
        ("convergence_epsilon", 0.0, ("market", "convergence_epsilon")),
        ("agents", (AgentSpec("a", 24, 0), AgentSpec("b", 24, 36)), ("agent a", "n")),
        ("agents", (AgentSpec("a", 0, 100), AgentSpec("b", 0, 36)), ("agent a", "dim")),
        ("agents", (AgentSpec("a", 24, 100), AgentSpec("b", 24, 36, noise_variance=math.nan)),
         ("agent b", "noise")),
        ("agents", (AgentSpec("a", 24, 100, step_size=0.0), AgentSpec("b", 24, 36)),
         ("agent a", "step_size")),
        ("broker", BrokerSpec(1), ("broker", "n")),
        ("mlp", MlpMarketSpec(hidden=(0,)), ("mlp", "hidden")),
        ("mlp", MlpMarketSpec(layer_set=(9,)), ("mlp", "layer_set")),
        ("agents", (AgentSpec("a", 0, 50), AgentSpec("b", 0, 50, favored_classes=(2,))),
         ("agent b", "favored")),
        ("agents", (AgentSpec("a", 0, 50), AgentSpec("b", 0, 50, deprived_fraction=0.0)),
         ("agent b", "deprived_fraction")),
        # An endowment cell's agents split one pool: one n, one noise, one truth.
        (("endowment", "agents"), (0.5, (AgentSpec("a", 24, 100), AgentSpec("b", 24, 36))),
         ("agent b", "n")),
        (("endowment", "agents"), (0.5, (AgentSpec("a", 24, 100), AgentSpec("b", 24, 100, noise_variance=0.5))),
         ("agent b", "noise")),
        (("endowment", "gain_kind", "agents"),
         (0.5, GainKind.LOSS_DIFFERENCE, (AgentSpec("a", 24, 100), AgentSpec("b", 24, 100, theta_offset=1.0))),
         ("agent b", "theta_offset")),
        ("endowment", 0.0, ("sweep", "values")),
        ("endowment", 1.5, ("sweep", "values")),
        ("endowment", math.nan, ("sweep", "values")),
        ("endowment", 0.5, ("sweep", "axis")),
        ("agents", (AgentSpec("a", 24, 100), AgentSpec("b", 24, 36, policy=Policy(PolicyKind.ASYNCHRONOUS, -1))),
         ("agent b", "policy")),
    ])
    def test_rule_names_the_key_at_construction(self, field, value, key):
        # A config built in code is checked like a file, under the file's key
        # names; an mlp-only key (and the linear-only endowment) is set on a
        # neural market. A tuple of fields is set together.
        neural = key[0] == "mlp" or key[1] in ("favored", "deprived_fraction", "axis")
        base = neural_cfg() if neural else linear_cfg()
        changes = dict(zip(field, value)) if isinstance(field, tuple) else {field: value}
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(base, **changes)
        assert (err.value.section, err.value.key) == key

    def test_asynchronous_delay_parsing(self):
        p = Policy.parse("asynchronous:7")
        assert p.kind is PolicyKind.ASYNCHRONOUS and p.delay == 7
        # A policy is a plain record; the market that holds it checks its delay.
        with pytest.raises(ConfigError, match=r"\[agent a\] policy: only the asynchronous policy takes a delay"):
            linear_cfg(policies=(Policy(PolicyKind.ALWAYS_TRADE, delay=3), BENEFICIAL))


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
        data = synthesize_task(12, 80, 0.0, truth, rng)
        broker_data = synthesize_task(12, 600, 0.0, truth, rng)
        init = ParameterVector(np.zeros(12))
        smoothness = 2 * np.linalg.eigvalsh(data.inputs.T @ data.inputs / 80).max()
        model = LinearModel(data, truth, 0.9 / smoothness)
        states = tuple(AgentState(u, init, model) for u in ("a", "b"))
        engine = LinearBrokerEngine(broker_data, truth, {"a": truth, "b": truth})
        log = run_prepared_simulation(cfg, states, engine)
        assert all(not r.indicator for r in log.trades)
        by_round = defaultdict(dict)
        for row in log.curves:
            by_round[row.round_index][row.agent] = row.broker_loss
        for losses in by_round.values():
            assert losses["a"] == losses["b"]

    def test_each_model_resolves_an_auto_step_size(self):
        linear, _ = build_market(linear_cfg(rounds=1))
        model = linear[0].model
        assert model.step_size == 0.9 / (2.0 * (gram_lambda_max(model.data) / model.data.n_samples))
        assert engine.LinearModel(model.data, model.truth, 0.25).step_size == 0.25
        neural, _ = build_market(neural_cfg())
        assert [s.model.step_size for s in neural] == [0.1, 0.1]

    @pytest.mark.parametrize("market", ["linear", "mlp"])
    def test_round_zero_is_a_run_round_call_that_reports_the_start(self, market):
        cfg = dataclasses.replace(linear_cfg() if market == "linear" else neural_cfg(), rounds=1)
        log = run_simulation(cfg)
        states, broker = build_market(cfg)
        new_states, records, rows = run_round(states, broker, cfg, 0, {s.agent_id: 0.0 for s in states})
        # No agent steps and no trading window is open.
        assert all(new.params is old.params for new, old in zip(new_states, states))
        assert records == []
        assert rows == [row for row in log.curves if row.round_index == 0]

    def test_never_trade_log_equals_gradient_descent_traces(self):
        log = run_simulation(linear_cfg(policies=(NEVER, NEVER)))
        assert log.trades == []
        # Re-running with trading disabled by frequency must give the same curves.
        log2 = run_simulation(linear_cfg(trade_every=26))
        assert log2.trades == []
        for r1, r2 in zip(log.curves, log2.curves):
            assert r1 == r2

    @pytest.mark.parametrize("policy", [NEVER, ALWAYS])
    def test_every_step_reuses_the_residual_of_the_last_own_loss(self, policy, monkeypatch):
        reused = []

        def step(params, data, step_size, resid=None):
            reused.append(resid is not None)
            return gradient_step(params, data, step_size, resid)

        gradient_step = engine.gradient_step
        monkeypatch.setattr(engine, "gradient_step", step)
        cfg = linear_cfg(policies=(policy, policy), rounds=6)
        run_simulation(cfg)
        assert reused == [True] * (2 * cfg.rounds)

    def test_a_merge_onto_the_truth_has_an_unbounded_gain(self):
        # Seller b starts at the truth of its noiseless task, so its step
        # keeps it there and buyer a's searched merge lands on the truth.
        from paramarket.engine import run_prepared_simulation

        cfg = linear_cfg(rounds=1, noise_b=0.0)
        states, broker = build_market(cfg)
        b = states[1]
        states = (states[0], dataclasses.replace(b, params=b.model.truth))
        first = run_prepared_simulation(cfg, states, broker).trades[0]
        assert (first.buyer, first.seller, first.indicator) == ("a", "b", True)
        assert first.gain.value == float("inf") and first.gain.trade_beneficial

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

    def test_a_settlement_above_the_bid_fails_the_run(self, monkeypatch):
        real = engine.quote

        def overpaying_quote(rule, bid, reverse_gain, alpha, beta):
            ask, payment = real(rule, bid, reverse_gain, alpha, beta)
            return ask, None if payment is None else bid + 1.0  # above every finite bid

        monkeypatch.setattr(engine, "quote", overpaying_quote)
        with pytest.raises(engine.InvariantError, match=r"^settlement: round \d+, buyer \w pays seller \w "):
            run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound", rounds=5))

    def test_payment_between_valuations(self):
        log = run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound", rounds=30))
        for r in log.trades:
            if r.indicator:
                assert r.seller_valuation <= r.payment <= r.buyer_valuation

    @pytest.mark.parametrize("rule", ["lower-bound", "myerson"])
    def test_seller_at_the_truth_sells_a_perfect_merge_for_nothing(self, rule):
        # Seller b starts at the truth of its noiseless task: its reverse
        # gain is 0.0 and buyer a's merge lands on the truth (an unbounded
        # bid), so the seller learns nothing and asks 0.0.
        from paramarket.engine import run_prepared_simulation

        cfg = linear_cfg(pricing=True, noise_b=0.0, seller_pricing=rule, rounds=3)
        states, broker = build_market(cfg)
        b = states[1]
        states = (states[0], dataclasses.replace(b, params=b.model.truth))
        log = run_prepared_simulation(cfg, states, broker)
        first = next(r for r in log.trades if (r.round_index, r.buyer) == (1, "a"))
        assert first.seller == "b"
        assert first.buyer_valuation == math.inf
        assert (first.seller_valuation, first.payment, first.indicator) == (0.0, 0.0, True)

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
    def test_decision_sees_only_own_gain_and_weight(self, monkeypatch):
        assert list(inspect.signature(engine.wants_to_buy).parameters) == ["policy", "gain"]
        seen = []

        def spy(policy, gain):
            seen.append(gain)
            return decide(policy, gain)

        decide = engine.wants_to_buy
        monkeypatch.setattr(engine, "wants_to_buy", spy)
        log = run_simulation(linear_cfg())
        # One decision per logged evaluation, each on the gain of its own trade.
        assert seen and len(seen) == len(log.trades)
        for gain, record in zip(seen, log.trades):
            assert gain is record.gain
            assert gain.kind is GainKind.ERROR_RATIO
            assert 0.0 < record.merge_weight <= 1.0


class TestBrokerReportsTheGain:
    def test_the_round_loop_trades_on_the_reported_gain_alone(self):
        cfg = linear_cfg(rounds=1)
        states, broker = build_market(cfg)
        # Neither kind nor value is what the error-ratio broker would report.
        crafted = {("a", "b"): GainReport(GainKind.LOSS_DIFFERENCE, 0.25),
                   ("b", "a"): GainReport(GainKind.LOSS_DIFFERENCE, -0.25)}
        real = {}

        def begin_round(dots, inner=broker.begin_round):
            view = inner(dots)
            propose = view.propose

            def crafted_propose(buyer, seller):
                real[buyer, seller] = p = propose(buyer, seller)
                return dataclasses.replace(p, gain=crafted[buyer, seller])

            view.propose = crafted_propose
            return view

        broker.begin_round = begin_round
        new_states, records, _ = run_round(states, broker, cfg, 1, {"a": 0.0, "b": 0.0})
        assert [(r.buyer, r.seller, r.indicator) for r in records] == [("a", "b", True), ("b", "a", False)]
        for r in records:
            sent = crafted[r.buyer, r.seller]
            assert (r.gain.kind, r.gain.value, r.gain.trade_beneficial) == (
                sent.kind, sent.value, sent.trade_beneficial)
        # b's real offer was beneficial: only the reported gain made it decline.
        assert real["b", "a"].gain.trade_beneficial
        assert new_states[0].params is real["a", "b"].merged
        assert new_states[1].params is not real["b", "a"].merged

    @pytest.mark.parametrize("market", ["error-ratio", "loss-difference", "fedavg", "mlp"])
    def test_each_view_scores_the_gain_by_its_broker_rule(self, market):
        fedavg = Policy(PolicyKind.FEDAVG)
        cfg = {
            "error-ratio": linear_cfg(),
            "loss-difference": linear_cfg(gain=GainKind.LOSS_DIFFERENCE),
            "fedavg": linear_cfg(policies=(fedavg, fedavg)),
            "mlp": neural_cfg(),
        }[market]
        states, broker = build_market(cfg)
        dots = {s.agent_id: s.model.step(s.params) for s in states}
        view = broker.begin_round(dots)
        for buyer, seller in (("a", "b"), ("b", "a")):
            p = view.propose(buyer, seller)
            if market == "error-ratio":
                expected = gain_error_ratio(dots[buyer], p.merged, broker.truth)
            else:
                value = view.dot_loss(buyer) - p.broker_loss_after
                expected = GainReport(GainKind.LOSS_DIFFERENCE, value)
            assert p.gain == expected
            assert p.gain.value.hex() == expected.value.hex()


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
        from paramarket.engine import run_prepared_simulation

        states, engine = build_market(cfg)
        views = []

        def begin_round(dots, inner=engine.begin_round):
            views.append(inner(dots))
            return views[-1]

        engine.begin_round = begin_round
        log = run_prepared_simulation(cfg, states, engine)
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
            view = views[r.round_index]
            w = fedavg_weight(n[r.buyer], n[r.seller])
            assert r.merge_weight == w
            assert r.gain.value == view.dot_loss(r.buyer) - view.merged_loss(r.buyer, r.seller, w)

    def test_always_trade_buys_even_without_benefit(self):
        log = run_simulation(linear_cfg(policies=(ALWAYS, ALWAYS), rounds=10))
        bought = [r for r in log.trades if r.indicator and not r.gain.trade_beneficial]
        assert bought, "always-trade should execute some non-beneficial merges"


def bundled_linear(name: str) -> MarketConfig:
    """A bundled linear config by file stem; a sweep gives its base market.

    Broker labels are noiseless, so a broker set's labels lie outside the
    span of its inputs only when its blocks come from different truths:
    ``distance_cell`` is the related-tasks base with agent b's truth 1.0
    away. Markets that can be priced share one truth, so none of them has
    such a set.
    """
    if name == "distance_cell":
        return cell_config(load_sweep(CONFIGS / "related_tasks_sweep.cfg").base, "distance", 1.0)
    if name == "three_agents+pricing":
        return dataclasses.replace(load_config(CONFIGS / "three_agents.cfg"), pricing=True)
    if name.endswith("_sweep"):
        return load_sweep(CONFIGS / f"{name}.cfg").base
    return load_config(CONFIGS / f"{name}.cfg")


class TestFactoredBroker:
    @pytest.mark.parametrize(
        "name",
        ["pricing", "three_agents", "three_agents+pricing", "fedavg", "async",
         "related_tasks_sweep", "endowment_sweep", "frequency_sweep", "start_sweep", "distance_cell"],
    )
    def test_matches_the_raw_reference(self, name, monkeypatch):
        cfg = bundled_linear(name)
        if name == "distance_cell":  # the least-squares residual c of the factored form is positive
            assert build_market(cfg)[1]._c > 0.0
        factored = run_with_twin(cfg)
        monkeypatch.setattr(engine, "LinearBrokerEngine", RawLinearBroker)
        raw = run_with_twin(cfg)
        for log, ref in zip(factored, raw):
            key = lambda r: (r.round_index, r.buyer, r.seller, r.indicator)  # noqa: E731
            assert list(map(key, log.trades)) == list(map(key, ref.trades))
            assert [r.merge_weight for r in log.trades] == pytest.approx(
                [r.merge_weight for r in ref.trades], rel=1e-8, abs=0.0)
            assert [r.broker_loss for r in log.curves] == pytest.approx(
                [r.broker_loss for r in ref.curves], rel=1e-8, abs=0.0)
            # Balances cross zero, so they are compared on the scale of the
            # run's largest balance.
            scale = max(abs(r.cum_payment) for r in ref.curves)
            assert [r.cum_payment for r in log.curves] == pytest.approx(
                [r.cum_payment for r in ref.curves], rel=1e-8, abs=1e-8 * scale)

    @staticmethod
    def assert_raw_losses(data: LabeledDataset, rng):
        broker = LinearBrokerEngine(data, None, {})
        dots = {u: ParameterVector(rng.standard_normal(data.dimension)) for u in "ab"}
        view = broker.begin_round(dots)
        for u, p in dots.items():
            assert view.dot_loss(u) == empirical_loss(p, data)

    @pytest.mark.parametrize("n", [8, 12])
    def test_broker_set_no_taller_than_wide_keeps_raw_losses(self, n):
        rng = np.random.default_rng(3)
        self.assert_raw_losses(LabeledDataset(rng.standard_normal((n, 12)), rng.standard_normal(n)), rng)

    def test_singular_broker_set_keeps_raw_losses(self):
        # Two all-ones columns over 16 rows: the Gram matrix is exact in floats
        # and its second pivot is exactly zero, so the Cholesky factor raises.
        rng = np.random.default_rng(4)
        x = np.column_stack([np.ones(16), np.ones(16), rng.standard_normal(16)])
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cholesky(x.T @ x)
        self.assert_raw_losses(LabeledDataset(x, rng.standard_normal(16)), rng)

    def test_noiseless_loss_at_the_truth_stays_at_rounding_level(self):
        # The least-squares residual is summed directly: ||y||^2 - ||R t||^2
        # would leave cancellation noise near 1e-13 here.
        rng = np.random.default_rng(5)
        truth = ParameterVector(rng.standard_normal(10))
        x = rng.standard_normal((400, 10))
        broker = LinearBrokerEngine(LabeledDataset(x, x @ truth.values), None, {})
        assert broker.begin_round({"a": truth}).dot_loss("a") < 1e-25


class TestMlpRoundView:
    def test_dot_loss_is_computed_once_per_agent_per_round(self, monkeypatch):
        from paramarket import mlp as mlp_mod
        from paramarket.engine import run_round

        cfg = MarketConfig(
            seed=3, rounds=1, gain_kind=GainKind.LOSS_DIFFERENCE,
            agents=(AgentSpec("a", 0, 40), AgentSpec("b", 0, 40)),
            broker=BrokerSpec(60), mlp=MlpMarketSpec(hidden=(4, 4)),
        )
        states, engine = build_market(cfg)
        calls = []

        def forward_loss(params, data):
            if data is engine.scored:
                calls.append(params)
            return mlp_forward_loss(params, data)

        mlp_forward_loss = mlp_mod.mlp_forward_loss
        monkeypatch.setattr(mlp_mod, "mlp_forward_loss", forward_loss)
        _, records, rows = run_round(states, engine, cfg, 1, {"a": 0.0, "b": 0.0})
        # Both agents searched a merge with the other; each broker loss
        # before a merge was computed once, whatever shipped.
        assert [(r.buyer, r.seller) for r in records] == [("a", "b"), ("b", "a")]
        assert len(calls) == 2
        assert len(rows) == 2

    def test_labels_are_checked_once_per_dataset_per_build(self, monkeypatch):
        # Each agent's set and the broker's are built once; no step, loss or
        # merge search checks labels again.
        from paramarket import mlp as mlp_mod

        cfg = MarketConfig(
            seed=3, rounds=4, gain_kind=GainKind.LOSS_DIFFERENCE,
            agents=(AgentSpec("a", 0, 40), AgentSpec("b", 0, 40)),
            broker=BrokerSpec(60), mlp=MlpMarketSpec(hidden=(4, 4)),
        )
        calls = []

        def loss_targets(labels, n_out):
            calls.append(len(labels))
            return loss_targets_of(labels, n_out)

        loss_targets_of = mlp_mod._loss_targets
        monkeypatch.setattr(mlp_mod, "_loss_targets", loss_targets)
        log, twin = run_with_twin(cfg)
        assert sorted(calls) == [40, 40, 60]
        assert len(log.trades) > 0


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
        from paramarket.engine import build_market, run_prepared_simulation

        cfg = linear_cfg(rounds=30)
        states, engine = build_market(cfg)

        proposals = []  # per round: (buyer, seller) -> (broker loss before, the proposal evaluated)

        def begin_round(dots, inner=engine.begin_round):
            view = inner(dots)
            inner_propose = view.propose
            proposals.append({})

            def propose(buyer, seller):
                p = inner_propose(buyer, seller)
                proposals[-1][buyer, seller] = view.dot_loss(buyer), p
                return p

            view.propose = propose
            return view

        engine.begin_round = begin_round
        log = run_prepared_simulation(cfg, states, engine)
        # Two agents without pricing: each evaluation is logged with its gain.
        assert sum(map(len, proposals)) == len(log.trades)
        events = []
        for r in log.trades:
            if r.gain.trade_beneficial:
                before, p = proposals[r.round_index][r.buyer, r.seller]
                events.append((before, p.broker_loss_after))
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
        report = geometric_decay_check(log, rho=1.0, post_step={})
        assert not report.applicable
        assert "no executed trades" in report.reason

        log_diff = run_simulation(linear_cfg(gain=GainKind.LOSS_DIFFERENCE))
        assert not geometric_decay_check(log_diff, rho=1.0, post_step={}).applicable

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
        )
        states, broker_engine = build_market(cfg)
        # Swap agent b's design for an orthonormal one (rho exactly 1).
        from paramarket.core import LabeledDataset
        from paramarket.engine import LinearModel, run_prepared_simulation

        b = states[1]
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((12, 12)))
        truth_vec = b.model.truth
        data = LabeledDataset(q, q @ truth_vec.values)
        # On the mean over 12 samples this is a step of 0.2 on the summed squared residuals.
        new_b = dataclasses.replace(b, model=LinearModel(data, truth_vec, 0.2 * 12))
        rounds = record_post_step_params(broker_engine)
        log = run_prepared_simulation(cfg, (states[0], new_b), broker_engine)
        post_step = post_step_losses(rounds, (states[0], new_b))
        report = geometric_decay_check(log, rho=1.0, post_step=post_step, agent_id="b")
        assert report.applicable
        assert not report.violations
        gain_by_round = {r.round_index: r.gain.value for r in log.trades if r.buyer == "b" and r.indicator}
        rows = {r.round_index: r for r in log.curves if r.agent == "b"}
        for t, g in gain_by_round.items():
            factor = rows[t].own_loss / post_step[t, "b"]
            assert factor == pytest.approx(1.0 / g, rel=1e-9)


class TestDeterminism:
    def test_repeated_runs_are_identical(self):
        a = run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound"))
        b = run_simulation(linear_cfg(pricing=True, seller_pricing="lower-bound"))
        assert a.curves == b.curves
        assert a.trades == b.trades
