import json
from pathlib import Path

import numpy as np
import pytest

from paramarket.broker import GainKind
from paramarket.config import load_config, load_sweep
from paramarket.engine import (
    AgentSpec,
    BrokerSpec,
    MarketConfig,
    MlpMarketSpec,
    Policy,
    PolicyKind,
    run_simulation,
)
from paramarket.experiments import (
    never_trade_variant,
    relative_improvement,
    run_sweep,
    run_with_twin,
    spearman,
)
from paramarket.io import curves_csv, summary_dict, trades_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_cfg(seed=0, rounds=30):
    return MarketConfig(
        seed=seed,
        rounds=rounds,
        gain_kind=GainKind.ERROR_RATIO,
        agents=(
            AgentSpec("a", dim=20, n_samples=80, noise_variance=0.0),
            AgentSpec("b", dim=20, n_samples=30, noise_variance=0.5),
        ),
        broker=BrokerSpec(n_samples=1000),
    )


class TestTwins:
    def test_twin_shares_tasks_and_never_trades(self):
        log, twin = run_with_twin(small_cfg())
        assert twin.trades == []
        assert log.curves[0].broker_loss == twin.curves[0].broker_loss

    @pytest.mark.parametrize(
        "cfg",
        [
            MarketConfig(
                seed=3,
                rounds=20,
                gain_kind=GainKind.ERROR_RATIO,
                agents=(
                    AgentSpec("a", dim=30, n_samples=20, policy=Policy(PolicyKind.ASYNCHRONOUS, 4)),
                    AgentSpec("b", dim=30, n_samples=45, noise_variance=0.4),
                ),
                broker=BrokerSpec(n_samples=901),
                pricing=True,
                trade_start=2,
            ),
            MarketConfig(
                seed=1,
                rounds=6,
                gain_kind=GainKind.LOSS_DIFFERENCE,
                agents=(
                    AgentSpec("a", dim=0, n_samples=120, step_size=0.5, favored_classes=(0,),
                              deprived_fraction=0.2),
                    AgentSpec("b", dim=0, n_samples=120, step_size=0.5, favored_classes=(1,),
                              deprived_fraction=0.2),
                ),
                broker=BrokerSpec(n_samples=200),
                model="mlp",
                mlp=MlpMarketSpec(hidden=(8, 8)),
            ),
        ],
        ids=["linear-priced-async", "mlp"],
    )
    def test_shared_build_matches_separate_runs(self, cfg):
        pair = run_with_twin(cfg)
        separate = (run_simulation(cfg), run_simulation(never_trade_variant(cfg)))
        assert pair[0].trades, "the market run should trade"
        for shared, alone in zip(pair, separate):
            assert trades_csv(shared).encode() == trades_csv(alone).encode()
            assert curves_csv(shared).encode() == curves_csv(alone).encode()
            assert json.dumps(summary_dict(shared), sort_keys=True) == json.dumps(
                summary_dict(alone), sort_keys=True
            )

    def test_never_trade_variant_clears_decisions(self):
        cfg = never_trade_variant(small_cfg())
        assert all(a.decision is None for a in cfg.agents)
        assert not cfg.pricing

    def test_relative_improvement_sign(self):
        # Underdetermined endowments (n < d): each twin stalls with a
        # persistent null-space error, so trading helps both agents.
        cfg = MarketConfig(
            seed=0,
            rounds=40,
            gain_kind=GainKind.ERROR_RATIO,
            agents=(
                AgentSpec("a", dim=40, n_samples=24, noise_variance=0.0),
                AgentSpec("b", dim=40, n_samples=30, noise_variance=0.3),
            ),
            broker=BrokerSpec(n_samples=1200),
        )
        log, twin = run_with_twin(cfg)
        imp = relative_improvement(log, twin, "est_error")
        assert imp["a"] > 0 and imp["b"] > 0


class TestEndowmentSweep:
    def test_full_endowment_means_nothing_to_gain(self):
        spec = load_sweep(CONFIGS / "endowment_sweep.cfg")
        result = run_sweep(spec.base, "endowment", [0.2, 1.0], seeds=3)
        by_cell = {cell: [r for r in result.rows if r.cell == cell] for cell in (0, 1)}
        partial = np.mean([r.improvement_error["a"] for r in by_cell[0]])
        full = np.mean([abs(r.improvement_error["a"]) for r in by_cell[1]])
        assert partial > 0.05
        assert full <= 1e-9  # identical information: zero improvement exactly

    def test_fraction_validation(self):
        spec = load_sweep(CONFIGS / "endowment_sweep.cfg")
        with pytest.raises(ValueError):
            run_sweep(spec.base, "endowment", [0.0], seeds=1)


class TestFrequencySweep:
    def test_every_round_trading_dominates_final_loss(self):
        spec = load_sweep(CONFIGS / "frequency_sweep.cfg")
        result = run_sweep(spec.base, "frequency", [1, 7, 10], seeds=6)
        finals = {}
        for cell, k in enumerate([1, 7, 10]):
            rows = [r for r in result.rows if r.cell == cell]
            finals[k] = np.mean([np.mean(list(r.final_broker.values())) for r in rows])
        assert finals[1] <= finals[7]
        assert finals[1] <= finals[10]


class TestStartSweep:
    def test_earlier_start_is_no_worse_on_aggregate(self):
        spec = load_sweep(CONFIGS / "start_sweep.cfg")
        result = run_sweep(spec.base, "start", [10, 40], seeds=6)
        finals = {}
        for cell, start in enumerate([10, 40]):
            rows = [r for r in result.rows if r.cell == cell]
            finals[start] = np.mean([np.mean(list(r.final_broker.values())) for r in rows])
        assert finals[10] <= finals[40]

    def test_any_start_gives_immediate_benefit(self):
        spec = load_sweep(CONFIGS / "start_sweep.cfg")
        result = run_sweep(spec.base, "start", [20], seeds=4)
        assert all(r.improvement_broker["b"] > 0 for r in result.rows)


class TestAsynchronousMarket:
    def test_delayed_agent_still_benefits(self):
        cfg = load_config(CONFIGS / "async.cfg")
        log, twin = run_with_twin(cfg)
        assert min(r.round_index for r in log.trades if "a" in (r.buyer, r.seller)) >= 11
        imp = relative_improvement(log, twin, "broker_loss")
        assert imp["a"] > 0 and imp["b"] > 0


class TestSpearman:
    def test_perfectly_monotone_sequences(self):
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)
        assert spearman([1, 2, 3, 4], [1, 3, 9, 27]) == pytest.approx(1.0)
