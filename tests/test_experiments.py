import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from paramarket import experiments
from paramarket.broker import GainKind
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
from paramarket.engine import build_market, run_simulation
from paramarket.experiments import (
    never_trade_variant,
    relative_improvement,
    run_sweep,
    run_with_twin,
)
from paramarket.io import curves_csv, summary_dict, trades_csv

from _helpers import spearman

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
                mlp=MlpMarketSpec(hidden=(8, 8)),
            ),
            load_config(CONFIGS / "fedavg.cfg"),
            replace(load_config(CONFIGS / "three_agents.cfg"), pricing=True),
        ],
        ids=["linear-priced-async", "mlp", "fedavg", "three-agents-priced"],
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

    def test_never_trade_variant_never_buys(self):
        cfg = never_trade_variant(small_cfg())
        assert all(a.policy == Policy(PolicyKind.NEVER_TRADE) for a in cfg.agents)
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

    @given(
        fraction=st.one_of(st.sampled_from([0.0, 1.0, -0.25, 1.25, math.nan, math.inf]),
                           st.floats(-0.5, 1.5, allow_nan=False)),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_cell_is_rejected_or_a_market_of_the_one_build_path(self, fraction, seed):
        agents = tuple(AgentSpec(u, dim=6, n_samples=24, noise_variance=0.2) for u in "ab")
        base = MarketConfig(seed=seed, rounds=6, gain_kind=GainKind.ERROR_RATIO, agents=agents,
                            broker=BrokerSpec(n_samples=60), pricing=True)
        try:
            cfg = cell_config(base, "endowment", fraction)
        except ConfigError as err:
            assert (err.section, err.key) == ("sweep", "values")
            assert not 0 < fraction <= 1
            return
        (log, twin), again = run_with_twin(cfg), run_with_twin(cfg)
        for first, rerun in zip((log, twin), again):
            assert trades_csv(first).encode() == trades_csv(rerun).encode()
            assert curves_csv(first).encode() == curves_csv(rerun).encode()
        assert not twin.trades
        assert all(0 < r.merge_weight <= 1 for r in log.trades)
        if fraction == 1:
            tasks = [s.model.data for s in build_market(cfg)[0]]
            for t in tasks[1:]:
                assert np.array_equal(t.inputs, tasks[0].inputs) and np.array_equal(t.labels, tasks[0].labels)

    def test_fraction_validation(self):
        # Two pairs, so that two jobs would start a pool: the bad cell's own
        # error reaches the caller either way.
        spec = load_sweep(CONFIGS / "endowment_sweep.cfg")
        for jobs in (1, 2):
            with pytest.raises(ConfigError) as err:
                run_sweep(spec.base, "endowment", [0.0, 0.5], seeds=1, jobs=jobs)
            assert (err.value.section, err.value.key) == ("sweep", "values"), jobs
            assert str(err.value).startswith("[sweep] values:"), jobs

    def test_a_sweep_built_in_code_needs_cells_and_seeds(self):
        linear = load_sweep(CONFIGS / "frequency_sweep.cfg").base
        mlp = load_sweep(CONFIGS / "mlp_subset_sweep.cfg").base
        for key, run in (
            ("values", lambda: run_sweep(linear, "frequency", [], 1)),
            ("values", lambda: experiments.layer_subset_table(mlp, [], 1)),
            ("seeds", lambda: run_sweep(linear, "frequency", [1], seeds=0)),
        ):
            with pytest.raises(ConfigError) as err:
                run()
            assert (err.value.section, err.value.key) == ("sweep", key)

    def test_an_axis_of_the_other_market_kind_names_the_axis(self):
        three = load_config(CONFIGS / "three_agents.cfg")
        with pytest.raises(ConfigError) as err:
            cell_config(three, "layers", (0,))
        assert (err.value.section, err.value.key) == ("sweep", "axis")
        assert "mlp" in str(err.value)
        with pytest.raises(ConfigError) as err:
            experiments.layer_subset_table(three, [(0,)], 1)
        assert err.value.key == "axis"


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


class TestSweepWorkers:
    """How many worker processes a sweep asks for; a stand-in pool starts none."""

    def test_workers_are_capped_by_the_pairs_and_the_usable_cpus(self, monkeypatch):
        sizes = []

        class SerialPool:  # records its size and maps in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        cfg = small_cfg(rounds=3)
        want = run_sweep(cfg, "frequency", [1, 2, 3], seeds=2)  # 6 (cell, seed) pairs
        assert sizes == []
        # (jobs, usable CPUs, workers started; None: no pool, the pairs run here)
        for jobs, cpus, workers in [(64, 4, 4), (64, 100, 6), (3, 100, 3), (64, 1, None), (1, 8, None)]:
            monkeypatch.setattr(experiments, "_usable_cpus", lambda n=cpus: n)
            sizes.clear()
            assert run_sweep(cfg, "frequency", [1, 2, 3], seeds=2, jobs=jobs) == want
            assert sizes == ([] if workers is None else [workers]), (jobs, cpus)

    def test_usable_cpus_are_the_affinity_else_the_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert experiments._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert experiments._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert experiments._usable_cpus() == 1


class TestSpearman:
    def test_perfectly_monotone_sequences(self):
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)
        assert spearman([1, 2, 3, 4], [1, 3, 9, 27]) == pytest.approx(1.0)

    def test_tied_ranks_match_scipy(self):
        xs, ys = [1, 2, 2, 3, 5, 5, 5], [4, 1, 1, 0, 2, 7, 3]
        assert spearman(xs, ys) == stats.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) != pytest.approx(spearman(range(7), ys))

    def test_constant_input_is_zero(self):
        with pytest.warns(stats.ConstantInputWarning):
            assert spearman([2, 2, 2, 2], [1, 2, 3, 4]) == 0.0
