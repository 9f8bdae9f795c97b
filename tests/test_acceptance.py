"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import itertools

import time
from pathlib import Path

import numpy as np

from paramarket.bounds import AUDIT_REL_SLACK, soundness_sweep
from paramarket.broker import GainKind
from paramarket.config import AgentSpec, BrokerSpec, MarketConfig, Policy, PolicyKind, load_config, load_sweep
from paramarket.engine import build_market, convergence_metrics, run_prepared_simulation, run_simulation
from paramarket.experiments import (
    _usable_cpus,
    layer_subset_table,
    never_trade_variant,
    relative_improvement,
    run_sweep,
    run_with_twin,
)
from paramarket.io import curves_csv, trades_csv
from paramarket.mlp import (
    MOONS_CLASSES,
    ClassMajorSet,
    LayerPermutations,
    MlpParams,
    apply_permutation,
    linear_assignment,
    mlp_forward,
    mlp_forward_loss,
    subset_merge,
    two_moons,
    weight_matching_alignment,
)
from paramarket.pricing import (
    PriorDistribution,
    ValuationQuadruple,
    cobb_douglas_revenue,
    myerson_price,
    nash_price_difference,
)

from _helpers import (
    geometric_decay_check,
    myerson_price_numeric,
    post_step_losses,
    record_post_step_params,
    spearman,
    spectrum,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BENEFICIAL = Policy(PolicyKind.TRADE_WHEN_BENEFICIAL)
NEVER = Policy(PolicyKind.NEVER_TRADE)
ALWAYS = Policy(PolicyKind.ALWAYS_TRADE)


def verdict(index: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index:02d} [{name}]: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {index} ({name}) failed: {detail}"


def test_01_synthetic_linear_market():
    base = load_config(CONFIGS / "paper_linear.cfg")
    start = time.perf_counter()
    imps_a, imps_b = [], []
    for seed in range(5):
        from dataclasses import replace

        log, twin = run_with_twin(replace(base, seed=seed))
        imp = relative_improvement(log, twin, "broker_loss")
        imps_a.append(imp["a"])
        imps_b.append(imp["b"])
    elapsed = time.perf_counter() - start
    mean_a, mean_b = float(np.mean(imps_a)), float(np.mean(imps_b))
    every_seed_improves = all(v > 0 for v in imps_a + imps_b)
    passed = mean_a >= 0.25 and mean_b >= 0.10 and elapsed <= 60.0 and every_seed_improves
    verdict(
        1,
        "synthetic linear market",
        passed,
        f"mean improvement a={mean_a:.1%} (need >=25%), b={mean_b:.1%} (need >=10%), "
        f"all seeds improve={every_seed_improves}, runtime {elapsed:.1f}s (limit 60s)",
    )


def test_02_buyer_gain_bound_soundness():
    assert AUDIT_REL_SLACK == 1e-9
    start = time.perf_counter()
    report = soundness_sweep(10_000, np.random.default_rng(2024))
    elapsed = time.perf_counter() - start
    buyer_violations = [v for v in report.violations if v["scenario"] == "buyer-gain"]
    passed = not buyer_violations and elapsed <= 5.0
    verdict(
        2,
        "buyer gain bound soundness",
        passed,
        f"{report.trials} trials, {len(buyer_violations)} violations, {elapsed:.2f}s (limit 5s)",
    )


def test_03_scenario_lemma_soundness():
    assert AUDIT_REL_SLACK == 1e-9
    report = soundness_sweep(10_000, np.random.default_rng(31))
    scenario_violations = [v for v in report.violations if v["scenario"] != "buyer-gain"]
    by_scenario = {s: 0 for s in ("no-buy-no-sell", "buy-no-sell", "no-buy-sell", "buy-sell")}
    for v in scenario_violations:
        by_scenario[v["scenario"]] += 1
    passed = not scenario_violations
    verdict(3, "scenario ratio bound soundness", passed, f"violations per scenario: {by_scenario}")


def test_04_nash_settlement_optimality():
    rng = np.random.default_rng(4)
    worst_excess = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        v_a_self, v_b_self = rng.uniform(0, 10, 2)
        q = ValuationQuadruple(
            v_a_self=float(v_a_self),
            v_b_of_a=float(v_a_self + rng.uniform(0, 10)),
            v_b_self=float(v_b_self),
            v_a_of_b=float(v_b_self + rng.uniform(0, 10)),
        )
        lo = q.v_a_self - q.v_a_of_b
        hi = q.v_b_of_a - q.v_b_self
        span = hi - lo
        grid = np.linspace(lo, hi, 10_001)  # resolution 1e-4 of the span
        values = [cobb_douglas_revenue(q, float(d)) for d in grid]
        best_grid = max(values)
        closed = cobb_douglas_revenue(q, nash_price_difference(q))
        worst_excess = max(worst_excess, best_grid - closed)
        worst_gap = max(worst_gap, closed - best_grid - (span * 1e-4) ** 2)
    passed = worst_excess <= 1e-9 and worst_gap <= 0.0
    verdict(
        4,
        "nash settlement optimality",
        passed,
        f"grid never beats closed form (max excess {worst_excess:.2e}); "
        f"closed form within one grid cell of grid max",
    )


def test_05_myerson_closed_forms():
    rng = np.random.default_rng(5)
    ok = abs(myerson_price(PriorDistribution.uniform(0.0, 7.0)) - 3.5) <= 1e-9
    ok &= abs(myerson_price(PriorDistribution.exponential(8.0)) - 0.125) <= 1e-9
    agree = 0
    for _ in range(100):
        if rng.uniform() < 0.5:
            lo = rng.uniform(0.0, 2.0)
            prior = PriorDistribution.uniform(lo, lo + rng.uniform(0.01, 5.0))
        else:
            prior = PriorDistribution.exponential(rng.uniform(0.05, 10.0))
        if abs(myerson_price_numeric(prior) - myerson_price(prior)) <= 1e-6 * max(
            1.0, myerson_price(prior)
        ):
            agree += 1
    passed = ok and agree == 100
    verdict(5, "myerson closed forms", passed, f"closed forms at 1e-9; numeric agreement {agree}/100")


def _ordering_cfg(seed: int) -> MarketConfig:
    return MarketConfig(
        seed=seed,
        rounds=50,
        gain_kind=GainKind.LOSS_DIFFERENCE,
        agents=(
            AgentSpec("a", dim=40, n_samples=400, noise_variance=0.0, policy=NEVER),
            AgentSpec("b", dim=40, n_samples=60, noise_variance=1.0, policy=ALWAYS),
        ),
        broker=BrokerSpec(n_samples=4000),
    )


def test_06_convergence_ordering():
    ordered = 0
    eligible = 0
    for seed in range(20):
        cfg = _ordering_cfg(seed)
        log = run_simulation(cfg)
        twin = run_simulation(never_trade_variant(cfg))
        gains = [r.gain.value for r in log.trades if r.buyer == "b" and r.indicator]
        if not (len(gains) == cfg.rounds and all(g > 0 for g in gains)):
            continue  # criterion conditions on all-round-positive gains
        eligible += 1
        eps = twin.final_row("b").broker_loss - twin.truth_broker_loss["b"]
        rounds_market = convergence_metrics(log, eps)["b"]
        rounds_twin = convergence_metrics(twin, eps)["b"]
        if rounds_market is not None and rounds_twin is not None and rounds_market <= rounds_twin:
            ordered += 1
    passed = eligible == 20 and ordered == eligible
    verdict(
        6,
        "always-trade vs never-trade ordering",
        passed,
        f"{ordered}/{eligible} matched pairs ordered (need 100% of 20)",
    )


def test_07_linear_decay_factor():
    cfg = MarketConfig(
        seed=7,
        rounds=30,
        gain_kind=GainKind.ERROR_RATIO,
        agents=(
            AgentSpec("a", dim=20, n_samples=240, noise_variance=0.0, policy=NEVER),
            AgentSpec("b", dim=20, n_samples=60, noise_variance=0.0, policy=ALWAYS),
        ),
        broker=BrokerSpec(n_samples=2000),
    )
    states, engine = build_market(cfg)
    rounds = record_post_step_params(engine)
    log = run_prepared_simulation(cfg, states, engine)
    rho = spectrum(states[1].model.data).rho
    post_step = post_step_losses(rounds, states)
    report = geometric_decay_check(log, rho, post_step, "b", slack=1e-9)
    passed = report.applicable and not report.violations and report.rounds_checked == cfg.rounds
    verdict(
        7,
        "linear decay factor",
        passed,
        f"{report.rounds_checked} trade rounds, {len(report.violations)} violations, "
        f"max round factor {report.max_round_factor:.6f}, "
        f"max factor/bound ratio {report.max_bound_ratio:.4f}",
    )


def test_08_permuted_clone_alignment():
    rng = np.random.default_rng(8)
    sizes = (2, 16, 16, 16, 2)
    data = ClassMajorSet(two_moons(256, rng), MOONS_CLASSES)
    recovered = 0
    worst_dev = 0.0
    worst_loss_gap = 0.0
    for trial in range(20):
        net = MlpParams.random_init(sizes, rng)
        planted = LayerPermutations(tuple(rng.permutation(h) for h in net.hidden_sizes))
        clone = apply_permutation(net, planted)
        x = rng.standard_normal((100, 2))
        worst_dev = max(worst_dev, float(np.max(np.abs(mlp_forward(net, x) - mlp_forward(clone, x)))))
        perms = weight_matching_alignment(net, clone)
        aligned = apply_permutation(clone, perms)
        exact = all(np.array_equal(w1, w2) for w1, w2 in zip(aligned.weights, net.weights)) and all(
            np.array_equal(b1, b2) for b1, b2 in zip(aligned.biases, net.biases)
        )
        recovered += exact
        merged = subset_merge(net, aligned, range(net.n_layers), 0.5)
        gap = abs(mlp_forward_loss(merged, data) - mlp_forward_loss(net, data))
        worst_loss_gap = max(worst_loss_gap, gap)
    passed = recovered == 20 and worst_loss_gap <= 1e-8 and worst_dev <= 1e-10
    verdict(
        8,
        "permuted-clone alignment",
        passed,
        f"recovered {recovered}/20, worst merge-loss gap {worst_loss_gap:.2e} (limit 1e-8), "
        f"worst functional deviation {worst_dev:.2e} (limit 1e-10)",
    )


def test_09_assignment_matches_exhaustive_search():
    rng = np.random.default_rng(9)
    matches = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))  # n <= 7
        cost = rng.standard_normal((n, n))
        best, best_perm = None, None
        for perm in itertools.permutations(range(n)):
            total = sum(cost[i, perm[i]] for i in range(n))
            if best is None or total < best - 1e-15:
                best, best_perm = total, perm
        if tuple(linear_assignment(cost)) == best_perm:
            matches += 1
    verdict(9, "exact assignment vs exhaustive search", matches == 200, f"{matches}/200 matched")


def test_10_related_task_sweep():
    spec = load_sweep(CONFIGS / "related_tasks_sweep.cfg")
    assert len(spec.values) == 10
    result = run_sweep(spec.base, spec.axis, spec.values, seeds=20, jobs=_usable_cpus())
    pairs = [
        (value, float(np.mean([r.improvement_error["a"] for r in rows])))
        for value, rows in result.cells()
    ]
    rho = spearman([p[0] for p in pairs], [p[1] for p in pairs])
    max_at_zero = max(pairs, key=lambda p: p[1])[0] == 0.0
    passed = rho <= -0.8 and max_at_zero
    verdict(
        10,
        "related-task distance sweep",
        passed,
        f"spearman(distance, mean improvement) = {rho:.3f} (need <= -0.8); "
        f"improvement maximal at distance 0: {max_at_zero}",
    )


class _RecordingBroker:
    """Wraps a built broker's every try-before-purchase proposal to compare against the fixed half weight."""

    def __init__(self, engine):
        self.truth_loss = engine.truth_loss
        self._begin_round = engine.begin_round
        self.events = []

    def begin_round(self, dots):
        view = self._begin_round(dots)
        inner = view.propose

        def propose(buyer, seller):
            p = inner(buyer, seller)
            self.events.append((p.broker_loss_after, view.merged_loss(buyer, seller, 0.5)))
            return p

        view.propose = propose
        return view


def test_11_broker_dominates_fixed_half_weight():
    cfg = MarketConfig(
        seed=11,
        rounds=40,
        gain_kind=GainKind.ERROR_RATIO,
        agents=(
            AgentSpec("a", dim=30, n_samples=120, noise_variance=0.0, policy=BENEFICIAL),
            AgentSpec("b", dim=30, n_samples=40, noise_variance=0.5, policy=BENEFICIAL),
        ),
        broker=BrokerSpec(n_samples=2000),
    )
    states, base_engine = build_market(cfg)
    engine = _RecordingBroker(base_engine)
    run_prepared_simulation(cfg, states, engine)
    dominated = sum(1 for opt, half in engine.events if opt <= half)
    passed = engine.events and dominated == len(engine.events)
    verdict(
        11,
        "broker dominance over fixed half weight",
        passed,
        f"{dominated}/{len(engine.events)} evaluated merges dominated the 0.5 weight",
    )


def test_12_determinism_and_money_conservation():
    cfg = load_config(CONFIGS / "pricing.cfg")
    log1, log2 = run_simulation(cfg), run_simulation(cfg)
    identical = trades_csv(log1) == trades_csv(log2) and curves_csv(log1) == curves_csv(log2)
    sums = {}
    for row in log1.curves:
        sums[row.round_index] = sums.get(row.round_index, 0.0) + row.cum_payment
    conserved = all(v == 0.0 for v in sums.values())
    executed = sum(r.indicator for r in log1.trades)
    passed = identical and conserved and executed > 0
    verdict(
        12,
        "determinism and money conservation",
        passed,
        f"byte-identical rerun: {identical}; per-round payment sums all exactly 0: {conserved}; "
        f"{executed} settled trades",
    )


def test_13_layer_subset_harness():
    spec = load_sweep(CONFIGS / "mlp_subset_sweep.cfg")
    # Rows do not depend on scheduling, so the sweep runs on every usable CPU.
    report = layer_subset_table(spec.base, list(spec.values), seeds=spec.seeds, jobs=_usable_cpus())
    wins = sum(1 for w in report["winners"].values() if w == "all")
    passed = wins >= 3
    table = {k: {u: f"{v:.1%}" for u, v in perf.items()} for k, perf in report["table"].items()}
    verdict(
        13,
        "layer-subset comparison table",
        passed,
        f"full layer set wins {wins}/{spec.seeds} seeds (need >=3); table: {table}",
    )
