"""Experiment harness: matched out-of-market twins, ablation sweeps, tables.

Every cell of a sweep runs the market plus a twin run whose agents have the
same seed, data, and training schedule but never buy; relative improvement is
measured against that twin. Sweep cells are independent and can execute in a
process pool; output rows are keyed and ordered by (cell, seed) regardless of
scheduling.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .core import LabeledDataset, ParameterVector
from .engine import (
    AgentState,
    LinearBrokerEngine,
    LinearModel,
    MarketConfig,
    MarketLog,
    Policy,
    PolicyKind,
    _linear_step_size,
    _parse_init,
    build_market,
    policy_fields,
    run_prepared_simulation,
)
from .linear import LinearTask, synthesize_task

__all__ = [
    "never_trade_variant",
    "run_with_twin",
    "relative_improvement",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "layer_subset_table",
    "spearman",
]


def never_trade_variant(cfg: MarketConfig) -> MarketConfig:
    """Same market, same draws, but nobody ever buys."""
    agents = tuple(
        replace(a, policy=Policy(PolicyKind.NEVER_TRADE), decision=None) for a in cfg.agents
    )
    return replace(cfg, agents=agents, pricing=False)


def _run_pair(cfg: MarketConfig, states: tuple, broker_engine, truth_loss: dict) -> tuple:
    # The twin reuses the market's build; only the policy fields change.
    twin_cfg = never_trade_variant(cfg)
    specs = {a.agent_id: a for a in twin_cfg.agents}
    twin_states = tuple(replace(st, **policy_fields(twin_cfg, specs[st.agent_id])) for st in states)
    log = run_prepared_simulation(cfg, states, broker_engine, truth_loss)
    twin = run_prepared_simulation(twin_cfg, twin_states, broker_engine, truth_loss)
    return log, twin


def run_with_twin(cfg: MarketConfig) -> tuple:
    """Run the market and its matched out-of-market twin on one market build.

    The logs equal those of ``run_simulation(cfg)`` and
    ``run_simulation(never_trade_variant(cfg))``.
    """
    return _run_pair(cfg, *build_market(cfg, np.random.default_rng(cfg.seed)))


def relative_improvement(log: MarketLog, twin: MarketLog, metric: str = "broker_loss") -> dict:
    """Per-agent relative improvement of the final metric versus the twin.

    ``metric`` is ``broker_loss`` or ``est_error`` (the latter is the
    excess-testing-loss proxy for an agent's own task). Positive means the
    market run ended better than staying out.
    """
    out = {}
    for u in log.agent_ids:
        market_v = getattr(log.final_row(u), metric)
        twin_v = getattr(twin.final_row(u), metric)
        out[u] = 0.0 if twin_v == 0.0 else (twin_v - market_v) / twin_v
    return out


@dataclass(frozen=True)
class SweepRow:
    cell: int
    axis: str
    value: object
    seed: int
    improvement_broker: dict
    improvement_error: dict
    final_broker: dict


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple

    def mean_improvement(self, agent_id: str, metric: str = "error") -> list:
        """(value, mean improvement) per cell, ordered by cell id."""
        field = "improvement_error" if metric == "error" else "improvement_broker"
        cells: dict = {}
        for row in self.rows:
            cells.setdefault(row.cell, (row.value, []))[1].append(getattr(row, field)[agent_id])
        return [(v, float(np.mean(imps))) for _, (v, imps) in sorted(cells.items())]


def _cell_config(base: MarketConfig, axis: str, value) -> MarketConfig:
    if axis == "distance":
        agents = list(base.agents)
        # Sweep the gap between the first agent's task and everyone else's.
        agents = [agents[0]] + [replace(a, theta_offset=float(value)) for a in agents[1:]]
        return replace(base, agents=tuple(agents))
    if axis == "frequency":
        return replace(base, trade_every=int(value))
    if axis == "start":
        return replace(base, trade_start=int(value))
    if axis == "layers":
        return replace(base, mlp=replace(base.mlp, layer_set=value))
    if axis == "endowment":
        return base  # handled by the shared-pool builder below
    raise ValueError(f"unknown sweep axis {axis!r}")


def _endowment_logs(base: MarketConfig, fraction: float, seed: int) -> tuple:
    """Market and twin over subsets of one shared data pool.

    Each agent keeps ``fraction`` of a common pool (sampled without
    replacement); at fraction 1 both agents hold identical information and
    there is nothing to gain from trading.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"endowment fraction must lie in (0, 1], got {fraction}")
    cfg = replace(base, seed=seed)
    rng = np.random.default_rng(seed)
    agents = tuple(sorted(cfg.agents, key=lambda a: a.agent_id))
    dim = agents[0].dim
    pool_n = max(a.n_samples for a in agents)
    theta = ParameterVector(rng.standard_normal(dim))
    noise = max(a.noise_variance for a in agents)
    pool = synthesize_task(dim, pool_n, noise, theta, rng)
    broker_task = synthesize_task(dim, cfg.broker.n_samples, cfg.broker.noise_variance, theta, rng)
    init = ParameterVector(_parse_init(cfg.init, rng, dim))

    k = max(1, int(round(fraction * pool_n)))
    tasks = {}
    for a in agents:
        idx = np.sort(rng.choice(pool_n, size=k, replace=False))
        tasks[a.agent_id] = LinearTask(
            LabeledDataset(pool.data.inputs[idx], pool.data.labels[idx]),
            theta,
            noise,
        )

    states = tuple(
        AgentState(
            agent_id=spec.agent_id,
            params=init,
            model=LinearModel(
                tasks[spec.agent_id],
                _linear_step_size(spec, tasks[spec.agent_id], cfg.loss_spec),
                cfg.loss_spec,
            ),
            n_samples=k,
            **policy_fields(cfg, spec),
        )
        for spec in agents
    )
    broker_engine = LinearBrokerEngine(broker_task.data, cfg.loss_spec, cfg.gain_kind, theta)
    return _run_pair(cfg, states, broker_engine, {a.agent_id: 0.0 for a in agents})


def _run_cell(args) -> SweepRow:
    base, axis, cell, value, seed = args
    if axis == "endowment":
        log, twin = _endowment_logs(base, float(value), seed)
    else:
        cfg = replace(_cell_config(base, axis, value), seed=seed)
        log, twin = run_with_twin(cfg)
    return SweepRow(
        cell=cell,
        axis=axis,
        value=value,
        seed=seed,
        improvement_broker=relative_improvement(log, twin, "broker_loss"),
        improvement_error=relative_improvement(log, twin, "est_error")
        if base.model == "linear"
        else relative_improvement(log, twin, "broker_loss"),
        final_broker={u: log.final_row(u).broker_loss for u in log.agent_ids},
    )


def run_sweep(
    base: MarketConfig, axis: str, values, seeds: int, jobs: int = 1
) -> SweepResult:
    """Run every (cell, seed) pair; rows come back ordered by cell then seed."""
    work = [
        (base, axis, cell, value, base.seed + seed)
        for cell, value in enumerate(values)
        for seed in range(seeds)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_cell, work))
    else:
        rows = [_run_cell(w) for w in work]
    rows.sort(key=lambda r: (r.cell, r.seed))
    return SweepResult(axis=axis, rows=tuple(rows))


def layer_subset_table(base: MarketConfig, layer_sets, seeds: int, jobs: int = 1) -> dict:
    """Compare trading different layer subsets of a neural market.

    Returns per-set mean improvements plus, per seed, which set won (largest
    mean improvement across agents). The full layer set is expected to win
    most seeds.
    """
    if base.model != "mlp":
        raise ValueError("layer subset comparison needs an mlp market config")
    result = run_sweep(base, "layers", list(layer_sets), seeds, jobs=jobs)
    label = lambda v: "all" if v is None else ",".join(map(str, v))  # noqa: E731
    table = {}
    for cell, value in enumerate(layer_sets):
        rows = [r for r in result.rows if r.cell == cell]
        agents = rows[0].improvement_broker.keys()
        table[label(value)] = {
            u: float(np.mean([r.improvement_broker[u] for r in rows])) for u in agents
        }
    winners = {}
    for seed_off in range(seeds):
        per_set = {}
        for cell, value in enumerate(layer_sets):
            row = next(r for r in result.rows if r.cell == cell and r.seed == base.seed + seed_off)
            per_set[label(value)] = float(np.mean(list(row.improvement_broker.values())))
        winners[base.seed + seed_off] = max(sorted(per_set), key=lambda k: per_set[k])
    return {"table": table, "winners": winners}


def spearman(xs, ys) -> float:
    """Spearman rank correlation (scipy two-sided, statistic only)."""
    value = stats.spearmanr(xs, ys).statistic
    return float(value) if not math.isnan(value) else 0.0
