"""Experiment harness: matched out-of-market twins, ablation sweeps, tables.

Every cell of a sweep runs the market plus a twin run whose agents have the
same seed, data, and training schedule but never buy; relative improvement is
measured against that twin. Sweep cells are independent and can execute in a
process pool; output rows are keyed and ordered by (cell, seed) regardless of
scheduling.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import MarketConfig, Policy, PolicyKind, SweepSpec, cell_config
from .engine import MarketLog, build_market, run_prepared_simulation

__all__ = [
    "never_trade_variant",
    "run_with_twin",
    "relative_improvement",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "layer_subset_table",
]


def never_trade_variant(cfg: MarketConfig) -> MarketConfig:
    """Same market, same draws, but nobody ever buys."""
    agents = tuple(replace(a, policy=Policy(PolicyKind.NEVER_TRADE)) for a in cfg.agents)
    return replace(cfg, agents=agents, pricing=False)


def run_with_twin(cfg: MarketConfig) -> tuple:
    """Run the market and its matched out-of-market twin on one market build.

    The logs equal those of ``run_simulation(cfg)`` and
    ``run_simulation(never_trade_variant(cfg))``.
    """
    # The twin runs on the market's own build; only its config's policies differ.
    states, broker_engine = build_market(cfg)
    log = run_prepared_simulation(cfg, states, broker_engine)
    twin = run_prepared_simulation(never_trade_variant(cfg), states, broker_engine)
    return log, twin


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
    value: object
    seed: int
    improvement_broker: dict
    improvement_error: dict
    final_broker: dict


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple

    def cells(self) -> list:
        """(value, rows) per cell, in the (cell, seed) order `run_sweep` builds ``rows`` in."""
        cells: dict = {}
        for row in self.rows:
            cells.setdefault(row.cell, (row.value, []))[1].append(row)
        return list(cells.values())


def _run_cell(args) -> SweepRow:
    cell, value, cfg = args
    log, twin = run_with_twin(cfg)
    improvement_broker = relative_improvement(log, twin, "broker_loss")
    return SweepRow(
        cell=cell,
        value=value,
        seed=cfg.seed,
        improvement_broker=improvement_broker,
        # A neural market has no estimation error; its broker improvement stands in.
        improvement_error=relative_improvement(log, twin, "est_error")
        if cfg.model == "linear"
        else improvement_broker,
        final_broker={u: log.final_row(u).broker_loss for u in log.agent_ids},
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of the host's where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(
    base: MarketConfig, axis: str, values, seeds: int, jobs: int = 1
) -> SweepResult:
    """Run every (cell, seed) pair; rows come back ordered by cell then seed.

    No cells or ``seeds < 1`` raise ConfigError, as in a sweep file. Each
    pair's market is built here, so a bad cell raises its own ConfigError at
    any ``jobs``. At most ``jobs`` worker processes run the pairs, and never
    more than there are pairs or usable CPUs; with one worker the pairs run in
    this process.
    """
    spec = SweepSpec(axis, tuple(values), seeds, base=base)
    work = [
        (cell, value, replace(cell_config(base, axis, value), seed=base.seed + seed))
        for cell, value in enumerate(spec.values)
        for seed in range(spec.seeds)
    ]
    workers = min(jobs, len(work), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, work))
    else:
        rows = [_run_cell(w) for w in work]
    return SweepResult(axis=axis, rows=tuple(rows))


def layer_subset_table(base: MarketConfig, layer_sets, seeds: int, jobs: int = 1) -> dict:
    """Compare trading different layer subsets of a neural market.

    Returns per-set mean improvements plus, per seed, which set won (largest
    mean improvement across agents). The full layer set is expected to win
    most seeds. A linear ``base`` raises ConfigError naming ``[sweep] axis``.
    """
    result = run_sweep(base, "layers", list(layer_sets), seeds, jobs=jobs)
    label = lambda v: "all" if v is None else ",".join(map(str, v))  # noqa: E731
    table, per_seed = {}, {}
    for value, rows in result.cells():
        agents = rows[0].improvement_broker.keys()
        table[label(value)] = {
            u: float(np.mean([r.improvement_broker[u] for r in rows])) for u in agents
        }
        for r in rows:
            mean = float(np.mean(list(r.improvement_broker.values())))
            per_seed.setdefault(r.seed, {})[label(value)] = mean
    winners = {seed: max(sorted(sets), key=sets.__getitem__) for seed, sets in per_seed.items()}
    return {"table": table, "winners": winners}
