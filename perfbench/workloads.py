"""Benchmark workloads: recorded input pools, the seeded pass drawn from them,
one experiment per input, and the correctness checks against reference values.

Every workload has a fixed pool of inputs whose reference outputs are stored
in ``refs.json``. An input is one experiment: one or more markets run in
order, or one audit batch. The workload seed draws a *pass* from the pool: a
fixed number of inputs per group, interleaved across groups. A run cycles
through the pass and takes each input's median time, so parent and change
always see the same mix of inputs.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses to run against any other copy of paramarket.
"""

import json
import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFS = Path(__file__).resolve().parent / "refs.json"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import paramarket  # noqa: E402
from paramarket import bounds, config, experiments, io  # noqa: E402

if not Path(paramarket.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"paramarket imported from {paramarket.__file__}, not from {SRC}")

# Trials per soundness-audit batch: small enough that a pass of batches
# repeats several times in one run.
AUDIT_TRIALS = 2000
# The ROADMAP's tolerance for reproduced losses and errors.
REL_TOL = 1e-6
# Per-round payment sums may differ from zero by float rounding of the
# ledger; relative to the round's total absolute balance.
CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class Item:
    """One experiment of a workload: markets run in order, or one audit batch."""

    key: str  # reference key of an audit batch; names the item otherwise
    group: str  # pass draws evenly from each group
    markets: tuple = ()  # (reference key, MarketConfig) pairs
    seed: int = 0  # audit batch seed
    trials: int = 0  # audit batch size


def _market(key: str, group: str, cfg) -> Item:
    return Item(key, group, ((key, cfg),))


@dataclass(frozen=True)
class Workload:
    unit: str  # what work_per_s counts
    take: int  # inputs drawn per group for one pass
    warmup: object  # callable returning one small Item
    # hostspeed probe that rescales work_per_s; None: wall time
    probe: object = "python"


def _label(layer_set) -> str:
    return "all" if layer_set is None else ",".join(map(str, layer_set))


def _linear_pool() -> list:
    # Acceptance 01's five markets. Build cost varies up to sixfold with the
    # market seed (power-iteration matvecs), so every pass holds all five and
    # the workload seed only orders them.
    base = config.load_config(CONFIGS / "paper_linear.cfg")
    return [_market(f"paper_linear@{s}", "paper_linear", replace(base, seed=s)) for s in range(5)]


def _mlp_pool() -> list:
    # The diagonal of acceptance 13's sweep: the k-th layer set at the k-th
    # seed, so each layer set and each seed appears once. Cell cost differs
    # by up to a tenth, so every pass holds all five and the workload seed
    # only orders them.
    spec = config.load_sweep(CONFIGS / "mlp_subset_sweep.cfg")
    items = []
    for s, layer_set in enumerate(spec.values):
        cfg = replace(spec.base, mlp=replace(spec.base.mlp, layer_set=layer_set))
        seed = spec.base.seed + s % spec.seeds
        key = f"mlp_subset_sweep[{_label(layer_set)}]@{seed}"
        items.append(_market(key, "cell", replace(cfg, seed=seed)))
    return items


COMPETITIVE_SEEDS = 48


def _competitive_pool() -> list:
    # One experiment alternates the two configs: a two-agent market whose
    # seller asks its lower bound, then a three-agent Myerson market. Their
    # times differ about threefold, so a median over single markets would
    # fall in the gap between the two modes.
    pricing = config.load_config(CONFIGS / "pricing.cfg")
    three = replace(config.load_config(CONFIGS / "three_agents.cfg"), pricing=True)
    items = []
    for k in range(COMPETITIVE_SEEDS):
        markets = (
            (f"pricing@{pricing.seed + k}", replace(pricing, seed=pricing.seed + k)),
            (f"three_agents+pricing@{three.seed + k}", replace(three, seed=three.seed + k)),
        )
        items.append(Item("+".join(key for key, _ in markets), "pair", markets))
    return items


AUDIT_SEEDS = 64


def _audit_pool() -> list:
    return [Item(f"soundness@{s}", "soundness", seed=s, trials=AUDIT_TRIALS) for s in range(AUDIT_SEEDS)]


def _small_linear() -> Item:
    return _market("warmup", "warmup", replace(config.load_config(CONFIGS / "pricing.cfg"), rounds=3))


def _small_mlp() -> Item:
    base = config.load_sweep(CONFIGS / "mlp_subset_sweep.cfg").base
    return _market("warmup", "warmup", replace(base, rounds=4))


def _small_audit() -> Item:
    return Item("warmup", "warmup", seed=0, trials=100)


POOLS = {
    "linear-desk": _linear_pool,
    "mlp-layers": _mlp_pool,
    "competitive-small": _competitive_pool,
    "bounds-audit": _audit_pool,
}

WORKLOADS = {
    # Its time is in two-thread OpenBLAS calls, whose speed does not follow
    # the pure-Python probe: rescaled rates spread more than wall rates.
    "linear-desk": Workload("rounds", 5, _small_linear, probe=None),
    "mlp-layers": Workload("rounds", 5, _small_mlp),
    "competitive-small": Workload("rounds", 24, _small_linear),
    # Audit trials are mostly calls on 8-element arrays; they slow about
    # 1.3-1.5 times as much as the pure-Python probe.
    "bounds-audit": Workload("trials", 32, _small_audit, probe="numpy"),
}


def pool(name: str) -> list:
    """Every input of the workload, in a fixed order."""
    return POOLS[name]()


def draw_pass(name: str, seed: int) -> list:
    """The inputs of one pass: ``take`` per group, drawn by the workload seed, interleaved."""
    take = WORKLOADS[name].take
    rng = random.Random(seed)
    groups: dict = {}
    for item in pool(name):
        groups.setdefault(item.group, []).append(item)
    picked = [rng.sample(members, take) for members in groups.values()]
    return [item for row in zip(*picked) for item in row]


def run_item(item: Item, out_dir: str):
    """One experiment: an audit report, or a (log, twin) pair per market.

    Each market runs with its twin, the improvement over the twin and the
    market log's emit, as a sweep cell and ``simulate`` do.
    """
    if not item.markets:
        return bounds.soundness_sweep(item.trials, np.random.default_rng(item.seed))
    results = []
    for _, cfg in item.markets:
        log, twin = experiments.run_with_twin(cfg)
        experiments.relative_improvement(log, twin)
        io.write_run_outputs(log, out_dir)
        results.append((log, twin))
    return results


def ref_keys(item: Item) -> list:
    """Keys of the item's reference values in refs.json."""
    return [key for key, _ in item.markets] or [item.key]


def work(item: Item) -> int:
    """Market rounds (market and twin) or audit trials done by one experiment."""
    return item.trials if not item.markets else sum(2 * cfg.rounds for _, cfg in item.markets)


def trade_counts(log) -> dict:
    """Executed, declined and failed buyer-side evaluations of a market log."""
    executed = sum(1 for r in log.trades if r.indicator)
    failed = sum(1 for r in log.trades if not r.indicator and r.buyer_valuation is not None)
    return {"executed": executed, "declined": len(log.trades) - executed - failed, "failed": failed}


def _finals(log) -> dict:
    out = {}
    for u in log.agent_ids:
        row = log.final_row(u)
        out[u] = [row.broker_loss, None if math.isnan(row.est_error) else row.est_error, row.cum_payment]
    return out


def summarize(item: Item, result) -> dict:
    """Reference values of one experiment, keyed as in refs.json."""
    if not item.markets:
        return {item.key: {
            "trials": result.trials,
            "violations": len(result.violations),
            "lower_clamp_count": result.lower_clamp_count,
            "unbounded_upper_count": result.unbounded_upper_count,
        }}
    return {
        key: {"market": _finals(log), "twin": _finals(twin), **trade_counts(log)}
        for (key, _), (log, twin) in zip(item.markets, result)
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _ledger_problems(log) -> list:
    """Payments move money between agents only: replay the ledger exactly."""
    problems = []
    cum = {u: 0.0 for u in log.agent_ids}
    by_round: dict = {}
    for r in log.trades:
        by_round.setdefault(r.round_index, []).append(r)
        if not 0.0 < r.merge_weight <= 1.0:
            problems.append(f"round {r.round_index}: merge weight {r.merge_weight} outside (0, 1]")
    rows: dict = {}
    for row in log.curves:
        rows.setdefault(row.round_index, []).append(row)
    for t in sorted(rows):
        for r in by_round.get(t, ()):
            if r.indicator and r.payment:
                cum[r.buyer] -= r.payment
                cum[r.seller] += r.payment
        balances = [row.cum_payment for row in rows[t]]
        if any(row.cum_payment != cum[row.agent] for row in rows[t]):
            problems.append(f"round {t}: cum_payment does not replay the settled payments")
        if abs(math.fsum(balances)) > CONSERVATION_TOL * math.fsum(map(abs, balances)):
            problems.append(f"round {t}: payments sum to {math.fsum(balances)}, not 0")
    return problems


def _audit_problems(got: dict, ref: dict) -> list:
    problems = [f"{got['violations']} bound violations"] if got["violations"] else []
    for key in ("trials", "lower_clamp_count", "unbounded_upper_count"):
        if got[key] != ref[key]:
            problems.append(f"{key} {got[key]} != reference {ref[key]}")
    return problems


def _market_problems(got: dict, ref: dict) -> list:
    problems = []
    for key in ("executed", "declined", "failed"):
        if got[key] != ref[key]:
            problems.append(f"{key} trades {got[key]} != reference {ref[key]}")
    for run in ("market", "twin"):
        for agent, values in ref[run].items():
            mine = got[run].get(agent, [math.inf] * 3)
            for what, a, b in zip(("broker loss", "est error", "cum payment"), mine, values):
                if not _close(a, b):
                    problems.append(f"{run} {agent} final {what} {a!r} != reference {b!r}")
    return problems


def check(item: Item, result, refs: dict) -> list:
    """Problems found in one experiment's outputs; empty when correct."""
    problems = []
    for key, got in summarize(item, result).items():
        ref = refs.get(key)
        if ref is None:
            found = ["no reference value recorded"]
        elif item.markets:
            found = _market_problems(got, ref)
        else:
            found = _audit_problems(got, ref)
        problems += [f"{key}: {p}" for p in found]
    if item.markets:
        for (key, _), logs in zip(item.markets, result):
            for log in logs:
                problems += [f"{key}: {p}" for p in _ledger_problems(log)]
    return problems


def load_refs() -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)
