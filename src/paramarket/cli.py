"""Command-line entry point.

Subcommands: ``simulate`` (one market run, emits trades/curves/summary),
``sweep`` (ablation grid with aggregate CSV), ``bounds-check`` (randomized
soundness audit of the trade bounds), ``price`` (evaluate a valuation
quadruple or a prior), and ``align-demo`` (permuted-clone alignment check
with an interpolation curve).

Exit codes: 0 success, 2 config/usage error, 3 divergence, 1 internal check
failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as io_mod
from .bounds import soundness_sweep
from .config import ConfigError, load_config, load_sweep
from .core import DivergenceError
from .engine import run_simulation
from .experiments import layer_subset_table, run_sweep
from .mlp import (
    LayerPermutations,
    MlpParams,
    TaskKind,
    apply_permutation,
    mlp_forward_loss,
    subset_merge,
    two_moons,
    weight_matching_alignment,
)
from .pricing import (
    PriorDistribution,
    ValuationQuadruple,
    cobb_douglas_revenue,
    myerson_price,
    nash_price_difference,
    settle,
)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    log = run_simulation(cfg)
    paths = io_mod.write_run_outputs(log, args.out)
    summary = io_mod.summary_dict(log)
    print(f"wrote {paths['trades']}, {paths['curves']}, {paths['summary']}")
    print(f"executed trades: {summary['total_trades_executed']}")
    for agent, stats in sorted(summary["agents"].items()):
        print(f"  {agent}: final broker loss {stats['final_broker_loss']:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep(args.config)
    if spec.axis == "layers":
        report = layer_subset_table(spec.base, list(spec.values), spec.seeds, jobs=args.jobs)
        lines = ["layer_set," + ",".join(sorted(next(iter(report["table"].values()))))]
        for label, perf in report["table"].items():
            lines.append(label.replace(",", ";") + "," + ",".join(io_mod.fmt(perf[u]) for u in sorted(perf)))
        io_mod.atomic_write_text(os.path.join(args.out, "layer_table.csv"), "\n".join(lines) + "\n")
        io_mod.atomic_write_text(
            os.path.join(args.out, "layer_winners.json"),
            json.dumps(report["winners"], indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote layer table for {len(report['table'])} layer sets to {args.out}")
        return 0

    result = run_sweep(spec.base, spec.axis, spec.values, spec.seeds, jobs=args.jobs)
    agents = sorted(result.rows[0].improvement_broker)
    header = "cell,axis,value,seed," + ",".join(
        [f"improvement_broker_{u}" for u in agents]
        + [f"improvement_error_{u}" for u in agents]
        + [f"final_broker_{u}" for u in agents]
    )
    lines = [header]
    for r in result.rows:
        lines.append(
            ",".join(
                [str(r.cell), r.axis, str(r.value), str(r.seed)]
                + [io_mod.fmt(r.improvement_broker[u]) for u in agents]
                + [io_mod.fmt(r.improvement_error[u]) for u in agents]
                + [io_mod.fmt(r.final_broker[u]) for u in agents]
            )
        )
    io_mod.atomic_write_text(os.path.join(args.out, "sweep.csv"), "\n".join(lines) + "\n")

    agg_lines = ["value," + ",".join(f"mean_improvement_error_{u},std_improvement_error_{u}" for u in agents)]
    for cell, value in enumerate(spec.values):
        rows = [r for r in result.rows if r.cell == cell]
        cols = []
        for u in agents:
            vals = [r.improvement_error[u] for r in rows]
            cols += [io_mod.fmt(float(np.mean(vals))), io_mod.fmt(float(np.std(vals)))]
        agg_lines.append(f"{value}," + ",".join(cols))
    io_mod.atomic_write_text(os.path.join(args.out, "sweep_aggregate.csv"), "\n".join(agg_lines) + "\n")
    print(f"wrote {len(result.rows)} sweep rows to {args.out}")
    return 0


def _cmd_bounds_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    report = soundness_sweep(args.trials, rng)
    lines = ["trial,scenario,realized,lower,upper,gain_a,alpha,beta"]
    for v in report.violations:
        lines.append(
            ",".join(
                [
                    str(v["trial"]),
                    v["scenario"],
                    io_mod.fmt(v["realized"]),
                    io_mod.fmt(v["lower"]),
                    io_mod.fmt(v["upper"]),
                    io_mod.fmt(v["gain_a"]),
                    io_mod.fmt(v["alpha"]),
                    io_mod.fmt(v["beta"]),
                ]
            )
        )
    if args.out:
        io_mod.atomic_write_text(os.path.join(args.out, "bounds_violations.csv"), "\n".join(lines) + "\n")
    print(
        f"trials={report.trials} violations={len(report.violations)} "
        f"lower_clamped={report.lower_clamp_count} unbounded_upper={report.unbounded_upper_count}"
    )
    return 0 if report.ok else 1


def _cmd_price(args) -> int:
    if args.prior:
        kind, _, params = args.prior.partition(":")
        if kind == "uniform":
            lo, hi = (float(v) for v in params.split(","))
            prior = PriorDistribution.uniform(lo, hi)
        elif kind == "exponential":
            prior = PriorDistribution.exponential(float(params))
        else:
            print(f"unknown prior kind {kind!r}; use uniform:lo,hi or exponential:rate", file=sys.stderr)
            return 2
        print(f"myerson_price={io_mod.fmt(myerson_price(prior))}")
        return 0
    q = ValuationQuadruple(
        v_a_self=args.va_self, v_b_of_a=args.vb_of_a, v_b_self=args.vb_self, v_a_of_b=args.va_of_b
    )
    delta = nash_price_difference(q)
    pay_a = settle(args.vb_of_a, args.va_self)  # B buying A's parameters
    pay_b = settle(args.va_of_b, args.vb_self)  # A buying B's parameters
    print(
        f"nash_price_difference={io_mod.fmt(delta)} "
        f"surplus_product={io_mod.fmt(cobb_douglas_revenue(q, delta))} "
        f"payment_for_a={io_mod.fmt(pay_a) or 'no-trade'} "
        f"payment_for_b={io_mod.fmt(pay_b) or 'no-trade'}"
    )
    return 0


def _cmd_align_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    sizes = (2, *([args.width] * args.depth), 2)
    data = two_moons(512, 0.15, rng)
    net = MlpParams.random_init(sizes, rng)
    planted = LayerPermutations(tuple(rng.permutation(h) for h in net.hidden_sizes))
    clone = apply_permutation(net, planted)
    perms = weight_matching_alignment(net, clone)
    recovered = apply_permutation(clone, perms)
    exact = all(
        np.array_equal(w1, w2) for w1, w2 in zip(recovered.weights, net.weights)
    ) and all(np.array_equal(b1, b2) for b1, b2 in zip(recovered.biases, net.biases))
    print(f"planted permutation recovered exactly: {exact}")

    layers = tuple(range(net.n_layers))
    lines = ["weight,loss_aligned,loss_unaligned"]
    for w in np.linspace(0.0, 1.0, args.points):
        w = float(w)
        if w == 0.0:
            la = lu = mlp_forward_loss(net, data, TaskKind.CLASSIFICATION)
        else:
            la = mlp_forward_loss(subset_merge(net, recovered, layers, w), data, TaskKind.CLASSIFICATION)
            lu = mlp_forward_loss(subset_merge(net, clone, layers, w), data, TaskKind.CLASSIFICATION)
        lines.append(f"{io_mod.fmt(w)},{io_mod.fmt(la)},{io_mod.fmt(lu)}")
    curve = "\n".join(lines) + "\n"
    if args.out:
        io_mod.atomic_write_text(os.path.join(args.out, "align_demo.csv"), curve)
        print(f"wrote interpolation curve to {os.path.join(args.out, 'align_demo.csv')}")
    else:
        print(curve, end="")
    return 0 if exact else 1


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paramarket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one market config")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run an ablation sweep config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds-check", help="randomized soundness audit of trade bounds")
    p_bounds.add_argument("--trials", type=_positive_int, default=10000)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=_cmd_bounds_check)

    p_price = sub.add_parser("price", help="evaluate a valuation quadruple or a prior")
    p_price.add_argument("--prior", default=None, help="uniform:lo,hi or exponential:rate")
    p_price.add_argument("--va-self", type=float, default=0.0, dest="va_self")
    p_price.add_argument("--vb-of-a", type=float, default=0.0, dest="vb_of_a")
    p_price.add_argument("--vb-self", type=float, default=0.0, dest="vb_self")
    p_price.add_argument("--va-of-b", type=float, default=0.0, dest="va_of_b")
    p_price.set_defaults(func=_cmd_price)

    p_align = sub.add_parser("align-demo", help="permuted-clone alignment demonstration")
    p_align.add_argument("--seed", type=int, default=0)
    p_align.add_argument("--width", type=int, default=16)
    p_align.add_argument("--depth", type=int, default=3)
    p_align.add_argument("--points", type=int, default=11)
    p_align.add_argument("--out", default=None)
    p_align.set_defaults(func=_cmd_align_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
