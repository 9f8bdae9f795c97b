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
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import io as io_mod
from .bounds import soundness_sweep
from .config import ConfigError, load_config, load_sweep
from .core import DivergenceError
from .engine import InvariantError, run_simulation
from .experiments import _usable_cpus, layer_subset_table, run_sweep
from .mlp import (
    MOONS_CLASSES,
    MOONS_FEATURES,
    ClassMajorSet,
    LayerPermutations,
    MlpParams,
    apply_permutation,
    merge_path_loss,
    mlp_forward_loss,
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


def _make_out_dir(out: str | None) -> None:
    # Before the run, so an --out that cannot be a directory fails at once.
    if out:
        os.makedirs(os.path.abspath(out), exist_ok=True)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    _make_out_dir(args.out)
    log = run_simulation(cfg)
    paths = io_mod.write_run_outputs(log, args.out)
    print(f"wrote {paths['trades']}, {paths['curves']}, {paths['summary']}")
    print(f"executed trades: {sum(r.indicator for r in log.trades)}")
    for agent in sorted(log.agent_ids):
        print(f"  {agent}: final broker loss {log.final_row(agent).broker_loss:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep(args.config)
    _make_out_dir(args.out)
    if spec.axis == "layers":
        report = layer_subset_table(spec.base, list(spec.values), spec.seeds, jobs=args.jobs)
        io_mod.write_layer_outputs(report, args.out)
        print(f"wrote layer table for {len(report['table'])} layer sets to {args.out}")
        return 0
    result = run_sweep(spec.base, spec.axis, spec.values, spec.seeds, jobs=args.jobs)
    io_mod.write_sweep_outputs(result, args.out)
    print(f"wrote {len(result.rows)} sweep rows to {args.out}")
    return 0


def _cmd_bounds_check(args) -> int:
    _make_out_dir(args.out)
    report = soundness_sweep(args.trials, np.random.default_rng(args.seed))
    if args.out:
        path = os.path.join(args.out, "bounds_violations.csv")
        io_mod.atomic_write_text(path, io_mod.violations_csv(report.violations))
    print(
        f"trials={report.trials} violations={len(report.violations)} "
        f"lower_clamped={report.lower_clamp_count} unbounded_upper={report.unbounded_upper_count}"
    )
    return 0 if report.ok else 1


def _cmd_price(args) -> int:
    given = {"--va-self": args.va_self, "--vb-of-a": args.vb_of_a, "--vb-self": args.vb_self,
             "--va-of-b": args.va_of_b}  # in ValuationQuadruple's field order
    if args.prior:
        for flag in (f for f, value in given.items() if value is not None):
            args.usage_error(f"argument {flag}: not allowed with argument --prior")
        print(f"myerson_price={io_mod.fmt(myerson_price(args.prior))}")
        return 0
    q = ValuationQuadruple(*(0.0 if value is None else value for value in given.values()))
    delta = nash_price_difference(q)
    pay_a = settle(q.v_b_of_a, q.v_a_self)  # B buying A's parameters
    pay_b = settle(q.v_a_of_b, q.v_b_self)  # A buying B's parameters
    print(
        f"nash_price_difference={io_mod.fmt(delta)} "
        f"surplus_product={io_mod.fmt(cobb_douglas_revenue(q, delta))} "
        f"payment_for_a={io_mod.fmt(pay_a) or 'no-trade'} "
        f"payment_for_b={io_mod.fmt(pay_b) or 'no-trade'}"
    )
    return 0


def _cmd_align_demo(args) -> int:
    _make_out_dir(args.out)
    rng = np.random.default_rng(args.seed)
    sizes = (MOONS_FEATURES, *([args.width] * args.depth), MOONS_CLASSES)
    data = ClassMajorSet(two_moons(512, rng), MOONS_CLASSES)
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
    aligned, plain = (merge_path_loss(net, seller, layers, data) for seller in (recovered, clone))
    own = mlp_forward_loss(net, data)  # weight 0 is no merge: both curves start at the net's own loss
    weights = map(float, np.linspace(0.0, 1.0, args.points))
    points = [(w, own, own) if w == 0.0 else (w, aligned(w), plain(w)) for w in weights]
    curve = io_mod.csv_text(io_mod.ALIGN_DEMO_HEADER, points)
    if args.out:
        io_mod.atomic_write_text(os.path.join(args.out, "align_demo.csv"), curve)
        print(f"wrote interpolation curve to {os.path.join(args.out, 'align_demo.csv')}")
    else:
        print(curve, end="")
    return 0 if exact else 1


def _int_at_least(minimum: int):
    def cast(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    cast.__name__ = "int"  # argparse names the type in "invalid int value"
    return cast


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw}")
    return value


_finite_float.__name__ = "float"  # argparse names the type in "invalid float value"


def _prior(raw: str) -> PriorDistribution:
    kind, _, params = raw.partition(":")
    try:
        values = [float(v) for v in params.split(",")]
        if all(map(math.isfinite, values)):
            if kind == "uniform" and len(values) == 2:
                return PriorDistribution.uniform(*values)
            if kind == "exponential" and len(values) == 1:
                return PriorDistribution.exponential(values[0])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"invalid prior {raw!r}; use uniform:lo,hi with finite 0 <= lo <= hi "
        "or exponential:rate with a finite rate > 0"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paramarket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one market config")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--seed", type=_int_at_least(0), default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run an ablation sweep config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=_int_at_least(1), default=_usable_cpus())
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds-check", help="randomized soundness audit of trade bounds")
    p_bounds.add_argument("--trials", type=_int_at_least(1), default=10000)
    p_bounds.add_argument("--seed", type=_int_at_least(0), default=0)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=_cmd_bounds_check)

    p_price = sub.add_parser("price", help="evaluate a valuation quadruple or a prior")
    p_price.add_argument("--prior", type=_prior, default=None, help="uniform:lo,hi or exponential:rate")
    for flag in ("--va-self", "--vb-of-a", "--vb-self", "--va-of-b"):  # None when not given: --prior refuses it
        p_price.add_argument(flag, type=_finite_float, default=None)
    p_price.set_defaults(func=_cmd_price, usage_error=p_price.error)

    p_align = sub.add_parser("align-demo", help="permuted-clone alignment demonstration")
    p_align.add_argument("--seed", type=_int_at_least(0), default=0)
    p_align.add_argument("--width", type=_int_at_least(1), default=16)
    p_align.add_argument("--depth", type=_int_at_least(0), default=3)
    p_align.add_argument("--points", type=_int_at_least(1), default=11)
    p_align.add_argument("--out", default=None)
    p_align.set_defaults(func=_cmd_align_demo)
    return parser


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _attach_signed_values(argv: list) -> list:
    """Join each ``--flag`` but ``--help`` to a following number that starts with ``-``.

    argparse reads a separate word such as ``-1e5`` or ``-inf`` as an option
    unless it looks like a plain negative number, so ``--seed -1e3`` would
    end in ``expected one argument``. Joined as ``--seed=-1e3``, the value
    reaches the flag's own check (every other flag takes a value). Words
    after ``--`` are left as they are.
    """
    out = []
    for k, word in enumerate(argv):
        if word == "--":
            return out + argv[k:]
        flag = out[-1] if out else ""
        takes_value = flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
        if takes_value and word.startswith("-") and _is_number(word):
            out[-1] = f"{flag}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_signed_values(argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that cannot be read or written, named in the message
        print(f"path error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
