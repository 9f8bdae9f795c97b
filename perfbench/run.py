"""paramarket benchmark: one workload per run, closed loop, one client.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Workloads: linear-desk, mlp-layers, competitive-small, bounds-audit (see
README.md). The next experiment starts only when the previous one finished;
no process pool; BLAS keeps its default thread count.

``--trace 0`` measures the end-to-end metrics. ``setup_s`` and, except on
linear-desk, ``work_per_s`` are rescaled to a host of reference speed by a
probe sampled during the run (hostspeed.py). ``--trace 1`` runs one pass
untraced and the same pass with every layer wrapped, and reports per-layer
calls and self times. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs each workload in its own process and prints every metric with its unit.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("linear-desk", "mlp-layers", "competitive-small", "bounds-audit")
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

# Layers each workload must reach in the traced run (README's layer map).
EXPECTED_LAYERS = {
    "linear-desk": ("config", "core", "linear", "engine", "experiments", "io"),
    "mlp-layers": ("config", "mlp", "broker", "engine", "experiments", "io"),
    "competitive-small": (
        "config", "core", "linear", "broker", "bounds", "pricing", "engine", "experiments", "io",
    ),
    "bounds-audit": ("bounds",),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> None:
    for needed in (ROOT / "src" / "paramarket" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            _fail(f"{needed.relative_to(ROOT)} is missing; run from a paramarket checkout")


def measure_setup(name: str, seed: int) -> tuple:
    """Medians, rescaled and wall, of the time from process start until a
    fresh interpreter has its inputs ready."""
    rescaled, wall = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), repr(start)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            _fail(f"set-up probe failed:\n{done.stderr.strip()}")
        times = [float(word) for word in done.stdout.split()[-2:]]
        rescaled.append(times[0])
        wall.append(times[1])
    return statistics.median(rescaled), statistics.median(wall)


def _openblas() -> dict:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(lib_path))
        get_config = lib.scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        return {"openblas": get_config().decode(), "blas_threads": get_threads()}
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"openblas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload_seed": seed,
    }


class Runner:
    """Runs experiments one after another and checks each against its reference."""

    def __init__(self, workloads, refs: dict, out_dir: str):
        self.workloads = workloads
        self.refs = refs
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def experiment(self, item):
        start = time.perf_counter()
        result = self.workloads.run_item(item, self.out_dir)
        elapsed = time.perf_counter() - start
        problems = self.workloads.check(item, result, self.refs)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return elapsed, result

    def one_pass(self, items, keep: bool = False) -> tuple:
        """Run each item once; returns (experiment times, results if ``keep``).

        Results not kept are dropped as soon as they are checked, so peak
        memory does not grow with the number of passes.
        """
        times, results = [], []
        for item in items:
            elapsed, result = self.experiment(item)
            times.append(elapsed)
            if keep:
                results.append(result)
        return times, results


def untraced(name: str, seed: int, seconds: float, out_dir: str) -> tuple:
    setup_s, setup_wall_s = measure_setup(name, seed)
    import workloads

    items = workloads.draw_pass(name, seed)
    runner = Runner(workloads, workloads.load_refs(), out_dir)
    workloads.run_item(workloads.WORKLOADS[name].warmup(), out_dir)

    # Experiments cycle through the pass until the first pass is done and
    # the time is up. Each input's time is the median of its repetitions.
    probe = workloads.WORKLOADS[name].probe
    rescaled = [[] for _ in items]
    wall = [[] for _ in items]
    times = []
    with hostspeed.Sampler(probe) if probe else contextlib.nullcontext() as sampler:
        start = time.perf_counter()
        while len(times) < len(items) or time.perf_counter() - start < seconds:
            i = len(times) % len(items)
            began = time.perf_counter()
            elapsed, _ = runner.experiment(items[i])
            if probe:
                rescaled[i].append(sampler.rescaled(began, began + elapsed))
            wall[i].append(elapsed)
            times.append(elapsed)
    pass_work = sum(workloads.work(item) for item in items)

    def rate(per_item):
        return pass_work / sum(statistics.median(ts) for ts in per_item)

    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (rate(rescaled if probe else wall), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "experiments": len(times),
        "work_unit": workloads.WORKLOADS[name].unit,
        "work_probe": probe,
        "setup_wall_s": setup_wall_s,
        "wall_work_per_s": rate(wall),
        "experiment_p50_s": statistics.median(times),
    }
    if len(times) >= 100:
        extra["experiment_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return runner, metrics, extra


def traced(name: str, seed: int, out_dir: str) -> tuple:
    import spans
    import workloads

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        items = workloads.draw_pass(name, seed)
    finally:
        undo()
    runner = Runner(workloads, workloads.load_refs(), out_dir)
    workloads.run_item(workloads.WORKLOADS[name].warmup(), out_dir)

    untraced_times, _ = runner.one_pass(items)
    undo = spans.install(tracer)
    try:
        covered = tracer.top_level_s
        traced_times, results = runner.one_pass(items, keep=True)
        covered = tracer.top_level_s - covered
    finally:
        undo()
    traced_wall, untraced_wall = sum(traced_times), sum(untraced_times)
    overhead = traced_wall / untraced_wall
    coverage = covered / traced_wall

    metrics = {}
    for span in spans.SPAN_NAMES:
        n_calls, self_s = tracer.stats[span]
        metrics[f"{span}.calls"] = (n_calls, "count")
        metrics[f"{span}.self_s"] = (self_s, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    logs = [log for item, result in zip(items, results) if item.markets for log, _ in result]
    trades = {"executed": 0, "declined": 0, "failed": 0}
    for log in logs:
        for key, n in workloads.trade_counts(log).items():
            trades[key] += n
    proposals = sum(trades.values())
    calls = {span: stat[0] for span, stat in tracer.stats.items()}
    searches = calls["broker.optimize_merge_weight_searched"]
    metrics.update({
        "engine.build_market.per_twin_run": (
            ratio(calls["engine.build_market"], calls["experiments.run_with_twin"]), "count"),
        "engine.proposals": (proposals, "count"),
        "engine.trades_executed": (trades["executed"], "count"),
        "engine.trades_declined": (trades["declined"], "count"),
        "engine.negotiations_failed": (trades["failed"], "count"),
        "engine.accept_ratio": (ratio(trades["executed"], proposals), "ratio"),
        "mlp.lsa_solves_per_assignment": (
            ratio(calls["mlp.linear_sum_assignment"], calls["mlp.linear_assignment"]), "ratio"),
        "broker.loss_evals_per_search": (
            ratio(tracer.edges["broker.optimize_merge_weight_searched", "mlp.mlp_forward_loss"], searches),
            "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.span_coverage": (coverage, "ratio"),
    })

    # Self-checks of the trace itself, each counted as one attempted check.
    checks = []
    for layer in EXPECTED_LAYERS[name]:
        n = sum(n for span, n in calls.items() if span.startswith(f"{layer}."))
        checks.append((n > 0, f"layer {layer} recorded no calls on {name}"))
    gap = 1.0 - coverage
    checks.append((
        gap <= max(overhead - 1.0, 0.0) + 0.01,
        f"top-level spans cover {coverage:.4f} of traced wall time; overhead {overhead:.4f}",
    ))
    for ok, message in checks:
        runner.attempted += 1
        if not ok:
            runner.failed += 1
            runner.problems.append(message)
    extra = {"experiments": len(items), "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    return runner, metrics, extra


def run_one(args) -> None:
    _check_checkout()
    out_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        if args.trace:
            runner, metrics, extra = traced(args.workload, args.seed, str(out_dir))
        else:
            runner, metrics, extra = untraced(args.workload, args.seed, args.seconds, str(out_dir))
        env = environment(args.seed)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in runner.problems:
        print(f"FAILED {problem}")
    extra["failed_ratio"] = runner.failed / runner.attempted
    print("info " + json.dumps(extra, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload} {metric} = {value!r} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name with its unit."""
    results = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, end="")
            print(f"{name}: exit code {done.returncode}")
            return 1
        result = json.loads(lines[-1])
        info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
        results[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={info['failed_ratio']!r}")
        for line in lines:
            if line.startswith(("env ", "FAILED ")):
                print(line)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} = {entry['value']!r} {entry['unit']}")
        for metric in ("experiment_p50_s", "experiment_p90_s"):
            if metric in info:
                print(f"{name} {metric} = {info[metric]!r} s ({info['experiments']} experiments)")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
