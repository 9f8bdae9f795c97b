"""Check that two traced runs with the same seed reproduce every count exactly.

Usage: python3 perfbench/repeat_check.py --seed <n> [--workload <name> ...]

Compares every per-layer metric with unit ``count`` or ``ratio`` except the
trace's own timing ratios. Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
NAMES = ("linear-desk", "mlp-layers", "competitive-small", "bounds-audit")
TIMING = ("trace.overhead_ratio", "trace.span_coverage")


def traced_counts(name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {
        k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio") and k not in TIMING
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=NAMES)
    args = parser.parse_args(argv)
    status = 0
    for name in args.workload or NAMES:
        first, second = traced_counts(name, args.seed), traced_counts(name, args.seed)
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{name}: {len(first)} counts, {'all equal' if not diff else 'differ: ' + ', '.join(diff)}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
