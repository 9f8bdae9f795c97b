"""Record refs.json: the reference outputs of every input in every workload pool.

Usage: python3 perfbench/record_refs.py [workload ...]

Runs each pool input once with the checked-out paramarket and stores the
values the benchmark checks (final broker loss and estimation error per
agent, trade counts, audit counts). Recording again is a deliberate act: the
benchmark then checks later code against this code's outputs. Workloads not
named keep their stored entries; entries of inputs no longer in any pool
are dropped.
"""

import json
import sys
import tempfile

import workloads


def main(names) -> int:
    refs = workloads.load_refs() if workloads.REFS.exists() else {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as out_dir:
        for name in names or workloads.POOLS:
            for item in workloads.pool(name):
                result = workloads.run_item(item, out_dir)
                refs.update(workloads.summarize(item, result))
                problems = workloads.check(item, result, refs)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
            print(f"recorded {name}", file=sys.stderr)
    wanted = {key for name in workloads.POOLS for item in workloads.pool(name) for key in workloads.ref_keys(item)}
    refs = {key: value for key, value in refs.items() if key in wanted}
    with open(workloads.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
