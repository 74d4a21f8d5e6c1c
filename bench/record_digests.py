"""Record the answer digests that bench/run.py compares against.

Usage, from the repository root:

    python3 bench/record_digests.py --seeds 0:100

For each workload this runs the fixed operations once and the seeded
operations once per seed, checks every answer with the harness's own
checks, and writes ``bench/digests.json``.  Nothing is written if any
answer fails its check.  Re-record only when a change is meant to
alter answers, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def record(seeds: range) -> dict:
    out = {}
    for workload in workloads.WORKLOADS:
        entry = {"fixed": None, "seeded": {}}
        for seed in seeds:
            pkg = run.load_package()
            ops = workloads.WORKLOAD_OPS[workload](pkg, seed)
            todo = [op for op in ops if op.seeded or entry["fixed"] is None]
            evaluator = run.Evaluator(todo)
            evaluator.evaluate(run.run_pass(todo)[1])
            if evaluator.failures:
                raise SystemExit(f"{workload} seed {seed}: {evaluator.failures[:3]}")
            if entry["fixed"] is None:
                entry["fixed"] = run.group_digest(ops, evaluator.first, seeded=False)
            entry["seeded"][str(seed)] = run.group_digest(ops, evaluator.first, seeded=True)
        out[workload] = entry
        print(f"{workload}: fixed {entry['fixed']}, {len(entry['seeded'])} seeds",
              file=sys.stderr)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0:100", help="range lo:hi of seeds")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(":"))
    sys.path.insert(0, str(run.SRC))
    digests = record(range(lo, hi))
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
