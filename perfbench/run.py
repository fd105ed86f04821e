"""Seeded benchmark for precubical.

Run from the root of a checkout:

    python3 perfbench/run.py --workload greedy_cli --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in its own process. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_all(args, root):
    """Each workload in a child process, one after the other."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "precubical", "__init__.py")):
        print(f"error: no src/precubical in {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)

    import harness

    result, lines = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
