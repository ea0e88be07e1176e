#!/usr/bin/env python3
"""Exact-count determinism check for the traced run.

    python3 perfbench/check_determinism.py [--seed N] [--other-seed M]
                                           [--seconds S] [WORKLOAD ...]

For each workload (default: all), runs the traced benchmark twice with
--seed and once with --other-seed. Every per-layer metric whose unit is
"count" must read the same in the two same-seed runs, and all three runs
must pass their correctness gates. Exits 0 when both hold, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()

    ok = True
    for w in args.workloads:
        runs = [traced_run(w, s, args.seconds)
                for s in (args.seed, args.seed, args.other_seed)]
        if any(r is None or not r["correct"] for r in runs):
            print(f"{w}: a traced run failed or was incorrect")
            ok = False
            continue
        a, b = counts(runs[0]), counts(runs[1])
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff:
            ok = False
            for k in diff:
                print(f"{w}: {k} = {a[k]} then {b.get(k)} (seed {args.seed})")
        else:
            print(f"{w}: {len(a)} counts identical across two runs of seed "
                  f"{args.seed}; seed {args.other_seed} ran clean")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
