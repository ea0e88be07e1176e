#!/usr/bin/env python3
"""Builds the Meissa benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (and the libraries it links from src/) in Release mode under
.bench_build/ (or $CARGO_TARGET_DIR, when set); later runs only re-check
the build. The last line of standard output is one JSON object with the
keys "correct", "attempted", "failed" and "metrics". With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, and the recorded spans are written next to the
build as spans-<workload>-<seed>.json.

Exit status: 0 on success; 1 when a correctness gate failed (the result
line is still printed); 2 when the benchmark could not build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gw-test", "gw-gen", "gw-retest", "bugs"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("Meissa sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + generator, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "meissa_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(out, "meissa_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    binary = build(out)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(out, f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        die(f"benchmark exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("benchmark printed a malformed result line")

    # The metric set is fixed by BENCHMARK.json. A per-layer metric of a
    # layer this workload never calls reads 0; any other gap, or a name
    # BENCHMARK.json does not list, is an error.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - {m["name"] for m in wanted})
    if unknown:
        die(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    final = {}
    for m in wanted:
        if m["name"] in metrics:
            got = metrics[m["name"]]
            if got["unit"] != m["unit"]:
                die(f"{m['name']}: unit {got['unit']}, expected {m['unit']}")
            final[m["name"]] = got
        elif args.trace:
            final[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            die(f"end-to-end metric {m['name']} not reported")
    result["metrics"] = final
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
