#!/usr/bin/env python3
"""Build ndpperf from source and run one workload.

    python3 perf/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. The first call configures and builds
perf/ with CMake into .bench_build/ndpperf; later calls only check
that the build is current. Build output goes to stderr. --trace 0 runs
`ndpperf run` and --trace 1 runs `ndpperf trace`; their report goes to
stdout and ends with one JSON line. The script exits non-zero and
prints no result when the build fails, ndpperf fails, or the JSON line
does not carry exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "ndpperf")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perf"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ndpperf",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        build()
        out = subprocess.run(
            [os.path.join(BUILD, "ndpperf"),
             "trace" if args.trace else "run",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds),
             "--out-dir", os.path.join(ROOT, ".bench_build", "ndpperf-out")],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    lines = out.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        got = None
    want = expected_metrics(args.trace)
    if out.returncode not in (0, 1) or got != want:
        sys.stderr.write(out.stdout)
        print(f"run.py: ndpperf exited {out.returncode}; metrics "
              f"{sorted(got or {})} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(out.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
