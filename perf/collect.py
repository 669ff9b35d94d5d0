#!/usr/bin/env python3
"""Collect a result set: every workload, once per seed.

    python3 perf/collect.py --out perf/results/NAME.json [--runs 10]
                            [--trace]

Runs perf/run.py the way BENCHMARK.json's command does, with seeds
1..runs, and writes {"label", "run_seconds", "runs": [{"workload", "seed",
"trace", "fingerprint", "result"}]}, the input of `ndpperf compare`.
It then prints, per workload and metric, the median and the quartile
spread as a share of the median, next to a third of the metric's
bound (the stability target). Run from the repository root.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true",
                    help="collect per-layer (traced) runs instead")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for name in names:
        for k in range(args.runs):
            seed = k + 1
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "1" if args.trace else "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(f"collect.py: {name} seed={seed} failed")
            fp = re.search(r"^fingerprint \S+ seed=\d+ (\w+)$", out.stdout,
                           re.M)
            result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
            runs.append({"workload": name, "seed": seed,
                         "trace": int(args.trace),
                         "fingerprint": fp.group(1) if fp else "",
                         "result": result})
            print(f"{name} seed={seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)

    head = {"label": os.path.splitext(os.path.basename(args.out))[0],
            "host": host(), "run_seconds": spec["run_seconds"]}
    with open(args.out, "w") as f:
        # One run per line keeps result sets readable in a diff.
        f.write(json.dumps(head)[:-1] + ',\n "runs": [\n')
        f.write(",\n".join("  " + json.dumps(r) for r in runs))
        f.write("\n]}\n")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':14} {'metric':24} {'median':>12} {'spread':>8} "
          f"{'bound/3':>8}")
    for name in names:
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == name]
        for metric in mine[0]:
            vals = [m[metric]["value"] for m in mine]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(metric)
            target = f"{b / 3:8.4f}" if b is not None else f"{'-':>8}"
            print(f"{name:14} {metric:24} {med:12.6g} {spread:8.4f} {target}")


if __name__ == "__main__":
    main()
