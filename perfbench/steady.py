#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed (untraced) and reports, for every
end-to-end metric of BENCHMARK.json, the median and the spread between
the first and third quartiles as a share of the median, next to the
metric's bound. It also checks the percentile cliffs each run prints:
the latencies 2% of ranks below and above p50/p90 may differ by at most
that metric's bound.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [WORKLOAD ...]

Run from the checkout root. Exits non-zero when a run fails, a check
fails, a spread (other than setup_s) exceeds a third of its bound, or a
cliff exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        widest = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            label, result = run_once(spec, workload, seed)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, c in label["cliffs"].items():
                widest[name] = max(widest.get(name, 0.0), c["width"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if name != "setup_s" and spread > bounds[name] / 3:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {workload:16s} {name:16s} median={med:<12.5g} "
                  f"spread={spread:.4f} bound={bounds[name]} {verdict}")
        for name, width in widest.items():
            verdict = "ok" if width <= bounds[name] else "CLIFF"
            ok = ok and width <= bounds[name]
            print(f"  {workload:16s} cliff {name:16s} widest={width:.4f} "
                  f"bound={bounds[name]} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
