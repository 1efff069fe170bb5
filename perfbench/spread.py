#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between its first and third quartiles as a share of
its median (statistics.quantiles, n=4).

Run from the repository root:

    python3 perfbench/spread.py --workload host_dag --runs 10
    python3 perfbench/spread.py --workload all --runs 10 --first-seed 100

A spread above a third of the metric's bound in BENCHMARK.json is marked.
The per-run values are saved to perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    return result, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = (
        [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, took = run_once(bench, workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "seconds": took, "metrics": result["metrics"]})
            print(f"{workload} seed {seed}: {took:.1f} s", file=sys.stderr)
        (out_dir / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        print(f"{workload}: {args.runs} runs, {seconds} s each")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                mark = "  <-- above a third of the bound"
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(
                f"  {name:<32} median {med:>14.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}"
                f"  spread {spread:7.4f}  bound {bound_s}{mark}"
            )


if __name__ == "__main__":
    main()
