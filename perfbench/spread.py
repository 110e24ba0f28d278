#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

    python3 perfbench/spread.py [--workloads paper,serving] [--runs 10]
                                [--seed-base 1] [--seconds N] [--trace 0]

Runs perfbench/run.py once per seed (seed-base, seed-base+1, ...) on each
workload and prints, for every metric, the median and the distance between
the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)).  A spread above a third of the
metric's bound is marked; setup_s is reported but never marked.  Raw
results go to .bench_build/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        raw = []
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench/run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            raw.append({"seed": seed, "result": result})
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        (ROOT / f".bench_build/spread-{workload}.json").write_text(
            json.dumps(raw, indent=1))
        print(f"== {workload} ({args.runs} seeds from {args.seed_base})")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            mark = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                if spread > bound / 3:
                    mark = "  <-- above bound/3"
            print(f"  {m['name']:34s} median {med:<14.6g} spread "
                  f"{spread:7.2%}  bound {bound if bound else '-'}{mark}")
    if not args.trace:
        print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
