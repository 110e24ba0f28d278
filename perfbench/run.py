#!/usr/bin/env python3
"""Build the perfbench binary from the checked-out sources and run it.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The perfbench binary is built with CMake
into .bench_build/ (the first run pays for the build); socket rendezvous
directories and the traced run's span files also stay under .bench_build/.
The last line of standard output is the JSON result; it is checked
against BENCHMARK.json (every metric present, with its unit) before the
script exits 0.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    build_dir = BUILD / "perfbench"
    log = BUILD / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "perfbench", "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def commit():
    if not Path(".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def validate(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric set differs (missing {missing}, extra {extra})"
    for name, unit in want.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            return f"{name}: unit {got[name].get('unit')!r}, expected {unit!r}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}: value {value!r} is not a finite number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own self-tests")
    args = ap.parse_args()

    start = time.monotonic()
    os.chdir(ROOT)
    if not Path("src/core/system.hpp").is_file():
        fail("simulator sources (src/) not found next to perfbench/", 2)
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (expected {names})", 2)

    for d in (BUILD, BUILD / "tmp", BUILD / "spans"):
        d.mkdir(exist_ok=True)
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--commit", commit(),
           "--spans-dir", str(BUILD / "spans")]
    # A relative TMPDIR keeps Unix-socket paths short and inside the
    # checkout.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    timeout = max(30.0, RUN_TIMEOUT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        problem = validate(result, spec, args.trace)
    except ValueError as e:
        problem = f"last line is not JSON: {e}"
    if problem is not None:
        sys.stdout.write(proc.stdout)
        fail("invalid result: " + problem)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
