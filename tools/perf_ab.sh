#!/usr/bin/env bash
# Paired A/B of the perfbench end-to-end metrics: this checkout against a
# parent commit, alternating the two sides on one host.
#
#   tools/perf_ab.sh <parent-ref> [workload] [pairs] [seconds]
#   tools/perf_ab.sh HEAD~1 paper 6 50
#
# Defaults: workload paper, 6 pairs, 50 s per run.  The parent is checked
# out in a temporary `git worktree` (removed on exit); PERF_AB_PARENT_DIR
# names an existing checkout at <parent-ref> to use instead.  Each pair
# runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds T --trace 0
#
# in both checkouts with the same seed (S = 101, 102, ...), swapping which
# side goes first every pair, so slow drift of the host hits both sides
# alike.  Each side builds its own .bench_build/ on its first run (outside
# the timed loop).  The report lists each pair's measured metrics, then
# gives, for each end-to-end metric of BENCHMARK.json, both medians, the
# parent's quartiles, the median of the per-pair change/parent ratios and
# the pairs the change won, and says whether every deterministic metric
# (all but the timings and peak RSS) matched in every pair.  Nothing
# under perfbench/ or BENCHMARK.json is written.
set -euo pipefail

if [ $# -lt 1 ]; then
  sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_ref="$1"
workload="${2:-paper}"
pairs="${3:-6}"
seconds="${4:-50}"

cd "$(dirname "$0")/.."
change_dir="$(pwd)"
work="$(mktemp -d)"
worktree=""
cleanup() {
  if [ -n "$worktree" ]; then
    git -C "$change_dir" worktree remove --force "$worktree" || true
    git -C "$change_dir" worktree prune || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

if [ -n "${PERF_AB_PARENT_DIR:-}" ]; then
  parent_dir="$(cd "$PERF_AB_PARENT_DIR" && pwd)"
  if [ "$(git -C "$parent_dir" rev-parse HEAD)" != \
       "$(git rev-parse "$parent_ref^{commit}")" ]; then
    echo "perf_ab: $parent_dir is not checked out at $parent_ref" >&2
    exit 2
  fi
else
  worktree="$work/parent"
  git worktree add --detach --quiet "$worktree" "$parent_ref"
  parent_dir="$worktree"
fi

echo "perf_ab: parent $(git -C "$parent_dir" rev-parse --short HEAD)" \
     "($parent_dir), change $(git rev-parse --short HEAD)" \
     "+ working tree ($change_dir)"
echo "perf_ab: workload $workload, $pairs pairs x $seconds s"

# One run: the JSON result (run.py's last stdout line) lands in $3.
run_side() {
  local dir="$1" seed="$2" out="$3"
  (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
       --seed "$seed" --seconds "$seconds" --trace 0) >"$out.log" 2>&1 || {
    echo "perf_ab: run failed in $dir (seed $seed):" >&2
    tail -20 "$out.log" >&2
    exit 1
  }
  tail -n 1 "$out.log" >"$out"
}

for i in $(seq 1 "$pairs"); do
  seed=$((100 + i))
  if [ $((i % 2)) -eq 1 ]; then
    run_side "$parent_dir" "$seed" "$work/parent.$i.json"
    run_side "$change_dir" "$seed" "$work/change.$i.json"
  else
    run_side "$change_dir" "$seed" "$work/change.$i.json"
    run_side "$parent_dir" "$seed" "$work/parent.$i.json"
  fi
  echo "perf_ab: pair $i/$pairs (seed $seed) done"
done

python3 - "$work" "$pairs" "$change_dir/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

work, pairs, spec_path = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
spec = json.loads(Path(spec_path).read_text())
# Measured on the host; every other end-to-end metric is a deterministic
# function of the seed and must match between the two sides.
MEASURED = {"setup_s", "peak_rss_mb", "serial_step_us", "async_step_us"}


def load(side, i):
    result = json.loads((work / f"{side}.{i}.json").read_text())
    return result, {k: v["value"] for k, v in result["metrics"].items()}


runs = [(load("parent", i), load("change", i)) for i in range(1, pairs + 1)]
timed = [m["name"] for m in spec["end_to_end"] if m["name"] in MEASURED]
print("pair  seed  " + "  ".join(f"{n} (parent -> change)" for n in timed))
for i, (p, c) in enumerate(runs):
    cells = "  ".join(f"{p[1][n]:.4g} -> {c[1][n]:.4g}" for n in timed)
    print(f"{i + 1:>4}  {101 + i:>4}  {cells}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


print(f"{'metric':<28}{'parent':>12}{'parent q1-q3':>24}{'change':>12}"
      f"{'ratio':>8}{'wins':>7}")
mismatches = []
for metric in spec["end_to_end"]:
    name = metric["name"]
    lower = metric["better"] == "lower"
    a = [p[1][name] for p, _ in runs]
    b = [c[1][name] for _, c in runs]
    ratios = [y / x for x, y in zip(a, b) if x != 0]
    ratio = statistics.median(ratios) if ratios else float("nan")
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    q1, q3 = quartiles(a)
    print(f"{name:<28}{statistics.median(a):>12.5g}"
          f"{f'{q1:.5g}-{q3:.5g}':>24}{statistics.median(b):>12.5g}"
          f"{ratio:>8.3f}{wins:>4}/{pairs}")
    if name not in MEASURED:
        mismatches += [(i + 1, name) for i, (x, y) in enumerate(zip(a, b))
                       if x != y]
failed = [(i + 1, side) for i, (p, c) in enumerate(runs)
          for side, r in (("parent", p[0]), ("change", c[0]))
          if r["failed"] != 0 or not r["correct"]]
deterministic = len([m for m in spec["end_to_end"]
                     if m["name"] not in MEASURED])
if mismatches:
    print(f"deterministic metrics DIFFER: {mismatches}")
else:
    print(f"deterministic metrics: all {deterministic} identical "
          f"in all {pairs} pairs")
print("failed operations: " + (f"{failed}" if failed else "none"))
sys.exit(1 if mismatches or failed else 0)
EOF
