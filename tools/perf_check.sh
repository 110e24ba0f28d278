#!/usr/bin/env sh
# Perf regression gate for the core hot paths.
#
# Rebuilds the release preset, re-runs bench/micro_core (which measures
# generate/consume/balance ns-per-op and writes BENCH_core.json into the
# current directory) plus a short bench/scalability sparse sweep (whose
# "sparse_step" step_us rows time the obs-detached batched step loop —
# this is the tracing-off overhead gate: the observability layer must
# stay free when detached; the "async_step" rows time the barrier-free
# run_async engine the same way, so regressions in the epoch-fenced
# drain path fail here too), plus a short serving sweep (n = 64, 256 and
# 1024, 200 steps: its "serving_step" rows' serial step_us times the §4
# borrow/repay/settle path under Zipf traffic), and compares every
# metric against the committed baseline BENCH_core.json at the
# repository root.  The sparse sweep also re-runs each engine with the
# counting allocation hook attached and gates allocs_per_step == 0: the
# zero-allocation steady state (DESIGN.md §11) is a hard invariant, not
# a tolerance-checked timing.
#
# The comparison is common-mode normalized: on a shared/virtualized box
# the whole benchmark drifts ±20-30% run to run, and all metrics drift
# *together* (a noisy neighbor slows the machine, not one code path).  A
# real regression is the opposite shape — one path moves, the rest
# don't.  So the gate computes each metric's fresh/baseline ratio,
# takes the median ratio across all metrics as the machine-speed factor,
# and fails a metric only when its ratio exceeds the median by more than
# the tolerance.  The socket rows (rtt_us, txn_us) get their own factor:
# they time syscalls and wake-ups, which drift apart from the in-process
# rows (8-10x gaps against the committed figures were measured on one
# box whose core rows matched within 10%).  With two metrics the socket
# factor is their mean, so that group flags one socket path drifting
# against the other, not both slowing together.  Blind spot: a change
# that slows *every* metric of a group by the same factor cancels out —
# that shape is almost always a build-type mistake (e.g. a debug
# build), which the build presets gate separately.
#
# Usage: tools/perf_check.sh [tolerance_pct]     (default 30)
# Opt-in from the full gate:  DLB_PERF_CHECK=1 tools/check.sh
set -eu

cd "$(dirname "$0")/.."
repo="$(pwd)"
tol="${1:-30}"
jobs="$(nproc 2>/dev/null || echo 4)"

if ! command -v python3 >/dev/null 2>&1; then
  echo "perf_check: python3 not available, skipping" >&2
  exit 0
fi

cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs" \
    --target micro_core scalability transport_rtt

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
(cd "$workdir" && "$repo/build/bench/micro_core" --benchmark_filter=NONE)
# Sparse sweep only (max_n 16 skips the dense quality table): the
# step_us it reports is the batched step loop with observability
# detached, so a regression here catches hot-path cost sneaking in
# behind the "disabled is free" promise.
"$repo/build/bench/scalability" --steps 1 --runs 1 --max_n 16 \
    --sparse_max_n 65536 --json_out "$workdir/BENCH_scalability.json" \
    >/dev/null
"$repo/build/bench/scalability" --workload serving --steps 200 \
    --max_n 1024 --json_out "$workdir/BENCH_serving.json" >/dev/null
# Socket-transport latency rows (rtt_us / txn_us): forked ranks over
# unix-domain sockets, so a regression in the framing, pump or
# spin-then-block receive path fails here.
"$repo/build/bench/transport_rtt" \
    --json_out "$workdir/BENCH_transport.json" >/dev/null

python3 - "$repo/BENCH_core.json" "$workdir/BENCH_core.json" "$tol" \
    "$workdir/BENCH_scalability.json" "$workdir/BENCH_serving.json" \
    "$workdir/BENCH_transport.json" <<'EOF'
import json
import statistics
import sys

base_path, fresh_path, tol_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(base_path) as f:
    base = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)
for extra in sys.argv[4:]:
    with open(extra) as f:
        fresh["results"].extend(json.load(f)["results"])

def key(row):
    # workload+n alone is ambiguous for the serving rows (several
    # strategies / Zipf exponents share one (workload, n)); fold the
    # distinguishing columns in so every row keys uniquely.  Only the
    # timing/alloc metrics below are gated — the serving rows' latency
    # percentiles are workload results, not hot-path timings, and must
    # never fail the perf gate.
    return (row.get("workload", "sparse"), row["n"],
            row.get("alpha", ""), row.get("strategy", ""))

baseline = {key(r): r for r in base["results"]}
metrics = ("generate_ns", "consume_ns", "balance_ns", "step_us",
           "rtt_us", "txn_us")
socket_metrics = ("rtt_us", "txn_us")


def group(metric):
    # Common-mode group: the socket rows drift on their own.
    return "socket" if metric in socket_metrics else "core"


ratios = {}  # (workload, n, metric) -> (fresh, base, fresh/base)
for row in fresh["results"]:
    ref = baseline.get(key(row))
    if ref is None:
        print(f"  [new ] {key(row)}: no baseline row, skipping")
        continue
    for m in metrics:
        if m in ref and m in row and ref[m] > 0:
            ratios[key(row) + (m,)] = (row[m], ref[m], row[m] / ref[m])

if not ratios:
    print("perf_check: no comparable metrics found", file=sys.stderr)
    sys.exit(1)

# Zero-allocation steady-state gate (DESIGN.md §11): the sparse-sweep
# rows carry allocs_per_step columns measured with the counting
# operator-new hook — 0.0 means the engine's allocator went quiet within
# the first half of the horizon.  Unlike the timing gate this is exact
# (allocation counts do not drift with machine load), so any nonzero
# value is a hard failure.
alloc_failures = []
for row in fresh["results"]:
    if row.get("workload") not in ("sparse_step", "async_step"):
        continue
    for m, v in row.items():
        if m.endswith("allocs_per_step"):
            status = "FAIL" if v != 0 else "ok"
            print(f"  [{status:>4}] {row['workload']}/n={row['n']} {m}: {v}")
            if v != 0:
                alloc_failures.append((key(row), m, v))
if alloc_failures:
    print(f"perf_check: {len(alloc_failures)} engine(s) allocate in the "
          "steady state (allocs_per_step != 0)", file=sys.stderr)
    sys.exit(1)

# Wire-overhead gate: the socket rows' wire_bytes_per_msg is a pure
# framing constant (header + fixed body + payload words on the bench's
# fixed traffic shape), so like the alloc gate it is compared exactly
# (1e-6 relative slack for float round-trip), not ratio-normalized.
# Any drift means the wire format or the bench's message mix changed —
# that must be a deliberate baseline update, never silent.
wire_failures = []
for row in fresh["results"]:
    ref = baseline.get(key(row))
    if ref is None:
        continue
    m = "wire_bytes_per_msg"
    if m in ref and m in row:
        ok = abs(row[m] - ref[m]) <= 1e-6 * max(ref[m], 1.0)
        status = "ok" if ok else "FAIL"
        print(f"  [{status:>4}] {row['workload']}/n={row['n']} {m}: "
              f"{row[m]:.4f} vs baseline {ref[m]:.4f}")
        if not ok:
            wire_failures.append((key(row), m))
if wire_failures:
    print(f"perf_check: {len(wire_failures)} socket row(s) changed their "
          "per-message wire overhead", file=sys.stderr)
    sys.exit(1)

limits = {}
for g in ("core", "socket"):
    group_ratios = [r for k, (_, _, r) in ratios.items() if group(k[-1]) == g]
    if not group_ratios:
        continue
    machine = statistics.median(group_ratios)
    limits[g] = machine * (1.0 + tol_pct / 100.0)
    print(f"  {g} machine-speed factor (median fresh/baseline): "
          f"{machine:.2f}, per-metric limit {limits[g]:.2f}")

failures = []
for (wl, n, alpha, strat, m), (got, ref, ratio) in sorted(ratios.items()):
    limit = limits[group(m)]
    status = "FAIL" if ratio > limit else "ok"
    tag = f"{wl}/n={n}"
    if alpha != "":
        tag += f"/a={alpha}"
    if strat != "":
        tag += f"/{strat}"
    print(f"  [{status:>4}] {tag} {m}: {got:.1f} vs baseline "
          f"{ref:.1f} (x{ratio:.2f})")
    if ratio > limit:
        failures.append((wl, n, m))

if failures:
    print(f"perf_check: {len(failures)} metric(s) regressed more than "
          f"+{tol_pct:.0f}% beyond the common-mode drift", file=sys.stderr)
    sys.exit(1)
print(f"perf_check: all metrics within +{tol_pct:.0f}% of baseline "
      f"(common-mode normalized)")
EOF
