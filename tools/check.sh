#!/usr/bin/env bash
# Checks beyond tier-1, one leg per row of the table below: the labelled ctest
# suites and `pgrid fuzz` seed sweeps under AddressSanitizer and
# ThreadSanitizer, and the release-build gates on footprint, allocations,
# tracing overhead and parallel scaling. docs/testing.md says what each leg
# protects and why.
#
#   tools/check.sh                    # every leg, then a summary table
#   tools/check.sh durability faults  # the named legs only
#
# A failed leg does not stop the next one; the exit code is 1 if any failed.
# Env: SEEDS (seeds per fuzz sweep, default 50) and BUILD_DIR_PREFIX (default
# <repo>/build). The trees are PREFIX-asan, PREFIX-tsan and the release tree
# PREFIX; each is configured with its full flag set and built whole once per
# run, so the ctest label alone picks a leg's tests.

set -uo pipefail
set -f  # the table's test-name regex is not a file glob

repo="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${BUILD_DIR_PREFIX:-${repo}/build}"
seeds="${SEEDS:-50}"

# fuzz: `pgrid fuzz` mode (plain = generated interleavings only). gate: a
# gate_* function below, run inside the tree. ctest: selections run in order.
#  leg         tree     fuzz          gate      ctest
LEGS='
dst-asan       asan     plain         -         -L dst
dst-tsan       tsan     plain         -         -L dst
durability     asan     crash-sweep   -         -L durable
faults         asan     -             -         -L faults
macro          asan     macro-sweep   -         -L macro
repair-asan    asan     heal-tail     -         -L repair
repair-tsan    tsan     heal-tail     -         -L repair
obs-asan       asan     -             -         -L obs
obs-tsan       tsan     -             -         -L obs
obs-overhead   release  -             overhead  -
parallel       tsan     thread-sweep  -         -L parallel; -R ^(NodeTest|NodeTcpTest|NodeRobustnessTest|NodeDeltaTest|TcpTransportTest)\.
scaling        release  -             scaling   -
memory         release  -             memory    -
'
declare -A tree_dir=([asan]="${prefix}-asan" [tsan]="${prefix}-tsan" [release]="${prefix}")
declare -A tree_sanitizer=([asan]=address [tsan]=thread [release]=)
declare -A tree_status=()

# Configures and builds a tree once per run. Benchmarks and examples are built
# only in the release tree. A `*_NOT_BUILT` placeholder in `ctest -N` would
# let `ctest -L` skip a test silently, so it fails the tree.
build_tree() {
  if [ -z "${tree_status[$1]:-}" ]; then
    local dir="${tree_dir[$1]}" extras=OFF
    [ "$1" = release ] && extras=ON
    cmake -B "${dir}" -S "${repo}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPGRID_SANITIZE="${tree_sanitizer[$1]}" -DPGRID_BUILD_TESTS=ON \
      -DPGRID_BUILD_BENCHMARKS="${extras}" -DPGRID_BUILD_EXAMPLES="${extras}" &&
      cmake --build "${dir}" -j "$(nproc)" &&
      ! ctest --test-dir "${dir}" -N | grep _NOT_BUILT
    tree_status[$1]=$?
  fi
  return "${tree_status[$1]}"
}

# Tracing off must stay free: the disabled hooks' estimated share of a query.
gate_overhead() {
  ./bench/bench_micro_ops --benchmark_filter=NONE --par-peers=1024 \
    --par-queries=2048 --obs-json=BENCH_obs_overhead.json &&
    python3 - <<'EOF'
import json, sys
est = {r.get("op"): r for r in json.load(open("BENCH_obs_overhead.json"))["rows"]}["estimate"]
pct, limit = est["est_off_overhead_pct"], 2.0
print(f"disabled-hook cost: {est['null_site_ns']:.3f} ns/site x {est['sites_per_query']:.1f}"
      f" sites/query over {est['query_ns_off']:.0f} ns/query = {pct:.4f}% (limit {limit}%)")
sys.exit(0 if 0 <= pct < limit else "FAIL: tracing-off overhead over the limit")
EOF
}

# The compact per-peer layout: protocol bytes per peer at 20k peers, heap
# allocations per op on the inline (<= 64-bit) key-path rows, and heap
# allocations per node meeting, search and publish.
gate_memory() {
  ./bench/bench_t1_peers_vs_exchanges --trials=1 --par-peers=20000 --par-threads=1 \
    --par-queries=2000 --table-json=BENCH_memory_gate_t1.json \
    --json=BENCH_memory_gate.json &&
    ./bench/bench_micro_ops --benchmark_filter=NONE --par-peers=1024 \
      --par-queries=2048 --alloc-json=BENCH_alloc_counts.json &&
    python3 - <<'EOF'
import json, sys
BYTES_PER_PEER_LIMIT, ALLOCS_PER_OP_LIMIT = 600, 0.01
# 10% above each node operation's count once exchanges read reference levels
# in place (a meeting: 139.8, against 310.4 and 511.0 in earlier layouts; a
# search 12.67, a publish 13.89). The counts are exact.
NODE_OP_LIMITS = {"node_meet": 153.7, "node_search": 13.9, "node_publish": 15.3}
bad = []
for r in json.load(open("BENCH_memory_gate.json"))["rows"]:
    if int(r["peers"]) == 20000 and int(r["threads"]) == 1:
        bpp = float(r["bytes_per_peer"])
        print(f"bytes/peer at 20k peers (t=1, buddymax={r.get('buddymax')}): {bpp:.1f}"
              f" (ceiling {BYTES_PER_PEER_LIMIT})")
        if not 0 < bpp <= BYTES_PER_PEER_LIMIT:
            bad.append("bytes/peer")
        break
else:
    bad.append("no 20k-peer t=1 row")
for r in json.load(open("BENCH_alloc_counts.json"))["rows"]:
    op, rate = r["op"], float(r["allocs_per_op"])
    if op.startswith("inline_"):
        note, over = "", rate >= ALLOCS_PER_OP_LIMIT
    elif op in NODE_OP_LIMITS:
        note, over = f"  (ceiling {NODE_OP_LIMITS[op]})", rate > NODE_OP_LIMITS[op]
    else:
        note, over = "  (contrast row, not gated)", False
    print(f"  {op:<28} {rate:8.4f} allocs/op{note}")
    if over:
        bad.append(op)
sys.exit(f"FAIL: {', '.join(bad)}" if bad else 0)
EOF
}

# Parallel speed-up, which only a release build on real cores can show: the
# median t4/t1 of five 4k-peer builds, and every multi-threaded bench row
# against its size's t=1 row. Hosts with fewer than 4 cores only need to
# avoid collapse (0.5x).
gate_scaling() {
  local run out ratio ratios=()
  for run in 1 2 3 4 5; do
    out="$(./tests/parallel_scaling_test)" || { echo "${out}"; return 1; }
    ratio="$(sed -n 's/.*ratio=\([0-9.]*\).*/\1/p' <<< "${out}")"
    [ -n "${ratio}" ] || { echo "${out}"; echo "FAIL: no ratio printed"; return 1; }
    echo "run ${run}: t4/t1 = ${ratio}"
    ratios+=("${ratio}")
  done
  ./bench/bench_t1_peers_vs_exchanges --trials=1 --par-peers=2000 --par-threads=1,2,4 \
    --par-queries=4000 --json=BENCH_parallel_build_ci.json &&
    python3 - "${ratios[@]}" <<'EOF'
import glob, json, os, statistics, sys
cores = os.cpu_count() or 1
MEDIAN_FLOOR, ROW_FLOOR = (1.5, 1.0) if cores >= 4 else (0.5, 0.5)
median = statistics.median(map(float, sys.argv[1:]))
print(f"median t4/t1 {median:.2f} (floor {MEDIAN_FLOOR} on a {cores}-core host)")
ok = median >= MEDIAN_FLOOR
# A full-sweep report a previous bench run left in the tree is vetted too.
for path in ["BENCH_parallel_build_ci.json"] + glob.glob("BENCH_parallel_build.json"):
    rows = json.load(open(path))["rows"]
    base = {int(r["peers"]): float(r["meetings_per_sec"]) for r in rows if int(r["threads"]) == 1}
    for r in rows:
        peers, mps = int(r["peers"]), float(r["meetings_per_sec"])
        if int(r["threads"]) > 1 and peers in base and mps < ROW_FLOOR * base[peers]:
            print(f"FAIL {path}: N={peers} t={r['threads']} {mps:.0f} meet/s < {ROW_FLOOR}x t=1")
            ok = False
    print(f"{path}: {len(rows)} rows, floor {ROW_FLOOR}x t=1")
sys.exit(0 if ok else "FAIL: parallel scaling under the floor")
EOF
}

run_leg() {
  local leg tree fuzz gate ctest_column selections selection
  read -r leg tree fuzz gate ctest_column <<< "$(grep "^$1 " <<< "${LEGS}")"
  local dir="${tree_dir[${tree}]}"
  build_tree "${tree}" || return 1
  IFS=';' read -ra selections <<< "${ctest_column}"
  for selection in "${selections[@]}"; do
    [ "${selection}" = - ] && continue
    # shellcheck disable=SC2086  # a selection is a flag and its argument
    ctest --test-dir "${dir}" --output-on-failure ${selection} || return 1
  done
  if [ "${fuzz}" != - ]; then
    local mode=("--${fuzz}")
    [ "${fuzz}" = plain ] && mode=()
    "${dir}/tools/pgrid" fuzz --seeds="${seeds}" "${mode[@]}" --keep-going \
      --out="${dir}/${leg}-repro.pgs" || return 1
  fi
  [ "${gate}" = - ] || (cd "${dir}" && "gate_${gate}")
}

all_legs="$(awk 'NF { print $1 }' <<< "${LEGS}")"
legs=("$@")
[ "$#" -gt 0 ] || mapfile -t legs <<< "${all_legs}"
for leg in "${legs[@]}"; do
  grep -qx -- "${leg}" <<< "${all_legs}" ||
    { echo "usage: $0 [LEG...]; legs:" ${all_legs} >&2; exit 2; }
done

failed=0
summary=""
for leg in "${legs[@]}"; do
  echo
  echo "=============================== ${leg}"
  start=${SECONDS}
  if run_leg "${leg}"; then result=PASS; else result=FAIL; failed=1; fi
  summary+="$(printf '%-14s %-6s %ss' "${leg}" "${result}" "$((SECONDS - start))")"$'\n'
done

echo
echo "===================== check summary ====================="
printf '%-14s %-6s %s\n' leg result time ------ ------ ----
printf '%s' "${summary}"
exit "${failed}"
