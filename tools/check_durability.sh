#!/usr/bin/env bash
# Runs the durable-storage test suite (ctest label `durable`) plus the
# crash-point battery and a crash-restart fuzz sweep under AddressSanitizer.
# The storage layer's claim -- crash anywhere, recover exactly the last valid
# prefix, and a killed-and-restarted peer rejoins byte-identically -- is only
# credible if the replay and truncation paths are free of memory errors; this
# script checks the claim against the real binaries.
#
#   tools/check_durability.sh          # ASan: build, ctest -L durable, crash sweep
#
# Env: BUILD_DIR_PREFIX (default <repo>/build), SEEDS (default 50).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${BUILD_DIR_PREFIX:-${repo_root}/build}"
seeds="${SEEDS:-50}"

build_dir="${prefix}-address-durable"
echo "== address sanitizer leg (${build_dir}) =="

cmake -B "${build_dir}" -S "${repo_root}" \
  -DPGRID_SANITIZE=address \
  -DPGRID_BUILD_BENCHMARKS=OFF \
  -DPGRID_BUILD_EXAMPLES=OFF

cmake --build "${build_dir}" -j "$(nproc)" --target \
  wal_test recovery_test node_store_test node_fingerprint_test node_delta_test \
  snapshot_test scenario_test fuzzer_test pgrid

# The durable suite: the WAL crash-point battery (every truncation and
# bit-flip boundary, over single and batched appends), the persist -> recover
# identity properties and the re-snapshot after a failed write, the node
# store's name-table round trips, metrics and rejected stores, the node
# community fingerprint after every node restarted from disk, and the node's
# delta marks checked against its recovered store after every operation.
ctest --test-dir "${build_dir}" --output-on-failure -L durable

# Crash-restart seed sweep through the CLI: generated interleavings include
# kill (persist + wipe) and restart (recover + RejoinSync) steps, and every
# seed must pass the strict convergence barrier after its heal tail restarts
# all still-killed peers.
"${build_dir}/tools/pgrid" fuzz --seeds="${seeds}" --crash-sweep --keep-going \
  --out="${build_dir}/crash_repro.pgs"

echo "durability suite clean under AddressSanitizer (${seeds} crash-restart seeds)."
