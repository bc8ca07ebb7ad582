#!/usr/bin/env bash
# Runtime benchmarks. The `counters` bench regenerates BENCH_runtime.json at
# the repo root in one run: validation scan words, round-snapshot slots,
# per-phase cost units, committer stall, sharding, model checker and static
# analyzer counters, each section asserting its headline claim. Everything
# in the file is a deterministic counter (cost units, scan words, snapshot
# slots, trace hashes), never wall-clock, so it is stable across machines
# and is checked in; a diff after running this script means the runtime's
# work profile actually changed. The wall-clock `runtime_micro` bench
# (primitive costs and the paper-scale thread-scaling table) is
# informational and runs only without --smoke.
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   the deterministic counters only (the part CI runs)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

if [[ "${1:-}" != "--smoke" ]]; then
  echo "== runtime_micro (wall-clock, informational) =="
  cargo bench -p alter-bench --bench runtime_micro
  echo
fi

# cargo runs bench binaries from the package directory, so hand the bench
# an absolute path.
echo "== deterministic counters (BENCH_runtime.json) =="
cargo bench -p alter-bench --bench counters -- --json "$PWD/BENCH_runtime.json"

# Re-parse the written file with the strict grammar of alter_trace::json
# before anyone consumes it.
echo
echo "== validate BENCH_runtime.json =="
cargo run -q -p alter-bench --bin alter-check-json -- BENCH_runtime.json
