#!/usr/bin/env bash
# Tier-1 gate: format, lint, build, test — fully offline (the workspace has
# no external dependencies). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Fails the gate if a committed baseline drifted from what this tree
# regenerates. `git status --porcelain` (not `git diff --quiet`) so a
# deleted or never-committed baseline counts as drift too.
drift_check() {
  local file=$1 what=$2
  if [[ -n "$(git status --porcelain -- "$file")" ]]; then
    echo "error: $file drifted — $what changed; inspect the diff and"
    echo "re-commit if intended."
    git --no-pager diff -- "$file"
    exit 1
  fi
}

echo "== fmt --check =="
cargo fmt --all --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build --release (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release

echo "== test (workspace) =="
cargo test --workspace --quiet

echo "== alter-lint (isolation sanitizer over all 12 canonical traces) =="
# Records each workload's best-configuration trace with full task_sets
# payloads, replays it through the sanitizer (any isolation-invariant
# violation is a hard failure), and regenerates the static analyzer's
# verdict baseline for the drift check below.
cargo run --release -q -p alter-bench --bin alter-lint -- --analysis ANALYSIS.json
# The baseline writer hand-rolls its JSON, so re-parse it with the strict
# grammar before the drift check consumes it.
cargo run --release -q -p alter-bench --bin alter-check-json -- ANALYSIS.json
drift_check ANALYSIS.json "the analyzer's dependence/annotation verdicts"

echo "== alter-absint (static ⊇ dynamic cross-validation over all 12 specs) =="
# Interprets every workload's declared LoopSpec under the interval × stride
# domain and proves the abstract summary covers the dynamic replay — any
# under-declared access or missed edge is a hard failure — then regenerates
# the static verdict baseline for the drift check below.
cargo run --release -q -p alter-bench --bin alter-absint -- --json STATIC.json
cargo run --release -q -p alter-bench --bin alter-check-json -- STATIC.json
drift_check STATIC.json "the abstract interpreter's symbolic summaries or static verdicts"

echo "== record/replay identity (determinism gate) =="
# Records a journal with full task_sets + profile payloads under the given
# extra flags and re-executes it under its recorded configuration: the
# fresh event stream must be byte-identical. On mismatch alter-replay
# bisects to the first divergent round/event and prints the structured
# diff, which is exactly what we want in a CI log.
record_and_replay() {
  local w=$1 out=$2
  shift 2
  cargo run --release -q -p alter-bench --bin alter-replay -- \
    record "$w" --sets --profile "$@" --out "$out" > /dev/null
  cargo run --release -q -p alter-bench --bin alter-replay -- replay "$out"
}
# Threaded-vs-sequential trace identity is gated by tests/round_modes.rs
# at 2 and 8 workers; here each workload's recording must replay.
for w in genome k-means; do
  record_and_replay "$w" "target/$w.journal"
done
# Sharded-heap gate: the journal header carries the shard count, so the
# replay reconstructs the identical sharded layout — and the trace must
# still be byte-identical.
record_and_replay genome target/genome-sharded.journal --shards 16

echo "== alter-check (DPOR schedule-space model checker) =="
# Full check of the two flagship workloads at a raised schedule budget,
# then the 12-workload smoke that regenerates the committed CHECK.json
# baseline (schedules explored, DPOR-pruned, per-workload soundness) for
# the drift check below.
cargo run --release -q -p alter-bench --bin alter-check -- \
  check genome best --max-schedules 1024
cargo run --release -q -p alter-bench --bin alter-check -- \
  check k-means best --max-schedules 1024
cargo run --release -q -p alter-bench --bin alter-check -- \
  check all best --json CHECK.json > /dev/null
# The check writer hand-rolls its JSON, so re-parse it with the strict
# grammar before the drift check consumes it.
cargo run --release -q -p alter-bench --bin alter-check-json -- CHECK.json
drift_check CHECK.json "the schedule-space exploration counts or a soundness verdict"
# The checker must also fail when it should: k-means under DOALL is
# deliberately unsound, and the dumped counterexample pair must diverge
# under the replay diff bisector (both commands exit 1).
if cargo run --release -q -p alter-bench --bin alter-check -- \
  check k-means doall --cex target/kmeans-doall > /dev/null; then
  echo "error: k-means under DOALL must be schedule-unsound"
  exit 1
fi
if cargo run --release -q -p alter-bench --bin alter-replay -- \
  diff target/kmeans-doall-expected.journal \
  target/kmeans-doall-actual.journal > /dev/null; then
  echo "error: counterexample journals must diverge under alter-replay diff"
  exit 1
fi

echo "== phase-profile baseline (PROFILE.json drift check) =="
# Regenerates the per-workload phase-cost baseline (pure cost units, no
# wall-clock) and fails on any drift from the committed file.
cargo run --release -q -p alter-bench --bin alter-replay -- \
  profile all --json PROFILE.json > /dev/null
# The profile writer hand-rolls its JSON, so re-parse the regenerated file
# with the strict grammar before the drift check consumes it.
cargo run --release -q -p alter-bench --bin alter-check-json -- PROFILE.json
drift_check PROFILE.json "the deterministic per-phase cost profile"

echo "== bench smoke (deterministic counters) =="
scripts/bench.sh --smoke
drift_check BENCH_runtime.json "the runtime's deterministic work profile"

echo "tier-1 gate: OK"
