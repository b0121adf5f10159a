#!/usr/bin/env bash
# Full local verification gate — everything CI runs, in the same order.
# Fast failures first: formatting, then static analysis (clippy + the
# repo's own graphite-analyze pass), then the full workspace test suite,
# the release-mode matrices, and the end-to-end benchmark's smoke pass.
#
# Usage: scripts/check.sh          (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> graphite-analyze"
cargo run -q -p graphite-analyze

echo "==> doc link check"
scripts/check_links.sh

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> fault-injection matrix (release)"
scripts/fault_matrix.sh

echo "==> placement-invariance matrix (release)"
scripts/partition_matrix.sh

echo "==> serve matrix + soak (release)"
scripts/serve_soak.sh

echo "==> stream matrix + soak (release)"
scripts/stream_soak.sh

echo "==> chaos soak (release)"
scripts/chaos_soak.sh

echo "==> end-to-end benchmark smoke (release)"
bash benchmark/run.sh --smoke

echo "==> all checks passed"
