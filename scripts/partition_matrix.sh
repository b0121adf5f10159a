#!/usr/bin/env bash
# The placement-invariance gate: every partitioning strategy must be a
# pure placement choice — result digests bit-identical to the hash
# baseline across worker counts, datagen profiles, schedule-perturbation
# seeds, and injected faults. Release mode matters — strategies are
# engine configuration, not cfg-gated test code, so this job exercises
# exactly the code that ships.
#
#   * crates/partition/tests/digest_matrix.rs — the matrix proper:
#     {hash, chunked, ldg, temporal} x worker counts x {long, skew}
#     profiles x {ICM BFS, ICM EAT, VCM BFS, MSB BFS, Chlonos BFS,
#     GoFFish SSSP, TGB SSSP}, anchored against the recorded digest
#     pins, composed with perturbation seeds and fault-recovery plans,
#     plus pins of every strategy's assignment and of the baselines'
#     wire counters under hash placement.
#   * graphite-part unit tests — strategy construction and quality
#     stats.
#
# Usage: scripts/partition_matrix.sh [extra cargo-test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> partition matrix (release)"
cargo test --release -q -p graphite-part "$@"

echo "==> partition matrix passed"
