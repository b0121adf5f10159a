#!/usr/bin/env bash
# The deterministic fault-injection gate: runs every suite that proves the
# recovery layer's contract — injected worker panics and wire bit-flips
# are rolled back to a checkpoint and replayed to a result digest
# bit-identical to the fault-free run, persistent faults exhaust the retry
# budget with a typed RecoveryExhausted, and no corrupted batch is ever
# partially delivered.
#
#   * crates/bsp/tests/fault_injection.rs   — engine-level contracts via
#     the public trait surface (typed non-convergence, complete poisoned-
#     worker reporting, checksum detection, bounded retries, seeded-plan
#     determinism).
#   * crates/bsp/tests/result_digest_pin.rs — the fault matrix proper:
#     workers x fault steps x {ICM BFS, ICM EAT, VCM BFS, MSB BFS,
#     Chlonos BFS, TGB SSSP, GoFFish SSSP} x two datagen profiles, fault
#     steps counting whole-query supersteps and every injected panic
#     rolling back exactly once; MSB, Chlonos and GoFFish also fault the
#     first superstep of a later phase of their walk under a checkpoint
#     interval longer than a phase (on GoFFish, a time-point that
#     received temporal messages, which the rollback must hand back);
#     recovered digests pinned against the fault-free recording,
#     composed with schedule-perturbation seeds.
#   * crates/bsp/tests/quiet_recovery.rs    — recovered faults never
#     reach the panic hook (nothing on stderr); a real panic does.
#   * crates/bsp/tests/codec_props.rs       — seeded truncation/bit-flip
#     properties of the batch codec the corruption faults lean on.
#   * graphite-bsp unit tests               — fault/recover/engine
#     module-level coverage, including the fault-plan primitives.
#
# Usage: scripts/fault_matrix.sh [extra cargo-test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> fault matrix (release)"
cargo test --release -q -p graphite-bsp \
    --lib \
    --test fault_injection \
    --test result_digest_pin \
    --test quiet_recovery \
    --test codec_props \
    "$@"

echo "==> fault matrix passed"
