#!/usr/bin/env bash
# Full local verification gate — everything CI runs, in the same order.
# Fast failures first: the benchmark lock, formatting, then clippy (which also holds the
# determinism conventions configured in clippy.toml and the lib headers
# of crates/{bsp,icm,baselines}, DESIGN.md §10), then the full workspace
# test suite, the release-mode matrices, and the end-to-end benchmark's
# smoke pass.
#
# Usage: scripts/check.sh          (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark package (benchmark/) builds with `--locked`, and its
# Cargo.lock records every workspace crate's dependency list. A change
# to any crate's [dependencies] fails the benchmark build, and only a
# change to the benchmark itself may re-lock that file. Checking the lock
# here fails such a change in seconds instead of at the smoke pass.
echo "==> benchmark lock matches the crate manifests"
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml >/dev/null

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> doc link check"
scripts/check_links.sh

echo "==> cargo test (workspace)"
cargo test --workspace -q

# Recovered runs must reproduce the fault-free result digests bit for
# bit, and persistent faults must exhaust the retry budget with a typed
# error. Release mode matters here and in the chaos soak: the fault hooks
# are FaultPlan configuration, not cfg-gated test code, and running them
# in release beside the debug workspace tests is what proves it — a hook
# gated on cfg(test) or debug_assertions stops firing in one of the two.
echo "==> fault-injection matrix (release)"
scripts/fault_matrix.sh

# Every partitioning strategy x worker count x profile must reproduce the
# hash baseline's result digests bit for bit, including under schedule
# perturbation and injected faults: "partitioning is a pure placement
# choice" (DESIGN.md §13).
echo "==> placement-invariance matrix (release)"
scripts/partition_matrix.sh

echo "==> serve matrix + soak (release)"
scripts/serve_soak.sh

# The streaming layer end to end: delta-built graphs through the layout
# property suite, the incremental-vs-from-scratch differential matrix,
# serve-epoch swaps, and a CLI replay with the differential check on every
# batch. Release mode because the soak replays full update streams.
echo "==> stream matrix + soak (release)"
scripts/stream_soak.sh

# The serving fault domain under adversarial load: the chaos soak matrix
# (budgets, retry/escalation, quarantine, shedding beside clean traffic at
# {2,4,8} in flight), the BspError wire-format pins, and an end-to-end CLI
# pass checking the JSONL status taxonomy and the exit-code contract.
echo "==> chaos soak (release)"
scripts/chaos_soak.sh

# The end-to-end benchmark (BENCHMARK.json) at 1/20 scale: all four
# workloads through the measured code path, result pins checked, every
# declared metric emitted with its unit, exact-count metrics identical
# across two runs of one seed. Guards the harness and the pins, not the
# timings — a CI runner's numbers mean nothing.
echo "==> end-to-end benchmark smoke (release)"
bash benchmark/run.sh --smoke

echo "==> all checks passed"
