#!/usr/bin/env bash
# The benchmark's one command (see README.md next to this file).
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1     one run
#   run.sh [--seed N] [--seconds S] [--workload NAME] [--out FILE] [--smoke]
#                                                               the suite
#
# Builds the harness from source (a package of its own; the repo's crates
# are path dependencies) and hands every argument to it. Paths in the
# harness are relative to the repository root, so run from there.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --locked \
    --manifest-path benchmark/Cargo.toml -- "$@"
