#!/usr/bin/env bash
# compare.sh A.json B.json — two `run.sh --out` files against the bounds in
# BENCHMARK.json; one row per (workload, end-to-end metric), A the base of
# every ratio. Exits non-zero on any regression.
set -euo pipefail
a="$(realpath "$1")"
b="$(realpath "$2")"
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --locked \
    --manifest-path benchmark/Cargo.toml -- compare "$a" "$b"
