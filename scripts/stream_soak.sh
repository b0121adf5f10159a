#!/usr/bin/env bash
# The streaming-layer gate: runs every suite that proves the live-update
# contract — deltas preserve the frozen layout's property suite through
# overlay and compaction, warm-started incremental results stay
# bit-identical to from-scratch recomputation after every batch, and the
# serving layer swaps refreshed graphs without stale cache answers.
#
#   * crates/tgraph delta unit tests + tests/layout_equiv.rs — the
#     delta-built graphs satisfy the full 8-seed layout property suite,
#     digests folded incrementally match from-scratch assembly, and the
#     patched columns equal a builder rebuild field for field.
#   * crates/stream/tests/differential.rs — {BFS, EAT, Reach} x {2,5}
#     workers x perturb seeds x partition strategies, every batch
#     differentially checked against full recomputation.
#   * crates/stream/tests/serve_updates.rs — queries interleaved with
#     batches: each install re-keys the cache through the new structure
#     digest and matches a solo engine bit-for-bit.
#   * graphite-stream + graphite-datagen unit tests — updates text
#     format round-trip, update-stream derivation digest convergence,
#     rejected batches leave the engine untouched, held epochs stay
#     isolated from later batches, scan == index dirty sets.
#
# A sustained end-to-end pass through the CLI follows: derive a stream
# from a profile, replay it through `graphite stream` with the
# differential check on every batch, replay it again under both extreme
# `--compact-every` cadences and diff the digests, and serve queries
# against the final graph.
#
# Usage: scripts/stream_soak.sh [extra cargo-test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> stream matrix + soak (release)"
cargo test --release -q -p graphite-tgraph --lib --test layout_equiv "$@"
cargo test --release -q -p graphite-datagen --lib "$@"
cargo test --release -q -p graphite-stream \
    --lib \
    --test differential \
    --test serve_updates \
    "$@"

echo "==> graphite stream end-to-end"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --bin graphite -- gen reddit "$tmp/g.tg" \
    --stream 6 --seed 7 > "$tmp/gen.txt"
final_digest="$(grep -o 'final digest 0x[0-9a-f]*' "$tmp/gen.txt" | cut -d' ' -f3)"
# Replay with the differential check on every batch: any incremental /
# from-scratch divergence fails the ingest and the script.
cargo run --release -q --bin graphite -- stream "$tmp/g.tg" "$tmp/g.tg.updates" \
    --algo bfs,eat,reach --workers 2 --check-every 1 --compact-every 2 \
    > "$tmp/stream.jsonl" 2> "$tmp/stream.log"
batches="$(grep -c '"batch"' "$tmp/stream.jsonl")"
if [ "$batches" -ne 6 ]; then
    echo "stream end-to-end: expected 6 batch reports, got $batches" >&2
    cat "$tmp/stream.jsonl" >&2
    exit 1
fi
grep -q "final graph digest $final_digest" "$tmp/stream.log" || {
    echo "stream end-to-end: replayed digest does not match the derivation's" >&2
    cat "$tmp/stream.log" >&2
    exit 1
}
# The verification cadence must be invisible: verifying after every
# batch and never verifying replay to the same per-batch graph and result
# digests (timings and the `checked` flag aside, so compare digests only).
for every in 1 0; do
    cargo run --release -q --bin graphite -- stream "$tmp/g.tg" "$tmp/g.tg.updates" \
        --algo bfs,eat,reach --workers 2 --compact-every "$every" 2>/dev/null \
        | grep -o '"batch": *[0-9]*\|"[a-z_]*digest": *"[^"]*"' > "$tmp/digests.$every" \
        || true # an empty file fails the check below, with a message
done
if ! [ -s "$tmp/digests.1" ] || ! diff "$tmp/digests.1" "$tmp/digests.0" >&2; then
    echo "stream end-to-end: --compact-every 1 and 0 replays disagree" >&2
    exit 1
fi
# The fully-replayed graph serves queries like a one-shot generation.
cat > "$tmp/batch.txt" <<'EOF'
bfs icm workers=2
eat icm workers=2
bfs icm workers=2
EOF
cargo run --release -q --bin graphite -- gen reddit "$tmp/full.tg" --seed 7 >/dev/null
cargo run --release -q --bin graphite -- serve "$tmp/full.tg" "$tmp/batch.txt" \
    --in-flight 2 > "$tmp/serve.jsonl"
ok_lines="$(grep -c '"status": "ok"' "$tmp/serve.jsonl")"
if [ "$ok_lines" -ne 3 ]; then
    echo "stream end-to-end: expected 3 ok serve results, got $ok_lines" >&2
    cat "$tmp/serve.jsonl" >&2
    exit 1
fi

echo "==> stream gate passed"
