#!/usr/bin/env bash
# The serving fault-domain gate: runs every suite that proves the chaos
# contract of DESIGN.md §15 — completed queries are bit-identical to
# clean solo runs no matter what failed next to them, every degraded
# outcome is a typed error (never a hang or a wrong answer), and the
# engine's accounting balances when it drains.
#
#   * crates/serve/tests/chaos_soak.rs — the soak matrix at {2,4,8} in
#     flight: poison quarantine, budget enforcement, watermark shedding
#     and seeded-fault recovery all fire beside clean traffic, with
#     digests pinned against solo registry runs and the accounting
#     invariant checked after drain.
#   * crates/bsp/tests/error_taxonomy.rs — the BspError wire format:
#     pinned Display strings, pinned kind() tags, pinned transience
#     classification per variant.
#   * graphite-serve unit tests — the faultdom module (quarantine table,
#     escalation, health trace export).
#
# Then an end-to-end pass through the `graphite serve` CLI exercises the
# same mechanisms from the outside, pinning the JSONL status taxonomy
# and the exit-code contract (non-zero iff a terminal execution failure
# occurred; degraded-but-typed outcomes exit zero; a closed stdout ends
# the command quietly with 141, never a panic).
#
# Usage: scripts/chaos_soak.sh [extra cargo-test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> chaos soak matrix + error taxonomy (release)"
cargo test --release -q -p graphite-serve --lib --test chaos_soak "$@"
cargo test --release -q -p graphite-bsp --test error_taxonomy "$@"

echo "==> graphite serve chaos end-to-end"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release -q --bin graphite
bin=target/release/graphite
"$bin" gen gplus "$tmp/g.tg" >/dev/null

fail() {
    echo "chaos end-to-end: $1" >&2
    shift
    cat "$@" >&2
    exit 1
}

# Pass 1 — recovery bit-identity: a seeded-fault query must exit ok and
# produce the same digest as its clean twin running beside it.
cat > "$tmp/recover.txt" <<'EOF'
bfs icm workers=2
bfs icm workers=2 faults=2
eat icm workers=2
EOF
"$bin" serve "$tmp/g.tg" "$tmp/recover.txt" --in-flight 2 \
    2>/dev/null > "$tmp/recover.jsonl" \
    || fail "recovery pass must exit zero" "$tmp/recover.jsonl"
[ "$(grep -c '"status": "ok"' "$tmp/recover.jsonl")" -eq 3 ] \
    || fail "recovery pass: expected 3 ok rows" "$tmp/recover.jsonl"
clean_digest="$(grep '"id": 0' "$tmp/recover.jsonl" | grep -o '"digest": "[^"]*"')"
fault_digest="$(grep '"id": 1' "$tmp/recover.jsonl" | grep -o '"digest": "[^"]*"')"
[ -n "$clean_digest" ] && [ "$clean_digest" = "$fault_digest" ] \
    || fail "recovered digest differs from clean twin" "$tmp/recover.jsonl"

# Pass 2 — superstep budget: an impossible budget yields a typed
# "budget" row (kind budget_exceeded), a health row counting it, and a
# ZERO exit code: degraded-but-typed is not a process failure.
printf 'bfs icm workers=2 budget=1\n' > "$tmp/budget.txt"
"$bin" serve "$tmp/g.tg" "$tmp/budget.txt" --status \
    2>/dev/null > "$tmp/budget.jsonl" \
    || fail "budget pass must exit zero" "$tmp/budget.jsonl"
grep -q '"status": "budget"' "$tmp/budget.jsonl" \
    || fail "budget pass: no typed budget row" "$tmp/budget.jsonl"
grep -q '"kind": "budget_exceeded"' "$tmp/budget.jsonl" \
    || fail "budget pass: wrong error kind" "$tmp/budget.jsonl"
grep -q '"status": "health".*"budget_exceeded": 1' "$tmp/budget.jsonl" \
    || fail "budget pass: health row did not count the budget trip" "$tmp/budget.jsonl"

# Pass 3 — poison query: a fault schedule that exhausts the recovery
# budget with serve-level retry disabled is a terminal failure — typed
# recovery_exhausted row AND a non-zero exit code.
printf 'bfs icm workers=2 faults=6 retries=0\n' > "$tmp/poison.txt"
if "$bin" serve "$tmp/g.tg" "$tmp/poison.txt" --in-flight 1 \
    2>/dev/null > "$tmp/poison.jsonl"; then
    fail "poison pass must exit non-zero" "$tmp/poison.jsonl"
fi
grep -q '"status": "error"' "$tmp/poison.jsonl" \
    || fail "poison pass: no typed error row" "$tmp/poison.jsonl"
grep -q '"kind": "recovery_exhausted"' "$tmp/poison.jsonl" \
    || fail "poison pass: wrong error kind" "$tmp/poison.jsonl"

# Pass 4 — graceful degradation: flooding a one-executor engine past a
# tiny shed watermark sheds typed rows, completes the rest ok, and still
# exits zero (shedding is the contract working, not the process failing).
for i in $(seq 1 12); do echo "bfs icm workers=2 start=$i"; done > "$tmp/flood.txt"
"$bin" serve "$tmp/g.tg" "$tmp/flood.txt" --in-flight 1 --shed-watermark 2 --status \
    2>/dev/null > "$tmp/flood.jsonl" \
    || fail "flood pass must exit zero" "$tmp/flood.jsonl"
grep -q '"status": "shed"' "$tmp/flood.jsonl" \
    || fail "flood pass: watermark never shed" "$tmp/flood.jsonl"
grep -q '"kind": "shed"' "$tmp/flood.jsonl" \
    || fail "flood pass: shed rows must carry the shed kind" "$tmp/flood.jsonl"
grep -q '"status": "ok"' "$tmp/flood.jsonl" \
    || fail "flood pass: nothing completed under load" "$tmp/flood.jsonl"
shed_rows="$(grep -c '"status": "shed"' "$tmp/flood.jsonl")"
ok_rows="$(grep -c '"status": "ok"' "$tmp/flood.jsonl")"
[ $((shed_rows + ok_rows)) -eq 12 ] \
    || fail "flood pass: rows do not account for all 12 queries" "$tmp/flood.jsonl"
grep -q '"status": "health"' "$tmp/flood.jsonl" \
    || fail "flood pass: --status emitted no health row" "$tmp/flood.jsonl"

# Pass 5 — closed stdout: serve writing into a pipe whose reader is
# gone ends quietly with 141 — no panic message, not Rust's panic exit
# 101. The fifo is opened read-write first so the write end opens
# without blocking; closing that fd then leaves the fifo no reader, so
# the first row's write fails with EPIPE.
mkfifo "$tmp/closed"
exec 3<>"$tmp/closed" 4>"$tmp/closed"
exec 3<&-
code=0
"$bin" serve "$tmp/g.tg" "$tmp/recover.txt" >&4 2>"$tmp/closed.err" || code=$?
exec 4>&-
if grep -q panicked "$tmp/closed.err"; then
    fail "closed-stdout pass: serve panicked" "$tmp/closed.err"
fi
[ "$code" -eq 141 ] \
    || fail "closed-stdout pass: expected exit 141, got $code" "$tmp/closed.err"

echo "==> chaos soak gate passed"
