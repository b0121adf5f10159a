#!/usr/bin/env bash
# Alternating parent/new pairs of the end-to-end benchmark on one workload:
# the committed files of PARENT_REV against this checkout as it stands.
#
#   scripts/ab_pairs.sh PARENT_REV WORKLOAD [PAIRS] [SEED]   (10 pairs, seed 11)
#
# Each side is built once from its own source with its own CARGO_TARGET_DIR
# (the parent unpacked by `git archive` under target/ab_pairs/, so the
# repository's own state is never touched). The pairs then run
# `benchmark/run.sh --trace 0` for BENCHMARK.json's run_seconds, each side
# from its own checkout root, alternating which side goes first. Prints,
# per end-to-end metric, each side's median and interquartile range, the
# median ratio new/parent and how many pairs the new side won; exits 1 if
# any run reports `correct: false` or a failed operation.
#
# A timing tool, not a gate: only pairs run back to back on one machine are
# evidence (a 2-vCPU box drifts 10-15 % between sessions), so check.sh does
# not run it. The raw records land in target/ab_pairs/WORKLOAD-seedSEED.log.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 2 ]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
seed="${4:-11}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"

work="$PWD/target/ab_pairs"
sha="$(git rev-parse --verify "$rev^{commit}")"
parent_root="$work/parent-$sha/src"
if [ ! -f "$parent_root/benchmark/run.sh" ]; then
    rm -rf "$parent_root"
    mkdir -p "$parent_root"
    git archive "$sha" | tar -x -C "$parent_root"
fi
new_root="$PWD"
parent_target="$work/parent-$sha/target"
new_target="$work/new-target"

build() {
    echo "==> building $1" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --quiet --offline --locked \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$parent_root" "$parent_target"
build "$new_root" "$new_target"

# One measured run; prints its JSON record (the harness's last line).
run() {
    (cd "$1" && CARGO_TARGET_DIR="$2" bash benchmark/run.sh --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1
}

log="$work/$workload-seed$seed.log"
: >"$log"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        p="$(run "$parent_root" "$parent_target")"
        n="$(run "$new_root" "$new_target")"
    else
        n="$(run "$new_root" "$new_target")"
        p="$(run "$parent_root" "$parent_target")"
    fi
    printf 'parent %s\nnew %s\n' "$p" "$n" >>"$log"
    echo "pair $((i + 1))/$pairs done" >&2
done

if grep -q '"correct": false' "$log" || grep -Eq '"failed": [1-9]' "$log"; then
    echo "a run was incorrect or failed operations; see $log" >&2
    exit 1
fi

# The six end-to-end metrics and their direction, from BENCHMARK.json.
metrics="$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json)"

echo "$workload, seed $seed, $pairs pairs of ${seconds} s runs (parent ${sha:0:10})"
printf '%-14s %-7s %26s %26s %10s %9s\n' metric better 'parent median [IQR]' \
    'new median [IQR]' new/parent 'new wins'
while read -r metric better; do
    awk -v m="$metric" -v better="$better" '
        function value(line,   s) {
            s = substr(line, index(line, "\"" m "\": {\"value\": ") + length(m) + 14)
            return s + 0
        }
        function q(a, n, p,   h, lo) {   # linear interpolation between order statistics
            h = (n - 1) * p; lo = int(h)
            return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
        }
        function sorted(a, n,   i, j, t) {
            for (i = 1; i < n; i++)
                for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        BEGIN { np = 0; nn = 0; wins = 0 }
        $1 == "parent" { p[np++] = value($0) }
        $1 == "new" { v = value($0)
            if ((better == "higher" && v > p[nn]) || (better == "lower" && v < p[nn])) wins++
            n[nn++] = v }
        END {
            sorted(p, np); sorted(n, nn)
            pm = q(p, np, 0.5); nm = q(n, nn, 0.5)
            printf "%-14s %-7s %10.4g [%6.4g–%-6.4g] %10.4g [%6.4g–%-6.4g] %10.3f %6d/%d\n",
                m, better, pm, q(p, np, 0.25), q(p, np, 0.75),
                nm, q(n, nn, 0.25), q(n, nn, 0.75), pm ? nm / pm : 0, wins, nn
        }' "$log"
done <<<"$metrics"
