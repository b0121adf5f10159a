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
# Then one `--trace 1` run per side checks the counts: every per-layer
# metric whose BENCHMARK.json unit is `count` must be equal on both sides.
# The names that differ are printed and the script exits 1 — a change
# that should only move timings must leave supersteps, messages and
# compute calls bit for bit where they were. The same two runs' per-layer
# `ms`/`ns` metrics are printed side by side after the check, as pointers
# to the layer a change moved: one run per side is not evidence.
#
# A timing tool, not a gate: only pairs run back to back on one machine are
# evidence (a 2-vCPU box drifts 10-15 % between sessions), so check.sh does
# not run it. The raw records land in target/ab_pairs/WORKLOAD-seedSEED.log,
# the two traced ones in WORKLOAD-seedSEED.trace.log beside it.
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
# The optional third argument is the trace level (default 0).
run() {
    (cd "$1" && CARGO_TARGET_DIR="$2" bash benchmark/run.sh --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "${3:-0}") | tail -n 1
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

# The count check: one traced run per side, then every per-layer metric
# whose unit is `count` compared exactly.
counts="$(awk '/"per_layer"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"unit"/ { gsub(/[",]/, "", $2); if ($2 == "count") print name }' BENCHMARK.json)"
trace_log="$work/$workload-seed$seed.trace.log"
printf 'parent %s\nnew %s\n' "$(run "$parent_root" "$parent_target" 1)" \
    "$(run "$new_root" "$new_target" 1)" >"$trace_log"
differ=0
echo "count metrics, one --trace 1 run per side:"
while read -r metric; do
    read -r p n < <(awk -v m="$metric" '
        { i = index($0, "\"" m "\": {\"value\": ")
          v[$1] = i ? substr($0, i + length(m) + 14) + 0 : "absent" }
        END { print v["parent"], v["new"] }' "$trace_log")
    if [ "$p" != "$n" ]; then
        echo "  DIFFERS $metric: parent $p, new $n"
        differ=1
    fi
done <<<"$counts"
if ((differ)); then
    echo "count metrics differ; see $trace_log" >&2
else
    echo "  all $(wc -l <<<"$counts") count metrics equal"
fi

# The attribution numbers: every per-layer metric whose unit is `ms` or
# `ns`, from the same two traced runs.
timings="$(awk '/"per_layer"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"unit"/ { gsub(/[",]/, "", $2); if ($2 == "ms" || $2 == "ns") print name }' BENCHMARK.json)"
echo "timings, one traced run per side, not evidence:"
printf '  %-36s %12s %12s %10s\n' metric parent new new/parent
while read -r metric; do
    awk -v m="$metric" '
        { i = index($0, "\"" m "\": {\"value\": ")
          v[$1] = i ? substr($0, i + length(m) + 14) + 0 : "absent" }
        END { p = v["parent"]; n = v["new"]
              r = (p + 0 && n != "absent") ? sprintf("%.3f", n / p) : "-"
              printf "  %-36s %12s %12s %10s\n", m, p, n, r }' "$trace_log"
done <<<"$timings"
if ((differ)); then
    exit 1
fi
