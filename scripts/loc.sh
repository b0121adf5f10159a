#!/usr/bin/env bash
# Counts non-test source lines: every `.rs` file under `crates/*/src` and
# `src/`, cut at its first unindented `#[cfg(test)]` (the test module),
# without blank lines and `//` comment lines (doc comments included).
# Prints one count per crate (the root package as `src`) and the total,
# then the option-field count: the `pub` fields of every
# `pub struct *Config`, `*Opts` or `*Spec` in the same non-test code.
# A measurement, not a gate.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        cut { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

option_fields() {
    find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0; inside = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        cut { next }
        /^pub struct [A-Za-z0-9_]*(Config|Opts|Spec) *\{/ { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^    pub [a-z_][a-z0-9_]*:/ { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    name=${dir%/src}
    printf '%-22s %6d\n' "${name#crates/}" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' total "$total"
printf '%-22s %6d\n' "option fields" "$(option_fields)"
