#!/usr/bin/env bash
# Counts the Rust lines under crates/ and tests/.
#
#   scripts/loc.sh [DIR]      # DIR defaults to the repository root
#
# Prints three numbers: every line of every `.rs` file under DIR/crates,
# the lines of those outside `#[cfg(test)]` items (test modules and
# test-only functions), and every line of every `.rs` file under
# DIR/tests (the integration tests and their goldens' encoders). An item starts at its `#[cfg(test)]` attribute and ends at
# the `;` or the closing brace that brings its nesting back to zero;
# braces inside string and char literals and `//` comments are ignored.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
mapfile -t files < <(find "$root/crates" -name '*.rs' -type f | sort)
[ "${#files[@]}" -gt 0 ] || { echo "no .rs files under $root/crates" >&2; exit 1; }
mapfile -t tests < <(find "$root/tests" -name '*.rs' -type f | sort)

awk '
FNR == 1 { skipping = 0 }
{
    total++
    if (!skipping && $0 ~ /^[ \t]*#\[cfg\(test\)\]/) {
        skipping = 1; depth = 0; opened = 0
    }
    if (!skipping) { prod++; next }
    line = $0
    gsub(/\\\\/, "", line)              # escaped backslashes
    gsub(/\\"/, "", line)               # escaped quotes
    gsub(/"[^"]*"/, "\"\"", line)       # string literals
    gsub(/'"'"'.'"'"'/, "", line)       # char literals such as '"'"'{'"'"'
    sub(/\/\/.*/, "", line)             # line comments
    n = length(line)
    for (i = 1; i <= n; i++) {
        c = substr(line, i, 1)
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") depth--
    }
    if ((opened && depth == 0) || (!opened && line ~ /;[ \t]*$/)) skipping = 0
}
END {
    printf "all .rs lines under crates/:  %d\n", total
    printf "outside #[cfg(test)] items:   %d\n", prod
}
' "${files[@]}"
printf "all .rs lines under tests/:   %d\n" "$(cat "${tests[@]}" /dev/null | wc -l)"
