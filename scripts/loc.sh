#!/usr/bin/env bash
# Non-test source lines per crate: for each crates/*/src/*.rs, the lines
# above its first `#[cfg(test)]` (the whole file if it has none). This is
# the measure the "one spine" PRs report in CHANGES.md. `-v` lists files.
set -euo pipefail
cd "$(dirname "$0")/.."
verbose="${1:-}"
for crate in crates/*/; do
    awk -v crate="${crate%/}/src" -v verbose="$verbose" '
        FNR == 1 { counting = 1 }
        counting && /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { per_file[FILENAME]++; total++ }
        END {
            if (verbose == "-v")
                for (f in per_file) printf "  %6d %s\n", per_file[f], f | "sort -k2"
            close("sort -k2")
            printf "%6d %s\n", total, crate
        }' "$crate"src/*.rs
done
