#!/usr/bin/env bash
# Non-test source lines per crate: for every *.rs under crates/<c>/src
# (recursively, so src/bin/ counts) and crates/<c>/benches, the lines above
# its first `#[cfg(test)]` (the whole file if it has none). This is the
# measure the simplicity PRs report in CHANGES.md. `-v` lists files.
# `scripts/loc.sh [-v] [ROOT]` counts another checkout (e.g. the parent).
set -euo pipefail
verbose=""
if [ "${1:-}" = "-v" ]; then
    verbose="-v"
    shift
fi
cd "${1:-$(dirname "$0")/..}"
for crate in crates/*/; do
    dirs=("${crate}src")
    [ -d "${crate}benches" ] && dirs+=("${crate}benches")
    find "${dirs[@]}" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="${crate%/}" -v verbose="$verbose" '
        FNR == 1 { counting = 1 }
        counting && /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { per_file[FILENAME]++; total++ }
        END {
            if (verbose == "-v")
                for (f in per_file) printf "  %6d %s\n", per_file[f], f | "sort -k2"
            close("sort -k2")
            printf "%6d %s\n", total, crate
        }'
done
