#!/usr/bin/env bash
# Build tuckerbench and the `tucker` command, then run the benchmark.
#
#   benchmark/run.sh                         every workload, end-to-end metrics, out/results.json
#   benchmark/run.sh --traced                ... and the per-layer metrics of the traced run
#   benchmark/run.sh --sets 2                two sets, compared against the bounds
#   benchmark/run.sh --smoke                 quarter shapes, 3 repetitions: is every metric there?
#   benchmark/run.sh compare A.json B.json   two result files against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run (what BENCHMARK.json's command is given)
set -euo pipefail
cd "$(dirname "$0")/.."
# One target directory for both builds, inside the benchmark's own directory
# unless the caller chose another, so `tucker` lands beside `tuckerbench`.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
cargo build --release --offline --quiet --package tucker-cli >&2
# Pin the allocator: serve large blocks from the heap and never give memory
# back, so a page is faulted in once per process and not once per tensor.
# With glibc's defaults every large tensor is mapped and unmapped anew, and
# the kernel's share of that was the larger part of the run-to-run spread
# (README.md, "Host and calibration"). Medians do not move.
export GLIBC_TUNABLES="${GLIBC_TUNABLES:-glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=17179869184:glibc.malloc.top_pad=268435456}"
exec "$CARGO_TARGET_DIR/release/tuckerbench" "$@"
