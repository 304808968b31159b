#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from anywhere; everything is pinned
# to the repo root and the committed Cargo.lock (--locked) so CI cannot
# drift from local runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace --locked
cargo test -q --workspace --locked
cargo clippy --all-targets --workspace --locked -- -D warnings

# Chaos smoke: an injected crash must fail with a typed, rank-attributed
# error, and --resume from the committed checkpoints must then succeed.
ckpt="$(mktemp -d)"
trap 'rm -rf "$ckpt"' EXIT
tucker="target/release/tucker"
if out="$("$tucker" simulate --grid 2x2x2 --kind random --dims 16x16x16 \
        --ranks 4x4x4 --checkpoint-dir "$ckpt" \
        --inject crash:rank=3,op=40 --watchdog-ms 30000 2>&1)"; then
    echo "chaos smoke: injected crash did not fail the run" >&2
    exit 1
fi
if ! grep -q "rank 3 crashed" <<<"$out"; then
    echo "chaos smoke: crash not attributed to rank 3: $out" >&2
    exit 1
fi
"$tucker" simulate --grid 2x2x2 --kind random --dims 16x16x16 \
    --ranks 4x4x4 --checkpoint-dir "$ckpt" --resume
echo "chaos smoke: crash -> resume cycle OK"

# Factorization determinism: the PR6 proptests (blocked QR/LQ/bidiag-SVD
# bit-identical across task budgets, backward error on rank-deficient
# inputs) run as part of the workspace tests above; re-run the suite
# explicitly under --locked so a filtered workspace run cannot skip it.
cargo test -q -p tucker-linalg --test proptests --locked

# Metrics smoke: a fault-free 8-rank run with --metrics and --model-check
# must succeed (even grid -> the analytic counts are exact), and the JSON
# must be schema-valid with a passing embedded conformance report.
metrics_json="$ckpt/metrics_smoke.json"
"$tucker" simulate --grid 2x2x2 --kind random --dims 16x16x16 \
    --ranks 4x4x4 --method qr --metrics "$metrics_json" --model-check
python3 - "$metrics_json" <<'PY'
import json, math, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tucker-metrics-v1", f"bad schema: {doc.get('schema')}"
assert doc["ranks"] == 8 and len(doc["per_rank"]) == 8, "want 8 per-rank registries"
for reg in doc["per_rank"]:
    counters, gauges = reg["counters"], reg["gauges"]
    for key in ("comm/alltoallv/bytes", "comm/p2p/msgs", "kernel/lq/flops",
                "mem/peak_live_payload_bytes"):
        assert key in counters, f"missing counter {key}"
        assert isinstance(counters[key], int) and counters[key] >= 0, f"bad {key}"
    for key in ("sthosvd/mode0/retained_rank", "sthosvd/mode0/truncation_error"):
        assert key in gauges and math.isfinite(gauges[key]), f"bad gauge {key}"
    assert "comm/alltoallv/msg_size" in reg["histograms"], "missing msg_size histogram"
mc = doc["model_check"]
assert mc is not None and mc["pass"] is True, f"model check failed: {mc}"
assert len(mc["per_mode"]) == 3, "want one check row per mode"
for row in mc["per_mode"]:
    assert row["flops_rel_dev"] <= mc["tolerance"], f"flop deviation: {row}"
    assert row["bytes_rel_dev"] <= mc["tolerance"], f"byte deviation: {row}"
print("metrics smoke: schema + passing model check OK")
PY
# A P_n = 1 mode runs the sequential local kernels (DESIGN.md §18): the
# model check holds on a grid that has one (the gram gate below counts the
# all-ones grid's syrk calls).
"$tucker" simulate --grid 1x2x2 --kind random --dims 16x16x16 \
    --ranks 4x4x4 --svd qr --model-check

# Serve smoke: build a store, serve three verified queries from it (each
# checked bit-exact against a full reconstruction in-process), and stream
# the blockwise error against the store. (The serving benchmark's gates and
# its byte-exact records are tier-1 tests in crates/bench.)
serve_tns="$ckpt/serve.tns"
serve_tkr="$ckpt/serve.tkr"
"$tucker" generate "$serve_tns" --kind random --dims 24x16x12 --seed 9
"$tucker" compress "$serve_tns" "$serve_tkr" --ranks 6x5x4
if out="$("$tucker" compress "$serve_tns" "$ckpt/nan.tkr" --tol nan 2>&1)" \
        || ! grep -q "tolerance" <<<"$out"; then
    echo "serve smoke: --tol nan must exit non-zero naming tolerance: $out" >&2
    exit 1
fi
"$tucker" query "$serve_tkr" --slab '3,4,5' --verify
"$tucker" query "$serve_tkr" --slab '*,4,*' --verify
"$tucker" query "$serve_tkr" --slab '0:24:3,2:8,*' --verify --no-cache
"$tucker" error "$serve_tns" "$serve_tkr"
echo "serve smoke: verified queries OK"

# Failover smoke: the replicated tier must survive killing 1 of 2 replicas
# mid-workload with zero lost queries and name the dead rank. All gates
# are virtual-time, so they hold in --quick mode.
if ! out="$("$tucker" serve-bench --quick --shards 2 --replicas 2 \
        --inject crash:rank=1,op=2 2>&1)"; then
    echo "failover smoke: replicated serve-bench failed: $out" >&2
    exit 1
fi
if ! grep -q "lost 0 of" <<<"$out"; then
    echo "failover smoke: queries were lost during failover: $out" >&2
    exit 1
fi
if ! grep -q "dead ranks \[1\]" <<<"$out"; then
    echo "failover smoke: dead rank not named: $out" >&2
    exit 1
fi
echo "failover smoke: zero lost, rank 1 dead OK"

# Randomized-sketch smoke (DESIGN.md §15): fixed-rank compress with
# --svd randomized must meet a loose error bound on a fast-decaying
# surrogate, and a distributed run on an even grid must pass the exact
# flop/word conformance check for both sketch methods.
rand_tns="$ckpt/rand.tns"
rand_tkr="$ckpt/rand.tkr"
rand_rec="$ckpt/rand_rec.tns"
"$tucker" generate "$rand_tns" --kind hcci --dims 16x16x8x16 --seed 3
"$tucker" compress "$rand_tns" "$rand_tkr" --ranks 6x6x4x6 --svd randomized \
    --oversample 8 --power 1
"$tucker" decompress "$rand_tkr" "$rand_rec"
err_line="$("$tucker" error "$rand_tns" "$rand_rec")"
python3 - "$err_line" <<'PY'
import re, sys
m = re.search(r"([0-9.]+e?-?[0-9]*)", sys.argv[1])
assert m, f"no error value in: {sys.argv[1]}"
err = float(m.group(1))
assert err < 0.05, f"randomized compression error {err} out of bounds"
print(f"randomized smoke: compression error {err:.3e} OK")
PY
"$tucker" simulate --grid 2x2x2 --kind random --dims 16x16x16 \
    --ranks 4x4x4 --svd randomized --model-check
"$tucker" simulate --grid 2x2x2 --kind random --dims 16x16x16 \
    --ranks 4x4x4 --svd sketched-gram --sketch-rows 32 --model-check
if "$tucker" simulate --grid 2x1x1 --kind random --dims 8x8x8 \
        --ranks 4x4x4 --svd randomized --oversample 0 2>/dev/null; then
    echo "randomized smoke: --oversample 0 must be rejected" >&2
    exit 1
fi
echo "randomized smoke: compress + conformance + typed rejection OK"

# Observability smoke (DESIGN.md §16): one traced serve-bench run must
# export a merged Chrome trace telling the crashed query's story (failed
# attempt span, backoff window, successful failover attempt), a
# schema-valid serve-log-v1 structured log, an SLO report, and a
# per-query critical-path attribution — and every artifact must be
# byte-identical across two runs (pure virtual time).
trace_a="$ckpt/trace_a"
trace_b="$ckpt/trace_b"
"$tucker" serve-bench --quick --trace "$trace_a"
"$tucker" serve-bench --quick --trace "$trace_b"
for f in trace.json serve.log slo.json critical_path.txt; do
    cmp -s "$trace_a/$f" "$trace_b/$f" || {
        echo "observability smoke: $f differs across identical runs" >&2
        exit 1
    }
done
python3 - "$trace_a/trace.json" <<'PY'
import json, re, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "empty trace export"
spans = [e for e in events if e.get("ph") == "X"]
crash = [e for e in spans if e["name"].endswith(" crash")]
assert crash, "no crashed-attempt span in the merged trace"
q = re.match(r"(q\d+)/", crash[0]["name"]).group(1)
names = {e["name"] for e in spans}
assert any(n.startswith(f"{q}/backoff#") for n in names), f"{q}: no backoff span"
assert any(re.match(rf"{q}/attempt#\d+ s\d+r\d+ ok$", n) for n in names), \
    f"{q}: no successful failover attempt"
assert any(e.get("ph") == "i" and e["name"].startswith("fault: ") for e in events), \
    "no fault instant"
assert any("/queue" in n for n in names), "no queue-wait span"
assert any(re.search(r"/(ttm/mode\d+|gemm/mode0|cache (hit|miss)|emit)", n) for n in names), \
    "no engine plan-step spans"
print(f"trace export: {len(spans)} spans; {q} shows crash -> backoff -> ok OK")
PY
python3 - "$trace_a/serve.log" <<'PY'
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l]
assert lines, "empty structured log"
events = set()
for l in lines:
    rec = json.loads(l)
    assert list(rec)[:4] == ["schema", "vt", "level", "event"], f"field order: {l}"
    assert rec["schema"] == "serve-log-v1", f"bad schema: {l}"
    assert rec["level"] in ("debug", "info", "warn", "error"), f"bad level: {l}"
    assert "msg" in rec, f"missing msg: {l}"
    if rec["event"] in ("dispatch", "complete", "failover"):
        assert len(rec["trace"]) == 16 and len(rec["span"]) == 16, f"bad ids: {l}"
    events.add(rec["event"])
assert {"dispatch", "complete", "failover"} <= events, f"missing events: {events}"
print(f"serve-log-v1: {len(lines)} schema-valid lines, events {sorted(events)} OK")
PY
python3 - "$trace_a/slo.json" <<'PY'
import json, math, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tucker-slo-v1", f"bad schema: {doc.get('schema')}"
names = [o["name"] for o in doc["objectives"]]
assert "error_rate" in names and "recovery_ms" in names, names
assert any(n.startswith("tenant") and n.endswith("/p99_ms") for n in names), names
for o in doc["objectives"]:
    for key in ("observed", "objective", "burn_rate"):
        assert math.isfinite(o[key]) and o[key] >= 0, f"bad {key}: {o}"
    assert isinstance(o["breached"], bool), f"bad breached: {o}"
print(f"slo.json: {len(names)} objectives, schema OK")
PY
grep -q "per-query critical path" "$trace_a/critical_path.txt"
grep -q "= request #" "$trace_a/critical_path.txt"

# SLO report determinism + breach acceptance: the healthy quick run must
# pass byte-identically twice; killing both replicas of shard 0 must exit
# nonzero naming the breached error_rate objective.
"$tucker" slo-report --quick --json --out "$ckpt/slo_a.json"
"$tucker" slo-report --quick --json --out "$ckpt/slo_b.json"
cmp -s "$ckpt/slo_a.json" "$ckpt/slo_b.json" || {
    echo "slo smoke: report differs across identical runs" >&2
    exit 1
}
if out="$("$tucker" slo-report --quick \
        --inject 'crash:rank=0,op=0;crash:rank=1,op=0' 2>&1)"; then
    echo "slo smoke: double-crash run must breach and exit nonzero" >&2
    exit 1
fi
if ! grep -q "SLO breach.*error_rate" <<<"$out"; then
    echo "slo smoke: breach did not name error_rate: $out" >&2
    exit 1
fi
echo "slo smoke: deterministic report + named breach on double crash OK"

# Streaming update + hot-swap smoke (DESIGN.md §17): appending a delta
# slab to a committed store must bump the generation, and --extend must
# leave the core and non-time factor sections bit-identical (their CRCs
# in `tucker info` cannot move).
stream_tns="$ckpt/stream.tns"
stream_tkr="$ckpt/stream.tkr"
stream_delta="$ckpt/stream_delta.tns"
"$tucker" generate "$stream_tns" --kind random --dims 24x16x12 --seed 9
"$tucker" compress "$stream_tns" "$stream_tkr" --ranks 6x5x4
info_before="$("$tucker" info "$stream_tkr")"
grep -q "generation 0" <<<"$info_before" || {
    echo "stream smoke: fresh store must be at generation 0: $info_before" >&2
    exit 1
}
"$tucker" generate "$stream_delta" --kind random --dims 4x16x12 --seed 10
if ! out="$("$tucker" update "$stream_tkr" "$stream_delta" --extend 2>&1)"; then
    echo "stream smoke: update failed: $out" >&2
    exit 1
fi
grep -q "generation 0 -> 1" <<<"$out" || {
    echo "stream smoke: update did not bump the generation: $out" >&2
    exit 1
}
info_after="$("$tucker" info "$stream_tkr")"
grep -q "dims \[28, 16, 12\]" <<<"$info_after" || {
    echo "stream smoke: time mode did not grow: $info_after" >&2
    exit 1
}
grep -q "generation 1" <<<"$info_after" || {
    echo "stream smoke: store not at generation 1: $info_after" >&2
    exit 1
}
for sec in "factor 1" "factor 2" "core"; do
    before_crc="$(grep "$sec crc32" <<<"$info_before")"
    after_crc="$(grep "$sec crc32" <<<"$info_after")"
    [ -n "$before_crc" ] && [ "$before_crc" = "$after_crc" ] || {
        echo "stream smoke: $sec section changed across --extend" >&2
        exit 1
    }
done
echo "stream smoke: generation bump + untouched-section CRC preservation OK"

# Hostile-file smoke (DESIGN.md §19): three crafted headers that used to
# kill the process — a TNSR dim of 2^60 (capacity-overflow panic, exit 101),
# TNSR dims 2^40 x 2^40 (the product wraps to 0), a TUCK v1 factor of
# 2^36 x 4 (549 GB allocation, exit 134) — must make every command that
# reads them exit 1 with a message, and leave the store they touch alone.
hostile="$ckpt/hostile"
mkdir -p "$hostile"
python3 - "$hostile" <<'PY'
import struct, sys
d = sys.argv[1]
tnsr = lambda dims: b"TNSR" + struct.pack("<III", 1, 8, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
open(f"{d}/one_dim.tns", "wb").write(tnsr([1 << 60]) + b"\0" * 4)
open(f"{d}/wraps.tns", "wb").write(tnsr([1 << 40, 1 << 40]))
open(f"{d}/factor.tkr", "wb").write(
    b"TUCK" + struct.pack("<III", 1, 8, 1) + struct.pack("<QQ", 1 << 36, 4) + b"\0" * 8)
PY
refuses() {
    local rc=0
    "$tucker" "$@" >/dev/null 2>"$hostile/stderr" || rc=$?
    if [ "$rc" -ne 1 ] || ! [ -s "$hostile/stderr" ]; then
        echo "hostile smoke: 'tucker $*' exited $rc: $(cat "$hostile/stderr")" >&2
        exit 1
    fi
}
cp "$stream_tkr" "$hostile/store.tkr"
for f in "$hostile/one_dim.tns" "$hostile/wraps.tns"; do
    refuses info "$f"
    refuses compress "$f" "$hostile/out.tkr"
    refuses error "$f" "$stream_tns"
    refuses error "$stream_tns" "$f"
    refuses update "$hostile/store.tkr" "$f"
done
refuses info "$hostile/factor.tkr"
refuses decompress "$hostile/factor.tkr" "$hostile/out.tns"
refuses query "$hostile/factor.tkr" --slab '*'
refuses update "$hostile/factor.tkr" "$stream_delta"
refuses error "$stream_tns" "$hostile/factor.tkr"
# Sizes on the command line that wrap usize, exceed the tensor or fit no
# address space (each used to panic, abort in the allocator, or exit 0 over
# a file claiming 2^64 elements), and two valid but degenerate files: a zero
# extent is refused by the decomposition, an all-zero tensor compresses at
# error 0.
refuses generate "$hostile/argv.tns" --dims 18446744073709551615x2
refuses generate "$hostile/argv.tns" --dims 4294967296x4294967296
refuses generate "$hostile/argv.tns" --dims 536870912x1073741824
refuses simulate --kind random --dims 4294967296x4294967296 --grid 1x1 --ranks 1x1
refuses simulate --kind random --dims 8x8x8 --ranks 2x2x2 --grid 18446744073709551615x1x1
refuses simulate --kind random --dims 8x8x8 --ranks 2x2x2 --grid 4294967296x4294967296x1
refuses serve-bench --quick --shards 18446744073709551615 --replicas 2
python3 - "$hostile" <<'PY'
import struct, sys
d = sys.argv[1]
tnsr = lambda dims: b"TNSR" + struct.pack("<III", 1, 8, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
open(f"{d}/empty.tns", "wb").write(tnsr([0, 16, 12]))
open(f"{d}/zero.tns", "wb").write(tnsr([4, 4, 5]) + b"\0" * (8 * 80))
PY
refuses compress "$hostile/empty.tns" "$hostile/out.tkr"
refuses simulate "$hostile/empty.tns" --grid 1x1x1 --tol 1e-3
refuses update "$hostile/store.tkr" "$hostile/empty.tns"
"$tucker" compress "$hostile/zero.tns" "$hostile/zero.tkr" | grep -q "estimated error 0.000e0" || {
    echo "hostile smoke: an all-zero tensor must compress at estimated error 0" >&2
    exit 1
}
[ ! -e "$hostile/argv.tns" ] && [ ! -e "$hostile/out.tkr" ] || {
    echo "hostile smoke: a refused command left an output file" >&2
    exit 1
}
cmp "$stream_tkr" "$hostile/store.tkr"
echo "hostile smoke: crafted headers, wrapping argv sizes and degenerate tensors refused with exit 1 OK"

# One codec (DESIGN.md §19): bytes become scalars and length words, files
# become durable, and CRCs are sunk in one place each.
codec=crates/tensor/src/codec.rs
gate() { # gate <what> <expected files, one per line> <grep args...>
    local what="$1" want="$2"
    shift 2
    local got
    got="$(grep -rlE "$@" crates/*/src | sort || true)"
    [ "$got" = "$want" ] || {
        echo "codec gate: $what found in: $got (want only: $want)" >&2
        exit 1
    }
}
gate "byte conversion" "$codec" 'to_le_bytes|from_le_bytes'
gate "sync_all" "$codec" 'sync_all'
gate "fs::rename" "$codec" 'fs::rename'
gate "a Write sink" "crates/core/src/crc32.rs" 'impl.*Write for'
[ "$(grep -cE 'sync_all|fs::rename' "$codec")" = 2 ] || {
    echo "codec gate: sync_all and fs::rename must each appear once in $codec" >&2
    exit 1
}
echo "codec gate: one byte codec, one atomic writer, one CRC sink OK"

# One Q-less LQ (DESIGN.md §13): the in-place gelqf family is gone, and
# outside crates/linalg a matrix becomes L through `lq_factor(` or, for a
# block sequence, `tslq_blocks(` — the block size and the single-panel
# kernel behind them never leave the crate.
if grep -rnE 'gelqf|lq_factor_blocked|lq_l\b' crates/*/src; then
    echo "lq gate: the in-place LQ family is back" >&2
    exit 1
fi
leaks="$(grep -rnE 'blocked_qr|DEFAULT_BLOCK|l_of_transposed|lq_l_padded' crates/*/src \
    | grep -v '^crates/linalg/' || true)"
[ -z "$leaks" ] || {
    echo "lq gate: kernel choice leaks out of crates/linalg: $leaks" >&2
    exit 1
}
# The flat tree's fold has one body (DESIGN.md §13): `tplqt` walks no
# element stream of `B` through the view, and the only hand-vectorised code
# in the workspace is the microkernel and the dot/axpy pair beside it.
if grep -nE 'b\.get\(|b\.update\(' crates/linalg/src/tplqt.rs; then
    echo "lq gate: tplqt.rs streams B element by element again" >&2
    exit 1
fi
simd="$(grep -rl 'target_feature' crates/*/src | tr '\n' ' ')"
[ "$simd" = "crates/linalg/src/scalar.rs " ] || {
    echo "lq gate: target_feature outside crates/linalg/src/scalar.rs: $simd" >&2
    exit 1
}
echo "lq gate: lq_factor is the one way a matrix becomes L, tplqt has one body OK"

# One syrk per Gram (DESIGN.md §10): an unfolding's row-major blocks reach
# the kernel as one panel sequence — its slabs run across block boundaries —
# so nothing outside crates/linalg loops over `.blocks()` to call syrk, and
# on the all-ones grid a 16³ → 4³ Gram run makes one call per mode (not
# 1 + 16 + 1 per contiguous view, nor one per column of mode 0) of
# I_n²·cols_n model flops: 16²·(256 + 64 + 16).
loops="$(grep -rlE 'for .* in .*\.blocks\(\)' crates/*/src | grep -v '^crates/linalg/' \
    | xargs -r grep -l 'syrk' || true)"
[ -z "$loops" ] || {
    echo "gram gate: a .blocks() loop feeds syrk block by block in: $loops" >&2
    exit 1
}
"$tucker" simulate --grid 1x1x1 --kind random --dims 16x16x16 \
    --ranks 4x4x4 --svd gram --metrics "$metrics_json"
python3 - "$metrics_json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["per_rank"][0]["counters"]
calls, flops = counters["kernel/syrk/calls"], counters["kernel/syrk/flops"]
assert calls == 3, f"1x1x1 gram run made {calls} syrk calls, want one per mode"
assert flops == 16 * 16 * (256 + 64 + 16), f"1x1x1 gram run counted {flops} syrk flops"
print("gram gate: one syrk call per mode, model flops unchanged OK")
PY

# Benchmark smoke: every workload of benchmark/ at quarter shapes, traced.
# Its oracles — the traced replay of the mode loop bit-identical to the
# driver's output, grid ranks equal to sequential ranks, the scheduled
# Fast/Refresh/Full stream paths — and its every-metric-present check gate
# every PR. (Builds tuckerbench and tucker into benchmark/target.)
if ! benchmark/run.sh --smoke >"$ckpt/benchmark_smoke.log" 2>&1; then
    tail -n 40 "$ckpt/benchmark_smoke.log" >&2
    echo "benchmark smoke: failed" >&2
    exit 1
fi
grep -q "^tuckerbench: ok" "$ckpt/benchmark_smoke.log"
echo "benchmark smoke: all workloads correct, every metric present OK"

# Overhead budgets: the two paired off/on comparisons must run (mpisim
# metrics, serve ObsConfig::full) and stay bit-identical; the < 2% gates are
# enforced only without --quick, on a quiet host.
target/release/figs --quick overhead_metrics overhead_obs

# Figures: every results/*.csv is virtual time or deterministic arithmetic,
# so a fresh `figs all` must rewrite the committed files byte for byte.
# (Outside `cargo run`, figs writes results/ under the current directory.)
figs="$PWD/target/release/figs"
(cd "$ckpt" && "$figs" all >figs_all.log)
diff -r results "$ckpt/results" || {
    echo "figures: results/ is not what a fresh 'figs all' writes" >&2
    exit 1
}
echo "figures: results/ reproduces byte for byte OK"
