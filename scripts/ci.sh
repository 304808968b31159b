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

# Bench smoke: the kernel benchmark must run, emit schema-valid records
# (including the PR6 factorization entries), and never report NaN/zero
# throughput (the binary exits non-zero on a degenerate reading; the
# schema is checked here).
bench_json="$ckpt/bench_smoke.json"
target/release/bench kernels --quick --out "$bench_json"
python3 - "$bench_json" <<'PY'
import json, math, sys
recs = json.load(open(sys.argv[1]))
assert isinstance(recs, list) and recs, "no benchmark records"
for r in recs:
    assert set(r) >= {"bench", "shape", "precision"}, f"missing keys: {r}"
    assert r["precision"] in ("single", "double"), f"bad precision: {r}"
    metric = [k for k in r if k in ("gflops", "ms")]
    assert len(metric) == 1, f"want exactly one of gflops|ms: {r}"
    v = r[metric[0]]
    assert isinstance(v, (int, float)) and math.isfinite(v) and v > 0, f"degenerate reading: {r}"
names = {(r["bench"], r["precision"]) for r in recs}
for b in ("gemm", "syrk", "lq", "lq_reference", "qr", "bidiag_svd"):
    for p in ("double", "single"):
        assert (b, p) in names, f"missing {b}/{p} record"
print(f"bench smoke: {len(recs)} schema-valid records OK")
PY

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

# Metrics overhead smoke: the off/on comparison must run and emit records
# (the <2% gate itself is enforced only by a full, non---quick run).
target/release/bench metrics-overhead --quick --out "$ckpt/bench_pr4_smoke.json"
python3 - "$ckpt/bench_pr4_smoke.json" <<'PY'
import json, sys
recs = json.load(open(sys.argv[1]))
names = {r["bench"] for r in recs}
assert {"sim_sthosvd_metrics_off", "sim_sthosvd_metrics_on", "metrics_overhead"} <= names, names
print("metrics overhead smoke: records OK")
PY

# Serve smoke: build a store, serve three verified queries from it (each
# checked bit-exact against a full reconstruction in-process), stream the
# blockwise error against the store, and run the serving benchmark with
# its schema check. The speedup gate is virtual-time, so it holds even in
# --quick mode.
serve_tns="$ckpt/serve.tns"
serve_tkr="$ckpt/serve.tkr"
"$tucker" generate "$serve_tns" --kind random --dims 24x16x12 --seed 9
"$tucker" compress "$serve_tns" "$serve_tkr" --ranks 6x5x4
"$tucker" query "$serve_tkr" --slab '3,4,5' --verify
"$tucker" query "$serve_tkr" --slab '*,4,*' --verify
"$tucker" query "$serve_tkr" --slab '0:24:3,2:8,*' --verify --no-cache
"$tucker" error "$serve_tns" "$serve_tkr"
serve_json="$ckpt/bench_pr5_smoke.json"
target/release/bench serve --quick --out "$serve_json"
python3 - "$serve_json" <<'PY'
import json, math, sys
r = json.load(open(sys.argv[1]))
for key in ("bench", "shape", "ranks", "queries", "naive_busy_s", "batched_busy_s",
            "speedup", "p50_ms", "p99_ms", "throughput_qps", "mean_batch",
            "cache_hits", "cache_misses", "overload_completed", "overload_rejected"):
    assert key in r, f"missing key {key}: {r}"
assert r["bench"] == "serve"
assert r["speedup"] >= 2.0, f"speedup gate: {r['speedup']}"
assert r["overload_rejected"] > 0, "overload run shed no load"
assert r["overload_completed"] + r["overload_rejected"] == r["queries"], "lost requests"
for key in ("naive_busy_s", "batched_busy_s", "p50_ms", "p99_ms", "throughput_qps"):
    assert math.isfinite(r[key]) and r[key] > 0, f"degenerate {key}: {r[key]}"
print("serve smoke: verified queries + schema-valid benchmark OK")
PY

# Failover smoke: the replicated tier must survive killing 1 of 2 replicas
# mid-workload with zero lost queries, name the dead rank, and measure a
# recovery time. All gates are virtual-time, so they hold in --quick mode.
failover_json="$ckpt/bench_pr7_smoke.json"
if ! out="$("$tucker" serve-bench --quick --shards 2 --replicas 2 \
        --inject crash:rank=1,op=2 --out "$failover_json" 2>&1)"; then
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
target/release/bench failover --quick --out "$failover_json"
python3 - "$failover_json" <<'PY'
import json, math, sys
r = json.load(open(sys.argv[1]))
for key in ("bench", "shape", "ranks", "queries", "shards", "replicas",
            "healthy_p50_ms", "healthy_p99_ms", "healthy_qps",
            "failover_lost", "failover_crc_identical", "failover_recovery_vt_s",
            "failovers", "dead_ranks", "overload_completed", "overload_rejected",
            "overload_shed_low", "overload_quota_rejected", "overload_p99_ms"):
    assert key in r, f"missing key {key}: {r}"
assert r["bench"] == "failover"
assert r["failover_lost"] == 0, "admitted queries were lost during failover"
assert r["failover_crc_identical"] is True, "failover answers diverged from the engine"
assert r["failover_recovery_vt_s"] > 0, "no failover recovery was measured"
assert r["dead_ranks"] == [1], f"unexpected dead ranks: {r['dead_ranks']}"
assert r["overload_rejected"] > 0, "overload run shed no load"
assert r["overload_shed_low"] > 0, "no low-priority shedding"
assert r["overload_quota_rejected"] > 0, "tenant quotas never fired"
assert r["overload_p99_ms"] <= 50.0 * r["healthy_p99_ms"], "p99-under-overload gate"
for key in ("healthy_p50_ms", "healthy_p99_ms", "healthy_qps", "overload_p99_ms"):
    assert math.isfinite(r[key]) and r[key] > 0, f"degenerate {key}: {r[key]}"
print("failover smoke: zero lost, rank 1 dead, recovery measured, schema OK")
PY

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

# Randomized bench smoke: records must be schema-valid and the distributed
# driver bit-identical across grids (the ≥3x speedup and ≤1.5x error-ratio
# gates are enforced only by a full, non---quick run, which produced the
# committed BENCH_pr8.json).
rand_json="$ckpt/bench_pr8_smoke.json"
target/release/bench randomized --quick --out "$rand_json"
python3 - "$rand_json" <<'PY'
import json, math, sys
recs = json.load(open(sys.argv[1]))
names = {r["bench"] for r in recs}
need = {"sthosvd_gram", "sthosvd_qr", "sthosvd_randomized_q1",
        "randomized_speedup_vs_gram", "randomized_error_ratio_vs_qr",
        "randomized_bit_identical", "hcci_like_randomized_q0_error",
        "video_like_randomized_q2_error"}
assert need <= names, f"missing records: {need - names}"
for r in recs:
    keys = set(r) - {"bench", "shape", "precision"}
    assert len(keys) == 1, f"want exactly one metric: {r}"
    v = r[keys.pop()]
    assert isinstance(v, (int, float)) and math.isfinite(v) and v >= 0, f"bad metric: {r}"
bit = next(r for r in recs if r["bench"] == "randomized_bit_identical")
assert bit["x"] == 1.0, "distributed sketch SVD is not bit-identical"
print("randomized bench smoke: schema + bit-identity OK")
PY

# Committed PR8 artifact gate: the checked-in BENCH_pr8.json (produced by a
# full run) must carry the ≥3x speedup, the ≤1.5x error ratio, and
# bit-identity.
python3 - BENCH_pr8.json <<'PY'
import json, sys
recs = json.load(open(sys.argv[1]))
by = {r["bench"]: r for r in recs}
sp = by["randomized_speedup_vs_gram"]["x"]
er = by["randomized_error_ratio_vs_qr"]["x"]
bit = by["randomized_bit_identical"]["x"]
assert sp >= 3.0, f"committed speedup {sp} below the 3x gate"
assert er <= 1.5, f"committed error ratio {er} above the 1.5x gate"
assert bit == 1.0, "committed artifact records broken bit-identity"
print(f"BENCH_pr8.json gate: speedup {sp:.2f}x, error ratio {er:.3f}, bit-identical OK")
PY

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

# Observability overhead smoke: the off/on comparison must run
# bit-identically and record spans + log lines (the <2% gate itself is
# enforced only by a full, non---quick run, which produced the committed
# BENCH_pr9.json).
obs_json="$ckpt/bench_pr9_smoke.json"
target/release/bench observability --quick --out "$obs_json"
python3 - "$obs_json" <<'PY'
import json, math, sys
r = json.load(open(sys.argv[1]))
for key in ("bench", "shape", "ranks", "queries", "off_ms", "on_ms",
            "overhead_pct", "spans", "log_lines", "bit_identical"):
    assert key in r, f"missing key {key}: {r}"
assert r["bench"] == "observability"
assert r["bit_identical"] is True, "tracing+logging moved the served bits"
assert r["spans"] > 0 and r["log_lines"] > 0, "instrumented run recorded nothing"
for key in ("off_ms", "on_ms"):
    assert math.isfinite(r[key]) and r[key] > 0, f"degenerate {key}: {r[key]}"
print(f"observability smoke: bit-identical, {r['spans']} spans, "
      f"{r['log_lines']} log lines OK")
PY

# Committed PR9 artifact gate: the checked-in BENCH_pr9.json (produced by
# a full run) must carry the <2% tracing+logging overhead bit-identically.
python3 - BENCH_pr9.json <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["bench"] == "observability"
assert r["overhead_pct"] < 2.0, f"committed overhead {r['overhead_pct']}% over the 2% gate"
assert r["bit_identical"] is True, "committed artifact records broken bit-identity"
print(f"BENCH_pr9.json gate: {r['overhead_pct']}% overhead, bit-identical OK")
PY

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

# Streaming bench smoke: the hot-swap run must lose and corrupt nothing
# under the crash-inject fault plan and end at generation 1; every append
# must stay on an incremental path. (The ≥3x update-speedup gate is
# wall-clock and enforced only by a full, non---quick run, which produced
# the committed BENCH_pr10.json.)
stream_json="$ckpt/bench_pr10_smoke.json"
target/release/bench stream --quick --out "$stream_json"
python3 - "$stream_json" <<'PY2'
import json, math, sys
r = json.load(open(sys.argv[1]))
for key in ("bench", "shape", "ranks", "initial_rows", "appends", "rows_per_append",
            "fast_appends", "refresh_appends", "full_appends",
            "incremental_ms", "recompute_ms", "update_speedup",
            "err_incremental", "err_recompute", "err_ratio",
            "hotswap_queries", "hotswap_lost", "hotswap_corrupted",
            "hotswap_pre_swap", "hotswap_post_swap", "hotswap_generation",
            "dead_ranks"):
    assert key in r, f"missing key {key}: {r}"
assert r["bench"] == "stream"
assert r["hotswap_lost"] == 0, "admitted queries were lost across the hot-swap"
assert r["hotswap_corrupted"] == 0, "completions diverged from their generation"
assert r["hotswap_pre_swap"] > 0 and r["hotswap_post_swap"] > 0, "swap not mid-trace"
assert r["hotswap_generation"] == 1, f"tier generation: {r['hotswap_generation']}"
assert r["dead_ranks"] == [1], f"unexpected dead ranks: {r['dead_ranks']}"
assert r["full_appends"] == 0, "appends fell back to a full recompute"
assert r["err_ratio"] <= 1.1, f"error drift gate: {r['err_ratio']}"
for key in ("incremental_ms", "recompute_ms", "err_incremental", "err_recompute"):
    assert math.isfinite(r[key]) and r[key] > 0, f"degenerate {key}: {r[key]}"
print("stream bench smoke: lossless hot-swap at generation 1, schema OK")
PY2

# Committed PR10 artifact gate: the checked-in BENCH_pr10.json (produced
# by a full run) must carry the ≥3x update speedup, the ≤1.1x error
# drift, and the lossless mid-crash hot-swap.
python3 - BENCH_pr10.json <<'PY2'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["bench"] == "stream"
assert r["update_speedup"] >= 3.0, f"committed speedup {r['update_speedup']}x below the 3x gate"
assert r["err_ratio"] <= 1.1, f"committed error drift {r['err_ratio']} above the 1.1x gate"
assert r["hotswap_lost"] == 0 and r["hotswap_corrupted"] == 0, "committed hot-swap not lossless"
assert r["hotswap_generation"] == 1, "committed artifact did not swap generations"
print(f"BENCH_pr10.json gate: {r['update_speedup']:.1f}x update speedup, "
      f"err drift {r['err_ratio']:.4f}, lossless hot-swap OK")
PY2

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

# Committed serve/failover artifact gate: both benches are pure virtual
# time, so a fresh full run must reproduce BENCH_pr5.json and
# BENCH_pr7.json byte for byte — the exact admission decisions and
# event timeline of both serving loops.
target/release/bench serve --out "$ckpt/bench_pr5_full.json" >/dev/null
target/release/bench failover --out "$ckpt/bench_pr7_full.json" >/dev/null
for n in 5 7; do
    cmp "BENCH_pr$n.json" "$ckpt/bench_pr${n}_full.json" || {
        echo "artifact gate: BENCH_pr$n.json is not what a fresh full run writes" >&2
        exit 1
    }
done
echo "artifact gate: BENCH_pr5.json and BENCH_pr7.json reproduce byte for byte OK"

# Bench regression guard: fresh virtual-time runs of the committed serve
# and failover benchmarks must stay within 20% of every checked-in gated
# metric (full mode also re-runs the wall-clock benches).
target/release/bench regress --quick
