//! Subcommand implementations for the `tucker` CLI.

use crate::args::{parse_dims, Args};
use std::time::{Duration, Instant};
use tucker_core::tucker_io::{
    read_tucker_any, read_tucker_checksums, read_tucker_header as read_tucker_hdr, write_tucker,
    AnyTucker, TuckerHeader,
};
use tucker_core::{
    check_model, metrics_json, sthosvd_parallel, sthosvd_parallel_checkpointed,
    sthosvd_with_info, CheckConfig, CheckpointOptions, ModeOrder, SthosvdConfig, SvdMethod,
    TuckerTensor,
};
use tucker_data::{hcci_surrogate, hash_noise, sp_surrogate, video_surrogate};
use tucker_dtensor::{DistTensor, ProcessorGrid};
use tucker_linalg::{RandomizedSvdConfig, Scalar};
use tucker_mpisim::{
    chrome_trace_json, text_timeline, CostModel, FaultPlan, Simulator, ThreadTopology, TraceConfig,
};
use tucker_bench::{bench_dims, run_failover_bench, run_serve_bench, run_tier_workload};
use tucker_serve::{
    evaluate_slo, AnyStore, Engine, EngineConfig, ObsConfig, OrderPolicy, Query, SloPolicy,
    TuckerStore,
};
use tucker_stream::{StreamConfig, StreamState};
use tucker_tensor::io::{read_tensor, read_tensor_header, write_tensor, StoredPrecision, TensorChunks};
use tucker_tensor::codec::checked_len;
use tucker_tensor::{hyperslab, FrobAccumulator, Tensor};

/// Usage text shown on errors and `tucker help`.
pub const USAGE: &str = "\
usage:
  tucker generate <out.tns> --kind hcci|sp|video|random --dims 40x40x33x40 [--seed N] [--f32]
  tucker compress <in.tns> <out.tkr> [--tol 1e-4 | --ranks 5x5x3x5]
                  [--svd qr|gram|gram-mixed|randomized]
                  [--oversample P --power Q --sketch-seed N]
                  [--order forward|backward|auto]
                  (--order auto takes the cheapest mode ordering under the
                   cost model on a 1x...x1 grid; it requires --ranks)
                  (--svd randomized needs --ranks; --oversample/--power/
                   --sketch-seed tune its sketch; --method is an alias of
                   --svd)
  tucker decompress <in.tkr> <out.tns>
  tucker update <store.tkr> <delta.tns> [--time-mode N] [--extend]
                  [--tol X | --ranks 5x5x5] [--fast-drift 0.05 --full-drift 0.5]
                  (appends the delta slab along the time-like mode and
                   atomically republishes the store at the next generation:
                   observed subspace drift picks the fast stacked-SVD or
                   randomized refresh path; --extend forces the pure
                   row-extension path whose pre-existing outputs stay
                   bit-identical; drift above --full-drift fails typed —
                   recompress from the raw data instead)
  tucker query <store.tkr> --slab SPEC [--out slab.tns] [--no-cache]
                  [--order-policy exact|cost] [--verify]
                  (SPEC is one selector per mode, comma-separated:
                   '*' all, '3' index, '0:8' range, '2:10:2' strided;
                   --verify checks the result against a full reconstruction)
  tucker shard <in.tkr> <out-dir> --shards N
                  (splits a store into N mode-0 shards: shard0000.tkr … plus
                   a TKSM manifest, for the replicated serving tier)
  tucker serve-bench [--quick] [--out bench.json]
                  [--shards N --replicas K [--inject SPEC]] [--trace DIR]
                  (--shards switches to the replicated-tier benchmark:
                   healthy/failover/overload runs over N shards x K replicas;
                   --inject arms an mpisim fault plan against world ranks,
                   e.g. 'crash:rank=1,op=2' or 'flaky:0:0..40:5')
                  (--trace runs one fully observed tier workload instead and
                   writes DIR/trace.json (merged Chrome trace), DIR/serve.log
                   (serve-log-v1 JSON lines), DIR/slo.json, and
                   DIR/critical_path.txt)
  tucker slo-report [--quick] [--shards N --replicas K] [--inject SPEC]
                  [--slo-p50-ms X --slo-p99-ms X --slo-error-rate X
                   --slo-recovery-ms X] [--json] [--out report.json]
                  (evaluates per-tenant latency, error-rate, and
                   failover-recovery objectives over a deterministic tier
                   workload; prints a table, or JSON with --json, and exits
                   nonzero naming the breached objectives)
  tucker simulate [in.tns] --grid 2x2x2 [--kind hcci|sp|video|random --dims 32x32x32 --seed N]
                  [--tol 1e-4 | --ranks 5x5x5] [--svd qr|gram|gram-mixed|randomized]
                  [--oversample P --power Q --sketch-seed N]
                  [--order forward|backward|auto] [--trace out.json] [--timeline out.txt] [--validate]
                  [--inject SPEC] [--watchdog-ms N] [--checkpoint-dir DIR] [--resume]
                  [--threads N|auto] [--metrics out.json] [--model-check] [--model-tol 0.05]
                  (SPEC example: crash:rank=2,op=40;drop:rank=0,op=5,times=2)
                  (--threads caps rayon threads per simulated rank; 'auto'
                   splits the pool evenly across ranks)
                  (--metrics dumps the per-rank metrics registries as JSON;
                   --model-check compares measured per-mode flops/bytes to the
                   paper's analytic formulas and fails on deviation > --model-tol)
  tucker info <file.tns|file.tkr>
                  (.tkr stores print header version, dims, ranks, update
                   generation, and the per-section CRC-32 table)
  tucker error <original.tns> <reconstruction.tns>
  tucker help";

/// Dispatch a parsed command line.
pub fn run(a: &Args) -> Result<(), String> {
    match a.command.as_str() {
        "generate" => generate(a),
        "compress" => compress(a),
        "decompress" => decompress(a),
        "update" => update_cmd(a),
        "query" => query_cmd(a),
        "shard" => shard_cmd(a),
        "serve-bench" => serve_bench_cmd(a),
        "slo-report" => slo_report_cmd(a),
        "simulate" => simulate(a),
        "info" => info(a),
        "error" => error_cmd(a),
        "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// Parse the `--threads` value: an explicit per-rank thread count, or `auto`
/// to partition the process-wide rayon pool evenly across simulated ranks.
fn parse_threads(spec: &str) -> Result<ThreadTopology, String> {
    if spec == "auto" {
        return Ok(ThreadTopology::Partitioned);
    }
    match spec.parse::<usize>() {
        Ok(n) if n > 0 => Ok(ThreadTopology::PerRank(n)),
        _ => Err(format!("bad --threads '{spec}' (want a positive count or 'auto')")),
    }
}

/// Build a synthetic tensor of the given kind (`generate` and file-less
/// `simulate` share this).
/// Refuse a `--dims` whose `f64` element or byte count wraps (the codec's
/// overflow-checked product): a wrapped count is a small one, which
/// allocates nothing and writes a file that claims 2^64 elements. A count
/// that fits `usize` may still not fit the machine, and the tensor's own
/// `vec!` would abort the process on it, so the allocation is probed here
/// (reserved, never touched, released at once).
fn check_dims_fit(dims: &[usize]) -> Result<(), String> {
    let bytes = match checked_len(dims).ok().and_then(|n| n.checked_mul(8)) {
        Some(bytes) if isize::try_from(bytes).is_ok() => bytes,
        _ => return Err(format!("--dims {dims:?}: the element count overflows")),
    };
    Vec::<u8>::new()
        .try_reserve_exact(bytes)
        .map_err(|_| format!("--dims {dims:?}: {bytes} bytes cannot be allocated"))
}

/// Rank count of a grid given on the command line (`--grid`, or `--shards`
/// by `--replicas`): the overflow-checked product, and at most one rank per
/// element of the tensor it is laid over.
fn rank_count(flag: &str, grid: &[usize], elements: usize) -> Result<usize, String> {
    match checked_len(grid) {
        Ok(p) if p <= elements => Ok(p),
        _ => Err(format!(
            "{flag} {grid:?} asks for more ranks than the tensor has elements ({elements})"
        )),
    }
}

fn synthetic_tensor(kind: &str, dims: &[usize], seed: u64) -> Result<Tensor<f64>, String> {
    check_dims_fit(dims)?;
    match kind {
        "hcci" => {
            if dims.len() != 4 {
                return Err("hcci needs 4 modes".into());
            }
            Ok(hcci_surrogate(dims, seed))
        }
        "sp" => {
            if dims.len() != 5 {
                return Err("sp needs 5 modes".into());
            }
            Ok(sp_surrogate(dims, seed))
        }
        "video" => {
            if dims.len() != 4 {
                return Err("video needs 4 modes".into());
            }
            Ok(video_surrogate(dims, seed))
        }
        "random" => {
            let mut lin = 0usize;
            Ok(Tensor::from_fn(dims, |_| {
                lin += 1;
                hash_noise(seed, lin)
            }))
        }
        other => Err(format!("unknown --kind '{other}'")),
    }
}

fn generate(a: &Args) -> Result<(), String> {
    let out = a.pos(0, "out.tns")?;
    let kind = a.opt("kind").unwrap_or("random");
    let dims = parse_dims(a.opt("dims").ok_or("generate requires --dims")?)?;
    let seed: u64 = a.opt("seed").unwrap_or("42").parse().map_err(|_| "bad --seed")?;
    let x = synthetic_tensor(kind, &dims, seed)?;
    if a.flag("f32") {
        let x32: Tensor<f32> = x.cast();
        write_tensor(out, &x32).map_err(io_err)?;
    } else {
        write_tensor(out, &x).map_err(io_err)?;
    }
    println!("wrote {kind} tensor {dims:?} to {out}");
    Ok(())
}

/// Build the ST-HOSVD configuration. `dims` is the input tensor shape and
/// `bytes` the working scalar width: with `--order auto` the order is
/// resolved here once, against the 1×…×1 cost model the drivers use, to
/// print it.
fn build_config(a: &Args, dims: &[usize], bytes: usize) -> Result<SthosvdConfig, String> {
    let mut cfg = if let Some(r) = a.opt("ranks") {
        SthosvdConfig::with_ranks(parse_dims(r)?)
    } else {
        let tol: f64 = a
            .opt("tol")
            .unwrap_or("1e-4")
            .parse()
            .map_err(|_| "bad --tol")?;
        SthosvdConfig::with_tolerance(tol)
    };
    // `--svd` is the primary spelling; `--method` is kept as an alias.
    let method = match a.opt("svd").or_else(|| a.opt("method")).unwrap_or("qr") {
        "qr" => SvdMethod::Qr,
        "gram" => SvdMethod::Gram,
        "gram-mixed" => SvdMethod::GramMixed,
        "randomized" => SvdMethod::Randomized,
        other => return Err(format!("unknown --svd '{other}'")),
    };
    cfg = cfg.method(method);
    // Sketch knobs: range validation happens in SthosvdConfig::validate, so
    // only syntax is checked here.
    let mut rnd = RandomizedSvdConfig::default();
    if let Some(v) = a.opt("oversample") {
        rnd.oversampling = v.parse().map_err(|_| "bad --oversample")?;
    }
    if let Some(v) = a.opt("power") {
        rnd.power_iterations = v.parse().map_err(|_| "bad --power")?;
    }
    if let Some(v) = a.opt("sketch-seed") {
        rnd.seed = v.parse().map_err(|_| "bad --sketch-seed")?;
    }
    cfg = cfg.randomized(rnd);
    cfg = match a.opt("order").unwrap_or("forward") {
        "forward" => cfg.order(ModeOrder::Forward),
        "backward" => cfg.order(ModeOrder::Backward),
        "auto" => {
            // Order optimization needs the truncated ranks up front (§4.2.3:
            // "if all dimensions and reduced ranks are known at the start").
            if a.opt("ranks").is_none() {
                return Err("--order auto requires --ranks (known target ranks)".into());
            }
            let cfg = cfg.order(ModeOrder::Auto);
            let order = cfg.resolved_order(dims, bytes).map_err(|e| e.to_string())?;
            println!("auto mode order: {order:?}");
            cfg
        }
        other => return Err(format!("unknown --order '{other}'")),
    };
    Ok(cfg)
}

fn compress_typed<T: Scalar + tucker_tensor::io::IoScalar>(
    input: &str,
    output: &str,
    cfg: &SthosvdConfig,
) -> Result<(), String> {
    let x: Tensor<T> = read_tensor(input).map_err(io_err)?;
    let t0 = Instant::now();
    let out = sthosvd_with_info(&x, cfg).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    write_tucker(output, &out.tucker).map_err(|e| e.to_string())?;
    println!(
        "compressed {:?} -> ranks {:?} ({:.1}x) in {dt:.2}s; estimated error {:.3e}",
        x.dims(),
        out.tucker.ranks(),
        out.tucker.compression_ratio(),
        out.estimated_error.to_f64()
    );
    Ok(())
}

fn compress(a: &Args) -> Result<(), String> {
    let input = a.pos(0, "in.tns")?.to_string();
    let output = a.pos(1, "out.tkr")?.to_string();
    let hdr = read_tensor_header(&input).map_err(io_err)?;
    let cfg = build_config(a, &hdr.dims, hdr.precision.bytes() as usize)?;
    match hdr.precision {
        StoredPrecision::Single => compress_typed::<f32>(&input, &output, &cfg),
        StoredPrecision::Double => compress_typed::<f64>(&input, &output, &cfg),
    }
}

fn decompress(a: &Args) -> Result<(), String> {
    let input = a.pos(0, "in.tkr")?;
    let output = a.pos(1, "out.tns")?;
    // The header names the stored precision; reconstruct and write in kind.
    match read_tucker_any(input).map_err(|e| e.to_string())? {
        AnyTucker::F64(tk) => reconstruct_to(&tk, output),
        AnyTucker::F32(tk) => reconstruct_to(&tk, output),
    }
}

/// Shared tail of `decompress`: materialize and write the reconstruction.
fn reconstruct_to<T: Scalar + tucker_tensor::io::IoScalar>(
    tk: &TuckerTensor<T>,
    output: &str,
) -> Result<(), String> {
    let x = tk.reconstruct();
    write_tensor(output, &x).map_err(io_err)?;
    println!("reconstructed {:?} to {output}", x.dims());
    Ok(())
}

/// Serve one hyperslab query from a compressed store without materializing
/// the full reconstruction. `--verify` cross-checks the served result
/// against a full `reconstruct()` + gather — bit-exact under the default
/// `--order-policy exact`, tolerance-checked under `cost`.
fn query_cmd(a: &Args) -> Result<(), String> {
    let path = a.pos(0, "store.tkr")?;
    let spec = a.opt("slab").ok_or("query requires --slab (e.g. --slab '3,0:8,*')")?;
    let q = Query::parse(spec).map_err(|e| e.to_string())?;
    match tucker_serve::open_any(path).map_err(|e| e.to_string())? {
        AnyStore::F64(st) => query_typed(a, st, &q),
        AnyStore::F32(st) => query_typed(a, st, &q),
    }
}

fn query_typed<T: Scalar + tucker_tensor::io::IoScalar>(
    a: &Args,
    store: TuckerStore<T>,
    q: &Query,
) -> Result<(), String> {
    let policy = match a.opt("order-policy").unwrap_or("exact") {
        "exact" => OrderPolicy::Exact,
        "cost" => OrderPolicy::Cost,
        other => return Err(format!("unknown --order-policy '{other}'")),
    };
    let cfg = EngineConfig {
        cache_budget: if a.flag("no-cache") { 0 } else { EngineConfig::default().cache_budget },
        order_policy: policy,
        ..EngineConfig::default()
    };
    let dims = store.dims().to_vec();
    let mut engine = Engine::new(store, cfg);
    let out = engine.execute(q).map_err(|e| e.to_string())?;
    println!(
        "query {:?} of {:?}: {} elements, order {:?} ({:.3e} flops; optimal {:?} would be {:.3e})",
        q.out_dims(&dims),
        dims,
        out.tensor.len(),
        out.plan.order,
        out.plan.flops,
        out.plan.best_order,
        out.plan.best_flops,
    );
    if a.flag("verify") {
        let full = engine.store().tucker().reconstruct();
        let want = hyperslab(&full, &q.normalized(&dims));
        if out.tensor.dims() != want.dims() {
            return Err("verify failed: dimension mismatch".into());
        }
        match policy {
            OrderPolicy::Exact => {
                for (i, (g, w)) in out.tensor.data().iter().zip(want.data()).enumerate() {
                    if g.to_f64().to_bits() != w.to_f64().to_bits() {
                        return Err(format!(
                            "verify failed: element {i} differs ({:?} vs {:?})",
                            g.to_f64(),
                            w.to_f64()
                        ));
                    }
                }
                println!("verify: OK (bit-identical to full reconstruction)");
            }
            OrderPolicy::Cost => {
                let err = out.tensor.relative_error_to(&want).to_f64();
                if err > 1e-6 {
                    return Err(format!("verify failed: relative error {err:.3e}"));
                }
                println!("verify: OK (relative error {err:.3e})");
            }
        }
    }
    if let Some(path) = a.opt("out") {
        write_tensor(path, &out.tensor).map_err(io_err)?;
        println!("wrote slab to {path}");
    }
    let s = engine.cache_stats();
    println!(
        "modeled service: {:.3e}s; cache: {} hits, {} misses, {} bytes",
        out.cost.seconds, s.hits, s.misses, s.bytes
    );
    Ok(())
}

/// Split a compressed store into mode-0 shards (`shard0000.tkr` … plus a
/// `TKSM v1` manifest) for the replicated serving tier.
fn shard_cmd(a: &Args) -> Result<(), String> {
    let input = a.pos(0, "in.tkr")?;
    let dir = a.pos(1, "out-dir")?;
    let shards: usize = a
        .opt("shards")
        .ok_or("shard requires --shards")?
        .parse()
        .map_err(|_| "bad --shards")?;
    if shards == 0 {
        return Err("--shards must be positive".into());
    }
    match read_tucker_any(input).map_err(|e| e.to_string())? {
        AnyTucker::F64(tk) => shard_typed(dir, &tk, shards),
        AnyTucker::F32(tk) => shard_typed(dir, &tk, shards),
    }
}

fn shard_typed<T: tucker_tensor::io::IoScalar>(
    dir: &str,
    tk: &TuckerTensor<T>,
    shards: usize,
) -> Result<(), String> {
    let dims = tk.original_dims();
    if shards > dims[0] {
        return Err(format!("--shards {shards} exceeds mode-0 extent {}", dims[0]));
    }
    let paths = tucker_core::write_shards(dir, tk, shards).map_err(|e| e.to_string())?;
    println!("sharded {dims:?} into {shards} mode-0 shards under {dir}");
    for (s, p) in paths.iter().enumerate() {
        let r = tucker_dtensor::block_range(dims[0], shards, s);
        println!("  shard {s}: rows {}..{} -> {}", r.start, r.end, p.display());
    }
    Ok(())
}

/// Run the deterministic serving benchmark and emit its JSON record: the
/// naive-vs-batched engine comparison by default, or — with `--shards` —
/// the replicated tier's healthy/failover/overload benchmark, with
/// `--inject` arming an mpisim fault plan against world ranks.
fn serve_bench_cmd(a: &Args) -> Result<(), String> {
    if a.opt("trace").is_some() {
        return serve_trace_cmd(a);
    }
    if a.opt("shards").is_some() || a.opt("replicas").is_some() || a.opt("inject").is_some() {
        return failover_bench_cmd(a);
    }
    let r = run_serve_bench(a.flag("quick")).map_err(|e| e.to_string())?;
    let json = r.to_json();
    if let Some(path) = a.opt("out") {
        std::fs::write(path, format!("{json}\n")).map_err(io_err)?;
        println!("wrote serve bench to {path}");
    }
    println!("{json}");
    println!(
        "serve bench: {:.2}x batched speedup, p50 {:.3}ms, p99 {:.3}ms, {} rejected under overload",
        r.speedup, r.p50_ms, r.p99_ms, r.overload_rejected
    );
    Ok(())
}

/// The replicated-tier benchmark behind `serve-bench --shards`.
fn failover_bench_cmd(a: &Args) -> Result<(), String> {
    let (shards, replicas, plan) = tier_options(a)?;
    let r = run_failover_bench(a.flag("quick"), shards, replicas, plan.as_ref())
        .map_err(|e| e.to_string())?;
    let json = r.to_json();
    if let Some(path) = a.opt("out") {
        std::fs::write(path, format!("{json}\n")).map_err(io_err)?;
        println!("wrote failover bench to {path}");
    }
    println!("{json}");
    println!(
        concat!(
            "failover bench: {}x{} tier; lost {} of {} queries (dead ranks {:?}, ",
            "recovery {:.3e}s vt); overload p99 {:.3}ms, {} rejected ({} low shed)"
        ),
        r.shards,
        r.replicas,
        r.failover_lost,
        r.queries,
        r.dead_ranks,
        r.failover_recovery_vt_s,
        r.overload_p99_ms,
        r.overload_rejected,
        r.overload_shed_low,
    );
    Ok(())
}

/// Shared option parsing for the tier workloads behind `serve-bench
/// --shards`, `serve-bench --trace` and `slo-report`: shard/replica counts
/// (default 2×2) and an optional `--inject` fault plan (default: crash one
/// replica mid-workload, so every trace contains a real failover story).
fn tier_options(a: &Args) -> Result<(usize, usize, Option<FaultPlan>), String> {
    let parse_count = |key: &str, default: &str| -> Result<usize, String> {
        let n: usize =
            a.opt(key).unwrap_or(default).parse().map_err(|_| format!("bad --{key}"))?;
        if n == 0 {
            return Err(format!("--{key} must be positive"));
        }
        Ok(n)
    };
    let shards = parse_count("shards", "2")?;
    let replicas = parse_count("replicas", "2")?;
    let dims = bench_dims(a.flag("quick"));
    if shards > dims[0] {
        return Err(format!("--shards {shards} exceeds the store's mode-0 extent {}", dims[0]));
    }
    rank_count("--shards x --replicas", &[shards, replicas], dims.iter().product())?;
    let plan = match a.opt("inject") {
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("bad --inject: {e}"))?),
        None => None,
    };
    Ok((shards, replicas, plan))
}

/// `serve-bench --trace DIR`: run one fully observed tier workload and
/// export every observability artifact — the merged Chrome trace (span
/// lanes + router lane, loadable in Perfetto), the `serve-log-v1`
/// structured log, the SLO report, and the per-query critical-path
/// attribution. All four files are pure functions of the virtual timeline:
/// byte-identical across runs.
fn serve_trace_cmd(a: &Args) -> Result<(), String> {
    let dir = std::path::Path::new(a.opt("trace").expect("caller checked --trace"));
    let (shards, replicas, plan) = tier_options(a)?;
    let (router, report) =
        run_tier_workload(a.flag("quick"), shards, replicas, plan.as_ref(), ObsConfig::full())
            .map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let obs = router.observer();
    let merged = obs.merged_traces(&[]);
    std::fs::write(dir.join("trace.json"), chrome_trace_json(&merged)).map_err(io_err)?;
    std::fs::write(dir.join("serve.log"), obs.log_text()).map_err(io_err)?;
    let slo = evaluate_slo(router.metrics(), &slo_policy(a)?);
    std::fs::write(dir.join("slo.json"), slo.to_json()).map_err(io_err)?;
    std::fs::write(dir.join("critical_path.txt"), obs.critical_path_report()).map_err(io_err)?;
    println!(
        concat!(
            "traced {}x{} tier: {} completed, {} failed, {} spans across {} lanes, ",
            "{} log lines, {} slow queries"
        ),
        shards,
        replicas,
        report.completions.len(),
        report.failures.len(),
        obs.span_count(),
        merged.len(),
        obs.log_lines().len(),
        obs.slow_queries(),
    );
    println!("wrote trace.json, serve.log, slo.json, critical_path.txt to {}", dir.display());
    if slo.breached() {
        println!("note: SLO breached ({}); see slo.json", slo.breached_names().join(", "));
    }
    Ok(())
}

/// Parse `--slo-*` objective overrides on top of the default policy.
fn slo_policy(a: &Args) -> Result<SloPolicy, String> {
    let mut p = SloPolicy::default();
    let set = |key: &str, field: &mut f64| -> Result<(), String> {
        if let Some(v) = a.opt(key) {
            *field = v.parse().map_err(|_| format!("bad --{key}"))?;
        }
        Ok(())
    };
    set("slo-p50-ms", &mut p.p50_ms)?;
    set("slo-p99-ms", &mut p.p99_ms)?;
    set("slo-error-rate", &mut p.error_rate)?;
    set("slo-recovery-ms", &mut p.recovery_ms)?;
    Ok(p)
}

/// `tucker slo-report`: evaluate the SLO objectives over a deterministic
/// tier workload and exit nonzero on breach, naming the breached
/// objectives. The inputs are virtual-time metrics, so the report is
/// byte-identical across invocations.
fn slo_report_cmd(a: &Args) -> Result<(), String> {
    let (shards, replicas, plan) = tier_options(a)?;
    // SLO inputs (per-tenant latency histograms, error counters, the
    // recovery gauge) are recorded unconditionally, so the report does not
    // need tracing or logging enabled.
    let (router, _report) =
        run_tier_workload(a.flag("quick"), shards, replicas, plan.as_ref(), ObsConfig::default())
            .map_err(|e| e.to_string())?;
    let slo = evaluate_slo(router.metrics(), &slo_policy(a)?);
    let doc = if a.flag("json") { slo.to_json() } else { slo.table() };
    if let Some(path) = a.opt("out") {
        std::fs::write(path, &doc).map_err(io_err)?;
        println!("wrote SLO report to {path}");
    }
    print!("{doc}");
    if slo.breached() {
        return Err(format!("SLO breach: {}", slo.breached_names().join(", ")));
    }
    Ok(())
}

/// Run a parallel ST-HOSVD on the simulated MPI runtime, optionally exporting
/// a Chrome-trace JSON (`--trace`, loadable in Perfetto / `chrome://tracing`)
/// and a per-rank text timeline (`--timeline`). `--validate` turns on the
/// collective-sequence validator and the deadlock watchdog (see DESIGN.md
/// §Observability).
///
/// Fault-tolerance flags (DESIGN.md §Fault model): `--inject` runs under a
/// deterministic fault plan, `--watchdog-ms` bounds wall-clock stalls,
/// `--checkpoint-dir` commits per-mode checkpoints, and `--resume` restarts
/// from the last committed mode in that directory.
fn simulate(a: &Args) -> Result<(), String> {
    let grid_dims = parse_dims(a.opt("grid").ok_or("simulate requires --grid")?)?;
    let x: Tensor<f64> = if let Some(input) = a.positional.first() {
        let hdr = read_tensor_header(input).map_err(io_err)?;
        match hdr.precision {
            StoredPrecision::Double => read_tensor(input).map_err(io_err)?,
            StoredPrecision::Single => read_tensor::<f32>(input).map_err(io_err)?.cast(),
        }
    } else {
        let dims = parse_dims(
            a.opt("dims").ok_or("simulate needs an input file or --dims")?,
        )?;
        let seed: u64 = a.opt("seed").unwrap_or("42").parse().map_err(|_| "bad --seed")?;
        synthetic_tensor(a.opt("kind").unwrap_or("random"), &dims, seed)?
    };
    if grid_dims.len() != x.dims().len() {
        return Err(format!(
            "--grid has {} modes but the tensor has {}",
            grid_dims.len(),
            x.dims().len()
        ));
    }
    // (An empty tensor gets the decomposition's own refusal, not this one.)
    let p = rank_count("--grid", &grid_dims, x.len().max(1))?;
    let cfg = build_config(a, x.dims(), 8)?;

    let checkpoint = a.opt("checkpoint-dir").map(|dir| {
        CheckpointOptions::new(dir).resume(a.flag("resume"))
    });
    if a.flag("resume") && checkpoint.is_none() {
        return Err("--resume requires --checkpoint-dir".into());
    }

    let mut sim = Simulator::new(p).with_cost(CostModel::andes());
    if a.opt("trace").is_some() || a.opt("timeline").is_some() || a.flag("validate") {
        let tc = if a.flag("validate") { TraceConfig::validating() } else { TraceConfig::default() };
        sim = sim.with_trace(tc);
    }
    if let Some(spec) = a.opt("inject") {
        sim = sim.with_faults(FaultPlan::parse(spec).map_err(|e| format!("bad --inject: {e}"))?);
    }
    if let Some(ms) = a.opt("watchdog-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --watchdog-ms")?;
        sim = sim.with_watchdog(Duration::from_millis(ms));
    }
    if let Some(t) = a.opt("threads") {
        sim = sim.with_threads(parse_threads(t)?);
    }
    let metrics_path = a.opt("metrics").map(str::to_string);
    let model_check = a.flag("model-check");
    let model_tol: f64 = match a.opt("model-tol") {
        Some(s) => s.parse().map_err(|_| "bad --model-tol")?,
        None => 0.05,
    };
    if metrics_path.is_some() || model_check {
        sim = sim.with_metrics(true);
    }
    let grid = ProcessorGrid::new(&grid_dims);
    let out = sim
        .run_result(|ctx| {
            let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
            let po = match &checkpoint {
                Some(opts) => sthosvd_parallel_checkpointed(ctx, &dt, &cfg, opts)
                    .map_err(|e| e.to_string())?,
                None => sthosvd_parallel(ctx, &dt, &cfg).map_err(|e| e.to_string())?,
            };
            Ok::<_, String>((po.ranks(), po.estimated_error))
        })
        .map_err(|e| e.to_string())?;
    let (ranks, est_err) = &out.results[0];
    // Conformance check: predicted per-mode flop/word counts from the
    // configured geometry, measured counts from the run's phase stats.
    let report = if model_check {
        let check = CheckConfig {
            dims: x.dims().to_vec(),
            ranks: ranks.clone(),
            grid: grid_dims.clone(),
            order: cfg.resolved_order(x.dims(), 8).map_err(|e| e.to_string())?,
            method: cfg.method,
            tree: cfg.tree,
            bytes: 8, // simulate always runs in f64
            randomized: cfg.randomized,
            tolerance: model_tol,
        };
        let mut r = check_model(&check, &out.stats);
        // A resumed run restores the modes committed before the crash from
        // the checkpoint instead of re-executing them, so those modes have
        // no measured work at all; checking them against full-run
        // predictions would always fail. Drop the untouched (all-zero
        // measured) modes and re-derive the verdict from the rest — modes
        // the resume actually re-executes still must match exactly.
        if a.flag("resume") {
            r.per_mode.retain(|m| {
                m.flops_measured != 0.0 || m.bytes_measured != 0.0 || m.msgs_measured != 0
            });
            r.pass = r.per_mode.iter().all(|m| m.pass);
        }
        Some(r)
    } else {
        None
    };
    // Export before printing the (long) report: a consumer that closes
    // stdout early must not lose the trace files to a SIGPIPE.
    if let Some(path) = a.opt("trace") {
        std::fs::write(path, chrome_trace_json(&out.traces)).map_err(io_err)?;
    }
    if let Some(path) = a.opt("timeline") {
        std::fs::write(path, text_timeline(&out.traces)).map_err(io_err)?;
    }
    if let Some(path) = &metrics_path {
        std::fs::write(path, metrics_json(&out.metrics, report.as_ref())).map_err(io_err)?;
    }
    println!(
        "simulated {p} ranks on grid {grid_dims:?}: {:?} -> ranks {ranks:?}, estimated error {:.3e}",
        x.dims(),
        est_err
    );
    let b = out.breakdown();
    println!("{}", b.critical_path_report());
    println!("{}", b.slowest_rank_report());
    if let Some(path) = a.opt("trace") {
        println!("wrote Chrome trace for {} ranks to {path}", out.traces.len());
    }
    if let Some(path) = a.opt("timeline") {
        println!("wrote text timeline to {path}");
    }
    if let Some(path) = &metrics_path {
        println!("wrote metrics for {} ranks to {path}", out.metrics.len());
    }
    if let Some(r) = &report {
        println!("{}", r.table());
        if !r.pass {
            return Err(format!(
                "model conformance check failed (tolerance {:.1e})",
                r.tolerance
            ));
        }
    }
    Ok(())
}

/// `tucker update`: append a delta slab along the time-like mode and
/// atomically republish the store at the next generation. The store is
/// never left torn: the new file lands via temp-file + rename, so a
/// concurrent reader (or a serving tier's hot-swap reopen) sees either
/// the complete old generation or the complete new one.
fn update_cmd(a: &Args) -> Result<(), String> {
    let store = a.pos(0, "store.tkr")?.to_string();
    let delta = a.pos(1, "delta.tns")?.to_string();
    let hdr = read_tucker_hdr(&store).map_err(|e| format!("{store}: {e}"))?;
    match read_tucker_any(&store).map_err(|e| format!("{store}: {e}"))? {
        AnyTucker::F64(tk) => do_update::<f64>(a, &store, &delta, tk, hdr.generation),
        AnyTucker::F32(tk) => do_update::<f32>(a, &store, &delta, tk, hdr.generation),
    }
}

fn do_update<T: Scalar + tucker_tensor::io::IoScalar>(
    a: &Args,
    store: &str,
    delta: &str,
    tk: TuckerTensor<T>,
    generation: u64,
) -> Result<(), String> {
    let slab: Tensor<T> = read_tensor(delta)
        .map_err(|e| format!("{delta}: {e} (delta precision must match the store)"))?;
    let time_mode: usize =
        a.opt("time-mode").unwrap_or("0").parse().map_err(|_| "bad --time-mode")?;
    let svd = if let Some(r) = a.opt("ranks") {
        SthosvdConfig::with_ranks(parse_dims(r)?)
    } else if let Some(t) = a.opt("tol") {
        SthosvdConfig::with_tolerance(t.parse().map_err(|_| "bad --tol")?)
    } else {
        // Default: keep the stored rank profile.
        SthosvdConfig::with_ranks(tk.ranks())
    };
    let fast: f64 =
        a.opt("fast-drift").unwrap_or("0.05").parse().map_err(|_| "bad --fast-drift")?;
    let full: f64 =
        a.opt("full-drift").unwrap_or("0.5").parse().map_err(|_| "bad --full-drift")?;
    let cfg = StreamConfig::new(time_mode, svd).fast_drift(fast).full_drift(full).history(false);
    let mut state =
        StreamState::from_parts(tk, generation, cfg, None).map_err(|e| e.to_string())?;
    let report = if a.flag("extend") {
        state.append_extend(&slab)
    } else {
        state.append(&slab)
    }
    .map_err(|e| e.to_string())?;
    state.publish(store).map_err(|e| e.to_string())?;
    println!(
        "updated {store}: {} path, drift {:.3e}, +{} rows on mode {time_mode}, \
         generation {generation} -> {}, ranks {:?}",
        report.path.label(),
        report.drift,
        report.appended,
        report.generation,
        report.ranks
    );
    Ok(())
}

fn info(a: &Args) -> Result<(), String> {
    let path = a.pos(0, "file")?;
    if let Ok(hdr) = read_tensor_header(path) {
        let payload = hdr.payload_bytes().map_err(io_err)?;
        if payload != hdr.held_bytes {
            return Err(format!(
                "{path}: truncated: header says {payload} bytes, file holds {}",
                hdr.held_bytes
            ));
        }
        println!(
            "tensor file: dims {:?}, {} precision, {} elements, {payload} bytes payload",
            hdr.dims,
            if hdr.precision == StoredPrecision::Single { "single" } else { "double" },
            payload / hdr.precision.bytes() as u64
        );
        return Ok(());
    }
    if let Ok(hdr) = read_tucker_hdr(path) {
        match read_tucker_any(path).map_err(|e| e.to_string())? {
            AnyTucker::F64(tk) => print_tucker_info(&tk, &hdr),
            AnyTucker::F32(tk) => print_tucker_info(&tk, &hdr),
        }
        // Per-section CRC table (v2+; verified against the payload by the
        // read above, so these are the bytes actually on disk).
        if let Some(crcs) = read_tucker_checksums(path).map_err(|e| e.to_string())? {
            let (header_crc, rest) = crcs.split_first().expect("table has a header entry");
            let (core_crc, factors) = rest.split_last().expect("table has a core entry");
            println!("  header crc32 {header_crc:08x}");
            for (n, c) in factors.iter().enumerate() {
                println!("  factor {n} crc32 {c:08x}");
            }
            println!("  core crc32 {core_crc:08x}");
        }
        return Ok(());
    }
    Err(format!("{path}: not a recognized tensor or Tucker file"))
}

fn print_tucker_info<T: Scalar>(tk: &TuckerTensor<T>, hdr: &TuckerHeader) {
    println!(
        "tucker file (v{}): original dims {:?}, ranks {:?}, generation {}, {} parameters, \
         compression {:.1}x",
        hdr.version,
        tk.original_dims(),
        tk.ranks(),
        hdr.generation,
        tk.num_parameters(),
        tk.compression_ratio()
    );
}

/// `tucker error` streams both operands blockwise — neither the original
/// nor the reconstruction is ever fully resident. The second argument may
/// be a raw tensor file or a compressed `.tkr` store, whose blocks are
/// reconstructed on the fly by the query engine.
fn error_cmd(a: &Args) -> Result<(), String> {
    let orig = a.pos(0, "original.tns")?;
    let recon = a.pos(1, "reconstruction.tns|.tkr")?;
    let ho = read_tensor_header(orig).map_err(io_err)?;
    if read_tensor_header(recon).is_ok() {
        return error_vs_tensor(orig, recon, &ho.dims);
    }
    match tucker_serve::open_any(recon).map_err(|e| format!("{recon}: {e}"))? {
        AnyStore::F64(st) => error_vs_store(orig, st, &ho.dims),
        AnyStore::F32(st) => error_vs_store(orig, st, &ho.dims),
    }
}

/// Chunked streaming comparison against `f64`-converted buffers.
fn next_chunk_f64(
    reader: &mut ChunkReader,
    max: usize,
    buf: &mut Vec<f64>,
) -> Result<usize, String> {
    match reader {
        ChunkReader::F64(c, raw) => {
            let n = c.next_chunk(max, raw).map_err(io_err)?;
            buf.clear();
            buf.extend_from_slice(&raw[..n]);
            Ok(n)
        }
        ChunkReader::F32(c, raw) => {
            let n = c.next_chunk(max, raw).map_err(io_err)?;
            buf.clear();
            buf.extend(raw[..n].iter().map(|&v| v as f64));
            Ok(n)
        }
    }
}

enum ChunkReader {
    F64(TensorChunks<f64>, Vec<f64>),
    F32(TensorChunks<f32>, Vec<f32>),
}

fn open_chunks(path: &str) -> Result<ChunkReader, String> {
    let hdr = read_tensor_header(path).map_err(io_err)?;
    Ok(match hdr.precision {
        StoredPrecision::Double => ChunkReader::F64(TensorChunks::open(path).map_err(io_err)?, Vec::new()),
        StoredPrecision::Single => ChunkReader::F32(TensorChunks::open(path).map_err(io_err)?, Vec::new()),
    })
}

/// Elements per streamed block (~0.5 MiB of f64).
const ERROR_BLOCK_ELEMS: usize = 1 << 16;

fn error_vs_tensor(orig: &str, recon: &str, dims: &[usize]) -> Result<(), String> {
    let hr = read_tensor_header(recon).map_err(io_err)?;
    if dims != hr.dims {
        return Err(format!("dimension mismatch: {dims:?} vs {:?}", hr.dims));
    }
    let mut xs = open_chunks(orig)?;
    let mut ys = open_chunks(recon)?;
    let mut nx = FrobAccumulator::<f64>::new();
    let mut nd = FrobAccumulator::<f64>::new();
    let (mut xb, mut yb) = (Vec::new(), Vec::new());
    loop {
        let n = next_chunk_f64(&mut xs, ERROR_BLOCK_ELEMS, &mut xb)?;
        let m = next_chunk_f64(&mut ys, ERROR_BLOCK_ELEMS, &mut yb)?;
        if n != m {
            return Err("payload length mismatch".into());
        }
        if n == 0 {
            break;
        }
        nx.push(&xb);
        nd.push_diff(&xb, &yb);
    }
    print_relative_error(nd.norm(), nx.norm());
    Ok(())
}

/// Compare a streamed original against a compressed store, reconstructing
/// one last-mode block at a time (mode 0 varies fastest in both the file
/// payload and the engine's output, so each block is one contiguous run).
fn error_vs_store<T: Scalar + tucker_tensor::io::IoScalar>(
    orig: &str,
    store: TuckerStore<T>,
    dims: &[usize],
) -> Result<(), String> {
    if dims != store.dims() {
        return Err(format!("dimension mismatch: {dims:?} vs {:?}", store.dims()));
    }
    let last = dims.len() - 1;
    let stride_last: usize = dims[..last].iter().product();
    let rows_per_block = (ERROR_BLOCK_ELEMS / stride_last.max(1)).clamp(1, dims[last]);
    let mut xs = open_chunks(orig)?;
    let mut engine = Engine::new(store, EngineConfig::default());
    let mut nx = FrobAccumulator::<f64>::new();
    let mut nd = FrobAccumulator::<f64>::new();
    let (mut xb, mut yb) = (Vec::new(), Vec::new());
    let mut k = 0;
    while k < dims[last] {
        let rows = rows_per_block.min(dims[last] - k);
        let mut sel: Vec<tucker_serve::ModeSel> =
            dims[..last].iter().map(|_| tucker_serve::ModeSel::All).collect();
        sel.push(tucker_serve::ModeSel::Range(k, k + rows));
        let out = engine.execute(&Query { sel }).map_err(|e| e.to_string())?;
        let n = next_chunk_f64(&mut xs, rows * stride_last, &mut xb)?;
        if n != out.tensor.len() {
            return Err("payload length mismatch".into());
        }
        yb.clear();
        yb.extend(out.tensor.data().iter().map(|&v| v.to_f64()));
        nx.push(&xb);
        nd.push_diff(&xb, &yb);
        k += rows;
    }
    // The file must be exactly exhausted.
    if next_chunk_f64(&mut xs, 1, &mut xb)? != 0 {
        return Err("payload length mismatch".into());
    }
    print_relative_error(nd.norm(), nx.norm());
    Ok(())
}

fn print_relative_error(diff: f64, reference: f64) {
    if reference == 0.0 {
        println!("relative error: {:.6e}", if diff == 0.0 { 0.0 } else { f64::INFINITY });
    } else {
        println!("relative error: {:.6e}", diff / reference);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use tucker_core::read_tucker;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A scratch directory of this test's own: tests run in parallel and
    /// remove their directory when done, so they must not share one.
    fn tmpdir(test: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tucker_cli_test_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn full_pipeline_roundtrip() {
        let dir = tmpdir("full_pipeline_roundtrip");
        let tns = dir.join("x.tns").display().to_string();
        let tkr = dir.join("x.tkr").display().to_string();
        let rec = dir.join("r.tns").display().to_string();

        run(&parse(&toks(&format!(
            "generate {tns} --kind hcci --dims 12x12x8x12 --seed 7"
        )))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&format!("info {tns}"))).unwrap()).unwrap();
        run(&parse(&toks(&format!(
            "compress {tns} {tkr} --tol 1e-3 --method qr --order backward"
        )))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&format!("info {tkr}"))).unwrap()).unwrap();
        run(&parse(&toks(&format!("decompress {tkr} {rec}"))).unwrap()).unwrap();
        run(&parse(&toks(&format!("error {tns} {rec}"))).unwrap()).unwrap();

        // Check the error numerically, not just that it printed.
        let x: Tensor<f64> = read_tensor(&tns).unwrap();
        let y: Tensor<f64> = read_tensor(&rec).unwrap();
        assert!(x.relative_error_to(&y) <= 1e-3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn f32_pipeline_with_mixed_method() {
        let dir = tmpdir("f32_pipeline_with_mixed_method");
        let tns = dir.join("s.tns").display().to_string();
        let tkr = dir.join("s.tkr").display().to_string();
        run(&parse(&toks(&format!(
            "generate {tns} --kind random --dims 8x8x8 --f32"
        )))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&format!(
            "compress {tns} {tkr} --ranks 3x3x3 --method gram-mixed"
        )))
        .unwrap())
        .unwrap();
        let tk: TuckerTensor<f32> = read_tucker(&tkr).unwrap();
        assert_eq!(tk.ranks(), vec![3, 3, 3]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn randomized_requires_ranks() {
        let dir = tmpdir("randomized_requires_ranks");
        let tns = dir.join("t.tns").display().to_string();
        let tkr = dir.join("t.tkr").display().to_string();
        run(&parse(&toks(&format!("generate {tns} --kind random --dims 6x6x6"))).unwrap())
            .unwrap();
        let r = run(&parse(&toks(&format!(
            "compress {tns} {tkr} --tol 1e-2 --method randomized"
        )))
        .unwrap());
        assert!(r.is_err(), "tolerance-driven randomized must be rejected");
        std::fs::remove_dir_all(dir).ok();
    }

    fn cli(cmd: String) -> Result<(), String> {
        run(&parse(&toks(&cmd)).unwrap())
    }

    /// What a must-be-rejected `compress` / `simulate` / `update` needs: a
    /// 6x6x6 tensor, a 2x6x6 delta slab, a store path never written, and a
    /// committed generation-0 store of the tensor.
    fn rejection_fixture(test: &str) -> (std::path::PathBuf, [String; 4]) {
        let dir = tmpdir(test);
        let [tns, delta, tkr, store] =
            ["t.tns", "d.tns", "t.tkr", "store.tkr"].map(|f| dir.join(f).display().to_string());
        cli(format!("generate {tns} --kind random --dims 6x6x6")).unwrap();
        cli(format!("generate {delta} --kind random --dims 2x6x6 --seed 5")).unwrap();
        cli(format!("compress {tns} {store} --ranks 3x3x3")).unwrap();
        (dir, [tns, delta, tkr, store])
    }

    /// `--ranks` of the wrong length or with a zero must fail typed — not
    /// index out of bounds — in every command that takes it.
    #[test]
    fn wrong_length_or_zero_ranks_are_rejected_by_compress_simulate_update() {
        let (dir, [tns, delta, tkr, store]) = rejection_fixture("badranks");
        for ranks in ["4x4", "4x4x4x4", "4x0x4"] {
            for cmd in [
                format!("compress {tns} {tkr} --ranks {ranks}"),
                format!("compress {tns} {tkr} --ranks {ranks} --svd randomized"),
                format!("simulate {tns} --grid 2x1x1 --ranks {ranks}"),
                format!("simulate {tns} --grid 2x1x1 --ranks {ranks} --svd gram"),
                format!("update {store} {delta} --ranks {ranks}"),
                format!("update {store} {delta} --ranks {ranks} --extend"),
            ] {
                // (A zero never gets past `--ranks` parsing.)
                let e = cli(cmd.clone()).expect_err(&cmd);
                let typed = e.contains("invalid configuration: ranks")
                    || e.contains("dimensions must be positive");
                assert!(typed, "{cmd}: {e}");
            }
        }
        // The store was never touched by the rejected updates.
        assert!(read_tucker_hdr(&store).unwrap().generation == 0);
        std::fs::remove_dir_all(dir).ok();
    }

    /// `--tol` reaches the rank rule from outside: NaN fails every comparison
    /// there and a negative value squares to a positive budget, so both used
    /// to exit 0 at rank 1. Every command that takes it must refuse.
    #[test]
    fn non_finite_or_negative_tol_is_rejected_by_compress_simulate_update() {
        let (dir, [tns, delta, tkr, store]) = rejection_fixture("badtol");
        for tol in ["nan", "-1", "inf"] {
            for cmd in [
                format!("compress {tns} {tkr} --tol {tol}"),
                format!("compress {tns} {tkr} --tol {tol} --svd gram --order backward"),
                format!("simulate {tns} --grid 2x1x1 --tol {tol}"),
                format!("update {store} {delta} --tol {tol}"),
            ] {
                let e = cli(cmd.clone()).expect_err(&cmd);
                assert!(e.contains("invalid configuration: tolerance"), "{cmd}: {e}");
            }
        }
        assert!(!std::path::Path::new(&tkr).exists(), "a rejected compress wrote a store");
        assert!(read_tucker_hdr(&store).unwrap().generation == 0);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Sizes on the command line that wrap `usize`, or ask for more ranks or
    /// shards than there is tensor: each used to panic (capacity overflow,
    /// an empty slice, "need at least one rank") or — `generate` with a
    /// product that wraps to 0 — exit 0 over a file claiming 2^64 elements.
    #[test]
    fn argv_sizes_that_wrap_or_exceed_the_tensor_are_rejected() {
        let dir = tmpdir("argvsizes");
        let out = dir.join("x.tns").display().to_string();
        for (cmd, names) in [
            (format!("generate {out} --dims 18446744073709551615x2"), "--dims"),
            (format!("generate {out} --dims 4294967296x4294967296"), "--dims"),
            // 2^62 bytes: fits `isize`, fits no address space.
            (format!("generate {out} --dims 536870912x1073741824"), "cannot be allocated"),
            (
                "simulate --kind random --dims 4294967296x4294967296 --grid 1x1 --ranks 1x1".into(),
                "--dims",
            ),
            (
                "simulate --kind random --dims 8x8x8 --ranks 2x2x2 --grid 18446744073709551615x1x1"
                    .into(),
                "--grid",
            ),
            (
                "simulate --kind random --dims 8x8x8 --ranks 2x2x2 --grid 4294967296x4294967296x1"
                    .into(),
                "--grid",
            ),
            ("serve-bench --quick --shards 18446744073709551615 --replicas 2".into(), "--shards"),
            ("serve-bench --quick --shards 2 --replicas 9223372036854775808".into(), "--replicas"),
        ] {
            let e = cli(cmd.clone()).expect_err(&cmd);
            assert!(e.contains(names), "{cmd}: {e}");
        }
        assert!(!std::path::Path::new(&out).exists(), "a rejected generate wrote a file");
        std::fs::remove_dir_all(dir).ok();
    }

    /// A valid TNSR file may hold a zero extent (`generate` refuses to make
    /// one, a reader does not refuse to read one): `compress`, `simulate`
    /// and `update` must say so instead of writing a store of rank 0 and
    /// error NaN. An all-zero tensor is fine (its error is 0, pinned in
    /// `tucker-core`), and its store serves.
    #[test]
    fn zero_extent_and_all_zero_tensors() {
        let (dir, [_, _, tkr, store]) = rejection_fixture("degenerate");
        let empty = dir.join("empty.tns").display().to_string();
        write_tensor(&empty, &Tensor::<f64>::zeros(&[0, 6, 6])).unwrap();
        for cmd in [
            format!("compress {empty} {tkr}"),
            format!("compress {empty} {tkr} --svd gram --ranks 1x1x1"),
            format!("simulate {empty} --grid 1x1x1 --tol 1e-3"),
            format!("update {store} {empty}"),
        ] {
            // (`update` never reaches the mode loop: an empty slab is a
            // shape the stream refuses on its own.)
            let e = cli(cmd.clone()).expect_err(&cmd);
            let typed = e.contains("invalid configuration: dims") || e.contains("shape mismatch");
            assert!(typed, "{cmd}: {e}");
        }
        assert!(!std::path::Path::new(&tkr).exists(), "a rejected compress wrote a store");
        assert!(read_tucker_hdr(&store).unwrap().generation == 0);

        let zero = dir.join("zero.tns").display().to_string();
        write_tensor(&zero, &Tensor::<f64>::zeros(&[4, 4, 5])).unwrap();
        cli(format!("compress {zero} {tkr}")).unwrap();
        cli(format!("query {tkr} --slab 1,2,3 --verify")).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn svd_randomized_compress_and_simulate() {
        let dir = tmpdir("svd_rand");
        let tns = dir.join("r.tns").display().to_string();
        let tkr = dir.join("r.tkr").display().to_string();
        run(&parse(&toks(&format!(
            "generate {tns} --kind hcci --dims 12x12x8x12 --seed 3"
        )))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&format!(
            "compress {tns} {tkr} --ranks 4x4x3x4 --svd randomized --oversample 4 --power 1"
        )))
        .unwrap())
        .unwrap();
        let tk: TuckerTensor<f64> = read_tucker(&tkr).unwrap();
        assert_eq!(tk.ranks(), vec![4, 4, 3, 4]);
        // Distributed simulate with the same method + the conformance gate.
        run(&parse(&toks(
            "simulate --grid 2x2x1 --kind random --dims 16x16x16 --ranks 4x4x4 \
             --svd randomized --model-check",
        ))
        .unwrap())
        .unwrap();
        // Out-of-range knobs surface as typed config errors, not clamps.
        let r = run(&parse(&toks(
            "simulate --grid 2x1x1 --kind random --dims 8x8x8 --ranks 4x4x4 \
             --svd randomized --oversample 0",
        ))
        .unwrap());
        assert!(r.is_err(), "zero oversampling must be rejected");
        std::fs::remove_dir_all(dir).ok();
    }

    /// A 2x1x1 grid over 40x6x5 leaves the later modes' blocks 2 and 1
    /// rows high: the QR local LQ is predicted over each rank's own stripe,
    /// so the conformance check holds at 1e-9 on the uneven split too.
    #[test]
    fn uneven_split_passes_a_tight_model_check() {
        cli("simulate --kind random --dims 40x6x5 --ranks 3x3x3 --order forward --grid 2x1x1 \
             --model-check --model-tol 1e-9"
            .into())
        .unwrap();
    }

    #[test]
    fn simulate_eight_ranks_emits_chrome_trace_with_phase_spans() {
        let dir = tmpdir("sim8");
        let trace = dir.join("sim.trace.json").display().to_string();
        let timeline = dir.join("sim.timeline.txt").display().to_string();
        run(&parse(&toks(&format!(
            "simulate --grid 2x2x2 --kind random --dims 16x16x16 --ranks 4x4x4 \
             --method qr --trace {trace} --timeline {timeline} --validate"
        )))
        .unwrap())
        .unwrap();
        let json = std::fs::read_to_string(&trace).unwrap();
        // Perfetto-loadable: complete spans plus per-rank thread metadata.
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        for phase in ["LQ", "SVD", "TTM", "Redistribute"] {
            assert!(json.contains(&format!("\"name\":\"{phase}")), "missing {phase} span");
        }
        let txt = std::fs::read_to_string(&timeline).unwrap();
        assert!(txt.contains("rank 7"), "timeline should cover all 8 ranks");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_gram_method_traces_gram_phase() {
        let dir = tmpdir("simgram");
        let trace = dir.join("gram.trace.json").display().to_string();
        run(&parse(&toks(&format!(
            "simulate --grid 1x2x2 --kind random --dims 12x12x12 --tol 1e-2 \
             --method gram --trace {trace}"
        )))
        .unwrap())
        .unwrap();
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.contains("\"name\":\"Gram"), "missing Gram span");
        assert!(json.contains("\"name\":\"EVD"), "missing EVD span");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_accepts_thread_topology_flags() {
        for spec in ["1", "2", "auto"] {
            run(&parse(&toks(&format!(
                "simulate --grid 2x1x1 --kind random --dims 8x8x8 --ranks 2x2x2 --threads {spec}"
            )))
            .unwrap())
            .unwrap();
        }
    }

    #[test]
    fn simulate_rejects_bad_threads_value() {
        for spec in ["0", "-1", "many"] {
            let msg = run(&parse(&toks(&format!(
                "simulate --grid 2x1x1 --kind random --dims 8x8x8 --ranks 2x2x2 --threads {spec}"
            )))
            .unwrap())
            .unwrap_err();
            assert!(msg.contains("--threads"), "{msg}");
        }
    }

    #[test]
    fn simulate_rejects_grid_tensor_rank_mismatch() {
        let r = run(&parse(&toks(
            "simulate --grid 2x2 --kind random --dims 8x8x8 --ranks 2x2x2",
        ))
        .unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn simulate_injected_crash_fails_naming_the_rank() {
        let msg = run(&parse(&toks(
            "simulate --grid 2x1x1 --kind random --dims 8x8x8 --ranks 2x2x2 \
             --inject crash:rank=1,op=5 --watchdog-ms 5000",
        ))
        .unwrap())
        .unwrap_err();
        assert!(msg.contains("rank 1 crashed"), "error should name the crashed rank: {msg}");
    }

    #[test]
    fn simulate_rejects_bad_inject_spec_and_lone_resume() {
        let msg = run(&parse(&toks(
            "simulate --grid 2x1x1 --kind random --dims 8x8x8 --inject explode:rank=1",
        ))
        .unwrap())
        .unwrap_err();
        assert!(msg.contains("--inject"), "{msg}");
        let msg = run(&parse(&toks(
            "simulate --grid 2x1x1 --kind random --dims 8x8x8 --resume",
        ))
        .unwrap())
        .unwrap_err();
        assert!(msg.contains("--checkpoint-dir"), "{msg}");
    }

    #[test]
    fn simulate_crash_checkpoint_resume_cycle() {
        let dir = tmpdir("ckpt_cycle");
        let ck = dir.display().to_string();
        // Crash partway through a checkpointed run...
        let r = run(&parse(&toks(&format!(
            "simulate --grid 2x1x1 --kind random --dims 8x8x8 --ranks 2x2x2 \
             --checkpoint-dir {ck} --inject crash:rank=1,op=16 --watchdog-ms 5000"
        )))
        .unwrap());
        assert!(r.is_err(), "injected crash should fail the simulation");
        // ...then restart from the last committed mode, no injection this time.
        run(&parse(&toks(&format!(
            "simulate --grid 2x1x1 --kind random --dims 8x8x8 --ranks 2x2x2 \
             --checkpoint-dir {ck} --resume"
        )))
        .unwrap())
        .unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_resume_model_check_skips_checkpointed_modes() {
        let dir = tmpdir("ckpt_modelcheck");
        let ck = dir.display().to_string();
        let metrics = dir.join("m.json").display().to_string();
        let r = run(&parse(&toks(&format!(
            "simulate --grid 2x2x2 --kind random --dims 16x16x16 --ranks 4x4x4 \
             --checkpoint-dir {ck} --inject crash:rank=3,op=40 --watchdog-ms 5000"
        )))
        .unwrap());
        assert!(r.is_err(), "injected crash should fail the simulation");
        // The resumed run restores the committed modes from disk; the
        // conformance check must only judge the modes it re-executed.
        run(&parse(&toks(&format!(
            "simulate --grid 2x2x2 --kind random --dims 16x16x16 --ranks 4x4x4 \
             --checkpoint-dir {ck} --resume --metrics {metrics} --model-check"
        )))
        .unwrap())
        .unwrap();
        let doc = std::fs::read_to_string(&metrics).unwrap();
        assert!(doc.contains("\"pass\":true"), "{doc}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_metrics_and_model_check_pass_on_even_grid() {
        let dir = tmpdir("simmetrics");
        let metrics = dir.join("m.json").display().to_string();
        run(&parse(&toks(&format!(
            "simulate --grid 2x2x2 --kind random --dims 16x16x16 --ranks 4x4x4 \
             --method qr --metrics {metrics} --model-check"
        )))
        .unwrap())
        .unwrap();
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"schema\":\"tucker-metrics-v1\""));
        assert!(json.contains("\"ranks\":8"));
        for key in [
            "comm/alltoallv/bytes",
            "comm/p2p/msgs",
            "kernel/lq/flops",
            "mem/peak_live_payload_bytes",
            "sthosvd/mode0/retained_rank",
            "\"model_check\":{",
        ] {
            assert!(json.contains(key), "metrics JSON missing {key}:\n{json}");
        }
        // Even 2x2x2 grid on 16^3: the analytic counts are exact, so the
        // embedded conformance report must pass.
        assert!(json.contains("\"pass\":true"), "{json}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_model_check_failure_is_a_cli_error() {
        // An absurd tolerance cannot fail, but a tolerance of zero must fail
        // on any run with nonzero rounding in the f64 flop accumulators...
        // which an even grid doesn't have. Force a failure deterministically
        // instead: check a Gram run against the Qr model by lying about the
        // method via --model-tol on a *negative* tolerance, which no
        // deviation can satisfy.
        let r = run(&parse(&toks(
            "simulate --grid 2x1x1 --kind random --dims 8x8x8 --ranks 2x2x2 \
             --method gram --model-check --model-tol -1",
        ))
        .unwrap());
        let msg = r.unwrap_err();
        assert!(msg.contains("model conformance check failed"), "{msg}");
    }

    #[test]
    fn order_auto_compresses_and_roundtrips() {
        let dir = tmpdir("orderauto");
        let tns = dir.join("x.tns").display().to_string();
        let tkr = dir.join("x.tkr").display().to_string();
        run(&parse(&toks(&format!(
            "generate {tns} --kind random --dims 20x6x10 --seed 3"
        )))
        .unwrap())
        .unwrap();
        // Auto ordering requires known ranks...
        let msg = run(&parse(&toks(&format!(
            "compress {tns} {tkr} --tol 1e-3 --order auto"
        )))
        .unwrap())
        .unwrap_err();
        assert!(msg.contains("--ranks"), "{msg}");
        // ...and with them produces a working store.
        run(&parse(&toks(&format!(
            "compress {tns} {tkr} --ranks 4x2x3 --order auto"
        )))
        .unwrap())
        .unwrap();
        let tk: TuckerTensor<f64> = read_tucker(&tkr).unwrap();
        assert_eq!(tk.ranks(), vec![4, 2, 3]);
        // The optimized order also drives the simulated path.
        run(&parse(&toks(&format!(
            "simulate {tns} --grid 2x1x1 --ranks 4x2x3 --order auto"
        )))
        .unwrap())
        .unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    /// A tall fixed-rank shape: mode 0's 40 × 30 unfolding is factored
    /// thin, with the allgather and the thin SVD charged. Under the cost-
    /// model order every mode splits evenly and the check holds at 1e-9;
    /// in forward order the thin mode is exact and the later modes' uneven
    /// 3-row splits stay within the default tolerance.
    #[test]
    fn simulate_model_check_is_exact_on_a_thin_mode() {
        let dir = tmpdir("thinmodel");
        let tns = dir.join("t.tns").display().to_string();
        run(&parse(&toks(&format!("generate {tns} --kind random --dims 40x6x5 --seed 3"))).unwrap())
            .unwrap();
        for grid in ["1x1x1", "2x1x1"] {
            for order in ["auto --model-tol 1e-9", "forward"] {
                let cmd =
                    format!("simulate {tns} --grid {grid} --ranks 3x3x3 --model-check --order {order}");
                run(&parse(&toks(&cmd)).unwrap()).unwrap_or_else(|e| panic!("{cmd}: {e}"));
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn query_serves_verified_slabs_from_a_store() {
        let dir = tmpdir("querycli");
        let tns = dir.join("q.tns").display().to_string();
        let tkr = dir.join("q.tkr").display().to_string();
        let out = dir.join("slab.tns").display().to_string();
        run(&parse(&toks(&format!(
            "generate {tns} --kind random --dims 16x12x10 --seed 11"
        )))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&format!("compress {tns} {tkr} --ranks 5x4x3"))).unwrap()).unwrap();
        // Several shapes, each verified bit-exact against reconstruct().
        for spec in ["3,4,5", "*,4,5", "*,4,*", "0:16:3,2:8,*", "2:9,1:5,3:8"] {
            run(&parse(&[
                "query".into(),
                tkr.clone(),
                "--slab".into(),
                spec.into(),
                "--verify".into(),
            ])
            .unwrap())
            .unwrap();
        }
        // Cache off and cost order also pass verification.
        run(&parse(&[
            "query".into(),
            tkr.clone(),
            "--slab".into(),
            "0:8,*,2".into(),
            "--verify".into(),
            "--no-cache".into(),
        ])
        .unwrap())
        .unwrap();
        run(&parse(&[
            "query".into(),
            tkr.clone(),
            "--slab".into(),
            "0:8,*,2".into(),
            "--verify".into(),
            "--order-policy".into(),
            "cost".into(),
        ])
        .unwrap())
        .unwrap();
        // --out writes a loadable tensor of the right shape.
        run(&parse(&[
            "query".into(),
            tkr.clone(),
            "--slab".into(),
            "1:5,2,*".into(),
            "--out".into(),
            out.clone(),
        ])
        .unwrap())
        .unwrap();
        let slab: Tensor<f64> = read_tensor(&out).unwrap();
        assert_eq!(slab.dims(), &[4, 1, 10]);
        // Bad specs are CLI errors, not panics.
        for bad in ["1:0,2,3", "9999,0,0", "1,2"] {
            assert!(run(&parse(&[
                "query".into(),
                tkr.clone(),
                "--slab".into(),
                bad.into(),
            ])
            .unwrap())
            .is_err());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn error_cmd_accepts_compressed_store_blockwise() {
        let dir = tmpdir("errstore");
        let tns = dir.join("e.tns").display().to_string();
        let tkr = dir.join("e.tkr").display().to_string();
        let rec = dir.join("e_rec.tns").display().to_string();
        run(&parse(&toks(&format!(
            "generate {tns} --kind hcci --dims 10x10x8x10 --seed 5"
        )))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&format!("compress {tns} {tkr} --tol 1e-3"))).unwrap()).unwrap();
        // Blockwise error against the store must equal the materialized path.
        run(&parse(&toks(&format!("error {tns} {tkr}"))).unwrap()).unwrap();
        run(&parse(&toks(&format!("decompress {tkr} {rec}"))).unwrap()).unwrap();
        run(&parse(&toks(&format!("error {tns} {rec}"))).unwrap()).unwrap();
        let x: Tensor<f64> = read_tensor(&tns).unwrap();
        let y: Tensor<f64> = read_tensor(&rec).unwrap();
        assert!(x.relative_error_to(&y) <= 1e-3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_bench_quick_writes_json() {
        let dir = tmpdir("servebench");
        let out = dir.join("b.json").display().to_string();
        run(&parse(&toks(&format!("serve-bench --quick --out {out}"))).unwrap()).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\":\"serve\""));
        assert!(json.contains("\"speedup\":"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_bench_shards_runs_failover_and_accepts_inject() {
        let dir = tmpdir("failoverbench");
        let out = dir.join("f.json").display().to_string();
        run(&parse(&toks(&format!(
            "serve-bench --quick --shards 2 --replicas 2 --inject crash:rank=1,op=2 --out {out}"
        )))
        .unwrap())
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\":\"failover\""), "{json}");
        assert!(json.contains("\"failover_lost\":0"), "{json}");
        assert!(json.contains("\"failover_crc_identical\":true"), "{json}");
        assert!(json.contains("\"dead_ranks\":[1]"), "{json}");
        // Bad inject specs and degenerate layouts are CLI errors, not panics.
        assert!(run(&parse(&toks("serve-bench --quick --shards 0")).unwrap()).is_err());
        assert!(run(
            &parse(&toks("serve-bench --quick --shards 2 --inject flood:rank=0,op=1")).unwrap()
        )
        .is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_bench_trace_exports_observability_artifacts_deterministically() {
        let dir = tmpdir("servetrace");
        let d1 = dir.join("run1").display().to_string();
        let d2 = dir.join("run2").display().to_string();
        run(&parse(&toks(&format!("serve-bench --quick --trace {d1}"))).unwrap()).unwrap();

        // One merged Chrome-trace file telling the failover story: the
        // default plan crashes rank 1, so some query must show a failed
        // attempt, a backoff, and a successful retry on the other replica.
        let trace = std::fs::read_to_string(format!("{d1}/trace.json")).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains(" crash\",\"ph\":\"X\""), "crashed attempt span missing");
        assert!(trace.contains("/backoff#0\""), "backoff span missing");
        assert!(trace.contains(" ok\",\"ph\":\"X\""), "successful retry span missing");
        assert!(trace.contains("fault: "), "fault instant missing");

        let log = std::fs::read_to_string(format!("{d1}/serve.log")).unwrap();
        assert!(log.lines().all(|l| l.starts_with("{\"schema\":\"serve-log-v1\"")));
        assert!(log.contains("\"event\":\"failover\""), "failover must be logged");
        assert!(log.contains("\"event\":\"complete\""));

        let slo = std::fs::read_to_string(format!("{d1}/slo.json")).unwrap();
        assert!(slo.starts_with("{\"schema\":\"tucker-slo-v1\""));
        let cp = std::fs::read_to_string(format!("{d1}/critical_path.txt")).unwrap();
        assert!(cp.contains("per-query critical path"), "{cp}");
        assert!(cp.contains("= request #"), "legend maps pseudo-ranks to requests");

        // Byte-identical across runs: every artifact is virtual-time pure.
        run(&parse(&toks(&format!("serve-bench --quick --trace {d2}"))).unwrap()).unwrap();
        for f in ["trace.json", "serve.log", "slo.json", "critical_path.txt"] {
            let a = std::fs::read(format!("{d1}/{f}")).unwrap();
            let b = std::fs::read(format!("{d2}/{f}")).unwrap();
            assert_eq!(a, b, "{f} must be byte-identical across runs");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn slo_report_passes_healthy_and_fails_naming_breached_objectives() {
        let dir = tmpdir("sloreport");
        let out = dir.join("slo.json").display().to_string();
        // Default plan: one crashed replica, zero lost queries — within SLO.
        run(&parse(&toks("slo-report --quick")).unwrap()).unwrap();
        // Kill both replicas of shard 0 up front: every query touching
        // shard 0 fails typed, blowing the 0.1% error budget.
        let msg = run(&parse(&toks(&format!(
            "slo-report --quick --inject crash:rank=0,op=0;crash:rank=1,op=0 --json --out {out}"
        )))
        .unwrap())
        .unwrap_err();
        assert!(msg.contains("SLO breach"), "{msg}");
        assert!(msg.contains("error_rate"), "breach must name the objective: {msg}");
        let doc = std::fs::read_to_string(&out).unwrap();
        assert!(doc.starts_with("{\"schema\":\"tucker-slo-v1\",\"breached\":true"), "{doc}");
        assert!(doc.contains("\"name\":\"error_rate\""), "{doc}");
        // A loosened budget accepts the same run.
        run(&parse(&toks(
            "slo-report --quick --inject crash:rank=0,op=0;crash:rank=1,op=0 \
             --slo-error-rate 0.9",
        ))
        .unwrap())
        .unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shard_cmd_splits_a_store_with_manifest() {
        let dir = tmpdir("shardcmd");
        let tns = dir.join("s.tns").display().to_string();
        let tkr = dir.join("s.tkr").display().to_string();
        let shards_dir = dir.join("shards").display().to_string();
        run(&parse(&toks(&format!(
            "generate {tns} --kind random --dims 20x12x10 --seed 11"
        )))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&format!("compress {tns} {tkr} --ranks 5x4x3"))).unwrap()).unwrap();
        run(&parse(&toks(&format!("shard {tkr} {shards_dir} --shards 3"))).unwrap()).unwrap();
        let (manifest, parts) =
            tucker_core::read_shards::<f64>(&shards_dir).expect("shards read back");
        assert_eq!(manifest.shards, 3);
        assert_eq!(manifest.dims, vec![20, 12, 10]);
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts.iter().map(|p| p.original_dims()[0]).sum::<usize>(),
            20,
            "shards partition mode 0"
        );
        // Degenerate shard counts are CLI errors.
        assert!(run(&parse(&toks(&format!("shard {tkr} {shards_dir} --shards 0"))).unwrap())
            .is_err());
        assert!(run(&parse(&toks(&format!("shard {tkr} {shards_dir} --shards 21"))).unwrap())
            .is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_subcommand() {
        assert!(run(&parse(&toks("frobnicate x")).unwrap()).is_err());
    }

    #[test]
    fn dimension_mismatch_in_error_cmd() {
        let dir = tmpdir("dimension_mismatch_in_error_cmd");
        let a = dir.join("a1.tns").display().to_string();
        let b = dir.join("b1.tns").display().to_string();
        run(&parse(&toks(&format!("generate {a} --kind random --dims 4x4"))).unwrap()).unwrap();
        run(&parse(&toks(&format!("generate {b} --kind random --dims 4x5"))).unwrap()).unwrap();
        assert!(run(&parse(&toks(&format!("error {a} {b}"))).unwrap()).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
