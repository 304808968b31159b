//! `serve_zipf` and `serve_cold`: a closed loop of one client calling
//! `Engine::execute` on a store opened from disk. The same store and query
//! mix twice: Zipf block popularity with a cache that holds a quarter of the
//! block partials, and uniform popularity with no cache at all.
//!
//! There is no wall-clock server loop in the repository (`Engine::run` and
//! `Router::run` simulate virtual time), so these report service latency.

use super::{over_budget, time_reps, timed_setup, write_trace, RunOpts};
use crate::gen::{digest, Fingerprint, SplitMix64, Zipf};
use crate::host;
use crate::report::Outcome;
use crate::stats::{median, median_or_zero, percentile};
use crate::trace::Recorder;
use std::collections::HashMap;
use std::time::Instant;
use tucker_core::{write_tucker, TuckerTensor};
use tucker_linalg::Matrix;
use tucker_mpisim::FaultPlan;
use tucker_serve::{
    plan, tensor_crc, Engine, EngineConfig, ModeSel, OrderPolicy, Query, Request, Router,
    TierRunConfig, TuckerStore,
};
use tucker_tensor::{hyperslab, Tensor};

/// Relative size of the noise by which the source tensor differs from the
/// stored model, and the tolerance the served answers are held to.
const NOISE: f64 = 1e-3;
const TOL: f64 = 2e-3;

/// Rows of one cache block of mode 0 (`EngineConfig::default().block`).
const BLOCK: usize = 32;
/// Blocks a big hyperslab spans.
const BIG_BLOCKS: usize = 4;
/// Queries between two samples of the host's pace (about 15 ms of work).
const PACE_EVERY: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Element,
    Fiber,
    Slab,
    BigSlab,
}

/// Shares of the query mix. The one slow class holds the top tenth, so the
/// 95th percentile is that class's median and not a boundary between classes.
pub const MIX: [(Class, f64); 4] = [
    (Class::Element, 0.3),
    (Class::Fiber, 0.3),
    (Class::Slab, 0.3),
    (Class::BigSlab, 0.1),
];

struct Shape {
    dims: [usize; 3],
    ranks: [usize; 3],
    queries: usize,
    warm: usize,
}

fn shape(opts: &RunOpts) -> Shape {
    Shape {
        dims: [
            opts.scaled(1024, 256),
            opts.scaled(96, 24),
            opts.scaled(96, 24),
        ],
        ranks: [opts.scaled(32, 8), opts.scaled(24, 6), opts.scaled(24, 6)],
        queries: if opts.smoke { 600 } else { 12_000 },
        warm: if opts.smoke { 50 } else { 500 },
    }
}

/// The seeded query trace with each query's class.
pub fn query_trace(dims: &[usize; 3], n: usize, zipf: bool, seed: u64) -> Vec<(Query, Class)> {
    let nblocks = dims[0].div_ceil(BLOCK);
    let mut rng = SplitMix64::stream(seed, "serve queries");
    // Which block is popular is itself seeded, not always block 0.
    let by_popularity = SplitMix64::stream(seed, "serve blocks").permutation(nblocks);
    let popularity = Zipf::new(nblocks, 1.0);
    (0..n)
        .map(|_| {
            let block = if zipf {
                by_popularity[popularity.sample(&mut rng)]
            } else {
                rng.below(nblocks)
            };
            let u = rng.unit();
            let mut acc = 0.0;
            let class = MIX
                .iter()
                .find(|(_, share)| {
                    acc += share;
                    u < acc
                })
                .map_or(Class::BigSlab, |m| m.0);
            let row = (block * BLOCK + rng.below(BLOCK)).min(dims[0] - 1);
            let (i1, i2) = (rng.below(dims[1]), rng.below(dims[2]));
            let sel = match class {
                Class::Element => vec![ModeSel::Index(row), ModeSel::Index(i1), ModeSel::Index(i2)],
                Class::Fiber if rng.unit() < 0.5 => {
                    vec![ModeSel::Index(row), ModeSel::All, ModeSel::Index(i2)]
                }
                Class::Fiber => vec![ModeSel::Index(row), ModeSel::Index(i1), ModeSel::All],
                Class::Slab => vec![ModeSel::Index(row), ModeSel::All, ModeSel::All],
                Class::BigSlab => {
                    let first = block.min(nblocks.saturating_sub(BIG_BLOCKS));
                    let rows =
                        ModeSel::Range(first * BLOCK, ((first + BIG_BLOCKS) * BLOCK).min(dims[0]));
                    let third = |d: usize, k: usize| ModeSel::Range(k * (d / 3), (k + 1) * (d / 3));
                    vec![
                        rows,
                        third(dims[1], rng.below(3)),
                        third(dims[2], rng.below(3)),
                    ]
                }
            };
            (Query { sel }, class)
        })
        .collect()
}

/// Everything set-up produces.
struct Setup {
    store_path: std::path::PathBuf,
    input_bytes: usize,
    error_over_tol: f64,
    trace: Vec<(Query, Class)>,
    /// Digest each query's answer must have: the same hyperslab of the full
    /// reconstruction, the `OrderPolicy::Exact` contract.
    want: Vec<u64>,
    /// The full reconstruction those hyperslabs are cut from.
    recon: Tensor<f64>,
}

fn setup(opts: &RunOpts, zipf: bool, fp: &mut Fingerprint) -> Result<Setup, String> {
    let shape = shape(opts);
    let mut rng = SplitMix64::stream(opts.seed, "serve store");
    let tk = TuckerTensor {
        core: Tensor::from_fn(&shape.ranks, |_| rng.centered()),
        factors: shape
            .dims
            .iter()
            .zip(&shape.ranks)
            .map(|(&d, &r)| Matrix::from_fn(d, r, |_, _| rng.centered()))
            .collect(),
    };
    fp.add(tk.core.data());
    for u in &tk.factors {
        fp.add(u.data());
    }
    let store_path = opts.file("store.tkr");
    write_tucker(&store_path, &tk).map_err(|e| format!("write store: {e}"))?;
    // The source tensor the store stands for is the model plus noise of
    // relative size NOISE; only its distance from the model is needed.
    let recon = tk.reconstruct();
    let rms = recon.norm() / (recon.len() as f64).sqrt();
    // A centered uniform draw has variance 1/12.
    let scale = NOISE * rms * 12f64.sqrt();
    let (mut noise_sq, mut source_sq) = (0.0, 0.0);
    for &v in recon.data() {
        let e = scale * rng.centered();
        noise_sq += e * e;
        source_sq += (v + e) * (v + e);
    }
    let error_over_tol = (noise_sq / source_sq).sqrt() / TOL;
    let trace = query_trace(&shape.dims, shape.queries + shape.warm, zipf, opts.seed);
    let mut by_sel: HashMap<Vec<(usize, usize, usize)>, u64> = HashMap::new();
    let want = trace
        .iter()
        .map(|(q, _)| {
            let sel = q.normalized(&shape.dims);
            fp.add(
                &sel.iter()
                    .flat_map(|&(a, b, c)| [a as u64, b as u64, c as u64])
                    .collect::<Vec<u64>>(),
            );
            *by_sel
                .entry(sel.clone())
                .or_insert_with(|| digest(hyperslab(&recon, &sel).data()))
        })
        .collect();
    Ok(Setup {
        store_path,
        input_bytes: recon.len() * 8,
        error_over_tol,
        trace,
        want,
        recon,
    })
}

fn engine_config(opts: &RunOpts, zipf: bool) -> EngineConfig {
    let s = shape(opts);
    let nblocks = s.dims[0].div_ceil(BLOCK);
    // Partials the trace can ask for: one per block, and one per run of
    // BIG_BLOCKS blocks a big hyperslab can start at. The cache holds a
    // quarter of their bytes (measured hit rate about 0.75), or nothing.
    let block_equivalents = nblocks + (nblocks.saturating_sub(BIG_BLOCKS) + 1) * BIG_BLOCKS;
    let working_set = block_equivalents * BLOCK * s.ranks[1] * s.ranks[2] * 8;
    EngineConfig {
        cache_budget: if zipf { working_set / 4 } else { 0 },
        block: BLOCK,
        ..EngineConfig::default()
    }
}

/// A fresh engine on the store, after the untimed warm-up queries.
fn warm_engine(opts: &RunOpts, zipf: bool, s: &Setup) -> Result<Engine<f64>, String> {
    let store = TuckerStore::<f64>::open(&s.store_path).map_err(|e| format!("open store: {e}"))?;
    let mut engine = Engine::new(store, engine_config(opts, zipf));
    for (q, _) in &s.trace[..shape(opts).warm] {
        engine
            .execute(q)
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(engine)
}

pub fn run(opts: &RunOpts, zipf: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut fp = Fingerprint::default();
    let (s, setup_s) = timed_setup(opts, || {
        fp = Fingerprint::default();
        setup(opts, zipf, &mut fp)
    })?;
    out.set("setup_s", setup_s);
    out.exact
        .insert("fingerprint".into(), format!("{:016x}", fp.value()));
    let warm = shape(opts).warm;
    let (timed, want) = (&s.trace[warm..], &s.want[warm..]);
    if opts.trace {
        return traced(opts, zipf, out, &s);
    }

    let mut engine = warm_engine(opts, zipf, &s)?;
    let before = engine.cache_stats();
    // Whole passes over the trace until the time is up; at least one.
    let budget = if opts.smoke { 0.0 } else { opts.seconds };
    let start = Instant::now();
    let mut secs = Vec::with_capacity(4 * timed.len());
    let mut wrong = 0;
    'passes: loop {
        for ((q, _), &w) in timed.iter().zip(want) {
            if secs.len() % PACE_EVERY == 0 {
                host::pace_sample();
            }
            let t = Instant::now();
            let r = engine.execute(q);
            secs.push(t.elapsed().as_secs_f64());
            wrong += u64::from(!r.is_ok_and(|r| digest(r.tensor.data()) == w));
            if secs.len() >= timed.len() && start.elapsed().as_secs_f64() >= budget {
                break 'passes;
            }
        }
    }
    out.check(
        secs.len() as u64,
        wrong,
        "every answer has the bits of the reconstruction's hyperslab",
    );
    let sum = out.timing("query (Engine::execute)", &secs, 1e3, "ms");
    out.set("op_p50_ms", sum.median * 1e3);
    // Thousands of samples: the 95th percentile, which the mix puts at the
    // median of the one slow class.
    out.set("op_tail_ms", percentile(&secs, 0.95) * 1e3);
    out.set("ops_per_s", secs.len() as f64 / secs.iter().sum::<f64>());
    let after = engine.cache_stats();
    let lookups = (after.hits + after.misses - before.hits - before.misses) as f64;
    let hit_rate = (after.hits - before.hits) as f64 / lookups;
    out.notes.push(format!(
        "cache hit rate {hit_rate:.4} over {lookups} lookups"
    ));
    if zipf {
        // The workload is meant to be cache-dominated but not cache-only.
        out.check(
            1,
            u64::from(!(0.5..=0.9).contains(&hit_rate)),
            "cache hit rate inside [0.5, 0.9]",
        );
    }
    out.set("error_over_tol", s.error_over_tol);
    out.check(
        1,
        u64::from(over_budget(s.error_over_tol)),
        "served model within tolerance of the source tensor",
    );
    let file_bytes = std::fs::metadata(&s.store_path)
        .map_err(|e| format!("stat store: {e}"))?
        .len();
    out.set(
        "compression_ratio",
        s.input_bytes as f64 / file_bytes as f64,
    );
    out.set("peak_rss_mb", host::peak_rss_mb()?);
    Ok(out)
}

fn traced(opts: &RunOpts, zipf: bool, mut out: Outcome, s: &Setup) -> Result<Outcome, String> {
    let sh = shape(opts);
    let (timed, want) = (&s.trace[sh.warm..], &s.want[sh.warm..]);

    // The trace twice, on two engines of their own: once plain, once with a
    // span per query, in alternating chunks so that drift of the host hits
    // both sides alike.
    struct Pass {
        engine: Engine<f64>,
        rec: Recorder,
        secs: Vec<f64>,
        hits: Vec<bool>,
        modeled: f64,
        bytes: f64,
        wrong: u64,
    }
    let epoch = Instant::now();
    let new_pass = |on: bool| -> Result<Pass, String> {
        Ok(Pass {
            engine: warm_engine(opts, zipf, s)?,
            rec: Recorder::new(on, epoch, 0),
            secs: Vec::with_capacity(timed.len()),
            hits: Vec::with_capacity(timed.len()),
            modeled: 0.0,
            bytes: 0.0,
            wrong: 0,
        })
    };
    let (mut plain, mut spanned) = (new_pass(false)?, new_pass(true)?);
    const CHUNK: usize = 500;
    for chunk in 0..timed.len().div_ceil(CHUNK) {
        for p in [&mut plain, &mut spanned] {
            for i in chunk * CHUNK..((chunk + 1) * CHUNK).min(timed.len()) {
                if i % PACE_EVERY == 0 {
                    host::pace_sample();
                }
                p.rec.set_op(i as u64);
                let before = p.engine.cache_stats();
                let t = Instant::now();
                let r = p
                    .rec
                    .span("serve.execute", |_| p.engine.execute(&timed[i].0))
                    .map_err(|e| format!("query {i}: {e}"))?;
                p.secs.push(t.elapsed().as_secs_f64());
                p.hits.push(p.engine.cache_stats().misses == before.misses);
                p.modeled += r.cost.seconds;
                p.bytes += (r.tensor.len() * 8) as f64;
                p.wrong += u64::from(digest(r.tensor.data()) != want[i]);
            }
        }
    }
    let wrong = plain.wrong + spanned.wrong;
    out.check(
        2 * timed.len() as u64,
        wrong,
        "every answer has the bits of the reconstruction's hyperslab",
    );
    out.set("bench.replay_bit_identical", f64::from(wrong == 0));
    let (off_total, on_total): (f64, f64) = (plain.secs.iter().sum(), spanned.secs.iter().sum());
    out.set("bench.replay_over_e2e", on_total / off_total);
    out.set("bench.trace_overhead_frac", on_total / off_total - 1.0);
    let Pass {
        mut engine,
        rec,
        secs,
        hits,
        modeled,
        bytes,
        ..
    } = spanned;
    out.timing("query (traced pass)", &secs, 1e3, "ms");
    write_trace(opts, &mut out, &rec.into_spans(), "serve.execute")?;

    let stats = engine.cache_stats();
    let hit_n = hits.iter().filter(|&&h| h).count();
    let hit_rate = if zipf {
        hit_n as f64 / hits.len() as f64
    } else {
        0.0
    };
    out.set("serve.cache_hit_rate", hit_rate);
    out.exact
        .insert("serve.cache_hit_rate".into(), format!("{hit_rate}"));
    out.notes.push(format!(
        "cache totals incl. warm-up: {} hits, {} misses, {} evictions",
        stats.hits, stats.misses, stats.evictions
    ));
    let of = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        (0..secs.len())
            .filter(|&i| keep(i))
            .map(|i| secs[i])
            .collect()
    };
    if zipf {
        out.set("serve.hit_p50_us", median_or_zero(&of(&|i| hits[i])) * 1e6);
    }
    out.set(
        "serve.miss_p50_us",
        median_or_zero(&of(&|i| !hits[i] || !zipf)) * 1e6,
    );
    for (name, class, scale) in [
        ("serve.element_p50_us", Class::Element, 1e6),
        ("serve.fiber_p50_us", Class::Fiber, 1e6),
        ("serve.slab_p50_us", Class::Slab, 1e6),
        ("serve.bigslab_p50_ms", Class::BigSlab, 1e3),
    ] {
        out.set(name, median_or_zero(&of(&|i| timed[i].1 == class)) * scale);
    }
    out.set("serve.out_mbps", bytes / on_total / 1e6);
    out.set("serve.modeled_over_measured", modeled / on_total);

    // The layer's parts on their own.
    let ranks = sh.ranks.to_vec();
    let counts: Vec<Vec<usize>> = timed
        .iter()
        .take(2000)
        .map(|(q, _)| q.out_dims(&sh.dims))
        .collect();
    let t = Instant::now();
    for c in &counts {
        std::hint::black_box(plan(&ranks, c, OrderPolicy::Exact));
    }
    out.set(
        "serve.plan_us",
        t.elapsed().as_secs_f64() / counts.len() as f64 * 1e6,
    );
    let store = engine.store();
    out.set(
        "serve.contract_mode0_us",
        median(&time_reps(opts.reps(200), || {
            store.contract_mode0((0, 1, BLOCK))
        })) * 1e6,
    );
    out.set(
        "serve.store_resident_mb",
        store.resident_bytes() as f64 / 1e6,
    );
    let open = || TuckerStore::<f64>::open(&s.store_path).expect("store opened in set-up");
    out.set(
        "serve.store_open_ms",
        median(&time_reps(opts.reps(10), open)) * 1e3,
    );

    // Swap and the first, cold, answer after it.
    let probe = super::probe_query(&sh.dims);
    let (mut swap_s, mut first_s) = (Vec::new(), Vec::new());
    for _ in 0..opts.reps(20) {
        let fresh = open();
        let t = Instant::now();
        engine.swap_store(fresh);
        swap_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        engine
            .execute(&probe)
            .map_err(|e| format!("query after swap: {e}"))?;
        first_s.push(t.elapsed().as_secs_f64());
    }
    out.set("serve.swap_us", median(&swap_s) * 1e6);
    out.set("serve.first_query_us", median(&first_s) * 1e6);

    // Batches of eight through execute_batch, on a fresh warm engine, over
    // the first half of the trace.
    let mut engine = warm_engine(opts, zipf, s)?;
    let queries: Vec<Query> = timed[..timed.len() / 2]
        .iter()
        .map(|(q, _)| q.clone())
        .collect();
    let (mut batch_secs, mut wrong) = (0.0, 0);
    for (qs, ws) in queries.chunks(8).zip(want.chunks(8)) {
        let t = Instant::now();
        let r = engine
            .execute_batch(qs)
            .map_err(|e| format!("batch: {e}"))?;
        batch_secs += t.elapsed().as_secs_f64();
        wrong += r
            .outputs
            .iter()
            .zip(ws)
            .filter(|(o, &w)| digest(o.tensor.data()) != w)
            .count() as u64;
    }
    out.check(
        queries.len() as u64,
        wrong,
        "batched answers have the bits of the reconstruction's hyperslab",
    );
    out.set("serve.batch8_qps", queries.len() as f64 / batch_secs);

    // The same queries through a 2-shard, 1-replica tier. Router::run is a
    // virtual-time simulation; only its wall time is taken, with arrivals a
    // virtual second apart so that nothing queues.
    let prefix = queries.len().min(if opts.smoke { 100 } else { 1000 });
    let requests: Vec<Request> = queries[..prefix]
        .iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as f64, q.clone()))
        .collect();
    let mut router = Router::new(
        engine.store().tucker(),
        2,
        1,
        engine_config(opts, zipf),
        &FaultPlan::none(),
    );
    let t = Instant::now();
    let report = router.run(&requests, &TierRunConfig::default());
    let router_secs = t.elapsed().as_secs_f64();
    let mut by_sel: HashMap<Vec<(usize, usize, usize)>, u32> = HashMap::new();
    let wrong = report
        .completions
        .iter()
        .filter(|c| {
            let sel = queries[c.index].normalized(&sh.dims);
            c.crc
                != *by_sel
                    .entry(sel.clone())
                    .or_insert_with(|| tensor_crc(&hyperslab(&s.recon, &sel)))
        })
        .count()
        + (prefix - report.completions.len());
    out.check(
        prefix as u64,
        wrong as u64,
        "router answers have the CRC of the reconstruction's hyperslab",
    );
    out.set(
        "serve.router_us_per_query",
        router_secs / prefix as f64 * 1e6,
    );
    out.set(
        "serve.router_over_engine",
        router_secs / secs[..prefix].iter().sum::<f64>(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_oracle_accepts_the_engine_and_catches_a_wrong_expectation() {
        let opts = RunOpts::for_test("serve_zipf", "unit_serve");
        let dir = opts.out_dir.clone();
        std::fs::create_dir_all(&dir).unwrap();
        let s = setup(&opts, true, &mut Fingerprint::default()).unwrap();
        let mut engine = warm_engine(&opts, true, &s).unwrap();
        let warm = shape(&opts).warm;
        let mut classes = std::collections::HashSet::new();
        for ((q, class), &want) in s.trace[warm..].iter().zip(&s.want[warm..]) {
            let got = digest(engine.execute(q).unwrap().tensor.data());
            assert_eq!(got, want, "{q:?}");
            classes.insert(format!("{class:?}"));
        }
        assert_eq!(classes.len(), 4, "every class was served");
        // The expectation of another query is a wrong expectation of this one.
        let (a, b) = (&s.trace[warm], &s.trace[warm + 1]);
        assert_ne!(a.0, b.0);
        assert_ne!(
            digest(engine.execute(&a.0).unwrap().tensor.data()),
            s.want[warm + 1]
        );
        // So is the right answer with its last bit flipped.
        let mut t = engine.execute(&a.0).unwrap().tensor;
        let last = t.len() - 1;
        t.data_mut()[last] = f64::from_bits(t.data()[last].to_bits() ^ 1);
        assert_ne!(digest(t.data()), s.want[warm]);
        assert!(
            s.error_over_tol > 0.3 && s.error_over_tol < 0.7,
            "{}",
            s.error_over_tol
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_mix_is_deterministic_and_has_the_stated_shares() {
        let dims = [1024, 96, 96];
        let a = query_trace(&dims, 12_000, true, 7);
        let b = query_trace(&dims, 12_000, true, 7);
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 == y.1));
        let c = query_trace(&dims, 12_000, true, 8);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.0 != y.0),
            "another seed gives another trace"
        );
        for (class, share) in MIX {
            let got = a.iter().filter(|q| q.1 == class).count() as f64 / a.len() as f64;
            assert!((got - share).abs() <= 0.02, "{class:?}: {got} vs {share}");
        }
        for (q, class) in &a {
            assert!(q.validate(&dims).is_ok(), "{q:?}");
            if *class == Class::BigSlab {
                assert_eq!(q.out_dims(&dims), vec![BIG_BLOCKS * BLOCK, 32, 32]);
            }
        }
    }

    #[test]
    fn zipf_trace_concentrates_on_few_blocks_and_uniform_does_not() {
        let dims = [1024, 96, 96];
        let top_share = |zipf: bool| {
            let mut hist = [0usize; 32];
            for (q, class) in query_trace(&dims, 12_000, zipf, 7) {
                if class != Class::BigSlab {
                    hist[q.normalized(&dims)[0].0 / BLOCK] += 1;
                }
            }
            hist.sort_unstable();
            hist[24..].iter().sum::<usize>() as f64 / hist.iter().sum::<usize>() as f64
        };
        // Top 8 of 32 blocks: H(8)/H(32) = 0.67 under Zipf(1), 0.25 uniform.
        assert!((top_share(true) - 0.67).abs() < 0.03, "{}", top_share(true));
        assert!(
            (top_share(false) - 0.25).abs() < 0.03,
            "{}",
            top_share(false)
        );
    }
}
