//! `grid2_qr_f64`: the distributed ST-HOSVD on two simulated ranks, grid
//! 2×1×1×1, one kernel thread per rank. One sample is the slowest rank's
//! wall time between a barrier and `sthosvd_parallel` returning.

use super::compress::{config, hcci_input, TOL};
use super::{
    over_budget, set_mode_metrics, set_span_medians, store_and_measure, time_reps, timed_loop,
    timed_setup, write_trace, RunOpts, MODE_SPANS,
};
use crate::gen::Fingerprint;
use crate::host;
use crate::report::Outcome;
use crate::stats::{median, median_or_zero};
use crate::trace::{self, Recorder, Span};
use std::collections::BTreeMap;
use std::time::Instant;
use tucker_core::truncate::mode_threshold;
use tucker_core::{choose_rank, sthosvd, sthosvd_parallel, SthosvdConfig, TuckerTensor};
use tucker_dtensor::{
    parallel_tensor_lq, parallel_ttm, redistribute_to_columns, DistTensor, ProcessorGrid,
};
use tucker_linalg::svd_left;
use tucker_mpisim::{Comm, Ctx, Simulator, ThreadTopology};
use tucker_tensor::Tensor;

const RANKS: usize = 2;

fn grid_of(ranks: usize) -> ProcessorGrid {
    ProcessorGrid::new(&[ranks, 1, 1, 1])
}

fn scatter(x: &Tensor<f64>, ranks: usize) -> Vec<DistTensor<f64>> {
    (0..ranks)
        .map(|r| DistTensor::scatter_from(x, &grid_of(ranks), r))
        .collect()
}

fn simulator(ranks: usize, threads_per_rank: usize) -> Simulator {
    Simulator::new(ranks).with_threads(ThreadTopology::PerRank(threads_per_rank))
}

/// What one rank reports of one compress: its seconds, the ranks chosen, and
/// a digest of its factors and its block of the core.
type RankResult = Result<(f64, Vec<usize>, u64), String>;

fn rank_digest(factors: &[tucker_linalg::Matrix<f64>], core: &DistTensor<f64>) -> u64 {
    let mut f = Fingerprint::default();
    for u in factors {
        f.add(u.data());
    }
    f.add(core.local().data());
    f.value()
}

/// One compress through the entry point on every rank of `sim`.
fn entry(
    sim: &Simulator,
    blocks: &[DistTensor<f64>],
    cfg: &SthosvdConfig,
) -> tucker_mpisim::SimOutput<RankResult> {
    sim.run(|ctx| {
        let dt = &blocks[ctx.rank()];
        Comm::world(ctx).barrier(ctx);
        let t = Instant::now();
        let r = sthosvd_parallel(ctx, dt, cfg).map_err(|e| format!("sthosvd_parallel: {e}"))?;
        Ok((
            t.elapsed().as_secs_f64(),
            r.ranks(),
            rank_digest(&r.factors, &r.core),
        ))
    })
}

/// Slowest rank's seconds, and whether every rank matched `want`.
fn verdict(results: Vec<RankResult>, want: &(Vec<usize>, Vec<u64>)) -> Result<(f64, bool), String> {
    let mut slowest = 0.0f64;
    let mut same = true;
    for (rank, r) in results.into_iter().enumerate() {
        let (secs, ranks, dig) = r?;
        slowest = slowest.max(secs);
        same &= ranks == want.0 && dig == want.1[rank];
    }
    Ok((slowest, same))
}

/// `sthosvd_parallel`'s mode loop on one rank, call for call, through
/// public functions, with a span around each.
fn replay_rank(
    ctx: &mut Ctx,
    dt: &DistTensor<f64>,
    cfg: &SthosvdConfig,
    rec: &mut Recorder,
) -> Result<(Vec<tucker_linalg::Matrix<f64>>, DistTensor<f64>), String> {
    rec.span("core.compress", |rec| {
        let mut world = Comm::world(ctx);
        let nmodes = dt.global_dims().len();
        let threshold = mode_threshold(TOL, dt.norm(ctx, &mut world), nmodes);
        let mut y = dt.clone();
        let mut factors = Vec::with_capacity(nmodes);
        #[allow(clippy::needless_range_loop)] // n is the tensor mode
        for n in 0..nmodes {
            rec.span(MODE_SPANS[n], |rec| -> Result<(), String> {
                let l = rec
                    .span("dtensor.lq", |_| {
                        parallel_tensor_lq(ctx, &mut world, &y, n, cfg.tree, cfg.tslq)
                    })
                    .map_err(|e| format!("mode {n} LQ: {e}"))?;
                let (u, sigma) = rec
                    .span("linalg.svd", |_| svd_left(l.as_ref()))
                    .map_err(|e| format!("mode {n} SVD: {e}"))?;
                let u_n = u.truncate_cols(choose_rank(&sigma, threshold));
                y = rec
                    .span("dtensor.ttm", |_| parallel_ttm(ctx, &y, n, &u_n))
                    .map_err(|e| format!("mode {n} TTM: {e}"))?;
                factors.push(u_n);
                Ok(())
            })?;
        }
        Ok((factors, y))
    })
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = config(tucker_core::SvdMethod::Qr);
    let mut fp = Fingerprint::default();
    // Set-up: generate, scatter to both ranks, and the sequential ground truth.
    let ((x, blocks, sequential), setup_s) = timed_setup(opts, || {
        fp = Fingerprint::default();
        let x = hcci_input::<f64>(opts, &mut fp);
        let blocks = scatter(&x, RANKS);
        let sequential = sthosvd(&x, &cfg).map_err(|e| format!("sequential sthosvd: {e}"))?;
        Ok((x, blocks, sequential))
    })?;
    out.set("setup_s", setup_s);
    out.exact
        .insert("fingerprint".into(), format!("{:016x}", fp.value()));
    out.exact
        .insert("ranks".into(), format!("{:?}", sequential.ranks()));
    let sim = simulator(RANKS, 1);

    // Warm-up: 2 untimed compresses; the second is the reference, gathered.
    entry(&sim, &blocks, &cfg);
    let reference = sim.run(|ctx| -> Result<(u64, TuckerTensor<f64>), String> {
        let r = sthosvd_parallel(ctx, &blocks[ctx.rank()], &cfg)
            .map_err(|e| format!("sthosvd_parallel: {e}"))?;
        let mut world = Comm::world(ctx);
        Ok((
            rank_digest(&r.factors, &r.core),
            r.to_tucker(ctx, &mut world),
        ))
    });
    let mut digests = Vec::new();
    let mut gathered = None;
    for r in reference.results {
        let (d, tk) = r?;
        digests.push(d);
        gathered = Some(tk);
    }
    let gathered = gathered.expect("at least one rank");
    let want = (sequential.ranks(), digests);
    out.check(
        1,
        u64::from(gathered.ranks() != want.0),
        "grid ranks equal the sequential ranks",
    );

    if opts.trace {
        return traced(opts, out, &x, &blocks, &cfg, &want);
    }

    let mut wrong = 0;
    let secs = timed_loop(opts, 20, || {
        let (s, same) = verdict(entry(&sim, &blocks, &cfg).results, &want)?;
        wrong += u64::from(!same);
        Ok(s)
    })?;
    out.check(
        secs.len() as u64,
        wrong,
        "every repetition has the sequential ranks and the bits of the first",
    );
    let s = out.timing("compress (sthosvd_parallel, slowest rank)", &secs, 1.0, "s");
    out.set("op_p50_ms", s.median * 1e3);
    out.set("op_tail_ms", s.median * 1e3);
    out.set("ops_per_s", secs.len() as f64 / secs.iter().sum::<f64>());
    let err = gathered.relative_error(&x) / TOL;
    out.set("error_over_tol", err);
    out.check(
        1,
        u64::from(over_budget(err)),
        "relative error within the requested tolerance",
    );
    store_and_measure(opts, &mut out, &gathered, x.len() * 8)?;
    out.set("peak_rss_mb", host::peak_rss_mb()?);
    Ok(out)
}

/// Per operation, the sum over the mode spans of slowest minus fastest rank.
fn step_imbalance(spans: &[Span]) -> Vec<f64> {
    let mut by_step: BTreeMap<(u64, &str), (f64, f64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| MODE_SPANS.contains(&s.name)) {
        let e = by_step
            .entry((s.op, s.name))
            .or_insert((f64::INFINITY, 0.0));
        *e = (e.0.min(s.secs()), e.1.max(s.secs()));
    }
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for ((op, _), (fastest, slowest)) in by_step {
        *by_op.entry(op).or_insert(0.0) += slowest - fastest;
    }
    by_op.into_values().collect()
}

fn traced(
    opts: &RunOpts,
    mut out: Outcome,
    x: &Tensor<f64>,
    blocks: &[DistTensor<f64>],
    cfg: &SthosvdConfig,
    want: &(Vec<usize>, Vec<u64>),
) -> Result<Outcome, String> {
    let sim = simulator(RANKS, 1);
    let rounds = opts.reps(5);
    let epoch = Instant::now();
    let replay = |on: bool, op: u64| -> Result<(f64, bool, Vec<Span>), String> {
        let run = sim.run(|ctx| -> Result<(f64, u64, Vec<usize>, Vec<Span>), String> {
            let dt = &blocks[ctx.rank()];
            let mut rec = Recorder::new(on, epoch, ctx.rank() as u32);
            rec.set_op(op);
            // Beside the loop: the fiber all-to-all alone, on the same input.
            rec.span("dtensor.redistribute", |_| {
                redistribute_to_columns(ctx, dt, 0)
            });
            Comm::world(ctx).barrier(ctx);
            let t = Instant::now();
            let (factors, core) = replay_rank(ctx, dt, cfg, &mut rec)?;
            let secs = t.elapsed().as_secs_f64();
            let dig = rank_digest(&factors, &core);
            let ranks = core.global_dims().to_vec();
            let mut world = Comm::world(ctx);
            rec.span("dtensor.gather", |_| core.gather(ctx, &mut world));
            Ok((secs, dig, ranks, rec.into_spans()))
        });
        let (mut slowest, mut same, mut lanes) = (0.0f64, true, Vec::new());
        for (rank, r) in run.results.into_iter().enumerate() {
            let (secs, dig, ranks, spans) = r?;
            slowest = slowest.max(secs);
            same &= ranks == want.0 && dig == want.1[rank];
            lanes.push(spans);
        }
        Ok((slowest, same, trace::merge(lanes)))
    };
    let (mut entry_s, mut off_s, mut on_s, mut lanes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut wrong = 0;
    for round in 0..rounds {
        host::pace_sample();
        let (s, same) = verdict(entry(&sim, blocks, cfg).results, want)?;
        entry_s.push(s);
        wrong += u64::from(!same);
        let (s, same, _) = replay(false, round as u64)?;
        off_s.push(s);
        wrong += u64::from(!same);
        let (s, same, spans) = replay(true, round as u64)?;
        on_s.push(s);
        wrong += u64::from(!same);
        lanes.push(spans);
    }
    out.check(
        3 * rounds as u64,
        wrong,
        "entry point and replays produce the bits of the first compress on every rank",
    );
    out.set("bench.replay_bit_identical", f64::from(wrong == 0));
    let e2e = out
        .timing("compress (entry point, slowest rank)", &entry_s, 1.0, "s")
        .median;
    out.timing("compress (replay, recorder off)", &off_s, 1.0, "s");
    out.timing("compress (replay, recorder on)", &on_s, 1.0, "s");
    out.set("bench.replay_over_e2e", median(&on_s) / e2e);
    out.set(
        "bench.trace_overhead_frac",
        (median(&on_s) - median(&off_s)) / median(&off_s),
    );

    let spans = trace::merge(lanes);
    set_span_medians(
        &mut out,
        &spans,
        &[
            ("dtensor.lq_s", "dtensor.lq"),
            ("dtensor.ttm_s", "dtensor.ttm"),
            ("dtensor.redistribute_s", "dtensor.redistribute"),
            ("dtensor.gather_s", "dtensor.gather"),
            ("linalg.svd_s", "linalg.svd"),
        ],
    );
    set_mode_metrics(&mut out, &spans);
    out.set(
        "core.step_imbalance_s",
        median_or_zero(&step_imbalance(&spans)),
    );
    write_trace(opts, &mut out, &spans, "core.compress")?;
    out.set(
        "dtensor.scatter_s",
        median(&time_reps(opts.reps(3), || {
            DistTensor::scatter_from(x, &grid_of(RANKS), 0)
        })),
    );

    // The same compress three other ways, for the cost of the distributed
    // path (one rank with both threads against the sequential driver) and
    // its scaling (one rank against two, one thread each).
    let n = opts.reps(3);
    let one_block = scatter(x, 1);
    let p1 = |threads: usize| -> Result<f64, String> {
        let sim = simulator(1, threads);
        let secs: Result<Vec<f64>, String> = (0..n)
            .map(|_| {
                entry(&sim, &one_block, cfg)
                    .results
                    .into_iter()
                    .next()
                    .expect("one rank")
                    .map(|r| r.0)
            })
            .collect();
        Ok(median(&secs?))
    };
    let seq = median(&time_reps(n, || {
        sthosvd(x, cfg).expect("sequential sthosvd ran in set-up")
    }));
    out.set("core.p1_over_seq", p1(host::THREADS)? / seq);
    out.set("core.p2_speedup", p1(1)? / e2e);

    // Counts and modeled time of one compress: these repeat exactly.
    let counted = sim.run(|ctx| {
        sthosvd_parallel(ctx, &blocks[ctx.rank()], cfg)
            .map(|r| r.ranks())
            .map_err(|e| e.to_string())
    });
    let b = counted.breakdown();
    out.set("mpisim.msgs", b.total_msgs as f64);
    out.set("mpisim.words", b.total_bytes as f64 / 8.0);
    out.set("mpisim.flops", b.total_flops);
    out.set("mpisim.modeled_s", b.modeled_time);
    out.set("mpisim.modeled_over_measured", b.modeled_time / e2e);
    out.exact
        .insert("mpisim.msgs".into(), b.total_msgs.to_string());
    out.exact
        .insert("mpisim.words".into(), (b.total_bytes / 8).to_string());

    // The runtime alone.
    out.set(
        "mpisim.launch_ms",
        median(&time_reps(opts.reps(20), || sim.run(|_| ()))) * 1e3,
    );
    let (small, large) = (opts.reps(200), opts.reps(20));
    const MIB_WORDS: usize = (1 << 20) / 8;
    let micro = sim.run(|ctx| {
        let mut world = Comm::world(ctx);
        let partner = 1 - ctx.rank();
        let mut timed = |reps: usize, f: &mut dyn FnMut(&mut Ctx, &mut Comm) -> u64| {
            world.barrier(ctx);
            let t = Instant::now();
            let keep: u64 = (0..reps).map(|_| f(ctx, &mut world)).sum();
            std::hint::black_box(keep);
            t.elapsed().as_secs_f64() / reps as f64
        };
        [
            timed(small, &mut |c, w| {
                w.sendrecv(c, partner, vec![1.0f64]).len() as u64
            }),
            timed(large, &mut |c, w| {
                w.sendrecv(c, partner, vec![1.0f64; MIB_WORDS]).len() as u64
            }),
            timed(small, &mut |c, w| {
                w.allreduce_sum_vec(c, vec![1.0f64]).len() as u64
            }),
            timed(large, &mut |c, w| {
                w.alltoallv(c, vec![vec![1.0f64; MIB_WORDS / 2]; RANKS])
                    .len() as u64
            }),
        ]
    });
    let [sendrecv_small, sendrecv_large, allreduce, alltoallv] = micro.results[0];
    out.set("mpisim.sendrecv_us", sendrecv_small * 1e6);
    out.set(
        "mpisim.sendrecv_mbps",
        (1 << 20) as f64 / sendrecv_large / 1e6,
    );
    out.set("mpisim.allreduce_us", allreduce * 1e6);
    out.set("mpisim.alltoallv_mbps", (1 << 20) as f64 / alltoallv / 1e6);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> RunOpts {
        RunOpts::for_test("grid2_qr_f64", "unused")
    }

    #[test]
    fn oracle_accepts_the_sequential_ranks_and_catches_wrong_ones() {
        let cfg = config(tucker_core::SvdMethod::Qr);
        let x = hcci_input::<f64>(&smoke_opts(), &mut Fingerprint::default());
        let sequential = sthosvd(&x, &cfg).unwrap();
        let blocks = scatter(&x, RANKS);
        let sim = simulator(RANKS, 1);
        let digests: Vec<u64> = entry(&sim, &blocks, &cfg)
            .results
            .into_iter()
            .map(|r| r.unwrap().2)
            .collect();
        let want = (sequential.ranks(), digests.clone());
        assert!(
            verdict(entry(&sim, &blocks, &cfg).results, &want)
                .unwrap()
                .1,
            "a repeat matches ranks and bits"
        );
        // A deliberately wrong expectation of the ranks is caught …
        let mut wrong_ranks = sequential.ranks();
        wrong_ranks[0] += 1;
        assert!(
            !verdict(
                entry(&sim, &blocks, &cfg).results,
                &(wrong_ranks, digests.clone())
            )
            .unwrap()
            .1
        );
        // … and so is one of the bits of a single rank.
        let wrong_bits = vec![digests[0], digests[1] ^ 1];
        assert!(
            !verdict(
                entry(&sim, &blocks, &cfg).results,
                &(sequential.ranks(), wrong_bits)
            )
            .unwrap()
            .1
        );
    }

    #[test]
    fn replay_has_the_bits_of_the_entry_point() {
        let cfg = config(tucker_core::SvdMethod::Qr);
        let x = hcci_input::<f64>(&smoke_opts(), &mut Fingerprint::default());
        let blocks = scatter(&x, RANKS);
        let sim = simulator(RANKS, 1);
        let entry_bits: Vec<u64> = entry(&sim, &blocks, &cfg)
            .results
            .into_iter()
            .map(|r| r.unwrap().2)
            .collect();
        let replay_bits = sim
            .run(|ctx| {
                let mut rec = Recorder::new(true, Instant::now(), ctx.rank() as u32);
                let (factors, core) =
                    replay_rank(ctx, &blocks[ctx.rank()], &cfg, &mut rec).unwrap();
                (rank_digest(&factors, &core), rec.into_spans().len())
            })
            .results;
        for (rank, (bits, spans)) in replay_bits.into_iter().enumerate() {
            assert_eq!(bits, entry_bits[rank], "rank {rank}");
            assert_eq!(
                spans,
                1 + 4 * 4,
                "root, and per mode its span and three calls"
            );
        }
    }

    #[test]
    fn imbalance_sums_slowest_minus_fastest_per_step() {
        let span = |name, lane, op, start, end| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: None,
            op,
            lane,
        };
        let spans = vec![
            span(MODE_SPANS[0], 0, 0, 0, 1_000_000_000),
            span(MODE_SPANS[0], 1, 0, 0, 3_000_000_000),
            span(MODE_SPANS[1], 0, 0, 0, 2_000_000_000),
            span(MODE_SPANS[1], 1, 0, 0, 1_500_000_000),
            span("dtensor.lq", 1, 0, 0, 9_000_000_000),
            span(MODE_SPANS[0], 0, 1, 0, 1_000_000_000),
            span(MODE_SPANS[0], 1, 1, 0, 1_000_000_000),
        ];
        assert_eq!(step_imbalance(&spans), vec![2.5, 0.0]);
    }
}
