//! The wall-clock `figs` entries: the two < 2% overhead budgets and the
//! DESIGN.md §5 ablations. They run only when named, print their table and
//! write nothing under `results/` — wall time is the host's, not the
//! repository's. (Kernel rates and command latencies are `tuckerbench`'s
//! job; these are what it does not measure.)

use crate::args::Opts;
use crate::figures::{noise_sim, EntryResult};
use crate::serve_bench::run_tier_workload;
use crate::Table;
use std::collections::BTreeMap;
use std::time::Instant;
use tucker_core::{SthosvdConfig, SvdMethod};
use tucker_dtensor::ReductionTree;
use tucker_mpisim::{CostModel, Simulator};
use tucker_serve::{ObsConfig, TierReport};

/// Best-of-`iters` wall time of `f` in seconds, after one warm-up call.
pub fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// A paired off/on wall-clock comparison.
#[derive(Clone, Copy, Debug)]
pub struct Paired {
    /// Median wall time with the feature off, milliseconds.
    pub off_ms: f64,
    /// Median wall time with the feature on, milliseconds.
    pub on_ms: f64,
    /// `(median of the per-round on/off ratios − 1) × 100` — the gated number.
    pub overhead_pct: f64,
}

/// Time `run(false)` then `run(true)` for `rounds` rounds after one discarded
/// warm-up pair, handing every pair of results (warm-up included) to `each`.
///
/// The two runs of a round are adjacent in time and see the same machine
/// state, so their ratio is immune to the frequency drift and slow windows
/// that make absolute wall times on shared hosts jitter by several percent;
/// the overhead is the median of those ratios.
pub fn paired_overhead<R>(
    rounds: usize,
    mut run: impl FnMut(bool) -> R,
    mut each: impl FnMut(R, R),
) -> Paired {
    let mut timed = |on: bool| {
        let t0 = Instant::now();
        let r = run(on);
        (t0.elapsed().as_secs_f64(), r)
    };
    let ((_, off), (_, on)) = (timed(false), timed(true));
    each(off, on);
    let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds.max(1) {
        let ((off_s, off), (on_s, on)) = (timed(false), timed(true));
        each(off, on);
        offs.push(off_s);
        ons.push(on_s);
        ratios.push(on_s / off_s.max(1e-12));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    Paired {
        off_ms: median(&mut offs) * 1e3,
        on_ms: median(&mut ons) * 1e3,
        overhead_pct: (median(&mut ratios) - 1.0) * 100.0,
    }
}

/// Rounds per comparison: enough for a stable median, or a CI smoke.
fn rounds(quick: bool) -> usize {
    if quick { 3 } else { 25 }
}

/// Print the comparison and, at full size, hold it to the 2% budget.
fn report(what: &str, quick: bool, p: Paired, extra: &[(&str, String)]) -> EntryResult {
    let mut headers = vec!["feature", "off_ms", "on_ms", "overhead_pct"];
    headers.extend(extra.iter().map(|(h, _)| *h));
    let mut t = Table::new(&headers);
    let mut row = vec![
        what.to_string(),
        format!("{:.4}", p.off_ms),
        format!("{:.4}", p.on_ms),
        format!("{:.4}", p.overhead_pct),
    ];
    row.extend(extra.iter().map(|(_, v)| v.clone()));
    t.row(row);
    println!("{}", t.render());
    if !(p.off_ms > 0.0 && p.on_ms > 0.0 && p.overhead_pct.is_finite()) {
        return Err(format!("{what}: degenerate timing {p:?}"));
    }
    if !quick && p.overhead_pct >= 2.0 {
        return Err(format!("{what}: {:.3}% exceeds the 2% budget", p.overhead_pct));
    }
    Ok(())
}

/// `figs overhead_metrics` (DESIGN.md §11): the same 8-rank simulated
/// ST-HOSVD with the `mpisim` metrics registries off and on — the cost of
/// the counters, the collective meters and `tucker-linalg`'s thread-local
/// kernel collector.
pub fn overhead_metrics(opts: &Opts) -> EntryResult {
    let d = if opts.quick { 16 } else { 48 };
    let cfg = SthosvdConfig::with_ranks(vec![d / 4; 3]).method(SvdMethod::Qr);
    let p = paired_overhead(
        rounds(opts.quick),
        |on| {
            let sim = Simulator::new(8).with_cost(CostModel::andes()).with_metrics(on);
            noise_sim::<f64>(sim, 29, d, &[2, 2, 2], &cfg)
        },
        |off, on| assert!(off.metrics.is_empty() && on.metrics.len() == 8),
    );
    report("mpisim metrics", opts.quick, p, &[("shape", format!("{d}^3->{}^3x8ranks", d / 4))])
}

/// What the observability comparison saw besides the timings.
#[derive(Clone, Copy, Debug)]
pub struct ObsOverhead {
    /// Requests in the trace.
    pub queries: usize,
    /// Spans recorded by an instrumented run.
    pub spans: u64,
    /// Structured log lines emitted by an instrumented run.
    pub log_lines: usize,
    /// Whether every completion CRC agreed between all off and on runs.
    pub bit_identical: bool,
    /// The paired timings.
    pub paired: Paired,
}

/// The serving loop on the 2×2 failover workload with request tracing +
/// structured logging off versus fully on ([`ObsConfig::full`]). Tracing and
/// logging are pure side-buffers, so the served bits must not move.
pub fn observability_overhead(quick: bool) -> ObsOverhead {
    let (mut queries, mut spans, mut log_lines, mut bit_identical) = (0, 0, 0, true);
    let mut baseline: Option<BTreeMap<usize, u32>> = None;
    let crcs = |r: &TierReport| -> BTreeMap<usize, u32> {
        r.completions.iter().map(|c| (c.index, c.crc)).collect()
    };
    let paired = paired_overhead(
        rounds(quick),
        |on| {
            let obs = if on { ObsConfig::full() } else { ObsConfig::default() };
            run_tier_workload(quick, 2, 2, None, obs).expect("tier workload runs")
        },
        |(_, off), (router, on)| {
            let off_crc = crcs(&off);
            bit_identical &= off_crc == crcs(&on);
            bit_identical &= *baseline.get_or_insert_with(|| off_crc.clone()) == off_crc;
            queries = on.completions.len() + on.failures.len() + on.rejections.len();
            spans = router.observer().span_count();
            log_lines = router.observer().log_lines().len();
        },
    );
    ObsOverhead { queries, spans, log_lines, bit_identical, paired }
}

/// `figs overhead_obs` (DESIGN.md §16).
pub fn overhead_obs(opts: &Opts) -> EntryResult {
    let r = observability_overhead(opts.quick);
    if !r.bit_identical {
        return Err("serve observability: tracing/logging perturbed the served results".into());
    }
    if r.spans == 0 || r.log_lines == 0 {
        return Err("serve observability: the instrumented run recorded nothing".into());
    }
    let extra = [
        ("queries", r.queries.to_string()),
        ("spans", r.spans.to_string()),
        ("log_lines", r.log_lines.to_string()),
    ];
    report("serve ObsConfig::full", opts.quick, r.paired, &extra)
}

/// `figs ablations` (DESIGN.md §5): butterfly (the paper's choice) against
/// binomial-tree-plus-broadcast TSQR reduction on 8 simulated ranks.
pub fn ablations(_: &Opts) -> EntryResult {
    let mut t = Table::new(&["ablation", "variant", "best_ms", "modeled_s"]);
    for tree in [ReductionTree::Butterfly, ReductionTree::Binomial] {
        let cfg = SthosvdConfig::with_ranks(vec![3; 4]).method(SvdMethod::Qr).tree(tree);
        let mut modeled = 0.0;
        let secs = time_best(5, || {
            let sim = Simulator::new(8).with_cost(CostModel::andes());
            modeled = noise_sim::<f64>(sim, 2, 16, &[2, 2, 2, 1], &cfg).breakdown().modeled_time;
        });
        t.row(vec![
            "reduction_tree_16^4_8ranks".into(),
            format!("{tree:?}"),
            format!("{:.3}", secs * 1e3),
            format!("{modeled:.6}"),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_overhead_takes_the_median_ratio_and_skips_the_warm_up() {
        let mut calls = Vec::new();
        let mut pairs = 0;
        let p = paired_overhead(3, |on| calls.push(on), |(), ()| pairs += 1);
        assert_eq!(calls, [false, true].repeat(4), "warm-up pair + 3 rounds, off first");
        assert_eq!(pairs, 4);
        assert!(p.off_ms >= 0.0 && p.on_ms >= 0.0 && p.overhead_pct.is_finite());
    }

    #[test]
    fn quick_observability_bench_is_bit_identical_and_instrumented() {
        let r = observability_overhead(true);
        assert_eq!(r.queries, 120);
        assert!(r.bit_identical, "tracing+logging must not perturb results");
        assert!(r.spans > 0, "instrumented run must record spans");
        assert!(r.log_lines > 0, "instrumented run must emit log lines");
        // No overhead gate in quick mode — 3 rounds on a loaded CI box are
        // too noisy; `figs overhead_obs` without --quick enforces it.
    }
}
