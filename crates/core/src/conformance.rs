//! Cost-model conformance checking: compare the paper's analytic per-mode
//! flop and communication-word formulas (§3.5, eqs. 9–11) against the
//! *measured* per-phase totals of a simulated run (DESIGN.md §11).
//!
//! Where [`crate::model::predict`] turns the formulas into modeled seconds
//! (for machine sizes the host cannot run), this module evaluates the same
//! formulas as raw *counts* — flops, words, messages — and checks them
//! against what the runtime actually charged, phase by phase. A passing
//! report is evidence that the simulator's operation-by-operation charging
//! and the closed-form model agree; a failing one localizes the divergence
//! to a mode and a quantity.
//!
//! The analytic counts assume every block split is even (`P_n | J_n` etc.)
//! — except the QR path's local LQ, summed over every rank's actual stripe
//! — and the configured tolerance absorbs the remainder terms of uneven
//! splits.
//! On an even configuration the formulas are exact and the check passes at
//! tolerances as tight as 1e-9.
//!
//! Measured values are drawn from the per-mode phase labels the parallel
//! driver emits (`Gram#n`/`LQ#n`, `EVD#n`/`SVD#n`, `TTM#n`); parent phases
//! include their nested children (redistribution, all-reduce, TSQR tree),
//! so the three labels cover each mode's full cost.

use crate::config::{thin_qr, SvdMethod};
use tucker_dtensor::{
    block_range, lq_flops, prev_power_of_two, sketch_cols, sketch_qr_flops, slab_exchange_counts,
    ProcessorGrid, ReductionTree,
};
use tucker_linalg::perf::{svd_flops, thin_svd_flops};
use tucker_linalg::randomized::{sketch_block_count, RandomizedSvdConfig};
use tucker_mpisim::{json_f64 as jf, MetricsRegistry, PhaseStat, RankStats};

/// Everything the analytic side needs to know about the run being checked.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Global tensor dimensions.
    pub dims: Vec<usize>,
    /// Measured retained ranks per mode (the truncation outcome).
    pub ranks: Vec<usize>,
    /// Processor grid dimensions.
    pub grid: Vec<usize>,
    /// Resolved mode processing order.
    pub order: Vec<usize>,
    /// SVD algorithm of the run.
    pub method: SvdMethod,
    /// TSQR reduction tree (QR method only).
    pub tree: ReductionTree,
    /// Bytes per scalar of the working precision (4 or 8).
    pub bytes: usize,
    /// Sketch parameters (randomized method only).
    pub randomized: RandomizedSvdConfig,
    /// Maximum relative deviation for a mode to pass.
    pub tolerance: f64,
}

/// Predicted-vs-measured comparison for one mode.
#[derive(Clone, Copy, Debug)]
pub struct ModeCheck {
    /// Mode index.
    pub mode: usize,
    /// Analytic flop count, summed over all ranks.
    pub flops_predicted: f64,
    /// Measured flop charges for this mode's phases, summed over all ranks.
    pub flops_measured: f64,
    /// `|measured − predicted| / max(predicted, 1)`.
    pub flops_rel_dev: f64,
    /// Analytic communication volume in bytes, summed over all ranks.
    pub bytes_predicted: f64,
    /// Measured bytes sent in this mode's phases, summed over all ranks.
    pub bytes_measured: f64,
    /// `|measured − predicted| / max(predicted, 1)`.
    pub bytes_rel_dev: f64,
    /// Analytic message count (informational; not gated).
    pub msgs_predicted: u64,
    /// Measured message count (informational; not gated).
    pub msgs_measured: u64,
    /// Flop and byte deviations both within tolerance.
    pub pass: bool,
}

/// Full conformance report.
#[derive(Clone, Debug)]
pub struct ModelCheckReport {
    /// Per-mode comparisons, in processing order.
    pub per_mode: Vec<ModeCheck>,
    /// Tolerance the per-mode checks were gated on.
    pub tolerance: f64,
    /// Every mode passed.
    pub pass: bool,
}

impl ModelCheckReport {
    /// Human-readable table, one row per mode.
    pub fn table(&self) -> String {
        let mut out = format!(
            "model conformance (tolerance {:.1e}):\n  {:<5} {:>14} {:>14} {:>8}  {:>14} {:>14} {:>8}  {:>7} {:>7}  {}\n",
            self.tolerance,
            "mode",
            "flops pred",
            "flops meas",
            "dev",
            "bytes pred",
            "bytes meas",
            "dev",
            "msg prd",
            "msg mea",
            "status",
        );
        for m in &self.per_mode {
            out.push_str(&format!(
                "  {:<5} {:>14.4e} {:>14.4e} {:>8.1e}  {:>14.4e} {:>14.4e} {:>8.1e}  {:>7} {:>7}  {}\n",
                m.mode,
                m.flops_predicted,
                m.flops_measured,
                m.flops_rel_dev,
                m.bytes_predicted,
                m.bytes_measured,
                m.bytes_rel_dev,
                m.msgs_predicted,
                m.msgs_measured,
                if m.pass { "ok" } else { "FAIL" },
            ));
        }
        out.push_str(&format!("  overall: {}\n", if self.pass { "pass" } else { "FAIL" }));
        out
    }

    /// Deterministic JSON object mirroring the table.
    pub fn to_json(&self) -> String {
        let modes: Vec<String> = self
            .per_mode
            .iter()
            .map(|m| {
                format!(
                    "{{\"mode\":{},\"flops_predicted\":{},\"flops_measured\":{},\"flops_rel_dev\":{},\"bytes_predicted\":{},\"bytes_measured\":{},\"bytes_rel_dev\":{},\"msgs_predicted\":{},\"msgs_measured\":{},\"pass\":{}}}",
                    m.mode,
                    jf(m.flops_predicted),
                    jf(m.flops_measured),
                    jf(m.flops_rel_dev),
                    jf(m.bytes_predicted),
                    jf(m.bytes_measured),
                    jf(m.bytes_rel_dev),
                    m.msgs_predicted,
                    m.msgs_measured,
                    m.pass,
                )
            })
            .collect();
        format!(
            "{{\"tolerance\":{},\"pass\":{},\"per_mode\":[{}]}}",
            jf(self.tolerance),
            self.pass,
            modes.join(",")
        )
    }
}

/// The `tucker-metrics-v1` document behind `tucker simulate --metrics` and
/// `figs --metrics`: per-rank registries plus the conformance report, when
/// one was computed. Purely concatenative — every piece is already
/// deterministic JSON.
pub fn metrics_json(per_rank: &[MetricsRegistry], report: Option<&ModelCheckReport>) -> String {
    let ranks: Vec<String> = per_rank.iter().map(|r| r.to_json()).collect();
    format!(
        "{{\"schema\":\"tucker-metrics-v1\",\"ranks\":{},\"per_rank\":[{}],\"model_check\":{}}}\n",
        per_rank.len(),
        ranks.join(","),
        report.map_or("null".to_string(), |r| r.to_json()),
    )
}

/// Analytic per-mode counts, all totals over the whole machine.
#[derive(Clone, Copy, Debug, Default)]
struct Predicted {
    flops: f64,
    bytes: f64,
    msgs: u64,
}

/// The column count of each rank's local mode-`n` stripe on a tensor of
/// `dims` over `grid`: its block's unfolding columns, cut once more by the
/// fiber redistribution when `P_n > 1` (`dtensor::redistribute`).
fn stripe_cols<'a>(
    dims: &'a [usize],
    grid: &'a [usize],
    n: usize,
) -> impl Iterator<Item = usize> + 'a {
    let pg = ProcessorGrid::new(grid);
    (0..pg.total()).map(move |rank| {
        let coords = pg.coords(rank);
        let block_cols: usize = (0..dims.len())
            .filter(|&k| k != n)
            .map(|k| block_range(dims[k], grid[k], coords[k]).len())
            .product();
        block_range(block_cols, grid[n], coords[n]).len()
    })
}

/// Evaluate the per-mode analytic counts for `cfg`, in processing order.
fn predict_counts(cfg: &CheckConfig) -> Vec<(usize, Predicted)> {
    let p: usize = cfg.grid.iter().product();
    let pf = p as f64;
    let w = cfg.bytes as f64;
    let mut j: Vec<f64> = cfg.dims.iter().map(|&d| d as f64).collect();
    // Integer shadow of `j` for the sketch geometry helpers.
    let mut ju: Vec<usize> = cfg.dims.clone();
    let mut out = Vec::with_capacity(cfg.order.len());

    for &n in &cfg.order {
        let m = j[n];
        let jstar: f64 = j.iter().product();
        let p_n = cfg.grid[n] as f64;
        let r_n = cfg.ranks[n] as f64;
        let tri = m * (m + 1.0) / 2.0; // packed triangle words
        let cols = ju.iter().product::<usize>() / ju[n];
        let thin = thin_qr(cfg.method, ju[n], cols, cfg.ranks[n]);
        let mut pr = Predicted::default();

        // Fiber redistribution (skipped when P_n = 1): every rank sends
        // (P_n−1)/P_n of its J*/P local words. The randomized method does a
        // slab all-to-all instead, predicted in its own arm below; a thin QR
        // mode gathers the whole tensor instead.
        if cfg.method != SvdMethod::Randomized && !thin && cfg.grid[n] > 1 {
            pr.bytes += jstar * (p_n - 1.0) / p_n * w;
            pr.msgs += (p * (cfg.grid[n] - 1)) as u64;
        }

        match cfg.method {
            SvdMethod::Qr if thin => {
                // Ring allgather of the working tensor: every block travels
                // P−1 hops, one message per rank per step.
                pr.bytes += (pf - 1.0) * jstar * w;
                pr.msgs += (p * (p - 1)) as u64;
                // Redundant thin SVD of the tall unfolding on every rank.
                pr.flops += pf * thin_svd_flops(ju[n], cols);
            }
            SvdMethod::Gram | SvdMethod::GramMixed => {
                // Local syrk totals J_n·J* raw flops machine-wide (the
                // column counts tile the unfolding exactly, even unevenly).
                pr.flops += m * jstar;
                // Binomial reduce + broadcast of the J_n² Gram matrix:
                // P−1 messages each way; the reduce merges charge one flop
                // per element per merge. The mixed method reduces in f64.
                let gw = if cfg.method == SvdMethod::GramMixed { 8.0 } else { w };
                pr.flops += (pf - 1.0) * m * m;
                pr.bytes += 2.0 * (pf - 1.0) * m * m * gw;
                pr.msgs += 2 * (p as u64 - 1);
                // Redundant EVD (the SVD of G) on every rank.
                pr.flops += pf * svd_flops(m as usize);
            }
            SvdMethod::Qr => {
                // Local LQ of every rank's own stripe: exact for uneven
                // splits, where the stripes differ in width.
                pr.flops +=
                    stripe_cols(&ju, &cfg.grid, n).map(|c| lq_flops(m, c as f64)).sum::<f64>();
                // TSQR tree over packed triangles on the world comm.
                let f = prev_power_of_two(p);
                let (tree_msgs, merges) = match cfg.tree {
                    ReductionTree::Butterfly => {
                        let lv = f.trailing_zeros() as u64;
                        let tail = (p - f) as u64;
                        (f as u64 * lv + 2 * tail, f as u64 * lv + tail)
                    }
                    ReductionTree::Binomial => ((2 * (p - 1)) as u64, (p - 1) as u64),
                };
                pr.msgs += tree_msgs;
                pr.bytes += tree_msgs as f64 * tri * w;
                pr.flops += merges as f64 * 2.0 * m.powi(3);
                // Redundant SVD of the triangle on every rank.
                pr.flops += pf * svd_flops(m as usize);
            }
            SvdMethod::Randomized => {
                // Distributed randomized range finder (dtensor::sketch).
                // Every term mirrors a closed-form charge in
                // `parallel_sketch_svd`, so the prediction is exact.
                let mu = ju[n];
                let colsu: usize = ju.iter().product::<usize>() / mu;
                let colsf = colsu as f64;
                let k = sketch_cols(cfg.ranks[n], cfg.randomized.oversampling, mu, colsu) as f64;
                let q = cfg.randomized.power_iterations as f64;
                let nv = sketch_block_count(colsu) as f64;

                // Slab all-to-all of the unfolding into whole-block slabs.
                let (slab_words, slab_msgs) = slab_exchange_counts(&ju, &cfg.grid, n);
                pr.bytes += slab_words * w;
                pr.msgs += slab_msgs;

                // Sketch GEMM Y = A·Ω: the virtual blocks tile the columns
                // exactly, so 2·J_n·J*·k machine-wide — and 4·J_n·J*·k per
                // power iteration (two GEMMs through each block).
                pr.flops += 2.0 * m * colsf * k;
                pr.flops += q * 4.0 * m * colsf * k;
                // Projection B = QᵀA (2·k·J_n·J*) plus the per-block syrk of
                // B (k²·J*).
                pr.flops += 2.0 * k * m * colsf + k * k * colsf;
                // Redundant per-rank work: (q+1) sketch QRs, folds of all nv
                // partials ((q+1) of J_n×k, one of k×k), the k×k SVD, and the
                // lift U = Q·U_H.
                pr.flops += pf * (q + 1.0) * sketch_qr_flops(m, k);
                pr.flops += pf * (nv - 1.0) * ((q + 1.0) * m * k + k * k);
                pr.flops += pf * svd_flops(k as usize);
                pr.flops += pf * 2.0 * m * k * k;
                // (q+2) ring allgathers of the per-block partials: machine-
                // wide each moves (P−1) copies of the nv concatenated blocks.
                pr.bytes += (pf - 1.0) * nv * ((q + 1.0) * m * k + k * k) * w;
                pr.msgs += (q as u64 + 2) * (p * (p - 1)) as u64;
            }
        }

        // Truncation TTM: local multiply on every rank (exact even for
        // uneven splits), plus the fiber reduce-scatter.
        pr.flops += 2.0 * r_n * jstar;
        if cfg.grid[n] > 1 {
            let scatter_words = r_n * jstar * (p_n - 1.0) / m;
            pr.bytes += scatter_words * w;
            pr.flops += scatter_words; // local chunk summation
            pr.msgs += (p * (cfg.grid[n] - 1)) as u64;
        }

        out.push((n, pr));
        j[n] = r_n;
        ju[n] = cfg.ranks[n];
    }
    out
}

/// Sum one mode's measured phase stats over all ranks.
fn measured_for_mode(stats: &[RankStats], method: SvdMethod, n: usize) -> PhaseStat {
    let (factor, small) = match method {
        SvdMethod::Qr => (format!("LQ#{n}"), format!("SVD#{n}")),
        // The randomized driver does everything (redistribution, sketch,
        // projected EVD, lift) under the one Sketch#n phase; the empty
        // second label matches no phase.
        SvdMethod::Randomized => (format!("Sketch#{n}"), String::new()),
        _ => (format!("Gram#{n}"), format!("EVD#{n}")),
    };
    let labels = [factor, small, format!("TTM#{n}")];
    let mut acc = PhaseStat::default();
    for rs in stats {
        for label in &labels {
            if let Some(p) = rs.phase(label) {
                acc.add(p);
            }
        }
    }
    acc
}

/// Check the measured per-mode totals of a run against the analytic model.
pub fn check_model(cfg: &CheckConfig, stats: &[RankStats]) -> ModelCheckReport {
    assert_eq!(cfg.dims.len(), cfg.ranks.len(), "check_model: dims/ranks length mismatch");
    assert_eq!(cfg.dims.len(), cfg.grid.len(), "check_model: dims/grid length mismatch");
    let rel = |meas: f64, pred: f64| (meas - pred).abs() / pred.max(1.0);
    let per_mode: Vec<ModeCheck> = predict_counts(cfg)
        .into_iter()
        .map(|(n, pr)| {
            let meas = measured_for_mode(stats, cfg.method, n);
            let flops_rel_dev = rel(meas.flops, pr.flops);
            let bytes_rel_dev = rel(meas.bytes_sent as f64, pr.bytes);
            ModeCheck {
                mode: n,
                flops_predicted: pr.flops,
                flops_measured: meas.flops,
                flops_rel_dev,
                bytes_predicted: pr.bytes,
                bytes_measured: meas.bytes_sent as f64,
                bytes_rel_dev,
                msgs_predicted: pr.msgs,
                msgs_measured: meas.msgs,
                pass: flops_rel_dev <= cfg.tolerance && bytes_rel_dev <= cfg.tolerance,
            }
        })
        .collect();
    let pass = per_mode.iter().all(|m| m.pass);
    ModelCheckReport { per_mode, tolerance: cfg.tolerance, pass }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SthosvdConfig;
    use crate::parallel::sthosvd_parallel;
    use tucker_dtensor::{DistTensor, ProcessorGrid};
    use tucker_mpisim::{CostModel, Simulator};
    use tucker_tensor::Tensor;

    fn test_tensor(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            let mut v = 0.2;
            for (k, &x) in i.iter().enumerate() {
                v += ((x + 1) * (k + 2)) as f64 * 0.13;
            }
            v.sin()
        })
    }

    fn run_and_check(method: SvdMethod, tree: ReductionTree, tolerance: f64) -> ModelCheckReport {
        let dims = [8usize, 8, 8];
        let grid = [2usize, 2, 2];
        let ranks = [4usize, 4, 4];
        let x = test_tensor(&dims);
        let cfg = SthosvdConfig::with_ranks(ranks.to_vec()).method(method).tree(tree);
        let out = Simulator::new(8).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&grid), ctx.rank());
            sthosvd_parallel(ctx, &dt, &cfg).unwrap().ranks()
        });
        let measured_ranks = out.results[0].clone();
        check_model(
            &CheckConfig {
                dims: dims.to_vec(),
                ranks: measured_ranks,
                grid: grid.to_vec(),
                order: vec![0, 1, 2],
                method,
                tree,
                bytes: 8,
                randomized: RandomizedSvdConfig::default(),
                tolerance,
            },
            &out.stats,
        )
    }

    #[test]
    fn gram_even_grid_is_exact() {
        let r = run_and_check(SvdMethod::Gram, ReductionTree::Butterfly, 1e-9);
        assert!(r.pass, "{}", r.table());
        for m in &r.per_mode {
            assert!(m.flops_predicted > 0.0 && m.bytes_predicted > 0.0, "mode {}", m.mode);
            assert_eq!(m.msgs_predicted, m.msgs_measured, "mode {}", m.mode);
        }
    }

    #[test]
    fn qr_butterfly_even_grid_is_exact() {
        let r = run_and_check(SvdMethod::Qr, ReductionTree::Butterfly, 1e-9);
        assert!(r.pass, "{}", r.table());
        for m in &r.per_mode {
            assert_eq!(m.msgs_predicted, m.msgs_measured, "mode {}", m.mode);
        }
    }

    #[test]
    fn qr_binomial_even_grid_is_exact() {
        let r = run_and_check(SvdMethod::Qr, ReductionTree::Binomial, 1e-9);
        assert!(r.pass, "{}", r.table());
    }

    #[test]
    fn randomized_even_grid_is_exact() {
        let r = run_and_check(SvdMethod::Randomized, ReductionTree::Butterfly, 1e-9);
        assert!(r.pass, "{}", r.table());
        for m in &r.per_mode {
            assert!(m.flops_predicted > 0.0, "mode {}", m.mode);
            assert_eq!(m.msgs_predicted, m.msgs_measured, "mode {}", m.mode);
        }
    }

    #[test]
    fn wrong_grid_fails_the_check() {
        // Predict for a 4-rank grid but measure an 8-rank run: the check
        // must localize the mismatch rather than pass vacuously.
        let dims = [8usize, 8, 8];
        let x = test_tensor(&dims);
        let cfg = SthosvdConfig::with_ranks(vec![4, 4, 4]).method(SvdMethod::Gram);
        let out = Simulator::new(8).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 2, 2]), ctx.rank());
            sthosvd_parallel(ctx, &dt, &cfg).unwrap().ranks()
        });
        let r = check_model(
            &CheckConfig {
                dims: dims.to_vec(),
                ranks: out.results[0].clone(),
                grid: vec![2, 2, 1],
                order: vec![0, 1, 2],
                method: SvdMethod::Gram,
                tree: ReductionTree::Butterfly,
                bytes: 8,
                randomized: RandomizedSvdConfig::default(),
                tolerance: 1e-3,
            },
            &out.stats,
        );
        assert!(!r.pass, "{}", r.table());
    }

    #[test]
    fn report_renders_table_and_json() {
        let r = run_and_check(SvdMethod::Gram, ReductionTree::Butterfly, 1e-9);
        let t = r.table();
        assert!(t.contains("model conformance"));
        assert!(t.contains("overall: pass"));
        let j = r.to_json();
        assert!(j.contains("\"pass\":true"));
        assert!(j.contains("\"per_mode\":["));
    }
}
