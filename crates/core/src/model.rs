//! Closed-form α-β-γ cost model of parallel ST-HOSVD (paper §3.5).
//!
//! Evaluates eqs. (9)–(11) of the paper — plus the shared TTM and
//! redistribution terms — for arbitrary tensor dimensions, ranks, processor
//! grids, SVD method and precision, *without running anything*. This is how
//! the benchmark harness extends the scaling figures to the paper's actual
//! machine sizes (up to 2048 cores), which exceed the reproduction host.
//!
//! The simulated runtime charges the same formulas operation by operation;
//! `tests` cross-check the two on small configurations.

use crate::config::{thin_qr, SvdMethod};
use tucker_linalg::perf::{svd_flops, thin_svd_flops};
use tucker_mpisim::CostModel;

/// Configuration of a modeled run.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Global tensor dimensions.
    pub dims: Vec<usize>,
    /// Truncation ranks per mode (outcome of the run being modeled).
    pub ranks: Vec<usize>,
    /// Processor grid dimensions.
    pub grid: Vec<usize>,
    /// Mode processing order.
    pub order: Vec<usize>,
    /// SVD algorithm.
    pub method: SvdMethod,
    /// Bytes per scalar (4 = single, 8 = double).
    pub bytes: usize,
    /// Machine constants.
    pub cost: CostModel,
}

/// Modeled cost of one mode's processing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeCost {
    /// Mode index.
    pub mode: usize,
    /// Fiber redistribution time (s).
    pub redistribute: f64,
    /// Local Gram/LQ time including tree or all-reduce (s).
    pub factor: f64,
    /// Redundant EVD/SVD of the small matrix (s).
    pub small_svd: f64,
    /// Truncation TTM time including reduce-scatter (s).
    pub ttm: f64,
}

impl ModeCost {
    /// Total time of this mode.
    pub fn total(&self) -> f64 {
        self.redistribute + self.factor + self.small_svd + self.ttm
    }
}

/// Modeled cost of a full ST-HOSVD run.
#[derive(Clone, Debug, Default)]
pub struct ModelOutput {
    /// Per-mode costs, in processing order.
    pub per_mode: Vec<ModeCost>,
    /// Total modeled time (s).
    pub total: f64,
    /// Total flops charged per rank.
    pub flops_per_rank: f64,
}

impl ModelOutput {
    /// Modeled GFLOP/s per rank (the paper's Fig. 3a metric).
    pub fn gflops_per_rank(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.flops_per_rank / self.total / 1.0e9
        }
    }
}

/// Evaluate the model.
pub fn predict(cfg: &ModelConfig) -> ModelOutput {
    let n_modes = cfg.dims.len();
    assert_eq!(cfg.ranks.len(), n_modes);
    assert_eq!(cfg.grid.len(), n_modes);
    let p_total: usize = cfg.grid.iter().product();
    let gamma = cfg.cost.gamma(cfg.bytes);
    let (alpha, beta) = (cfg.cost.alpha, cfg.cost.beta_per_byte);
    let bytes = cfg.bytes as f64;
    let log_p = (p_total as f64).log2().ceil().max(0.0);

    let mut j: Vec<f64> = cfg.dims.iter().map(|&d| d as f64).collect();
    let mut out = ModelOutput::default();

    for &n in &cfg.order {
        let jn = j[n];
        let jstar: f64 = j.iter().product();
        let local = jstar / p_total as f64; // elements per rank
        let c_loc = local / jn * cfg.grid[n] as f64; // columns per rank after redistribution: J*/(J_n·P*) · P_n rows...
        // After redistribution each rank holds all J_n rows of
        // J*/(J_n·P_total) columns:
        let cols_loc = jstar / (jn * p_total as f64);
        let _ = c_loc;
        let p_n = cfg.grid[n] as f64;
        let mut mc = ModeCost { mode: n, ..Default::default() };
        let cols = (jstar / jn) as usize;
        let thin = thin_qr(cfg.method, jn as usize, cols, cfg.ranks[n]);

        // Fiber redistribution (skipped when P_n = 1): β·J*/P* + α·(P_n−1).
        if cfg.grid[n] > 1 && !thin {
            mc.redistribute = beta * local * bytes + alpha * (p_n - 1.0);
        }

        match cfg.method {
            SvdMethod::Qr if thin => {
                // Ring allgather of the whole (tall) unfolding, then the
                // redundant thin SVD of it.
                mc.factor = (p_total as f64 - 1.0) * (alpha + beta * local * bytes);
                mc.small_svd = gamma * thin_svd_flops(jn as usize, cols);
            }
            SvdMethod::Gram => {
                // Local syrk: γ·J_n·J*/P* (eq. 11), derated per the paper's
                // measured syrk efficiency (see CostModel::syrk_derate).
                mc.factor = gamma * cfg.cost.syrk_derate * jn * jstar / p_total as f64;
                // All-reduce of the J_n² Gram matrix: ~2·log P rounds.
                mc.factor += 2.0 * log_p * (alpha + beta * jn * jn * bytes);
                mc.small_svd = gamma * svd_flops(jn as usize);
            }
            SvdMethod::Qr => {
                // Local LQ: γ·2·J_n·J*/P* − (2/3)J_n³ (eq. 9, leading term).
                mc.factor = gamma * (2.0 * jn * jn * cols_loc - 2.0 / 3.0 * jn.powi(3)).max(0.0);
                // Butterfly tree: log P rounds of triangle exchange + tplqt.
                mc.factor += log_p * (alpha + beta * (jn * jn / 2.0) * bytes + gamma * 2.0 * jn.powi(3));
                mc.small_svd = gamma * svd_flops(jn as usize);
            }
            SvdMethod::Randomized => {
                // Sketch Y = AΩ plus projection B = QᵀA: ~4·k·J*/P flops with
                // k = rank + oversampling, plus the (q+2) sketch all-gathers
                // of the J_n × k partials (modeled with the default
                // oversampling of 8 and q = 1).
                let k = cfg.ranks[n] as f64 + 8.0;
                mc.factor = gamma * 4.0 * k * jstar / p_total as f64;
                mc.factor += 3.0 * log_p * (alpha + beta * jn * k * bytes);
                mc.small_svd = gamma * svd_flops(k as usize);
            }
            SvdMethod::GramMixed => {
                // Local syrk runs in f64 regardless of the data precision;
                // the J_n² all-reduce carries 8-byte words.
                let gd = cfg.cost.gamma(8);
                mc.factor = gd * cfg.cost.syrk_derate * jn * jstar / p_total as f64;
                mc.factor += 2.0 * log_p * (alpha + beta * jn * jn * 8.0);
                mc.small_svd = gd * svd_flops(jn as usize);
            }
        }

        // TTM: local multiply + fiber reduce-scatter.
        let r_n = cfg.ranks[n] as f64;
        mc.ttm = gamma * 2.0 * r_n * local;
        if cfg.grid[n] > 1 {
            let partial = r_n * local / (jn / p_n); // R_n × local columns
            mc.ttm += alpha * (p_n - 1.0) + beta * partial * bytes * (p_n - 1.0) / p_n;
        }

        out.per_mode.push(mc);
        j[n] = r_n;
    }

    // Flops-per-rank from the compute terms only (comm excluded).
    let mut jj: Vec<f64> = cfg.dims.iter().map(|&d| d as f64).collect();
    for &n in &cfg.order {
        let jn = jj[n];
        let jstar: f64 = jj.iter().product();
        let local = jstar / p_total as f64;
        let cols_loc = jstar / (jn * p_total as f64);
        let r_n = cfg.ranks[n] as f64;
        let cols = (jstar / jn) as usize;
        match cfg.method {
            SvdMethod::Qr if thin_qr(cfg.method, jn as usize, cols, cfg.ranks[n]) => {
                out.flops_per_rank += thin_svd_flops(jn as usize, cols);
            }
            SvdMethod::Gram => {
                out.flops_per_rank += jn * jstar / p_total as f64 + svd_flops(jn as usize);
            }
            SvdMethod::Qr => {
                out.flops_per_rank += (2.0 * jn * jn * cols_loc - 2.0 / 3.0 * jn.powi(3)).max(0.0)
                    + log_p * 2.0 * jn.powi(3)
                    + svd_flops(jn as usize);
            }
            SvdMethod::Randomized => {
                let k = cfg.ranks[n] as f64 + 8.0;
                out.flops_per_rank += 4.0 * k * jstar / p_total as f64 + svd_flops(k as usize);
            }
            SvdMethod::GramMixed => {
                out.flops_per_rank += jn * jstar / p_total as f64 + svd_flops(jn as usize);
            }
        }
        out.flops_per_rank += 2.0 * r_n * local;
        jj[n] = r_n;
    }

    out.total = out.per_mode.iter().map(|m| m.total()).sum();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> ModelConfig {
        ModelConfig {
            dims: vec![64, 64, 64, 64],
            ranks: vec![8, 8, 8, 8],
            grid: vec![2, 2, 2, 1],
            order: vec![0, 1, 2, 3],
            method: SvdMethod::Qr,
            bytes: 8,
            cost: CostModel::andes(),
        }
    }

    #[test]
    fn qr_has_roughly_twice_gram_factor_flops() {
        let qr = predict(&base_cfg());
        let gram = predict(&ModelConfig { method: SvdMethod::Gram, ..base_cfg() });
        // First mode dominates; factor ratio ≈ 2 (§3.5).
        let rq = qr.per_mode[0].factor;
        let rg = gram.per_mode[0].factor;
        assert!(rq / rg > 1.5 && rq / rg < 2.6, "ratio {}", rq / rg);
    }

    #[test]
    fn single_precision_is_faster() {
        let d = predict(&base_cfg());
        let s = predict(&ModelConfig { bytes: 4, ..base_cfg() });
        assert!(s.total < d.total);
        // Between 1.5x and 2.5x end-to-end, like the paper's measurements.
        let speedup = d.total / s.total;
        assert!(speedup > 1.3 && speedup < 2.6, "speedup {speedup}");
    }

    #[test]
    fn qr_single_beats_gram_double() {
        // The paper's headline performance result.
        let qr_single = predict(&ModelConfig { bytes: 4, ..base_cfg() });
        let gram_double = predict(&ModelConfig { method: SvdMethod::Gram, ..base_cfg() });
        assert!(
            qr_single.total < gram_double.total,
            "QR single {} should beat Gram double {}",
            qr_single.total,
            gram_double.total
        );
    }

    #[test]
    fn strong_scaling_decreases_time() {
        let p1 = predict(&ModelConfig { grid: vec![1, 1, 1, 1], ..base_cfg() });
        let p8 = predict(&base_cfg());
        let p64 = predict(&ModelConfig { grid: vec![4, 4, 4, 1], ..base_cfg() });
        assert!(p8.total < p1.total);
        assert!(p64.total < p8.total);
        // Efficiency degrades: 64 ranks not 64x faster.
        assert!(p1.total / p64.total < 64.0);
    }

    #[test]
    fn later_modes_are_cheaper() {
        let out = predict(&base_cfg());
        // After truncation the working tensor shrinks drastically.
        assert!(out.per_mode[3].total() < out.per_mode[0].total());
    }

    #[test]
    fn gflops_metric_is_finite_positive() {
        let out = predict(&base_cfg());
        assert!(out.gflops_per_rank() > 0.0);
        assert!(out.gflops_per_rank() < 96.0, "cannot exceed peak");
    }
}
