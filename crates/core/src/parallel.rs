//! Parallel ST-HOSVD (paper §3.4), running as an SPMD program on simulated
//! MPI ranks.
//!
//! Per mode: the SVD of the distributed unfolding is computed either by the
//! parallel Gram algorithm (local `syrk` after fiber redistribution + world
//! all-reduce, then a redundant eigendecomposition) or by the parallel
//! butterfly-TSQR LQ (Alg. 3, then a redundant SVD of the triangle); the
//! truncation TTM is the reduce-scatter algorithm of `tucker-dtensor`.
//! All ranks make identical rank decisions because both paths leave the
//! reduced matrix (Gram matrix or triangle) bit-identical everywhere.
//!
//! Phase timers label the paper's breakdown categories: `LQ`/`Gram`,
//! `SVD`/`EVD`, `TTM` (plus the nested `Redistribute`).

use crate::config::{SthosvdConfig, SvdMethod};
use crate::mode_loop::{self, LoopOutput, LoopState, ModeBackend, ModeStep};
use crate::model::{evd_flops, svd_flops};
use crate::tucker::TuckerTensor;
use tucker_dtensor::{
    parallel_gram, parallel_gram_mixed, parallel_sketch_svd, parallel_sketched_gram,
    parallel_tensor_lq, parallel_ttm, parallel_ttm_op, DistTensor,
};
use tucker_linalg::gram_svd::gram_svd_from_gram;
use tucker_linalg::mixed::gram_svd_mixed_from_gram;
use tucker_linalg::randomized::{resolve_sketch_rows, sketch_block_count};
use tucker_linalg::svd::svd_left;
use tucker_linalg::{LinalgError, Matrix, Result, Scalar};
use tucker_mpisim::{Comm, Ctx};

/// Result of a parallel ST-HOSVD on one rank: replicated factors and
/// singular value profiles, and this rank's block of the core tensor (same
/// grid as the input).
pub type ParallelOutput<T> = LoopOutput<T, DistTensor<T>>;

impl<T: Scalar> ParallelOutput<T> {
    /// Multilinear ranks.
    pub fn ranks(&self) -> Vec<usize> {
        self.core.global_dims().to_vec()
    }

    /// Gather the distributed core into a full [`TuckerTensor`]
    /// (verification/reporting path).
    pub fn to_tucker(&self, ctx: &mut Ctx, world: &mut Comm) -> TuckerTensor<T> {
        TuckerTensor { core: self.core.gather(ctx, world), factors: self.factors.clone() }
    }

    /// Reconstruct the approximation as a distributed tensor, without ever
    /// gathering: a chain of prolongation TTMs `G ×_0 U_0 ··· ×_{N-1} U_{N-1}`
    /// (each a local multiply + fiber reduce-scatter).
    pub fn reconstruct_distributed(&self, ctx: &mut Ctx) -> Result<DistTensor<T>> {
        let mut y = self.core.clone();
        for (n, u) in self.factors.iter().enumerate() {
            y = parallel_ttm_op(ctx, &y, n, u, false).map_err(LinalgError::from)?;
        }
        Ok(y)
    }

    /// Exact relative error `‖X − X̂‖ / ‖X‖` against the distributed input,
    /// computed fully distributed (local squared diffs + one all-reduce).
    /// This is how a terabyte-scale run validates without reconstituting the
    /// global tensor on one node.
    pub fn relative_error_distributed(
        &self,
        ctx: &mut Ctx,
        world: &mut Comm,
        x: &DistTensor<T>,
    ) -> Result<T> {
        let xhat = self.reconstruct_distributed(ctx)?;
        assert_eq!(xhat.global_dims(), x.global_dims(), "shape mismatch");
        let local_diff_sq: T = x
            .local()
            .data()
            .iter()
            .zip(xhat.local().data())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        let local_x_sq: T = x.local().data().iter().map(|&a| a * a).sum();
        ctx.charge_flops(4.0 * x.local().len() as f64, T::BYTES);
        let sums = world.allreduce_sum_vec(ctx, vec![local_diff_sq, local_x_sq]);
        Ok((sums[0].max(T::ZERO)).sqrt() / sums[1].sqrt())
    }

    /// Relative error via the core-norm identity (no reconstruction at all):
    /// `‖X − X̂‖² = ‖X‖² − ‖G‖²` for orthogonal projections.
    pub fn relative_error_via_core(&self, ctx: &mut Ctx, world: &mut Comm) -> T {
        let ng = self.core.norm(ctx, world);
        let diff = (self.norm_x * self.norm_x - ng * ng).max(T::ZERO);
        diff.sqrt() / self.norm_x
    }

    /// Compression ratio without gathering.
    pub fn compression_ratio(&self) -> f64 {
        let original: f64 = self
            .factors
            .iter()
            .map(|u| u.rows() as f64)
            .product();
        let params: f64 = self.core.global_dims().iter().product::<usize>() as f64
            + self.factors.iter().map(|u| (u.rows() * u.cols()) as f64).sum::<f64>();
        original / params
    }
}

/// In-flight state of a parallel ST-HOSVD — what [`crate::checkpoint`]
/// serializes between steps.
pub type HosvdState<T> = LoopState<T, DistTensor<T>>;

/// Run `f` under both a flat label ("LQ") and a per-mode label ("LQ#n"):
/// the flat one feeds whole-run breakdowns, the per-mode one feeds the
/// paper's stacked per-mode bars (Figs. 2, 3b, 8b–10).
fn mode_phase<R>(ctx: &mut Ctx, label: &str, n: usize, f: impl FnOnce(&mut Ctx) -> R) -> R {
    ctx.phase(label, |c| c.phase(&format!("{label}#{n}"), f))
}

/// The distributed backend of the mode loop: a [`DistTensor`] block per
/// simulated rank. Besides the parallel kernels it owns everything about a
/// distributed step that is not the loop: phase labels, modeled flop
/// charges, the per-mode gauges and the kernel-collector drain.
pub struct DistBackend<'a> {
    /// This rank's runtime handle.
    pub ctx: &'a mut Ctx,
    /// The world communicator.
    pub world: &'a mut Comm,
}

impl<T: Scalar> ModeBackend<T> for DistBackend<'_> {
    type Tensor = DistTensor<T>;

    fn norm(&mut self, x: &DistTensor<T>) -> T {
        x.norm(self.ctx, self.world)
    }

    fn dims<'a>(&'a self, y: &'a DistTensor<T>) -> &'a [usize] {
        y.global_dims()
    }

    fn mode_factor(
        &mut self,
        y: &DistTensor<T>,
        n: usize,
        cfg: &SthosvdConfig,
    ) -> Result<(Matrix<T>, Vec<T>)> {
        let DistBackend { ctx, world } = self;
        if ctx.metrics_enabled() {
            // Arm the thread-local kernel collector of tucker-linalg for
            // this step's local kernels; `record` drains it.
            tucker_linalg::perf::enable();
        }
        let m = y.global_dims()[n];
        let rnd = &cfg.randomized;
        match cfg.method {
            SvdMethod::Gram | SvdMethod::SketchedGram => {
                let g = mode_phase(ctx, "Gram", n, |c| match cfg.method {
                    SvdMethod::SketchedGram => {
                        let cols = y.global_dims().iter().product::<usize>() / m;
                        let samples = resolve_sketch_rows(rnd.sketch_rows, m, cols);
                        parallel_sketched_gram(c, world, y, n, samples, rnd.seed)
                    }
                    _ => parallel_gram(c, world, y, n),
                })?;
                mode_phase(ctx, "EVD", n, |c| {
                    c.charge_flops(evd_flops(m), T::BYTES);
                    gram_svd_from_gram(&g)
                })
            }
            SvdMethod::GramMixed => {
                let g = mode_phase(ctx, "Gram", n, |c| parallel_gram_mixed(c, world, y, n))?;
                mode_phase(ctx, "EVD", n, |c| {
                    // The eigendecomposition runs in f64.
                    c.charge_flops(evd_flops(m), 8);
                    gram_svd_mixed_from_gram(&g)
                })
            }
            SvdMethod::Randomized => {
                let rank = cfg.fixed_ranks()?[n].min(m);
                mode_phase(ctx, "Sketch", n, |c| parallel_sketch_svd(c, world, y, n, rank, rnd))
            }
            SvdMethod::Qr => {
                let l = mode_phase(ctx, "LQ", n, |c| {
                    parallel_tensor_lq(c, world, y, n, cfg.tree, cfg.tslq)
                })?;
                mode_phase(ctx, "SVD", n, |c| {
                    c.charge_flops(svd_flops(m), T::BYTES);
                    svd_left(l.as_ref())
                })
            }
        }
    }

    fn truncate(&mut self, y: &DistTensor<T>, n: usize, u_n: &Matrix<T>) -> Result<DistTensor<T>> {
        Ok(mode_phase(self.ctx, "TTM", n, |c| parallel_ttm(c, y, n, u_n))?)
    }

    fn record(&mut self, mode: &ModeStep<T>, norm_x: T, cfg: &SthosvdConfig) {
        let Some(reg) = self.ctx.metrics_mut() else { return };
        let &ModeStep { mode: n, cols, ref u_n, ref sigma, tail_sq } = mode;
        let (rows, rank) = u_n.shape();
        let mut gauge = |name: &str, v: f64| reg.gauge_set(&format!("sthosvd/mode{n}/{name}"), v);
        // Per-mode SVD quality: what was kept, what it cost in accuracy, and
        // how close the smallest retained singular value sits to the
        // ε·‖X‖ noise floor that separates Gram-SVD from QR-SVD (paper §2.3).
        gauge("retained_rank", rank as f64);
        gauge("unfolding_cols", cols as f64);
        gauge("truncation_error", (tail_sq.max(T::ZERO).sqrt() / norm_x).to_f64());
        if rank > 0 {
            let sigma_min = sigma[rank - 1].to_f64();
            gauge("sigma_min", sigma_min);
            gauge("sigma_floor_rel", sigma_min / (T::EPSILON * norm_x).to_f64());
        }
        // Sketch geometry of the randomized/sketched mode drivers: how wide
        // the sketch was, how many virtual column blocks were folded, and
        // (for the sampled Gram estimator) how many rows were kept.
        let rnd = &cfg.randomized;
        match cfg.method {
            SvdMethod::Randomized => {
                gauge("sketch_cols", sigma.len() as f64);
                gauge("sketch_power_iters", rnd.power_iterations as f64);
                gauge("sketch_blocks", sketch_block_count(cols) as f64);
            }
            SvdMethod::SketchedGram => {
                gauge("sketch_rows", resolve_sketch_rows(rnd.sketch_rows, rows, cols) as f64)
            }
            _ => {}
        }
        // Fold this step's local-kernel totals into the registry.
        if let Some(kernels) = tucker_linalg::perf::drain() {
            for (site, ks) in kernels {
                reg.counter_add(&format!("kernel/{site}/calls"), ks.calls);
                reg.counter_add(&format!("kernel/{site}/flops"), ks.flops);
                reg.counter_add(&format!("kernel/{site}/pack_bytes"), ks.pack_bytes);
            }
        }
    }
}

/// Run parallel ST-HOSVD. Every rank calls this with its block of `x`;
/// returns per-rank output with replicated factors.
pub fn sthosvd_parallel<T: Scalar>(
    ctx: &mut Ctx,
    x: &DistTensor<T>,
    cfg: &SthosvdConfig,
) -> Result<ParallelOutput<T>> {
    let mut world = Comm::world(ctx);
    mode_loop::run(&mut DistBackend { ctx, world: &mut world }, x, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModeOrder, Truncation};
    use crate::sthosvd::{sthosvd_with_info, SthosvdOutput};
    use crate::test_util::low_rank_tensor;
    use tucker_dtensor::{ProcessorGrid, ReductionTree};
    use tucker_mpisim::{CostModel, Simulator};
    use tucker_tensor::Tensor;

    fn run_parallel(
        x: &Tensor<f64>,
        grid_dims: &[usize],
        cfg: &SthosvdConfig,
    ) -> (Vec<usize>, f64, TuckerTensor<f64>) {
        let out = run_parallel_full(x, grid_dims, cfg).unwrap();
        (out.tucker.ranks(), out.estimated_error, out.tucker)
    }

    /// Rank 0's view of a parallel run, its core gathered.
    fn run_parallel_full<T: Scalar>(
        x: &Tensor<T>,
        grid_dims: &[usize],
        cfg: &SthosvdConfig,
    ) -> Result<SthosvdOutput<T>> {
        let p: usize = grid_dims.iter().product();
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(x, &ProcessorGrid::new(grid_dims), ctx.rank());
            let r = sthosvd_parallel(ctx, &dt, cfg)?;
            let mut world = Comm::world(ctx);
            Ok(SthosvdOutput::from_loop(r, |core| core.gather(ctx, &mut world)))
        });
        out.results.into_iter().next().unwrap()
    }

    /// Degenerate inputs get one answer from both drivers: a zero extent is
    /// a typed refusal, an all-zero tensor an exact fit (error 0, not 0 / 0).
    #[test]
    fn degenerate_tensors_agree_across_drivers() {
        let cfg = SthosvdConfig::with_tolerance(1e-3);
        let empty = Tensor::<f64>::zeros(&[0, 4, 5]);
        let refusals =
            [sthosvd_with_info(&empty, &cfg).err(), run_parallel_full(&empty, &[1, 1, 1], &cfg).err()];
        for e in refusals {
            assert!(matches!(e, Some(LinalgError::InvalidConfig { param: "dims", .. })), "{e:?}");
        }
        let zero = Tensor::<f64>::zeros(&[4, 4, 5]);
        let fits =
            [sthosvd_with_info(&zero, &cfg).unwrap(), run_parallel_full(&zero, &[1, 2, 1], &cfg).unwrap()];
        for out in fits {
            assert_eq!(out.tucker.ranks(), [1, 1, 1]);
            assert_eq!(out.estimated_error, 0.0);
        }
    }

    /// The contract of the all-ones grid: the distributed backend's local
    /// phase *is* the dense backend, so the run returns `sthosvd`'s bits.
    fn assert_one_rank_grid_is_sequential<T: Scalar>(x: &Tensor<T>, cfg: &SthosvdConfig) {
        let what = format!(
            "{:?} {:?} {:?} {}-byte grid [1, 1, 1]",
            cfg.method,
            cfg.truncation,
            cfg.mode_order,
            T::BYTES
        );
        let bits = |v: &[T]| -> Vec<u64> { v.iter().map(|s| s.to_f64().to_bits()).collect() };
        let seq = sthosvd_with_info(x, cfg).unwrap();
        let par = run_parallel_full(x, &[1, 1, 1], cfg).unwrap();
        assert_eq!(par.tucker.ranks(), seq.tucker.ranks(), "{what}");
        assert_eq!(bits(par.tucker.core.data()), bits(seq.tucker.core.data()), "{what}: core bits");
        for n in 0..3 {
            let (u_par, u_seq) = (&par.tucker.factors[n], &seq.tucker.factors[n]);
            assert_eq!(bits(u_par.data()), bits(u_seq.data()), "{what}: factor {n} bits");
            let (s_par, s_seq) = (&par.singular_values[n], &seq.singular_values[n]);
            assert_eq!(bits(s_par), bits(s_seq), "{what}: sigma {n} bits");
        }
        assert_eq!(
            bits(&[par.norm_x, par.estimated_error]),
            bits(&[seq.norm_x, seq.estimated_error]),
            "{what}: norm and estimated error bits"
        );
    }

    /// Every SVD method under every truncation it allows: the distributed
    /// backend makes the sequential backend's rank decisions and reaches its
    /// error, and on a 1x1x1 grid it returns the sequential run bit for bit
    /// — in both precisions and both mode orders.
    #[test]
    fn matches_sequential_both_methods() {
        let x = low_rank_tensor(&[6, 8, 4], &[2, 3, 2], 1e-4);
        let x32: Tensor<f32> = x.cast();
        let truncations = [
            Truncation::Tolerance(1e-2),
            Truncation::Ranks(vec![2, 3, 2]),
            Truncation::None,
        ];
        for method in [
            SvdMethod::Gram,
            SvdMethod::Qr,
            SvdMethod::Randomized,
            SvdMethod::SketchedGram,
            SvdMethod::GramMixed,
        ] {
            for truncation in &truncations {
                let base = SthosvdConfig::with_tolerance(0.0).method(method);
                let cfg = SthosvdConfig { truncation: truncation.clone(), ..base };
                if cfg.validate().is_err() {
                    assert_eq!(method, SvdMethod::Randomized, "only randomized is restricted");
                    continue;
                }
                let what = format!("{method:?} {truncation:?} grid [2, 2, 1]");
                let seq = sthosvd_with_info(&x, &cfg).unwrap();
                let err_seq = seq.tucker.relative_error(&x).to_f64();
                let par = run_parallel_full(&x, &[2, 2, 1], &cfg).unwrap();
                assert_eq!(par.tucker.ranks(), seq.tucker.ranks(), "{what}");
                let err_par = par.tucker.relative_error(&x).to_f64();
                assert!((err_par - err_seq).abs() < 1e-10, "{what}: {err_par} vs {err_seq}");
                for order in [ModeOrder::Forward, ModeOrder::Backward] {
                    let cfg = cfg.clone().order(order);
                    assert_one_rank_grid_is_sequential(&x, &cfg);
                    assert_one_rank_grid_is_sequential(&x32, &cfg);
                }
            }
        }
    }

    /// A guard that needs no clock: on an all-ones grid every mode's local
    /// Gram is one `syrk` call on the whole unfolding, whatever its layout —
    /// for 16³ → 4³ that is 3 calls (not 1 + 16 + 1 per contiguous view, nor
    /// 256 + 16 + 1 one-column calls) of `I_n²·cols_n` model flops each.
    #[test]
    fn one_rank_gram_makes_one_syrk_call_per_mode() {
        let x = low_rank_tensor(&[16, 16, 16], &[4, 4, 4], 1e-4);
        let cfg = SthosvdConfig::with_ranks(vec![4, 4, 4]).method(SvdMethod::Gram);
        let out = Simulator::new(1).with_cost(CostModel::zero()).with_metrics(true).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[1, 1, 1]), ctx.rank());
            sthosvd_parallel(ctx, &dt, &cfg).unwrap();
        });
        assert_eq!(out.metrics[0].counter("kernel/syrk/calls"), 3);
        assert_eq!(out.metrics[0].counter("kernel/syrk/flops"), 16 * 16 * (256 + 64 + 16));
    }

    #[test]
    fn ranks_of_the_wrong_length_or_zero_are_typed_errors() {
        let x = low_rank_tensor(&[6, 8, 4], &[2, 3, 2], 1e-4);
        for ranks in [vec![2, 2], vec![2, 2, 2, 2], vec![2, 0, 2]] {
            for method in [SvdMethod::Qr, SvdMethod::Randomized] {
                let cfg = SthosvdConfig::with_ranks(ranks.clone()).method(method);
                let e = run_parallel_full(&x, &[2, 2, 1], &cfg).err();
                assert!(
                    matches!(e, Some(LinalgError::InvalidConfig { param: "ranks", .. })),
                    "{ranks:?} {method:?}: {e:?}"
                );
            }
        }
        // Likewise a mode order that is too short, too long, or repeats a mode.
        for order in [vec![0, 1], vec![0, 1, 2, 0], vec![0, 0, 1]] {
            let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]).order(ModeOrder::Custom(order));
            let e = run_parallel_full(&x, &[2, 2, 1], &cfg).err();
            assert!(
                matches!(e, Some(LinalgError::InvalidConfig { param: "mode_order", .. })),
                "{:?}: {e:?}",
                cfg.mode_order
            );
        }
    }

    #[test]
    fn tolerance_guarantee_distributed() {
        let x = low_rank_tensor(&[8, 6, 6], &[3, 2, 2], 1e-3);
        for grid in [[2usize, 2, 1], [4, 1, 1], [1, 2, 2]] {
            let cfg = SthosvdConfig::with_tolerance(1e-2);
            let (_, _, tk) = run_parallel(&x, &grid, &cfg);
            let err = tk.relative_error(&x).to_f64();
            assert!(err <= 1.05e-2, "grid {grid:?}: err {err}");
        }
    }

    #[test]
    fn backward_order_and_binomial_tree() {
        let x = low_rank_tensor(&[6, 6, 8], &[2, 2, 3], 1e-4);
        let cfg = SthosvdConfig::with_tolerance(1e-2)
            .order(ModeOrder::Backward)
            .tree(ReductionTree::Binomial);
        let (ranks, _, tk) = run_parallel(&x, &[2, 1, 3], &cfg);
        assert!(tk.relative_error(&x).to_f64() <= 1.05e-2);
        assert_eq!(ranks.len(), 3);
    }

    #[test]
    fn fixed_ranks_distributed() {
        let x = low_rank_tensor(&[8, 8, 8], &[4, 4, 4], 1e-2);
        let cfg = SthosvdConfig::with_ranks(vec![3, 2, 4]);
        let (ranks, _, _) = run_parallel(&x, &[2, 2, 2], &cfg);
        assert_eq!(ranks, vec![3, 2, 4]);
    }

    #[test]
    fn phase_breakdown_recorded() {
        let x = low_rank_tensor(&[6, 6, 6], &[2, 2, 2], 1e-4);
        let out = Simulator::new(4).with_cost(CostModel::andes()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
            let cfg = SthosvdConfig::with_tolerance(1e-2).method(SvdMethod::Qr);
            sthosvd_parallel(ctx, &dt, &cfg).unwrap();
        });
        let b = out.breakdown();
        assert!(b.phases.contains_key("LQ"), "phases: {:?}", b.phases.keys());
        assert!(b.phases.contains_key("SVD"));
        assert!(b.phases.contains_key("TTM"));
        assert!(b.modeled_time > 0.0);
        assert!(b.total_flops > 0.0);
    }

    #[test]
    fn gram_variant_phases() {
        let x = low_rank_tensor(&[6, 6, 6], &[2, 2, 2], 1e-4);
        let out = Simulator::new(2).with_cost(CostModel::andes()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 1, 1]), ctx.rank());
            let cfg = SthosvdConfig::with_tolerance(1e-2).method(SvdMethod::Gram);
            sthosvd_parallel(ctx, &dt, &cfg).unwrap();
        });
        let b = out.breakdown();
        assert!(b.phases.contains_key("Gram"));
        assert!(b.phases.contains_key("EVD"));
    }

    #[test]
    fn distributed_error_paths_agree() {
        let x = low_rank_tensor(&[8, 6, 6], &[3, 2, 2], 1e-3);
        let out = Simulator::new(4).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
            let cfg = SthosvdConfig::with_tolerance(1e-2);
            let r = sthosvd_parallel(ctx, &dt, &cfg).unwrap();
            let mut world = Comm::world(ctx);
            let exact = r.relative_error_distributed(ctx, &mut world, &dt).unwrap().to_f64();
            let via_core = r.relative_error_via_core(ctx, &mut world).to_f64();
            let gathered = r.to_tucker(ctx, &mut world).relative_error(&x).to_f64();
            (exact, via_core, gathered)
        });
        for (exact, via_core, gathered) in out.results {
            assert!((exact - gathered).abs() < 1e-10, "distributed {exact} vs gathered {gathered}");
            assert!((via_core - gathered).abs() < 1e-8, "identity {via_core} vs gathered {gathered}");
        }
    }

    #[test]
    fn mixed_precision_parallel_matches_double_gram_ranks() {
        let x64 = low_rank_tensor(&[8, 8, 6], &[3, 3, 2], 1e-4);
        let x32: tucker_tensor::Tensor<f32> = x64.cast();
        let out = Simulator::new(4).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x32, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
            let cfg = SthosvdConfig::with_tolerance(1e-2).method(SvdMethod::GramMixed);
            let r = sthosvd_parallel(ctx, &dt, &cfg).unwrap();
            let mut world = Comm::world(ctx);
            (r.ranks(), r.relative_error_distributed(ctx, &mut world, &dt).unwrap().to_f64())
        });
        let seq = sthosvd_with_info(&x32, &SthosvdConfig::with_tolerance(1e-2).method(SvdMethod::GramMixed)).unwrap();
        for (ranks, err) in out.results {
            assert_eq!(ranks, seq.tucker.ranks());
            assert!(err <= 1.1e-2, "err {err}");
        }
    }

    #[test]
    fn factors_are_replicated() {
        let x = low_rank_tensor(&[6, 6, 4], &[2, 2, 2], 1e-4);
        let out = Simulator::new(4).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
            let cfg = SthosvdConfig::with_tolerance(1e-3);
            let r = sthosvd_parallel(ctx, &dt, &cfg).unwrap();
            r.factors
        });
        let f0 = &out.results[0];
        for f in &out.results[1..] {
            for (a, b) in f0.iter().zip(f) {
                assert!(a.max_abs_diff(b) == 0.0, "factors differ across ranks");
            }
        }
    }
}
