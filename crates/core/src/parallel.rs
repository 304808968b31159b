//! Parallel ST-HOSVD (paper §3.4), running as an SPMD program on simulated
//! MPI ranks.
//!
//! Per mode: the SVD of the distributed unfolding is computed either by the
//! parallel Gram algorithm (local `syrk` after fiber redistribution + world
//! all-reduce, then a redundant eigendecomposition) or by the parallel
//! butterfly-TSQR LQ (Alg. 3, then a redundant SVD of the triangle) — or,
//! on a tall mode QR-SVD factors thin, by an allgather of the unfolding and
//! a redundant SVD of it; the truncation TTM is the reduce-scatter
//! algorithm of `tucker-dtensor`. All ranks make identical rank decisions
//! because every path leaves the reduced matrix (Gram matrix, triangle or
//! unfolding) bit-identical everywhere.
//!
//! Phase timers label the paper's breakdown categories: `LQ`/`Gram`,
//! `SVD`/`EVD`, `TTM` (plus the nested `Redistribute`, and `SVD/gather` on
//! a thin mode).

use crate::config::{SthosvdConfig, SvdMethod};
use crate::mode_loop::{self, unfolding_cols, LoopOutput, LoopState, ModeBackend, ModeStep};
use crate::svd_driver::{thin_svd, with_unfolding};
use crate::tucker::TuckerTensor;
use tucker_dtensor::{
    parallel_gram, parallel_gram_mixed, parallel_sketch_svd, parallel_tensor_lq, parallel_ttm,
    parallel_ttm_op, DistTensor,
};
use tucker_linalg::gram_svd::gram_svd_from_gram;
use tucker_linalg::mixed::gram_svd_mixed_from_gram;
use tucker_linalg::perf::{svd_flops, thin_svd_flops};
use tucker_linalg::randomized::sketch_block_count;
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
        match cfg.method {
            SvdMethod::Gram => {
                let g = mode_phase(ctx, "Gram", n, |c| parallel_gram(c, world, y, n))?;
                mode_phase(ctx, "EVD", n, |c| {
                    c.charge_flops(svd_flops(m), T::BYTES);
                    gram_svd_from_gram(&g)
                })
            }
            SvdMethod::GramMixed => {
                let g = mode_phase(ctx, "Gram", n, |c| parallel_gram_mixed(c, world, y, n))?;
                mode_phase(ctx, "EVD", n, |c| {
                    // The eigendecomposition runs in f64.
                    c.charge_flops(svd_flops(m), 8);
                    gram_svd_mixed_from_gram(&g)
                })
            }
            SvdMethod::Randomized => {
                let rank = cfg.fixed_ranks()?[n].min(m);
                mode_phase(ctx, "Sketch", n, |c| {
                    parallel_sketch_svd(c, world, y, n, rank, &cfg.randomized)
                })
            }
            // A thin mode allgathers the working tensor — its whole
            // `I_n × I^*/I_n` unfolding, fewer words than an `I_n × I_n`
            // square — and every rank runs the dense backend's call on it:
            // the same bits on every grid.
            SvdMethod::Qr if cfg.thin_svd(n, m, unfolding_cols(y.global_dims(), n)) => {
                mode_phase(ctx, "SVD", n, |c| {
                    let whole = c.phase("SVD/gather", |c| y.gather(c, world));
                    let cols = whole.len() / m;
                    c.charge_flops(thin_svd_flops(m, cols), T::BYTES);
                    with_unfolding(&whole, n, thin_svd)
                })
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
        let rank = u_n.cols();
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
        // Sketch geometry of the randomized mode driver: how wide the
        // sketch was and how many virtual column blocks were folded.
        if cfg.method == SvdMethod::Randomized {
            gauge("sketch_cols", sigma.len() as f64);
            gauge("sketch_power_iters", cfg.randomized.power_iterations as f64);
            gauge("sketch_blocks", sketch_block_count(cols) as f64);
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

    /// A tall mode's thin SVD is the dense backend's call on the gathered
    /// unfolding: factor and σ carry the dense bits on every grid, whichever
    /// mode the grid splits, in both precisions.
    #[test]
    fn thin_mode_factor_has_the_dense_bits_on_every_grid() {
        fn check<T: Scalar>(x: &Tensor<T>, n: usize) {
            let cfg = SthosvdConfig::with_tolerance(1e-3);
            let bits = |v: &[T]| -> Vec<u64> { v.iter().map(|s| s.to_f64().to_bits()).collect() };
            let (u, s) = crate::svd_driver::DenseBackend.mode_factor(x, n, &cfg).unwrap();
            for grid in [[1usize, 1, 1], [2, 1, 1], [1, 2, 1]] {
                let p = grid.iter().product();
                let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
                    let dt = DistTensor::scatter_from(x, &ProcessorGrid::new(&grid), ctx.rank());
                    let mut world = Comm::world(ctx);
                    DistBackend { ctx, world: &mut world }.mode_factor(&dt, n, &cfg).unwrap()
                });
                for (u_p, s_p) in &out.results {
                    let what = format!("{}-byte mode {n} grid {grid:?}", T::BYTES);
                    assert_eq!(bits(u_p.data()), bits(u.data()), "{what}: factor bits");
                    assert_eq!(bits(s_p), bits(&s), "{what}: sigma bits");
                }
            }
        }
        for (n, dims) in [[24usize, 3, 2], [3, 24, 2], [3, 2, 24]].iter().enumerate() {
            let x = low_rank_tensor(dims, &[2, 2, 2], 1e-3);
            check(&x, n);
            check(&x.cast::<f32>(), n);
        }
    }

    /// Whole runs on a shape where every mode is tall in forward order
    /// ([64, 12, 5] → [2, 12, 5] → [2, 2, 5]): a 1×1×1 grid returns
    /// `sthosvd`'s bits under fixed ranks (forward and the cost-model
    /// order) and a tolerance; on split grids the ranks agree, the first
    /// factor and its σ keep the sequential bits (later modes read a tensor
    /// the fiber reduce-scatter of the TTM summed in another order) and the
    /// error agrees to rounding.
    #[test]
    fn thin_modes_keep_the_sequential_answer_on_every_grid() {
        let x = low_rank_tensor(&[64, 12, 5], &[2, 2, 2], 1e-3);
        let ranks = SthosvdConfig::with_ranks(vec![2, 2, 2]);
        for cfg in [
            ranks.clone().order(ModeOrder::Forward),
            ranks.clone(),
            SthosvdConfig::with_tolerance(1e-2),
        ] {
            assert_one_rank_grid_is_sequential(&x, &cfg);
            assert_one_rank_grid_is_sequential(&x.cast::<f32>(), &cfg);
        }
        let cfg = ranks.order(ModeOrder::Forward);
        let seq = sthosvd_with_info(&x, &cfg).unwrap();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|s| s.to_bits()).collect() };
        for grid in [[2usize, 1, 1], [1, 2, 1]] {
            let par = run_parallel_full(&x, &grid, &cfg).unwrap();
            assert_eq!(par.tucker.ranks(), seq.tucker.ranks(), "grid {grid:?}");
            assert_eq!(bits(par.tucker.factors[0].data()), bits(seq.tucker.factors[0].data()));
            assert_eq!(bits(&par.singular_values[0]), bits(&seq.singular_values[0]));
            let (e_par, e_seq) = (par.tucker.relative_error(&x), seq.tucker.relative_error(&x));
            assert!((e_par - e_seq).abs() < 1e-12, "grid {grid:?}: {e_par} vs {e_seq}");
        }
    }

    /// The distributed bits, pinned: factors, σ and the gathered core of
    /// whole runs whose split modes go through the fiber redistribution and
    /// the TTM's reduce-scatter — a mode-0 split (one-run buckets), a
    /// middle-mode split (buckets cut from row-major blocks) and an uneven
    /// 3×2 split. The hashes were recorded from the element-wise exchanges;
    /// filling the buckets another way must not move a bit.
    #[test]
    fn split_grids_keep_their_bits() {
        fn hash(out: &SthosvdOutput<f64>) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let tk = &out.tucker;
            let words = tk.core.data().iter().chain(tk.factors.iter().flat_map(|u| u.data()));
            for v in words.chain(out.singular_values.iter().flatten()) {
                let bits = v.to_bits();
                for k in 0..8 {
                    h = (h ^ ((bits >> (8 * k)) & 0xff)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            h
        }
        let x = low_rank_tensor(&[12, 10, 9], &[3, 3, 3], 1e-3);
        let cases: [(SvdMethod, [usize; 3], u64); 6] = [
            (SvdMethod::Qr, [2, 1, 1], 0xa71f_73c6_0d6d_be42),
            (SvdMethod::Qr, [1, 2, 1], 0x8dbc_8280_7d32_8374),
            (SvdMethod::Qr, [3, 2, 1], 0x192d_0588_a8dd_5826),
            (SvdMethod::Gram, [2, 1, 1], 0x6251_23fa_512d_4738),
            (SvdMethod::Gram, [1, 2, 1], 0xaf17_c549_3b0f_bd93),
            (SvdMethod::Gram, [3, 2, 1], 0x41b5_01e0_37d3_f940),
        ];
        for (method, grid, want) in cases {
            let cfg = SthosvdConfig::with_tolerance(1e-2).method(method);
            let out = run_parallel_full(&x, &grid, &cfg).unwrap();
            assert_eq!(out.tucker.ranks(), [2, 3, 2], "{method:?} grid {grid:?}");
            assert_eq!(hash(&out), want, "{method:?} grid {grid:?}: {:#x}", hash(&out));
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
