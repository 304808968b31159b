//! Parallel LQ of a tensor unfolding — Alg. 3 of the paper, the kernel of
//! the QR-SVD path.
//!
//! Local phase: if `P_n = 1` the local unfolding already spans all `J_n`
//! rows and the sequential TensorLQ (Alg. 2) — [`Unfolding::lq`], the same
//! call the sequential driver makes — runs on it as is; otherwise the fiber
//! redistribution produces a column-major local stripe and `lq_factor`
//! takes its `L`.
//!
//! Reduction phase: a TSQR tree over *packed lower triangles*. The default
//! is the paper's butterfly (all-reduce flavour: `log P` exchange steps, the
//! result lands redundantly on every rank); a binomial-tree + broadcast
//! variant is provided for the ablation study. Non-power-of-two rank counts
//! fold the excess ranks into the largest power-of-two subset first.
//!
//! Cost per rank (paper eq. 9–10):
//! `γ(2·J_n·J*/P* + O(J_n³ log P))  +  β(J*/P* + J_n² log P)  +  α(P_n + log P)`.

use crate::dist::DistTensor;
use crate::guard::{check_finite, NumericalFault};
use crate::redistribute::redistribute;
use tucker_linalg::lq::lq_factor;
use tucker_linalg::perf::lq_flops;
use tucker_linalg::tplqt::tplqt_pair;
use tucker_linalg::tslq::TslqOptions;
use tucker_linalg::{Matrix, Scalar};
use tucker_mpisim::{Comm, Ctx};
use tucker_tensor::Unfolding;

/// Shape of the TSQR reduction tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionTree {
    /// Paper's choice: pairwise exchange at every level, result redundant on
    /// all ranks (all-reduce behaviour), `log P` rounds.
    Butterfly,
    /// Ablation: reduce to rank 0 over a binomial tree, then broadcast L.
    Binomial,
}

/// Parallel LQ of the mode-`n` unfolding: returns the `J_n x J_n` lower
/// triangular factor `L`, identical on every rank.
///
/// Guarded: non-finite values after the fiber redistribution or the TSQR
/// reduction surface as a typed [`NumericalFault`] instead of flowing into
/// the SVD of `L`.
pub fn parallel_tensor_lq<T: Scalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    dt: &DistTensor<T>,
    n: usize,
    tree: ReductionTree,
    tslq_opts: TslqOptions,
) -> Result<Matrix<T>, NumericalFault> {
    let m = dt.global_dims()[n];
    let p_n = dt.grid().dims()[n];

    // Local phase (Alg. 3 lines 4–9).
    let mut l = if p_n == 1 {
        let unf = Unfolding::new(dt.local(), n);
        debug_assert_eq!(unf.rows(), m);
        ctx.charge_flops(lq_flops(m as f64, unf.cols() as f64), T::BYTES);
        unf.lq(tslq_opts)
    } else {
        let z = ctx.phase("Redistribute", |c| redistribute(c, dt, n, Some("LQ/redistribute")))?;
        ctx.charge_flops(lq_flops(m as f64, z.cols() as f64), T::BYTES);
        lq_factor(z.as_ref())
    };

    // Reduction phase (Alg. 3 lines 10–18) over packed triangles; its own
    // sub-span so --trace separates it from the local LQ.
    ctx.phase("LQ/reduce", |c| match tree {
        ReductionTree::Butterfly => butterfly_reduce(c, world, &mut l),
        ReductionTree::Binomial => binomial_reduce(c, world, &mut l),
    });
    check_finite(ctx.rank(), "LQ/reduce", n, l.data())?;
    Ok(l)
}

/// Pack the lower triangle of a square matrix column-by-column.
pub fn pack_lower<T: Scalar>(l: &Matrix<T>) -> Vec<T> {
    let m = l.rows();
    let mut out = Vec::with_capacity(m * (m + 1) / 2);
    for j in 0..m {
        for i in j..m {
            out.push(l[(i, j)]);
        }
    }
    out
}

/// Inverse of [`pack_lower`].
pub fn unpack_lower<T: Scalar>(m: usize, packed: &[T]) -> Matrix<T> {
    assert_eq!(packed.len(), m * (m + 1) / 2, "unpack_lower: bad length");
    let mut l = Matrix::zeros(m, m);
    let mut k = 0;
    for j in 0..m {
        for i in j..m {
            l[(i, j)] = packed[k];
            k += 1;
        }
    }
    l
}

/// Reduction-operation flop charge: LQ of an `m x 2m` structured pair.
fn pair_flops(m: usize) -> f64 {
    2.0 * (m as f64).powi(3)
}

/// Tags used inside a reduction's private communicator.
const TAG_FOLD_IN: u64 = 1;
const TAG_FOLD_OUT: u64 = 2;
const TAG_LEVEL_BASE: u64 = 16;

/// Butterfly (all-reduce style) TSQR reduction. Handles any rank count by
/// folding ranks `>= 2^⌊log P⌋` into the power-of-two core first.
///
/// All tree traffic runs on a private communicator with explicit tags, so the
/// unequal participation of tail ranks cannot desynchronize the parent
/// communicator's collective tag space.
fn butterfly_reduce<T: Scalar>(ctx: &mut Ctx, world: &mut Comm, l: &mut Matrix<T>) {
    let p = world.size();
    if p == 1 {
        return;
    }
    let members: Vec<usize> = (0..p).map(|i| world.world_rank(i)).collect();
    let comm = Comm::subset(ctx, members);
    let m = l.rows();
    let f = prev_power_of_two(p);
    let me = comm.rank();

    if me >= f {
        // Tail rank: fold my triangle into the core, then await the result.
        comm.send_to(ctx, me - f, TAG_FOLD_IN, pack_lower(l));
        let packed: Vec<T> = comm.recv_from(ctx, me - f, TAG_FOLD_OUT);
        *l = unpack_lower(m, &packed);
        return;
    }
    let tail_partner = me + f;
    if tail_partner < p {
        let packed: Vec<T> = comm.recv_from(ctx, tail_partner, TAG_FOLD_IN);
        let other = unpack_lower(m, &packed);
        ctx.charge_flops(pair_flops(m), T::BYTES);
        tplqt_pair(l, &other);
    }

    // Butterfly among the 2^k core (paper's partner formula = p XOR 2^i).
    let levels = f.trailing_zeros();
    for i in (0..levels).rev() {
        let q = me ^ (1usize << i);
        let theirs: Vec<T> = comm.exchange(ctx, q, TAG_LEVEL_BASE + i as u64, pack_lower(l));
        let other = unpack_lower(m, &theirs);
        ctx.charge_flops(pair_flops(m), T::BYTES);
        if me < q {
            // L = LQ([L_me  L_q])
            tplqt_pair(l, &other);
        } else {
            // L = LQ([L_q  L_me])
            let mut base = other;
            tplqt_pair(&mut base, l);
            *l = base;
        }
    }

    if tail_partner < p {
        comm.send_to(ctx, tail_partner, TAG_FOLD_OUT, pack_lower(l));
    }
}

/// Binomial reduce-to-0 + broadcast (the ablation variant).
fn binomial_reduce<T: Scalar>(ctx: &mut Ctx, world: &mut Comm, l: &mut Matrix<T>) {
    let p = world.size();
    if p == 1 {
        return;
    }
    let members: Vec<usize> = (0..p).map(|i| world.world_rank(i)).collect();
    let mut comm = Comm::subset(ctx, members);
    let m = l.rows();
    let me = comm.rank();
    let mut mask = 1usize;
    let mut level = 0u64;
    while mask < p {
        if me & mask != 0 {
            comm.send_to(ctx, me - mask, TAG_LEVEL_BASE + level, pack_lower(l));
            break;
        }
        let src = me + mask;
        if src < p {
            let packed: Vec<T> = comm.recv_from(ctx, src, TAG_LEVEL_BASE + level);
            let other = unpack_lower(m, &packed);
            ctx.charge_flops(pair_flops(m), T::BYTES);
            tplqt_pair(l, &other);
        }
        mask <<= 1;
        level += 1;
    }
    // Zero-copy broadcast: interior tree nodes forward one shared packed
    // buffer instead of re-cloning it per child; only the final unpack reads
    // it.
    let packed = comm.bcast_shared(ctx, 0, (me == 0).then(|| pack_lower(l)));
    *l = unpack_lower(m, &packed);
}

/// Largest power of two `≤ p` (`p ≥ 1`): the size of the butterfly's core.
/// Shared with `tucker-core::conformance`, which predicts the tree's
/// messages and merges from it.
pub fn prev_power_of_two(p: usize) -> usize {
    1 << p.ilog2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessorGrid;
    use tucker_linalg::gemm::{gemm_into, Trans};
    use tucker_linalg::syrk_lower;
    use tucker_mpisim::{CostModel, Simulator};
    use tucker_tensor::Tensor;

    fn test_tensor(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            let mut v = 0.1;
            for (k, &x) in i.iter().enumerate() {
                v += ((x + 1) * (2 * k + 3)) as f64 * 0.17;
            }
            v.sin()
        })
    }

    fn check(dims: &[usize], grid_dims: &[usize], n: usize, tree: ReductionTree) {
        let x = test_tensor(dims);
        let p: usize = grid_dims.iter().product();
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(grid_dims), ctx.rank());
            let mut world = Comm::world(ctx);
            parallel_tensor_lq(ctx, &mut world, &dt, n, tree, TslqOptions).unwrap()
        });
        // L Lᵀ must equal the Gram matrix of the global unfolding, and all
        // ranks must hold the identical L.
        let want = syrk_lower(Unfolding::new(&x, n).to_matrix().as_ref());
        let l0 = &out.results[0];
        for l in &out.results {
            assert_eq!(l.shape(), (dims[n], dims[n]));
            let g = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
            assert!(g.max_abs_diff(&want) < 1e-10, "L Lᵀ != A Aᵀ (mode {n}, {tree:?})");
            assert!(l.max_abs_diff(l0) < 1e-14, "L not redundant across ranks");
            // Lower triangular.
            for j in 0..l.cols() {
                for i in 0..j {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn butterfly_power_of_two() {
        for n in 0..3 {
            check(&[4, 5, 6], &[2, 1, 2], n, ReductionTree::Butterfly);
        }
    }

    #[test]
    fn butterfly_non_power_of_two() {
        check(&[4, 6, 5], &[3, 1, 2], 1, ReductionTree::Butterfly);
        check(&[4, 6, 5], &[1, 3, 1], 1, ReductionTree::Butterfly);
    }

    #[test]
    fn binomial_matches_butterfly() {
        for n in 0..3 {
            check(&[5, 4, 6], &[2, 2, 1], n, ReductionTree::Binomial);
        }
        check(&[5, 4, 6], &[3, 1, 2], 0, ReductionTree::Binomial);
    }

    #[test]
    fn single_rank_is_sequential_tslq() {
        check(&[4, 5, 3], &[1, 1, 1], 1, ReductionTree::Butterfly);
    }

    #[test]
    fn local_rows_exceed_local_cols_pads() {
        // After redistribution local stripes are tall: 8 rows, few columns.
        check(&[8, 2, 2], &[4, 1, 1], 0, ReductionTree::Butterfly);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let l = Matrix::from_fn(4, 4, |i, j| if j <= i { (i * 4 + j) as f64 } else { 0.0 });
        let packed = pack_lower(&l);
        assert_eq!(packed.len(), 10);
        assert_eq!(unpack_lower(4, &packed), l);
    }

    #[test]
    fn uneven_rows_distribution() {
        check(&[7, 3, 4], &[3, 1, 2], 0, ReductionTree::Butterfly);
    }

    #[test]
    fn inf_input_is_detected_as_numerical_fault() {
        let mut x = test_tensor(&[4, 4, 4]);
        x.data_mut()[9] = f64::INFINITY;
        let err = Simulator::new(2)
            .with_cost(CostModel::zero())
            .run_result(|ctx| {
                let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 1, 1]), ctx.rank());
                let mut world = Comm::world(ctx);
                parallel_tensor_lq(ctx, &mut world, &dt, 0, ReductionTree::Butterfly, TslqOptions)
            })
            .unwrap_err();
        match err {
            tucker_mpisim::SimFailure::Rank { error, .. } => {
                assert!(error.phase.starts_with("LQ/"), "{}", error.phase);
            }
            tucker_mpisim::SimFailure::Sim(e) => panic!("expected NumericalFault, got {e}"),
        }
    }

    #[test]
    fn single_precision_lq() {
        let dims = [4, 4, 4];
        let x64 = test_tensor(&dims);
        let x32: Tensor<f32> = x64.cast();
        let out = Simulator::new(4).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x32, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
            let mut world = Comm::world(ctx);
            parallel_tensor_lq(ctx, &mut world, &dt, 0, ReductionTree::Butterfly, TslqOptions)
                .unwrap()
        });
        let want = syrk_lower(Unfolding::new(&x32, 0).to_matrix().as_ref());
        for l in out.results {
            let g = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
            assert!(g.max_abs_diff(&want) < 1e-3 * want.max_abs());
        }
    }
}
