//! Parallel TTM truncation: `Y = X ×_n U_nᵀ` for a block-distributed tensor
//! with the factor matrix `U_n` stored redundantly on every rank (the
//! ST-HOSVD line-7 operation, reusing TuckerMPI's scheme).
//!
//! Each rank multiplies its *row* stripe of `U_nᵀ`'s input dimension against
//! its local block (a local TTM), producing a partial result that spans all
//! `R_n` output indices; a reduce-scatter across the mode-`n` fiber then sums
//! the partials and leaves each rank with its block row of the output —
//! restoring the block distribution with the mode-`n` dimension shrunk to
//! `R_n`.
//!
//! Bucket layout: the partial is `I_n^<` × `R_n` × `I_n^>` (first index
//! fastest), so fiber rank `q`'s output rows `block_range(R_n, P_n, q)` are
//! one contiguous run of every one of the `I_n^>` output blocks, and its
//! chunk is those runs back to back — already the layout of its output
//! block. `reduce_scatter_vec` sums the chunks in fiber-member order, so the
//! bits do not depend on how a chunk was filled.

use crate::dist::{block_range, DistTensor};
use crate::guard::{check_finite, NumericalFault};
use tucker_linalg::{Matrix, Scalar};
use tucker_mpisim::{Comm, Ctx};
use tucker_tensor::{prod_after, prod_before, ttm, Tensor};

/// Distributed `Y = X ×_n Uᵀ` with `U` (`J_n x R_n`) replicated on all ranks
/// — the ST-HOSVD truncation direction.
pub fn parallel_ttm<T: Scalar>(
    ctx: &mut Ctx,
    dt: &DistTensor<T>,
    n: usize,
    u: &Matrix<T>,
) -> Result<DistTensor<T>, NumericalFault> {
    parallel_ttm_op(ctx, dt, n, u, true)
}

/// Distributed TTM in either direction:
/// * `transpose = true`: `Y = X ×_n Uᵀ` with `U` of shape `J_n x R_n`
///   (truncation; output mode-`n` dimension `R_n`);
/// * `transpose = false`: `Y = X ×_n U` with `U` of shape `I_n x J_n`
///   (reconstruction/prolongation; output mode-`n` dimension `I_n`).
///
/// Either way each rank multiplies its owned slice of `U` against its local
/// block and a fiber reduce-scatter redistributes the output mode.
///
/// Guarded: non-finite values in the local partial product or after the
/// fiber reduce-scatter surface as a typed [`NumericalFault`].
pub fn parallel_ttm_op<T: Scalar>(
    ctx: &mut Ctx,
    dt: &DistTensor<T>,
    n: usize,
    u: &Matrix<T>,
    transpose: bool,
) -> Result<DistTensor<T>, NumericalFault> {
    let j_n = dt.global_dims()[n];
    let (in_dim, r) = if transpose { (u.rows(), u.cols()) } else { (u.cols(), u.rows()) };
    assert_eq!(in_dim, j_n, "parallel_ttm: factor inner dimension must match mode-{n}");
    let p_n = dt.grid().dims()[n];
    let my_rows = dt.owned_range(n);
    let b_n = my_rows.len();

    // Local TTM against my slice of U: partial spans all `r` outputs.
    let u_loc = if transpose {
        u.as_ref().submatrix(my_rows.start, 0, b_n, r)
    } else {
        u.as_ref().submatrix(0, my_rows.start, r, b_n)
    };
    let local_cols: f64 = (dt.local().len() / b_n.max(1)) as f64;
    // Sub-phase spans (nested under the caller's "TTM" frame) separate the
    // local multiply from the fiber reduce-scatter in --trace output.
    let partial = ctx.phase("TTM/local", |c| {
        c.charge_flops(2.0 * r as f64 * b_n as f64 * local_cols, T::BYTES);
        ttm(dt.local(), n, u_loc, transpose)
    });
    check_finite(ctx.rank(), "TTM/local", n, partial.data())?;

    let mut new_global = dt.global_dims().to_vec();
    new_global[n] = r;

    if p_n == 1 {
        return Ok(dt.with_local(new_global, partial));
    }

    // Split the partial along mode n into per-fiber-rank chunks and
    // reduce-scatter within the fiber. Output rows `rows` of block `blk`
    // are one contiguous run of the partial, so a chunk is `after` copies.
    let pdims = partial.dims();
    let before = prod_before(pdims, n);
    let after = prod_after(pdims, n);
    let chunks: Vec<Vec<T>> = (0..p_n)
        .map(|q| {
            let rows = block_range(r, p_n, q);
            let run = rows.len() * before;
            let mut buf = Vec::with_capacity(run * after);
            for blk in 0..after {
                let first = (blk * r + rows.start) * before;
                buf.extend_from_slice(&partial.data()[first..first + run]);
            }
            buf
        })
        .collect();
    let fiber = dt.grid().fiber(dt.coords(), n);
    let mut comm = Comm::subset(ctx, fiber);
    let mine = ctx.phase("TTM/reduce_scatter", |c| comm.reduce_scatter_vec(c, chunks));
    check_finite(ctx.rank(), "TTM/reduce_scatter", n, &mine)?;

    let my_new_rows = block_range(r, p_n, dt.coords()[n]).len();
    let mut new_local_dims = dt.local().dims().to_vec();
    new_local_dims[n] = my_new_rows;
    let local = Tensor::from_data(&new_local_dims, mine);
    Ok(dt.with_local(new_global, local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessorGrid;
    use tucker_mpisim::{CostModel, Simulator};

    fn test_tensor(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            let mut v = 0.9;
            for (k, &x) in i.iter().enumerate() {
                v += ((x + 3) * (k + 2)) as f64 * 0.19;
            }
            v.cos()
        })
    }

    fn check(dims: &[usize], grid_dims: &[usize], n: usize, r: usize) {
        let x = test_tensor(dims);
        let u = Matrix::from_fn(dims[n], r, |i, j| ((i * r + j) as f64 * 0.23).sin());
        let p: usize = grid_dims.iter().product();
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(grid_dims), ctx.rank());
            let y = parallel_ttm(ctx, &dt, n, &u).unwrap();
            let mut world = Comm::world(ctx);
            y.gather(ctx, &mut world)
        });
        let want = ttm(&x, n, u.as_ref(), true);
        for y in out.results {
            assert_eq!(y.dims(), want.dims());
            assert!(y.max_abs_diff(&want) < 1e-12, "mode {n} grid {grid_dims:?}");
        }
    }

    #[test]
    fn all_modes_distributed() {
        for n in 0..3 {
            check(&[6, 4, 5], &[2, 2, 1], n, 2);
        }
    }

    #[test]
    fn mode_with_large_fiber() {
        check(&[8, 3, 4], &[4, 1, 1], 0, 3);
    }

    #[test]
    fn undistributed_mode() {
        check(&[4, 6, 5], &[1, 2, 2], 0, 2);
    }

    #[test]
    fn uneven_everything() {
        // 7 rows over 3 ranks, truncating to rank 4 over 3 ranks → 2,1,1.
        check(&[7, 4, 3], &[3, 1, 2], 0, 4);
    }

    /// A middle mode split three ways: every chunk is one run per output
    /// block of `before = 4` columns, the output rows 5 → 2, 2, 1.
    #[test]
    fn middle_mode_over_three_ranks() {
        check(&[4, 7, 3], &[1, 3, 2], 1, 5);
    }

    #[test]
    fn rank_one_truncation() {
        check(&[4, 5, 3], &[2, 1, 2], 1, 1);
    }

    #[test]
    fn four_mode() {
        for n in 0..4 {
            check(&[3, 4, 2, 5], &[1, 2, 1, 2], n, 2);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // n is the tensor mode
    fn reconstruction_direction_matches_sequential() {
        // Y = X ×_n U with U (I x J): prolongation, as used by distributed
        // reconstruction.
        let dims = [4usize, 5, 3];
        let x = test_tensor(&dims);
        for n in 0..3 {
            let i_out = dims[n] + 3;
            let u = Matrix::from_fn(i_out, dims[n], |i, j| ((i * 5 + j) as f64 * 0.29).cos());
            let want = ttm(&x, n, u.as_ref(), false);
            let out = Simulator::new(4).with_cost(CostModel::zero()).run(|ctx| {
                let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
                let y = parallel_ttm_op(ctx, &dt, n, &u, false).unwrap();
                let mut world = tucker_mpisim::Comm::world(ctx);
                y.gather(ctx, &mut world)
            });
            for y in out.results {
                assert!(y.max_abs_diff(&want) < 1e-12, "mode {n}");
            }
        }
    }

    #[test]
    fn output_distribution_is_blockwise() {
        let dims = [6, 4, 4];
        let x = test_tensor(&dims);
        let u = Matrix::from_fn(6, 4, |i, j| ((i + j) as f64).sin());
        let out = Simulator::new(2).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 1, 1]), ctx.rank());
            let y = parallel_ttm(ctx, &dt, 0, &u).unwrap();
            (y.local().dims().to_vec(), y.owned_range(0))
        });
        // R = 4 over P_0 = 2 → rows 0..2 and 2..4.
        assert_eq!(out.results[0].0, vec![2, 4, 4]);
        assert_eq!(out.results[0].1, 0..2);
        assert_eq!(out.results[1].1, 2..4);
    }
}
