//! Fiber redistribution: bring the mode-`n` unfolding into 1D column
//! distribution (paper Alg. 3 line 7, reusing the scheme of [6, Alg. 4]).
//!
//! Within a mode-`n` processor fiber the `P_n` ranks share the same index
//! ranges in every other mode and partition mode `n`: collectively they own
//! all `J_n` rows of a `J_n x C_f` slab of the unfolding, each holding a
//! *row* stripe. One personalized all-to-all per fiber converts this to a
//! *column* stripe per rank — after which the whole unfolding is 1D
//! column-distributed across all `P` ranks (up to the column permutation
//! that left singular vectors are invariant to, §3.4).
//!
//! Bucket layout: fiber rank `q` receives columns `block_range(C_f, P_n, q)`
//! of the sender's `b_n x C_f` local unfolding, column-major (`b_n` words
//! per column). A local unfolding column is one contiguous run on mode 0,
//! so there a bucket is a single copy of `data[cols.start·b_n ..
//! cols.end·b_n]`; on other modes it is a stride-`I_n^<` walk down one
//! column of a row-major block, with one index split per column. The
//! rank's own bucket is never packed: `alltoallv` keeps the self bucket
//! local anyway, so the unpack reads those rows from the local block in
//! place and the messages are the same. The unpack writes the `J_n x c`
//! stripe one column at a time — the `P_n` row pieces in fiber order — and
//! the guarded form scans each column for NaN/Inf while it is in cache.

use crate::dist::{block_range, DistTensor};
use crate::guard::NumericalFault;
use std::ops::Range;
use tucker_linalg::{Matrix, Scalar};
use tucker_mpisim::{Comm, Ctx};
use tucker_tensor::{prod_after, prod_before, Tensor};

/// Redistribute the mode-`n` unfolding within this rank's fiber, returning
/// this rank's column stripe as a column-major `J_n x c` matrix.
///
/// Requires `P_n > 1` callers to make communication meaningful, but is
/// correct (a local repack) for `P_n == 1` as well.
pub fn redistribute_to_columns<T: Scalar>(
    ctx: &mut Ctx,
    dt: &DistTensor<T>,
    n: usize,
) -> Matrix<T> {
    match redistribute(ctx, dt, n, None) {
        Ok(z) => z,
        Err(_) => unreachable!("an unguarded redistribution reports no fault"),
    }
}

/// [`redistribute_to_columns`], and with `guard = Some(phase)` the NaN/Inf
/// guard fused into the unpack: the first non-finite element of the stripe
/// (in column-major order) is reported under `phase` with its flat index in
/// the stripe.
pub(crate) fn redistribute<T: Scalar>(
    ctx: &mut Ctx,
    dt: &DistTensor<T>,
    n: usize,
    guard: Option<&'static str>,
) -> Result<Matrix<T>, NumericalFault> {
    let grid = dt.grid();
    let p_n = grid.dims()[n];
    let j_n = dt.global_dims()[n];
    let local = LocalColumns::new(dt.local(), n);
    let b_n = local.rows;
    let c_f = local.cols();

    if p_n == 1 {
        // Single-rank fiber: just repack to column-major.
        let mut z = Vec::with_capacity(b_n * c_f);
        local.extend(0..c_f, &mut z);
        return Ok(Matrix::from_col_major(b_n, c_f, z));
    }

    let fiber = grid.fiber(dt.coords(), n);
    let my_q = dt.coords()[n];
    let mut comm = Comm::subset(ctx, fiber);

    // Pack one column-major bucket per other fiber rank; my own stays
    // empty. Sub-phase labels (slash-separated, distinct from the caller's
    // outer "Redistribute" frame) show up as nested spans in --trace output.
    let sends: Vec<Vec<T>> = ctx.phase("Redistribute/pack", |_c| {
        (0..p_n)
            .map(|q| {
                let mut buf = Vec::new();
                if q != my_q {
                    let cols = block_range(c_f, p_n, q);
                    buf.reserve_exact(b_n * cols.len());
                    local.extend(cols, &mut buf);
                }
                buf
            })
            .collect()
    });
    let received = ctx.phase("Redistribute/exchange", |c| comm.alltoallv(c, sends));

    // Assemble my column stripe: all J_n rows of my column chunk, one column
    // at a time, my own rows read from the local block.
    ctx.phase("Redistribute/unpack", |c| {
        let mine = block_range(c_f, p_n, my_q);
        let my_cols = mine.len();
        let heights: Vec<usize> = (0..p_n).map(|q| block_range(j_n, p_n, q).len()).collect();
        for (q, buf) in received.iter().enumerate() {
            if q != my_q {
                assert_eq!(buf.len(), heights[q] * my_cols, "redistribute: unexpected bucket size");
            }
        }
        let mut z = Vec::with_capacity(j_n * my_cols);
        for k in 0..my_cols {
            let start = z.len();
            for (q, buf) in received.iter().enumerate() {
                if q == my_q {
                    local.extend(mine.start + k..mine.start + k + 1, &mut z);
                } else {
                    z.extend_from_slice(&buf[k * heights[q]..(k + 1) * heights[q]]);
                }
            }
            if let Some(phase) = guard {
                if let Some(i) = z[start..].iter().position(|v| !v.is_finite()) {
                    let rank = c.rank();
                    return Err(NumericalFault { rank, phase, mode: n, index: start + i });
                }
            }
        }
        Ok(Matrix::from_col_major(j_n, my_cols, z))
    })
}

/// The mode-`n` unfolding of a local block, read a column at a time:
/// element `(i, c)` sits at `data[(c / before)·rows·before + i·before +
/// c % before]` — a contiguous run when `before = 1` (mode 0), otherwise
/// one column of a row-major `rows x before` block.
struct LocalColumns<'a, T> {
    data: &'a [T],
    rows: usize,
    before: usize,
    after: usize,
}

impl<'a, T: Scalar> LocalColumns<'a, T> {
    fn new(x: &'a Tensor<T>, n: usize) -> Self {
        let dims = x.dims();
        LocalColumns {
            data: x.data(),
            rows: dims[n],
            before: prod_before(dims, n),
            after: prod_after(dims, n),
        }
    }

    fn cols(&self) -> usize {
        self.before * self.after
    }

    /// Append columns `cols` to `out`, column-major. A block with no rows
    /// in mode `n` (more fiber ranks than indices) has empty columns.
    fn extend(&self, cols: Range<usize>, out: &mut Vec<T>) {
        let (rows, before) = (self.rows, self.before);
        if rows == 0 {
            return;
        }
        if before == 1 {
            out.extend_from_slice(&self.data[cols.start * rows..cols.end * rows]);
            return;
        }
        for c in cols {
            let first = (c / before) * rows * before + c % before;
            out.extend(self.data[first..].iter().step_by(before).take(rows));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessorGrid;
    use tucker_linalg::syrk_lower;
    use tucker_mpisim::{CostModel, Simulator};
    use tucker_tensor::Unfolding;

    fn test_tensor(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            let mut v = 0.3;
            for (k, &x) in i.iter().enumerate() {
                v += ((x + 1) * (k + 3)) as f64 * 0.11;
            }
            v.sin()
        })
    }

    /// Σ_r Z_r Z_rᵀ must equal the Gram matrix of the global unfolding —
    /// the column-permutation-invariant correctness check.
    fn check_redistribution(dims: &[usize], grid_dims: &[usize], n: usize) {
        let x = test_tensor(dims);
        let grid = ProcessorGrid::new(grid_dims);
        let p = grid.total();
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(grid_dims), ctx.rank());
            let z = redistribute_to_columns(ctx, &dt, n);
            let g = syrk_lower(z.as_ref());
            let mut world = Comm::world(ctx);
            let summed = world.allreduce_sum_vec(ctx, g.into_data());
            (z.cols(), summed)
        });
        // Reference Gram of the global unfolding.
        let gu = Unfolding::new(&x, n).to_matrix();
        let want = syrk_lower(gu.as_ref());
        let m = dims[n];
        let total_cols: usize = out.results.iter().map(|(c, _)| c).sum::<usize>();
        // Column counts must tile the unfolding... per fiber; every rank holds
        // a chunk of its fiber's columns, so the total equals the unfolding
        // column count (each column owned exactly once).
        assert_eq!(total_cols, gu.cols(), "columns not partitioned");
        for (_, g) in out.results {
            let gm = tucker_linalg::Matrix::from_col_major(m, m, g);
            assert!(gm.max_abs_diff(&want) < 1e-11, "Gram mismatch mode {n}");
        }
    }

    #[test]
    fn three_mode_middle() {
        check_redistribution(&[4, 6, 5], &[2, 3, 1], 1);
    }

    #[test]
    fn three_mode_first() {
        check_redistribution(&[6, 4, 5], &[3, 2, 1], 0);
    }

    #[test]
    fn three_mode_last() {
        check_redistribution(&[4, 3, 8], &[1, 2, 4], 2);
    }

    #[test]
    fn uneven_division_both_axes() {
        check_redistribution(&[7, 5, 3], &[3, 2, 1], 0);
        check_redistribution(&[7, 5, 3], &[3, 2, 1], 1);
    }

    #[test]
    fn trivial_fiber_is_local_repack() {
        check_redistribution(&[4, 5, 6], &[1, 2, 2], 0);
    }

    #[test]
    fn four_mode() {
        check_redistribution(&[3, 4, 3, 4], &[2, 1, 2, 2], 3);
    }

    /// The element-wise exchange the run-wise one replaced, kept as its
    /// oracle: every bucket element through `Unfolding::get`, the own
    /// bucket packed and sent through `alltoallv` like the others, the
    /// stripe zero-filled and then overwritten bucket by bucket.
    fn elementwise_redistribute<T: Scalar>(
        ctx: &mut Ctx,
        dt: &DistTensor<T>,
        n: usize,
    ) -> Matrix<T> {
        let grid = dt.grid();
        let p_n = grid.dims()[n];
        let j_n = dt.global_dims()[n];
        let unf = Unfolding::new(dt.local(), n);
        let (b_n, c_f) = (unf.rows(), unf.cols());
        if p_n == 1 {
            return unf.to_matrix();
        }
        let my_q = dt.coords()[n];
        let mut comm = Comm::subset(ctx, grid.fiber(dt.coords(), n));
        let mut sends = Vec::with_capacity(p_n);
        for q in 0..p_n {
            let cols = block_range(c_f, p_n, q);
            let mut buf = Vec::with_capacity(b_n * cols.len());
            for c in cols {
                for i in 0..b_n {
                    buf.push(unf.get(i, c));
                }
            }
            sends.push(buf);
        }
        let received = comm.alltoallv(ctx, sends);
        let my_cols = block_range(c_f, p_n, my_q).len();
        let mut z = Matrix::<T>::zeros(j_n, my_cols);
        for (q, buf) in received.into_iter().enumerate() {
            let rows = block_range(j_n, p_n, q);
            let bq = rows.len();
            for c in 0..my_cols {
                z.col_mut(c)[rows.start..rows.end].copy_from_slice(&buf[c * bq..(c + 1) * bq]);
            }
        }
        z
    }

    fn check_against_elementwise<T: Scalar>(x: &Tensor<T>, grid_dims: &[usize]) {
        let grid = ProcessorGrid::new(grid_dims);
        let bits =
            |z: &Matrix<T>| -> Vec<u64> { z.data().iter().map(|v| v.to_f64().to_bits()).collect() };
        for n in 0..x.ndims() {
            let out = Simulator::new(grid.total()).with_cost(CostModel::zero()).run(|ctx| {
                let dt = DistTensor::scatter_from(x, &grid, ctx.rank());
                let z = redistribute_to_columns(ctx, &dt, n);
                (z, elementwise_redistribute(ctx, &dt, n))
            });
            for (rank, (z, want)) in out.results.iter().enumerate() {
                let what = format!("{}-byte {:?} mode {n} rank {rank}", T::BYTES, x.dims());
                assert_eq!((z.rows(), z.cols()), (want.rows(), want.cols()), "{what}: shape");
                assert_eq!(bits(z), bits(want), "{what}: bits");
            }
        }
    }

    /// Every mode of every grid above, both precisions: the run-wise
    /// buckets and the in-place own half give the element-wise stripe bit
    /// for bit.
    #[test]
    fn runs_match_the_elementwise_exchange() {
        for (dims, grid) in [
            (&[4usize, 6, 5][..], &[2usize, 3, 1][..]),
            (&[6, 4, 5], &[3, 2, 1]),
            (&[4, 3, 8], &[1, 2, 4]),
            (&[7, 5, 3], &[3, 2, 1]),
            (&[4, 5, 6], &[1, 2, 2]),
            (&[3, 4, 3, 4], &[2, 1, 2, 2]),
            (&[5, 3, 7, 4], &[2, 3, 1, 3]),
            // More ranks than indices: one fiber rank holds no rows.
            (&[2, 5, 3], &[3, 1, 2]),
            (&[5, 2, 3], &[1, 3, 2]),
        ] {
            let x = test_tensor(dims);
            check_against_elementwise(&x, grid);
            check_against_elementwise(&x.cast::<f32>(), grid);
        }
    }

    /// The fault a NaN planted at global flat index `at` raises in the
    /// LQ (`qr = true`) or the Gram of mode `n`.
    fn planted_fault(
        dims: &[usize],
        grid_dims: &[usize],
        n: usize,
        at: &[usize],
        qr: bool,
    ) -> crate::guard::NumericalFault {
        let mut x = test_tensor(dims);
        for &i in at {
            x.data_mut()[i] = f64::NAN;
        }
        let p = grid_dims.iter().product();
        let err = Simulator::new(p)
            .with_cost(CostModel::zero())
            .run_result(|ctx| {
                let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(grid_dims), ctx.rank());
                let mut world = Comm::world(ctx);
                if qr {
                    let tree = crate::ReductionTree::Butterfly;
                    let opts = tucker_linalg::tslq::TslqOptions;
                    crate::parallel_tensor_lq(ctx, &mut world, &dt, n, tree, opts).map(|_| ())
                } else {
                    crate::parallel_gram(ctx, &mut world, &dt, n).map(|_| ())
                }
            })
            .unwrap_err();
        match err {
            tucker_mpisim::SimFailure::Rank { error, .. } => error,
            tucker_mpisim::SimFailure::Sim(e) => panic!("expected NumericalFault, got {e}"),
        }
    }

    /// The redistribution guards name the phase, the rank whose stripe holds
    /// the NaN and its flat index in that stripe — the values the element-wise
    /// exchange with a separate scan reported.
    #[test]
    fn planted_nan_is_reported_where_it_lands() {
        for (dims, grid, n, at, rank, index) in [
            (&[6usize, 5, 4][..], &[2usize, 2, 1][..], 0, &[37usize][..], 0, 25),
            (&[6, 5, 4], &[2, 2, 1], 0, &[40, 37], 0, 25),
            (&[6, 5, 4], &[2, 2, 1], 0, &[46, 37], 0, 25),
            (&[6, 5, 4], &[2, 2, 1], 1, &[37], 0, 21),
            (&[6, 5, 4], &[2, 2, 1], 1, &[50, 37], 0, 21),
            (&[7, 5, 3], &[3, 2, 1], 0, &[100], 5, 9),
            (&[7, 5, 3], &[3, 2, 1], 1, &[100, 64], 0, 24),
            (&[3, 4, 3, 4], &[2, 1, 2, 2], 3, &[77], 1, 6),
            (&[3, 4, 3, 4], &[2, 1, 2, 2], 2, &[77, 79], 4, 15),
        ] {
            for (qr, phase) in [(true, "LQ/redistribute"), (false, "Gram/redistribute")] {
                let e = planted_fault(dims, grid, n, at, qr);
                let want = crate::guard::NumericalFault { rank, phase, mode: n, index };
                assert_eq!(e, want, "{dims:?} grid {grid:?} NaN at {at:?}");
            }
        }
    }
}
