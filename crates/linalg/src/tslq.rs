//! Sequential flat-tree tall-skinny LQ (the core of Alg. 2, "Sequential LQ
//! of Tensor Unfolding").
//!
//! The input is presented as a sequence of column blocks — exactly the memory
//! layout of a tensor unfolding (a series of contiguous row-major column
//! blocks, paper §3.3). `L` starts as the zero triangle and every group of
//! blocks is annihilated against it with [`crate::tplqt::tplqt`]: the first
//! fold is the LQ of the first group, each later one the paper's Alg. 2
//! line 7. Nothing but `L` is kept.
//!
//! The fold width is the kernel's, not the layout's: blocks wider than
//! [`PANEL_COLS`] are cut into panels of that width and narrower ones are
//! gathered until a group holds at least that many columns, so a whole view
//! and an unfolding of 19-column blocks fold the same cache-sized panels.
//! The `coalesce` option is a further floor in blocks per group.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::tplqt::tplqt;
use crate::view::{transpose_into, MatMut, MatRef};

/// Columns folded per `tplqt` call: 64 rows of it are 512 KiB at `f64`,
/// L2-resident beside the running triangle, and the kernel's two products
/// have a long enough dimension to run at the GEMM engine's rate.
pub(crate) const PANEL_COLS: usize = 1024;

/// Options for the flat-tree LQ.
#[derive(Clone, Copy, Debug)]
pub struct TslqOptions {
    /// Least number of column blocks annihilated per `tplqt` call (≥ 1).
    pub coalesce: usize,
}

impl Default for TslqOptions {
    fn default() -> Self {
        TslqOptions { coalesce: 1 }
    }
}

/// Flat-tree LQ over a sequence of column blocks, all with `m` rows.
///
/// Returns the `m x m` lower-triangular factor `L` of the (implicit)
/// horizontal concatenation of the blocks, zero-padded if the total column
/// count is below `m` (see the padding note in the body).
pub fn tslq_blocks<'a, T: Scalar, I>(m: usize, blocks: I, opts: TslqOptions) -> Matrix<T>
where
    I: IntoIterator<Item = MatRef<'a, T>>,
{
    assert!(opts.coalesce >= 1, "tslq: coalesce must be >= 1");
    let mut iter = blocks.into_iter().flat_map(|b| {
        assert_eq!(b.rows(), m, "tslq: inconsistent block row count");
        b.col_panels(PANEL_COLS)
    });

    // Annihilate the blocks against L, a group of at least `coalesce` blocks
    // and `PANEL_COLS` columns at a time.
    let mut l = Matrix::zeros(m, m);
    let mut group: Vec<MatRef<'a, T>> = Vec::new();
    let mut scratch: Vec<T> = Vec::new();
    let mut n = 0;
    loop {
        group.clear();
        let mut group_cols = 0;
        while group.len() < opts.coalesce || group_cols < PANEL_COLS {
            let Some(b) = iter.next() else { break };
            group_cols += b.cols();
            group.push(b);
        }
        if group.is_empty() {
            break;
        }
        let panel = gather_rowmajor(&mut scratch, m, group_cols, &group);
        tplqt(&mut l, &mut MatMut::row_major(panel, m, group_cols));
        n += group_cols;
    }

    // The §3.4 padding. With fewer columns than rows, columns `n..m` of `L`
    // are what the rows past the first `n` leave once those have been
    // folded: zero in exact arithmetic when the leading `n` rows are
    // independent, so the fold leaves rounding there — set it to exact zero
    // when it is below the fold's own error (dropping it moves no singular
    // value by more than its norm). Leading rows that are dependent (a zero
    // first row) leave a genuine part of `AAᵀ` there, which stays.
    if n < m {
        let tail = l.as_ref().submatrix(0, n, m, m - n).frob_norm();
        if tail <= T::from_f64(m as f64) * T::EPSILON * l.as_ref().frob_norm() {
            for j in n..m {
                l.col_mut(j).fill(T::ZERO);
            }
        }
    }
    l
}

/// Concatenate blocks of `total` columns in all side by side into the front
/// of `buf` as a row-major `m x total` matrix (one allocation, grown as needed
/// and reused across calls; every element of the result is overwritten).
fn gather_rowmajor<'b, T: Scalar>(
    buf: &'b mut Vec<T>,
    m: usize,
    total: usize,
    blocks: &[MatRef<'_, T>],
) -> &'b mut [T] {
    if buf.len() < m * total {
        buf.resize(m * total, T::ZERO);
    }
    let out = &mut buf[..m * total];
    // Row-major `m x total` is the column-major storage of the transpose:
    // each block lands as a transposed copy (a memcpy per row for the
    // row-major blocks of an unfolding, cache-blocked tiles otherwise).
    let mut col0 = 0usize;
    for b in blocks {
        let mut dst = MatMut::strided(&mut out[col0..], b.cols(), m, 1, total);
        transpose_into(*b, &mut dst);
        col0 += b.cols();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, Trans};
    use crate::lq::lq_factor;
    use crate::syrk::syrk_lower;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn gram(l: &Matrix<f64>) -> Matrix<f64> {
        gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes)
    }

    fn check_against_dense(a: &Matrix<f64>, block_cols: usize, coalesce: usize, tol: f64) {
        let l_tree = tslq_blocks(a.rows(), a.as_ref().col_panels(block_cols), TslqOptions { coalesce });
        let l_dense = lq_factor(a.as_ref());
        assert!(gram(&l_tree).max_abs_diff(&gram(&l_dense)) < tol);
        // Also against the direct Gram matrix.
        assert!(gram(&l_tree).max_abs_diff(&syrk_lower(a.as_ref())) < tol);
    }

    #[test]
    fn narrow_blocks() {
        check_against_dense(&pseudo_matrix(6, 50, 1), 2, 1, 1e-12);
    }

    #[test]
    fn blocks_wider_than_rows() {
        check_against_dense(&pseudo_matrix(6, 50, 2), 10, 1, 1e-12);
    }

    #[test]
    fn coalescing_blocks() {
        check_against_dense(&pseudo_matrix(8, 64, 3), 2, 4, 1e-12);
        check_against_dense(&pseudo_matrix(8, 64, 3), 2, 100, 1e-12);
    }

    #[test]
    fn uneven_final_block() {
        check_against_dense(&pseudo_matrix(5, 33, 4), 4, 1, 1e-12);
    }

    #[test]
    fn single_block_short_fat() {
        check_against_dense(&pseudo_matrix(4, 20, 5), 20, 1, 1e-13);
    }

    #[test]
    fn total_columns_below_rows_pads() {
        let a = pseudo_matrix(10, 6, 6);
        let l = tslq_blocks(10, a.as_ref().col_panels(2), TslqOptions::default());
        assert_eq!(l.shape(), (10, 10));
        assert!(gram(&l).max_abs_diff(&syrk_lower(a.as_ref())) < 1e-12);
    }

    #[test]
    fn dependent_leading_rows_keep_their_columns() {
        // 6 x 2 with a zero first row: the two leading rows span one
        // dimension, so column 2 of `L` carries row 2 onwards — it is not
        // rounding and must not be padded away.
        let mut a = pseudo_matrix(6, 2, 9);
        a[(0, 0)] = 0.0;
        a[(0, 1)] = 0.0;
        let l = tslq_blocks(6, std::iter::once(a.as_ref()), TslqOptions::default());
        assert!(gram(&l).max_abs_diff(&syrk_lower(a.as_ref())) < 1e-12);
    }

    #[test]
    fn width_one_blocks() {
        // Degenerate flat tree: one column at a time (the n=0 special case of
        // mode-0 unfoldings, columns of a column-major matrix).
        check_against_dense(&pseudo_matrix(4, 17, 7), 1, 1, 1e-12);
    }

    #[test]
    fn blocked_head_path() {
        // More rows than one 16-row `tplqt` block, so the first fold (the LQ
        // of the head group) and every later one run the blocked compact-WY
        // path; the tree must still agree with the dense factorization.
        let m = 80;
        check_against_dense(&pseudo_matrix(m, 3 * m, 8), m / 2, 1, 1e-10);
    }

    #[test]
    fn empty_input_gives_zero() {
        let l = tslq_blocks::<f64, _>(3, std::iter::empty(), TslqOptions::default());
        assert_eq!(l, Matrix::zeros(3, 3));
    }

    #[test]
    fn single_precision() {
        let a = Matrix::<f32>::from_fn(5, 40, |i, j| ((2 * i + 3 * j) as f32).sin());
        let l = tslq_blocks(5, a.as_ref().col_panels(4), TslqOptions::default());
        let g = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(g.max_abs_diff(&aat) < 1e-3 * aat.max_abs());
    }
}
