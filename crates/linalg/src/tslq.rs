//! Sequential flat-tree tall-skinny LQ (the core of Alg. 2, "Sequential LQ
//! of Tensor Unfolding").
//!
//! The input is presented as a sequence of column blocks — exactly the memory
//! layout of a tensor unfolding (a series of contiguous row-major column
//! blocks, paper §3.3). The first blocks are combined until the working
//! matrix is short-fat (the paper's "combine as many blocks as necessary"
//! detail), factored once by the single-panel kernel
//! [`crate::lq::l_of_transposed`] — the gathered row-major head is already
//! the column-major storage of its transpose — and every subsequent group of
//! blocks is annihilated against the running triangle with
//! [`crate::tplqt::tplqt`]. Nothing but `L` is kept.
//!
//! The `coalesce` option groups several blocks per `tplqt` call; `1`
//! reproduces the paper's flat tree verbatim, larger values trade workspace
//! for fewer, wider reduction steps (ablated in `tucker-bench`).

use crate::blocked_qr::transpose_into;
use crate::lq::l_of_transposed;
use crate::matrix::Matrix;
use crate::perf::{qr_flops, with_kernel};
use crate::scalar::Scalar;
use crate::tplqt::tplqt;
use crate::view::{MatMut, MatRef};

/// Options for the flat-tree LQ.
#[derive(Clone, Copy, Debug)]
pub struct TslqOptions {
    /// Number of column blocks annihilated per `tplqt` call (≥ 1).
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
/// count is below `m`.
pub fn tslq_blocks<'a, T: Scalar, I>(m: usize, blocks: I, opts: TslqOptions) -> Matrix<T>
where
    I: IntoIterator<Item = MatRef<'a, T>>,
{
    assert!(opts.coalesce >= 1, "tslq: coalesce must be >= 1");
    let mut iter = blocks.into_iter();

    // Phase 1: accumulate leading blocks until the working matrix has at
    // least as many columns as rows, then factor it once.
    let mut head_blocks: Vec<MatRef<'a, T>> = Vec::new();
    let mut head_cols = 0usize;
    let mut exhausted = false;
    while head_cols < m {
        match iter.next() {
            Some(b) => {
                assert_eq!(b.rows(), m, "tslq: inconsistent block row count");
                head_cols += b.cols();
                head_blocks.push(b);
            }
            None => {
                exhausted = true;
                break;
            }
        }
    }
    if head_cols == 0 {
        return Matrix::zeros(m, m);
    }
    let mut head: Vec<T> = Vec::new();
    let cols = gather_rowmajor(&mut head, m, &head_blocks);
    let mut l = with_kernel("lq", qr_flops(cols, m), 0, || {
        l_of_transposed(&mut MatMut::col_major(&mut head, cols, m))
    });
    if exhausted {
        return l;
    }

    // Phase 2: annihilate remaining blocks, `coalesce` at a time, against L.
    let mut scratch: Vec<T> = Vec::new();
    let mut group: Vec<MatRef<'a, T>> = Vec::with_capacity(opts.coalesce);
    loop {
        group.clear();
        for _ in 0..opts.coalesce {
            match iter.next() {
                Some(b) => {
                    assert_eq!(b.rows(), m, "tslq: inconsistent block row count");
                    group.push(b);
                }
                None => break,
            }
        }
        if group.is_empty() {
            break;
        }
        let group_cols = gather_rowmajor(&mut scratch, m, &group);
        let mut sview = MatMut::row_major(&mut scratch, m, group_cols);
        tplqt(&mut l, &mut sview);
    }
    l
}

/// Concatenate blocks side by side into a row-major `m x Σcols` workspace
/// (single allocation, reused across calls). Returns the total column count.
fn gather_rowmajor<T: Scalar>(buf: &mut Vec<T>, m: usize, blocks: &[MatRef<'_, T>]) -> usize {
    let total: usize = blocks.iter().map(|b| b.cols()).sum();
    buf.clear();
    buf.resize(m * total, T::ZERO);
    // Row-major `m x total` is the column-major storage of the transpose:
    // each block lands as a transposed copy (a memcpy per row for the
    // row-major blocks of an unfolding, cache-blocked tiles otherwise).
    let mut col0 = 0usize;
    for b in blocks {
        let mut dst = MatMut::strided(&mut buf[col0..], b.cols(), m, 1, total);
        transpose_into(*b, &mut dst);
        col0 += b.cols();
    }
    total
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
    fn width_one_blocks() {
        // Degenerate flat tree: one column at a time (the n=0 special case of
        // mode-0 unfoldings, columns of a column-major matrix).
        check_against_dense(&pseudo_matrix(4, 17, 7), 1, 1, 1e-12);
    }

    #[test]
    fn blocked_head_path() {
        // m > DEFAULT_BLOCK so the head takes the Q-less compact-WY path (on
        // the gathered workspace, no copy); the tree must still agree with
        // the dense factorization and the Gram matrix.
        let m = crate::blocked_qr::DEFAULT_BLOCK + 16;
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
