//! Tall-skinny LQ over a fixed tree of flat-tree leaves (the paper's Alg. 2
//! inside each leaf, Alg. 3's triangle reduction across them).
//!
//! The input is presented as a sequence of column blocks — exactly the memory
//! layout of a tensor unfolding (a series of contiguous row-major column
//! blocks, paper §3.3). The blocks are cut into *groups* of at least
//! [`PANEL_COLS`] columns; a run of consecutive groups is a *leaf*. Each leaf
//! is the serial flat tree: its triangle starts at zero and every group is
//! gathered row-major and annihilated against it with
//! [`crate::tplqt::tplqt`] (the first fold is the LQ of the first group,
//! each later one the paper's Alg. 2 line 7). The leaves run as the items of
//! one pool `for_each`, each with its own gather scratch, and their
//! triangles are merged left to right on the calling thread with
//! [`crate::tplqt::tplqt_pair`]. Nothing but `L` is kept.
//!
//! The fold width is the kernel's, not the layout's: blocks wider than
//! [`PANEL_COLS`] are cut into panels of that width and narrower ones are
//! gathered until a group holds at least that many columns, so a whole view
//! and an unfolding of 19-column blocks fold the same cache-sized panels.
//!
//! The tree is a function of the input alone: the leaf count
//! ([`leaf_count`]) reads the group count and the row count, never the
//! thread budget, and every leaf folds the same groups in the same order
//! whichever thread runs it. So `L` has the same bits under any pool size,
//! and an input of fewer than 16 groups is one leaf — the flat tree as it
//! was, bit for bit (DESIGN.md §13).

use std::ops::Range;

use rayon::prelude::*;

use crate::kernel::{cache_aligned, CACHE_LINE};
use crate::matrix::Matrix;
use crate::perf::{qr_flops, with_kernel};
use crate::scalar::Scalar;
use crate::tplqt::{tplqt, tplqt_pair};
use crate::view::{transpose_into, MatMut, MatRef};

/// Columns folded per `tplqt` call: 64 rows of it are 512 KiB at `f64`,
/// L2-resident beside the running triangle, and the kernel's two products
/// have a long enough dimension to run at the GEMM engine's rate. Also the
/// grain of the Gram's leaves ([`crate::syrk`]): a multiple of `KC`, so a
/// leaf line there is a slab boundary.
pub(crate) const PANEL_COLS: usize = 1024;

/// Most leaves one LQ is cut into.
const MAX_LEAVES: usize = 8;

/// Fewest groups in one leaf.
const MIN_LEAF_GROUPS: usize = 8;

/// Fewest columns in one leaf, per row of the matrix: with `32·m` columns a
/// leaf's fold costs `2m²·32m`, so the `2m³` pair merge it adds is at most
/// 1/32 ≈ 3% of the LQ's model flops at any height.
const MIN_LEAF_COLS_PER_ROW: usize = 32;

/// Options for the flat-tree LQ. It has none: the groups and the tree are
/// set by the input alone. The type stays as the parameter of the drivers
/// that pass a configuration's options through.
#[derive(Clone, Copy, Debug, Default)]
pub struct TslqOptions;

/// Tall-skinny LQ over a sequence of column blocks, all with `m` rows.
///
/// Returns the `m x m` lower-triangular factor `L` of the (implicit)
/// horizontal concatenation of the blocks, zero-padded if the total column
/// count is below `m` (see the padding note in the body). One `"lq"` perf
/// frame with the model count of the whole factorization: the folds and
/// the pair merges nest under it, on whichever thread they ran.
pub fn tslq_blocks<'a, T: Scalar, I>(m: usize, blocks: I, _opts: TslqOptions) -> Matrix<T>
where
    I: IntoIterator<Item = MatRef<'a, T>>,
{
    let panels: Vec<MatRef<'a, T>> = blocks
        .into_iter()
        .flat_map(|b| {
            assert_eq!(b.rows(), m, "tslq: inconsistent block row count");
            b.col_panels(PANEL_COLS)
        })
        .collect();
    let n: usize = panels.iter().map(|p| p.cols()).sum();

    // Groups of at least `PANEL_COLS` columns.
    let mut groups: Vec<Range<usize>> = Vec::new();
    let mut start = 0;
    while start < panels.len() {
        let (mut end, mut cols) = (start, 0);
        while end < panels.len() && cols < PANEL_COLS {
            cols += panels[end].cols();
            end += 1;
        }
        groups.push(start..end);
        start = end;
    }

    with_kernel("lq", qr_flops(n, m), 0, || {
        // Consecutive groups per leaf, leaf `i` taking `[i·g/c, (i+1)·g/c)`.
        let (g, count) = (groups.len(), leaf_count(m, groups.len()));
        let mut leaves = vec![Matrix::zeros(0, 0); count];
        leaves.par_chunks_mut(1).enumerate().for_each(|(i, slot)| {
            slot[0] = fold_leaf(m, &panels, &groups[i * g / count..(i + 1) * g / count]);
        });
        let mut leaves = leaves.into_iter();
        let mut l = leaves.next().expect("at least one leaf");
        for leaf in leaves {
            tplqt_pair(&mut l, &leaf);
        }

        // The §3.4 padding. With fewer columns than rows, columns `n..m` of
        // `L` are what the rows past the first `n` leave once those have
        // been folded: zero in exact arithmetic when the leading `n` rows are
        // independent, so the fold leaves rounding there — set it to exact
        // zero when it is below the fold's own error (dropping it moves no
        // singular value by more than its norm). Leading rows that are
        // dependent (a zero first row) leave a genuine part of `AAᵀ` there,
        // which stays. (Fewer than `m` columns are always one leaf.)
        if n < m {
            let tail = l.as_ref().submatrix(0, n, m, m - n).frob_norm();
            if tail <= T::from_f64(m as f64) * T::EPSILON * l.as_ref().frob_norm() {
                for j in n..m {
                    l.col_mut(j).fill(T::ZERO);
                }
            }
        }
        l
    })
}

/// Leaves for `groups` groups of an `m`-row input: the largest power of two
/// that is at most [`MAX_LEAVES`] and leaves every leaf [`MIN_LEAF_GROUPS`]
/// groups and `32·m` columns — every group but the last holds at least
/// [`PANEL_COLS`] columns, hence the one group of slack. One leaf below 16
/// groups. A function of the input's shape only, never of the thread budget.
/// The SYRK driver cuts its columns into leaves by the same rule
/// ([`crate::syrk::syrk_lower_panels`]).
pub(crate) fn leaf_count(m: usize, groups: usize) -> usize {
    let per_leaf = MIN_LEAF_GROUPS.max(1 + (MIN_LEAF_COLS_PER_ROW * m).div_ceil(PANEL_COLS));
    let fit = (groups / per_leaf).clamp(1, MAX_LEAVES);
    1 << fit.ilog2()
}

/// The serial flat tree over `groups` (ranges into `panels`): `L` from zero,
/// each group gathered into one scratch and folded in order.
fn fold_leaf<T: Scalar>(m: usize, panels: &[MatRef<'_, T>], groups: &[Range<usize>]) -> Matrix<T> {
    let mut l = Matrix::zeros(m, m);
    let mut scratch: Vec<T> = Vec::new();
    for group in groups {
        let group = &panels[group.clone()];
        let cols = group.iter().map(|p| p.cols()).sum();
        let panel = gather_rowmajor(&mut scratch, m, cols, group);
        tplqt(&mut l, &mut MatMut::row_major(panel, m, cols));
    }
    l
}

/// Concatenate blocks of `total` columns in all side by side into `buf` as a
/// row-major `m x total` matrix from its first cache line (one allocation,
/// grown as needed and reused across calls; every element of the result is
/// overwritten).
fn gather_rowmajor<'b, T: Scalar>(
    buf: &'b mut Vec<T>,
    m: usize,
    total: usize,
    blocks: &[MatRef<'_, T>],
) -> &'b mut [T] {
    let len = m * total + CACHE_LINE / T::BYTES;
    if buf.len() < len {
        buf.resize(len, T::ZERO);
    }
    let out = cache_aligned(buf, m * total);
    // Row-major `m x total` is the column-major storage of the transpose:
    // each block lands as a transposed copy (a memcpy per row for the
    // row-major blocks of an unfolding, register-tile transposes for a
    // column-major panel).
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

    fn check_against_dense(a: &Matrix<f64>, block_cols: usize, tol: f64) {
        let l_tree = tslq_blocks(a.rows(), a.as_ref().col_panels(block_cols), TslqOptions);
        let l_dense = lq_factor(a.as_ref());
        assert!(gram(&l_tree).max_abs_diff(&gram(&l_dense)) < tol);
        // Also against the direct Gram matrix.
        assert!(gram(&l_tree).max_abs_diff(&syrk_lower(a.as_ref())) < tol);
    }

    #[test]
    fn narrow_blocks() {
        check_against_dense(&pseudo_matrix(6, 50, 1), 2, 1e-12);
    }

    #[test]
    fn blocks_wider_than_rows() {
        check_against_dense(&pseudo_matrix(6, 50, 2), 10, 1e-12);
    }

    #[test]
    fn uneven_final_block() {
        check_against_dense(&pseudo_matrix(5, 33, 4), 4, 1e-12);
    }

    #[test]
    fn single_block_short_fat() {
        check_against_dense(&pseudo_matrix(4, 20, 5), 20, 1e-13);
    }

    #[test]
    fn total_columns_below_rows_pads() {
        let a = pseudo_matrix(10, 6, 6);
        let l = tslq_blocks(10, a.as_ref().col_panels(2), TslqOptions);
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
        let l = tslq_blocks(6, std::iter::once(a.as_ref()), TslqOptions);
        assert!(gram(&l).max_abs_diff(&syrk_lower(a.as_ref())) < 1e-12);
    }

    #[test]
    fn width_one_blocks() {
        // Degenerate flat tree: one column at a time (the n=0 special case of
        // mode-0 unfoldings, columns of a column-major matrix).
        check_against_dense(&pseudo_matrix(4, 17, 7), 1, 1e-12);
    }

    #[test]
    fn blocked_head_path() {
        // More rows than one 16-row `tplqt` block, so the first fold (the LQ
        // of the head group) and every later one run the blocked compact-WY
        // path; the tree must still agree with the dense factorization.
        let m = 80;
        check_against_dense(&pseudo_matrix(m, 3 * m, 8), m / 2, 1e-10);
    }

    #[test]
    fn leaf_count_follows_the_rule() {
        // HCCI modes 0–3 at 48 / 48 / 33 / 48 rows, and the step lines.
        for (m, groups, want) in [(48, 75, 8), (48, 30, 2), (33, 16, 2), (48, 9, 1)] {
            assert_eq!(leaf_count(m, groups), want, "{m} rows, {groups} groups");
        }
        for m in 1..600 {
            for groups in 0..200 {
                let c = leaf_count(m, groups);
                assert!(c.is_power_of_two() && c <= MAX_LEAVES, "{m} rows, {groups} groups: {c}");
                if groups < 16 {
                    assert_eq!(c, 1, "{m} rows, {groups} groups");
                }
                if c > 1 {
                    // The shortest leaf has `groups / c` groups, all full but
                    // perhaps the last.
                    let least = groups / c;
                    assert!(least >= MIN_LEAF_GROUPS, "{m} rows, {groups} groups");
                    assert!((least - 1) * PANEL_COLS >= MIN_LEAF_COLS_PER_ROW * m, "{m} rows");
                    // Doubling would break the rule, unless capped.
                    let more = groups / (2 * c);
                    assert!(
                        c == MAX_LEAVES
                            || more < MIN_LEAF_GROUPS
                            || (more - 1) * PANEL_COLS < MIN_LEAF_COLS_PER_ROW * m,
                        "{m} rows, {groups} groups: {c} leaves is not the most"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_gives_zero() {
        let l = tslq_blocks::<f64, _>(3, std::iter::empty(), TslqOptions);
        assert_eq!(l, Matrix::zeros(3, 3));
    }

    #[test]
    fn single_precision() {
        let a = Matrix::<f32>::from_fn(5, 40, |i, j| ((2 * i + 3 * j) as f32).sin());
        let l = tslq_blocks(5, a.as_ref().col_panels(4), TslqOptions);
        let g = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(g.max_abs_diff(&aat) < 1e-3 * aat.max_abs());
    }
}
