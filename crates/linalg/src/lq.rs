//! Q-less LQ of short-fat matrices: the one way a matrix becomes `L`.
//!
//! For an `m x n` unfolding with `m ≪ n`, `A = L·Q` reduces the SVD problem
//! to the small lower-triangular `L` (paper §3.1); `Q`, the `τ`s and the
//! reflector tails are never wanted, so no entry point hands them out.
//! [`lq_factor`] picks between two kernels by the row count alone:
//!
//! * `rows > DEFAULT_BLOCK` — compact-WY ([`crate::blocked_qr`]) on the
//!   column-major transpose, `L = Rᵀ` read out of the triangle. A tall
//!   triangle has enough panels for the GEMM trailing updates to pay.
//! * otherwise — the flat tree [`tslq_blocks`], which cuts the view into
//!   cache-sized column panels: below one compact-WY panel every reflector
//!   would stream over all `n` columns, and a panel folded into the running
//!   triangle by the blocked `tplqt` does the same flops at four times the
//!   rate.
//!
//! The measurements are in EXPERIMENTS.md: "One Q-less LQ" (the flat tree
//! halves the 48 x 76 032 HCCI mode-0 LQ, and forced onto triangles of 128
//! rows and more it doubles `stream_append`'s set-up) and "A GEMM-rate
//! `tplqt`" (the blocked fold halves it again). Every single-panel
//! factorization, the flat tree's head included, is [`l_of_transposed`].

use crate::blocked_qr::{geqrf_blocked_impl, transposed_matrix, DEFAULT_BLOCK};
use crate::matrix::Matrix;
use crate::perf::{qr_flops, with_kernel};
use crate::scalar::Scalar;
use crate::tslq::{tslq_blocks, TslqOptions};
use crate::view::{MatMut, MatRef};

/// LQ factor `L` (`m x m` lower triangular, zero-padded when `n < m` — the
/// paper's §3.4 detail: the TSQR tree needs a square triangle) of a view,
/// leaving the input untouched. One `"lq"` perf frame with the model count
/// of the whole factorization; the kernels' own frames nest under it.
pub fn lq_factor<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    let (m, n) = (a.rows(), a.cols());
    with_kernel("lq", qr_flops(n, m), 0, || {
        if m > DEFAULT_BLOCK {
            l_of_transposed(&mut transposed_matrix(a).as_mut())
        } else {
            tslq_blocks(m, std::iter::once(a), TslqOptions::default())
        }
    })
}

/// `L` of `A` from `Aᵀ` (`n x m`, column-contiguous; destroyed): Householder
/// QR of the transpose — `geqrf_blocked_impl` is the unblocked kernel while
/// the triangle fits one panel (`m ≤ DEFAULT_BLOCK`), compact-WY above —
/// then `L = Rᵀ` from its upper triangle, zero-padded to `m x m`.
/// Column-contiguous storage makes each reflector one pass over contiguous
/// memory, and a row-major panel *is* its transpose's column-major storage,
/// so the flat tree factors its gathered head in place.
pub(crate) fn l_of_transposed<T: Scalar>(at: &mut MatMut<'_, T>) -> Matrix<T> {
    let (n, m) = (at.rows(), at.cols());
    geqrf_blocked_impl(at, DEFAULT_BLOCK);
    Matrix::from_fn(m, m, |i, j| if j <= i && j < n { at.get(j, i) } else { T::ZERO })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, Trans};
    use crate::syrk::syrk_lower;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    /// `L Lᵀ` must equal `A Aᵀ` (Q orthogonality), the invariant the Gram and
    /// LQ paths share.
    fn check_llt_equals_aat(a: &Matrix<f64>, tol: f64) {
        let l = lq_factor(a.as_ref());
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(llt.max_abs_diff(&aat) < tol, "L Lᵀ != A Aᵀ");
    }

    #[test]
    fn short_fat_matrix() {
        check_llt_equals_aat(&pseudo_matrix(6, 40, 1), 1e-12);
    }

    #[test]
    fn square_matrix() {
        check_llt_equals_aat(&pseudo_matrix(9, 9, 2), 1e-12);
    }

    #[test]
    fn tall_matrix_is_padded() {
        let a = pseudo_matrix(10, 4, 3);
        let l = lq_factor(a.as_ref());
        assert_eq!(l.shape(), (10, 10));
        // Columns 4..10 are zero padding.
        for j in 4..10 {
            for i in 0..10 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
        check_llt_equals_aat(&a, 1e-12);
    }

    #[test]
    fn l_is_lower_triangular() {
        let a = pseudo_matrix(5, 20, 4);
        let l = lq_factor(a.as_ref());
        for j in 0..5 {
            for i in 0..j {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn row_major_input_matches_col_major() {
        let a = pseudo_matrix(4, 15, 5);
        // Row-major copy of the same matrix.
        let mut rm = vec![0.0f64; 60];
        for i in 0..4 {
            for j in 0..15 {
                rm[i * 15 + j] = a[(i, j)];
            }
        }
        let l_cm = lq_factor(a.as_ref());
        let l_rm = lq_factor(MatRef::row_major(&rm, 4, 15));
        // L is unique up to column signs; compare L Lᵀ.
        let p_cm = gemm_into(l_cm.as_ref(), Trans::No, l_cm.as_ref(), Trans::Yes);
        let p_rm = gemm_into(l_rm.as_ref(), Trans::No, l_rm.as_ref(), Trans::Yes);
        assert!(p_cm.max_abs_diff(&p_rm) < 1e-12);
    }

    #[test]
    fn single_precision_lq() {
        let a = Matrix::<f32>::from_fn(5, 30, |i, j| ((i * 31 + j) as f32).sin());
        let l = lq_factor(a.as_ref());
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(llt.max_abs_diff(&aat) < 1e-3 * aat.max_abs());
    }
}
