//! Householder LQ factorization (LAPACK `gelqf`) of short-fat matrices.
//!
//! For an `m x n` unfolding with `m ≪ n`, `A = L·Q` reduces the SVD problem to
//! the small lower-triangular `L` (paper §3.1). Since PR 6 the default path is
//! the blocked compact-WY factorization in [`crate::blocked_qr`], which routes
//! the trailing updates through the register-tiled GEMM engine; the original
//! unblocked transposed-view implementation is preserved as
//! [`gelqf_unblocked`] — the serial reference the benchmarks gate against and
//! the bitwise oracle for degenerate shapes.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

/// In-place Householder LQ: on return the lower triangle of `a` holds `L` and
/// the strict upper triangle holds reflector tails. Returns the `tau`s.
///
/// Delegates to the blocked compact-WY path with the default panel width
/// (degenerate shapes fall back to the unblocked reference bit-for-bit);
/// the call is attributed to the `"lq"` perf site with the same model flop
/// count as before, so `kernel/lq/*` attribution is unchanged.
pub fn gelqf<T: Scalar>(a: &mut MatMut<'_, T>) -> Vec<T> {
    crate::blocked_qr::gelqf_blocked(a, crate::blocked_qr::DEFAULT_BLOCK)
}

/// The pre-PR6 unblocked LQ: QR of the transposed `n x m` view, one reflector
/// at a time. Kept as the serial reference: the tests compare the blocked
/// path against it, and the degenerate-shape delegation in
/// [`crate::blocked_qr::gelqf_blocked`] must match it bitwise.
pub fn gelqf_unblocked<T: Scalar>(a: &mut MatMut<'_, T>) -> Vec<T> {
    // The nested geqrf's perf frame is depth-guarded, so the call is
    // attributed to "lq" only.
    let flops = crate::perf::qr_flops(a.cols(), a.rows());
    crate::perf::with_kernel("lq", flops, 0, || {
        let mut at = a.t_mut();
        crate::qr::geqrf_impl(&mut at)
    })
}

/// Extract `L` (`m x min(m,n)`, lower triangular/trapezoidal) from a factored
/// matrix.
pub fn lq_l<T: Scalar>(a_fact: MatRef<'_, T>) -> Matrix<T> {
    let m = a_fact.rows();
    let n = a_fact.cols();
    let k = m.min(n);
    Matrix::from_fn(m, k, |i, j| if j <= i { a_fact.get(i, j) } else { T::ZERO })
}

/// Extract `L` zero-padded to a full `m x m` lower triangle.
///
/// When `n < m` the LQ factor is lower-trapezoidal; the parallel TSQR tree
/// requires a square triangle, so the missing columns are padded with zeros
/// (the paper's §3.4 "implementation detail": the zeros fill in after a few
/// levels of the reduction tree).
pub fn lq_l_padded<T: Scalar>(a_fact: MatRef<'_, T>) -> Matrix<T> {
    let m = a_fact.rows();
    let n = a_fact.cols();
    Matrix::from_fn(m, m, |i, j| if j <= i && j < n { a_fact.get(i, j) } else { T::ZERO })
}

/// Convenience: LQ factor `L` of a view, leaving the input untouched.
pub fn lq_factor<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    let mut work = a.to_matrix();
    gelqf(&mut work.as_mut());
    lq_l_padded(work.as_ref())
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
