//! Mixed-precision Gram-SVD — the paper's named future work ("in future
//! work, we also plan to explore the use of mixed precision within the
//! Gram-SVD algorithm", §5).
//!
//! The idea: keep the *data* in single precision (half the memory traffic
//! and communication volume of double), but accumulate the Gram matrix and
//! run the eigendecomposition in double. The `√ε` floor of Theorem 2 comes
//! from forming `A·Aᵀ` in working precision — accumulating in f64 removes
//! that squaring loss, leaving only the `ε_s‖A‖` perturbation already baked
//! into the rounded data. The resulting accuracy floor matches QR-single's
//! (`~ε_s‖A‖`), at Gram-like structure: one `syrk` pass (in f64 arithmetic)
//! and a small dense eigenproblem (the SVD of the `f64` Gram matrix, as on
//! the plain Gram path), no LQ.

use crate::error::Result;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::MatRef;

/// `A·Aᵀ` of a `T`-precision matrix, accumulated in `f64`: the driver of
/// [`crate::syrk_lower`] with the `f64` microkernel, `A` widened slab by
/// slab as it is packed (no widened copy of the operand exists).
pub fn syrk_lower_f64_acc<T: Scalar>(a: MatRef<'_, T>) -> Matrix<f64> {
    crate::syrk::syrk_lower_panels(a.rows(), &[a])
}

/// Mixed-precision Gram-SVD: left singular vectors and singular values of a
/// `T`-precision matrix, with the Gram formation and eigendecomposition in
/// `f64`. Results are rounded back to `T` (the factor matrices feed
/// `T`-precision TTMs downstream).
pub fn gram_svd_mixed<T: Scalar>(a: MatRef<'_, T>) -> Result<(Matrix<T>, Vec<T>)> {
    let g = syrk_lower_f64_acc(a);
    gram_svd_mixed_from_gram(&g)
}

/// Mixed-precision Gram-SVD from an already-accumulated `f64` Gram matrix —
/// the entry point for the parallel algorithm (local mixed `syrk`s, `f64`
/// all-reduce, redundant `f64` eigendecomposition: the SVD of `G`, whose
/// values are `|λ|` descending, square-rooted and rounded to `T`).
pub fn gram_svd_mixed_from_gram<T: Scalar>(g: &Matrix<f64>) -> Result<(Matrix<T>, Vec<T>)> {
    crate::gram_svd::left_from_gram(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram_svd::gram_svd;
    use crate::qr_svd::qr_svd;
    use crate::random::matrix_with_singular_values_seeded;
    use crate::syrk_lower;

    #[test]
    fn f64_accumulation_matches_plain_syrk_on_f64_data() {
        let a = matrix_with_singular_values_seeded::<f64>(&[3.0, 1.0, 0.5], 30, 1);
        let mixed = syrk_lower_f64_acc(a.as_ref());
        let plain = syrk_lower(a.as_ref());
        assert!(mixed.max_abs_diff(&plain) < 1e-13);
    }

    /// The headline property: on f32 data, mixed Gram tracks singular values
    /// down to ~ε_s‖A‖ (like QR-single), far below plain Gram-single's √ε_s
    /// floor.
    #[test]
    fn mixed_floor_matches_qr_single() {
        let n = 30;
        let sv: Vec<f64> =
            (0..n).map(|i| 10f64.powf(-10.0 * i as f64 / (n - 1) as f64)).collect();
        let a64 = matrix_with_singular_values_seeded::<f64>(&sv, 100, 2);
        let a32 = Matrix::<f32>::from_fn(n, 100, |i, j| a64[(i, j)] as f32);

        let (_, s_mixed) = gram_svd_mixed(a32.as_ref()).unwrap();
        let (_, s_plain) = gram_svd(a32.as_ref()).unwrap();
        let (_, s_qr) = qr_svd(a32.as_ref()).unwrap();

        for i in 0..n {
            let t = sv[i];
            if t > 3e-6 {
                // Above QR-single's floor: mixed and QR agree with the truth.
                let rel_mixed = (s_mixed[i] as f64 - t).abs() / t;
                let rel_qr = (s_qr[i] as f64 - t).abs() / t;
                assert!(rel_mixed < 1.0, "mixed lost σ={t:.1e}: {}", s_mixed[i]);
                assert!(rel_qr < 1.0);
            }
            if t < 1e-5 && t > 1e-9 {
                // Between the floors: plain Gram-single is noise here.
                let rel_plain = (s_plain[i] as f64 - t).abs() / t;
                assert!(rel_plain > 1.0, "plain Gram-single unexpectedly accurate at {t:.1e}");
            }
        }
    }

    #[test]
    fn vectors_are_orthonormal_in_target_precision() {
        let a64 = matrix_with_singular_values_seeded::<f64>(&[2.0, 1.0, 0.5, 0.1], 40, 3);
        let a32 = Matrix::<f32>::from_fn(4, 40, |i, j| a64[(i, j)] as f32);
        let (u, s) = gram_svd_mixed(a32.as_ref()).unwrap();
        assert!(u.orthonormality_error() < 1e-5);
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn from_gram_entry_point_agrees() {
        let a64 = matrix_with_singular_values_seeded::<f64>(&[1.0, 0.3], 20, 4);
        let a32 = Matrix::<f32>::from_fn(2, 20, |i, j| a64[(i, j)] as f32);
        let g = syrk_lower_f64_acc(a32.as_ref());
        let (_, s1) = gram_svd_mixed_from_gram::<f32>(&g).unwrap();
        let (_, s2) = gram_svd_mixed(a32.as_ref()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn row_major_input() {
        let data: Vec<f32> = (0..60).map(|x| (x as f32 * 0.37).sin()).collect();
        let a = MatRef::row_major(&data, 4, 15);
        let mixed = syrk_lower_f64_acc(a);
        let plain = syrk_lower(a);
        for j in 0..4 {
            for i in 0..4 {
                assert!((mixed[(i, j)] - plain[(i, j)] as f64).abs() < 1e-5);
            }
        }
    }
}
