//! QR-SVD: the numerically accurate SVD of a short-fat matrix (paper §3.1).
//!
//! An LQ decomposition `A = L·Q` reduces the SVD of the `m x n` unfolding to
//! the SVD of the small `m x m` lower-triangular `L`: if `L = U Σ V_Lᵀ` then
//! `A = U Σ (Qᵀ V_L)ᵀ`, so the left singular vectors and singular values of
//! `L` *are* those of `A`, and neither `Q` nor `V_L` is ever formed. The cost
//! is `2·n·m² + O(m³)` — twice Gram-SVD — but every step is backward stable,
//! so Theorem 1 applies: singular values are accurate to `O(ε‖A‖)` instead of
//! Gram-SVD's `O(√ε‖A‖)` breakdown.

use crate::error::Result;
use crate::lq::lq_factor;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::svd::svd_left;
use crate::view::MatRef;

/// Left singular vectors (`m x m`) and singular values (length `m`,
/// descending) of `A`, via the Q-less LQ (`L` is zero-padded if `n < m`).
pub fn qr_svd<T: Scalar>(a: MatRef<'_, T>) -> Result<(Matrix<T>, Vec<T>)> {
    svd_left(lq_factor(a).as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::matrix_with_singular_values_seeded;
    use crate::tslq::{tslq_blocks, TslqOptions};

    #[test]
    fn matches_prescribed_singular_values() {
        let sv = [5.0, 3.0, 1.0, 0.1];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 40, 1);
        let (u, s) = qr_svd(a.as_ref()).unwrap();
        assert!(u.orthonormality_error() < 1e-12);
        for (got, want) in s.iter().zip(sv) {
            assert!((got - want).abs() < 1e-11);
        }
    }

    #[test]
    fn flat_tree_matches_one_shot() {
        let sv = [2.0, 1.0, 0.5, 0.25, 0.125];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 60, 2);
        let (_, s1) = qr_svd(a.as_ref()).unwrap();
        let l = tslq_blocks(5, a.as_ref().col_panels(7), TslqOptions);
        let (_, s2) = svd_left(l.as_ref()).unwrap();
        for (x, y) in s1.iter().zip(&s2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// Theorem 1 in unit-test form: QR-SVD in single precision keeps relative
    /// order-of-magnitude accuracy down to ~ε_s‖A‖, far below Gram-SVD's
    /// √ε_s‖A‖ breakdown.
    #[test]
    fn accurate_below_sqrt_epsilon_single() {
        let n = 25;
        let sv: Vec<f64> = (0..n).map(|i| 10f64.powf(-6.0 * i as f64 / (n - 1) as f64)).collect();
        let a64 = matrix_with_singular_values_seeded::<f64>(&sv, 80, 3);
        let a32 = Matrix::<f32>::from_fn(a64.rows(), a64.cols(), |i, j| a64[(i, j)] as f32);
        let (_, s32) = qr_svd(a32.as_ref()).unwrap();
        for i in 0..n {
            // All values here are ≥ 1e-6 ≈ 10·ε_s: QR-SVD must track each to
            // well within an order of magnitude.
            let rel = (s32[i] as f64 - sv[i]).abs() / sv[i];
            assert!(rel < 0.5, "σ_{i}={} got {} (rel {rel})", sv[i], s32[i]);
        }
    }

    #[test]
    fn tall_input_is_handled_by_padding() {
        let a = matrix_with_singular_values_seeded::<f64>(&[4.0, 2.0, 1.0], 3, 4);
        // a is 3 x 3; make a tall 6x3 by stacking with zeros.
        let tall = Matrix::from_fn(6, 3, |i, j| if i < 3 { a[(i, j)] } else { 0.0 });
        let (u, s) = qr_svd(tall.as_ref()).unwrap();
        assert_eq!(u.rows(), 6);
        assert!((s[0] - 4.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
        // Padding produces trailing zero singular values.
        for &z in &s[3..] {
            assert!(z < 1e-12);
        }
    }
}
