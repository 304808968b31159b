//! Gram-SVD: the SVD algorithm used by TuckerMPI (paper §2.3).
//!
//! For an `m x n` matrix `A` with `m ≪ n`, the left singular vectors and
//! singular values are obtained from the eigendecomposition of the `m x m`
//! Gram matrix `A·Aᵀ = U Σ² Uᵀ` at a cost of `n·m² + O(m³)` flops — half the
//! flops of QR-SVD, but with error bounds amplified by `‖A‖/σᵢ` (Theorem 2):
//! singular values below `‖A‖·√ε` are roundoff noise.
//!
//! Following the paper (§3.2), eigenvalues that come out *negative* (possible
//! once they are dominated by roundoff) are handled by taking `σ = √|λ|` and
//! re-sorting in decreasing order.

use crate::eig::syev;
use crate::error::Result;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::syrk::syrk_lower;
use crate::view::MatRef;

/// Left singular vectors (`m x m`) and singular values (length `m`,
/// descending) of `A`, via the Gram matrix.
pub fn gram_svd<T: Scalar>(a: MatRef<'_, T>) -> Result<(Matrix<T>, Vec<T>)> {
    let g = syrk_lower(a);
    gram_svd_from_gram(&g)
}

/// Same as [`gram_svd`] but starting from an already-formed Gram matrix —
/// the entry point for the parallel algorithm, where the Gram matrix is
/// produced by local `syrk`s and an all-reduce.
pub fn gram_svd_from_gram<T: Scalar>(g: &Matrix<T>) -> Result<(Matrix<T>, Vec<T>)> {
    left_from_gram(g)
}

/// Eigendecomposition of a Gram matrix in its own precision `G`, returned as
/// `(U, σ)` in `T`: `σᵢ = √|λᵢ|`, sorted descending by σ (equivalently
/// `|λ|`). With `T = G` the cast through `f64` is exact.
pub(crate) fn left_from_gram<G: Scalar, T: Scalar>(g: &Matrix<G>) -> Result<(Matrix<T>, Vec<T>)> {
    let out = syev(g)?;
    let m = g.rows();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&i, &j| {
        out.values[j]
            .abs()
            .partial_cmp(&out.values[i].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut u = Matrix::<T>::zeros(m, m);
    let mut sigma = Vec::with_capacity(m);
    for (dst, &src) in order.iter().enumerate() {
        sigma.push(T::from_f64(out.values[src].abs().sqrt().to_f64()));
        for (d, &s) in u.col_mut(dst).iter_mut().zip(out.vectors.col(src)) {
            *d = T::from_f64(s.to_f64());
        }
    }
    Ok((u, sigma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::matrix_with_singular_values_seeded;
    use crate::svd::singular_values;

    #[test]
    fn well_conditioned_matches_true_svd() {
        let sv = [4.0, 2.0, 1.0, 0.5];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 30, 1);
        let (u, s) = gram_svd(a.as_ref()).unwrap();
        assert!(u.orthonormality_error() < 1e-12);
        for (got, want) in s.iter().zip(sv) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn values_descend_and_are_nonnegative() {
        let sv = [1.0, 1e-3, 1e-6, 1e-9, 1e-12];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 40, 2);
        let (_, s) = gram_svd(a.as_ref()).unwrap();
        for i in 0..s.len() {
            assert!(s[i] >= 0.0);
            if i > 0 {
                assert!(s[i - 1] >= s[i]);
            }
        }
    }

    /// The paper's central numerical claim, in unit-test form: Gram-SVD in a
    /// given precision loses all relative accuracy for singular values below
    /// `‖A‖·√ε`, while QR-SVD (full SVD here) tracks them down to `‖A‖·ε`.
    #[test]
    fn loses_accuracy_below_sqrt_epsilon() {
        // Geometric decay 1 .. 1e-12 over 25 values.
        let n = 25;
        let sv: Vec<f64> = (0..n).map(|i| 10f64.powf(-12.0 * i as f64 / (n - 1) as f64)).collect();
        let a64 = matrix_with_singular_values_seeded::<f64>(&sv, 80, 3);
        let a32 = Matrix::<f32>::from_fn(a64.rows(), a64.cols(), |i, j| a64[(i, j)] as f32);

        let (_, s32) = gram_svd(a32.as_ref()).unwrap();
        // Above sqrt(eps_s) ~ 3.4e-4: accurate to the order of magnitude.
        for i in 0..n {
            if sv[i] > 1e-3 {
                let rel = (s32[i] as f64 - sv[i]).abs() / sv[i];
                assert!(rel < 0.5, "σ_{i}={} should still be accurate, got {}", sv[i], s32[i]);
            }
            if sv[i] < 1e-5 {
                // Below sqrt(eps_s): no relative accuracy left. The computed
                // value is noise at the level of ~‖A‖·sqrt(eps) — it must NOT
                // track the true value.
                let rel = (s32[i] as f64 - sv[i]).abs() / sv[i];
                assert!(rel > 0.5, "σ_{i}={} should be noise, got {}", sv[i], s32[i]);
            }
        }

        // Double-precision true SVD keeps everything (reference check).
        let strue = singular_values(a64.as_ref()).unwrap();
        for i in 0..n {
            let rel = (strue[i] - sv[i]).abs() / sv[i];
            assert!(rel < 1e-2);
        }
    }

    #[test]
    fn negative_eigenvalues_are_folded() {
        // A Gram-like matrix perturbed to be slightly indefinite, as happens
        // in floating point for numerically rank-deficient A.
        let mut g = Matrix::<f64>::zeros(3, 3);
        g[(0, 0)] = 1.0;
        g[(1, 1)] = 1e-30;
        g[(2, 2)] = -1e-32; // "negative eigenvalue" from roundoff
        let (_, s) = gram_svd_from_gram(&g).unwrap();
        assert!(s.iter().all(|&x| x >= 0.0));
        assert!((s[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn projection_error_matches_tail_for_good_gaps() {
        // ‖(I − U_k U_kᵀ)A‖_F² ≈ Σ_{i>k} σᵢ² when the gap is healthy.
        let sv = [3.0, 2.0, 1e-5, 1e-6];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 50, 4);
        let (u, _) = gram_svd(a.as_ref()).unwrap();
        let uk = u.truncate_cols(2);
        // P = Uk Ukᵀ A ; residual = A - P.
        let uta = crate::gemm::gemm_into(uk.as_ref(), crate::gemm::Trans::Yes, a.as_ref(), crate::gemm::Trans::No);
        let p = crate::gemm::gemm_into(uk.as_ref(), crate::gemm::Trans::No, uta.as_ref(), crate::gemm::Trans::No);
        let mut resid = a.clone();
        for (r, q) in resid.data_mut().iter_mut().zip(p.data()) {
            *r -= *q;
        }
        let tail = ((1e-5f64).powi(2) + (1e-6f64).powi(2)).sqrt();
        let got = resid.frob_norm();
        assert!((got - tail).abs() < 1e-3 * tail.max(1e-12) + 1e-9, "got {got}, want ~{tail}");
    }
}
