//! Gram-SVD: the SVD algorithm used by TuckerMPI (paper §2.3).
//!
//! For an `m x n` matrix `A` with `m ≪ n`, the left singular vectors and
//! singular values are obtained from the eigendecomposition of the `m x m`
//! Gram matrix `A·Aᵀ = U Σ² Uᵀ` at a cost of `n·m² + O(m³)` flops — half the
//! flops of QR-SVD, but with error bounds amplified by `‖A‖/σᵢ` (Theorem 2):
//! singular values below `‖A‖·√ε` are roundoff noise.
//!
//! The eigendecomposition is the crate's one small-matrix solver, [`svd_left`]:
//! for a symmetric `G` the singular values are `|λᵢ|`, descending, and the left
//! singular vectors are the eigenvectors. That is the paper's `σ = √|λ|` with
//! the re-sort (§3.2) — an eigenvalue that comes out *negative* once roundoff
//! dominates it is folded by the SVD itself. The `√ε` loss happens when `G` is
//! formed; the solver is backward stable for `G`.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::svd::svd_left;
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

/// Eigendecomposition of a symmetric Gram matrix in its own precision `G`,
/// returned as `(U, σ)` in `T`: the SVD of `G` gives `|λᵢ|` descending, so
/// `σᵢ = √|λᵢ|`. With `T = G` the cast through `f64` is exact.
pub(crate) fn left_from_gram<G: Scalar, T: Scalar>(g: &Matrix<G>) -> Result<(Matrix<T>, Vec<T>)> {
    if g.rows() != g.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "gram_svd",
            details: format!("{}x{} Gram matrix is not square", g.rows(), g.cols()),
        });
    }
    let (u, lambda) = svd_left(g.as_ref())?;
    let sigma = lambda.iter().map(|l| T::from_f64(l.sqrt().to_f64())).collect();
    let cast = u.data().iter().map(|x| T::from_f64(x.to_f64())).collect();
    Ok((Matrix::from_col_major(u.rows(), u.cols(), cast), sigma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::mixed::gram_svd_mixed_from_gram;
    use crate::random::matrix_with_singular_values_seeded;
    use crate::svd::singular_values;

    fn pseudo_symmetric(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let raw = Matrix::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        Matrix::from_fn(n, n, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]))
    }

    /// `(U, σ)` of a symmetric, possibly indefinite `S` is its
    /// eigendecomposition up to signs: `U` orthonormal, σ descending, and
    /// `S u_k = λ_k u_k` with `|λ_k| = σ_k²`.
    fn check_eigenpairs(s: &Matrix<f64>, tol: f64) {
        let (u, sigma) = gram_svd_from_gram(s).unwrap();
        assert!(u.orthonormality_error() < tol, "U not orthonormal");
        assert!(sigma.windows(2).all(|w| w[0] >= w[1]), "σ not descending");
        let su = matmul(s, &u);
        let scale = s.max_abs().max(1.0);
        for (k, sk) in sigma.iter().enumerate() {
            let lambda: f64 = u.col(k).iter().zip(su.col(k)).map(|(a, b)| a * b).sum();
            assert!((lambda.abs() - sk * sk).abs() < tol * scale, "|λ_{k}| != σ_{k}²");
            for (x, y) in su.col(k).iter().zip(u.col(k)) {
                assert!((x - lambda * y).abs() < tol * scale, "S u_{k} != λ u_{k}");
            }
        }
    }

    #[test]
    fn random_symmetric() {
        check_eigenpairs(&pseudo_symmetric(10, 1), 1e-12);
    }

    #[test]
    fn large_matrix_converges() {
        check_eigenpairs(&pseudo_symmetric(60, 4), 1e-11);
    }

    #[test]
    fn diagonal_matrix() {
        let mut a = Matrix::<f64>::zeros(5, 5);
        for (i, &v) in [3.0, -1.0, 0.0, 7.0, 2.0].iter().enumerate() {
            a[(i, i)] = v;
        }
        let (_, s) = gram_svd_from_gram(&a).unwrap();
        for (got, want) in s.iter().zip([7.0f64, 3.0, 2.0, 1.0, 0.0]) {
            assert!((got - want.sqrt()).abs() < 1e-14, "{s:?}");
        }
        check_eigenpairs(&a, 1e-13);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_row_major(2, 2, &[2.0f64, 1.0, 1.0, 2.0]);
        let (_, s) = gram_svd_from_gram(&a).unwrap();
        assert!((s[0] - 3f64.sqrt()).abs() < 1e-14);
        assert!((s[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn gram_matrix_eigenvalues_are_squared_singular_values() {
        let b = pseudo_symmetric(6, 2);
        let (_, s) = gram_svd_from_gram(&matmul(&b, &b)).unwrap();
        let want = singular_values(b.as_ref()).unwrap();
        for (got, want) in s.iter().zip(&want) {
            assert!((got - want).abs() < 1e-10 * want.max(1.0));
        }
    }

    #[test]
    fn indefinite_matrix() {
        // Eigenvalues ±5: both fold to σ = √5. With |λ| tied, any basis of
        // the plane is a valid U, so only orthonormality is pinned.
        let a = Matrix::from_row_major(2, 2, &[0.0f64, 5.0, 5.0, 0.0]);
        let (u, s) = gram_svd_from_gram(&a).unwrap();
        for x in &s {
            assert!((x - 5f64.sqrt()).abs() < 1e-14);
        }
        assert!(u.orthonormality_error() < 1e-14);
    }

    #[test]
    fn repeated_eigenvalues() {
        let (u, s) = gram_svd_from_gram(&Matrix::<f64>::identity(6)).unwrap();
        assert!(s.iter().all(|&x| (x - 1.0).abs() < 1e-14));
        assert!(u.orthonormality_error() < 1e-14);
        // A repeated eigenvalue of a non-diagonal Gram matrix: 2 four times,
        // 0.5 twice.
        let sv = [2f64.sqrt(), 2f64.sqrt(), 2f64.sqrt(), 2f64.sqrt(), 0.5f64.sqrt(), 0.5f64.sqrt()];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 20, 5);
        let (u, s) = gram_svd(a.as_ref()).unwrap();
        assert!(u.orthonormality_error() < 1e-13);
        for (got, want) in s.iter().zip(sv) {
            assert!((got - want).abs() < 1e-13);
        }
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_row_major(1, 1, &[-2.5f64]);
        let (u, s) = gram_svd_from_gram(&a).unwrap();
        assert_eq!(s, vec![2.5f64.sqrt()]);
        assert_eq!(u[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn empty_matrix() {
        let g = Matrix::<f64>::zeros(0, 0);
        let (u, s) = gram_svd_from_gram(&g).unwrap();
        assert!(s.is_empty() && u.rows() == 0 && u.cols() == 0);
        let (u, s) = gram_svd_mixed_from_gram::<f32>(&g).unwrap();
        assert!(s.is_empty() && u.rows() == 0 && u.cols() == 0);
    }

    #[test]
    fn non_square_rejected() {
        let g = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(gram_svd_from_gram(&g), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_input_is_typed_error() {
        for bad in [f64::INFINITY, f64::NAN] {
            let mut g = pseudo_symmetric(5, 6);
            g[(2, 2)] = bad;
            let phase = |r: Result<(Matrix<f32>, Vec<f32>)>| match r {
                Err(LinalgError::NonFinite { phase, .. }) => phase,
                other => panic!("expected NonFinite, got {:?}", other.map(|_| ())),
            };
            assert_eq!(phase(gram_svd_mixed_from_gram(&g)), "bidiagonalize");
            let g32 = Matrix::<f32>::from_fn(5, 5, |i, j| g[(i, j)] as f32);
            assert_eq!(phase(gram_svd_from_gram(&g32)), "bidiagonalize");
        }
    }

    #[test]
    fn single_precision() {
        let a64 = pseudo_symmetric(8, 3);
        let a32 = Matrix::<f32>::from_fn(8, 8, |i, j| a64[(i, j)] as f32);
        let (u32_, s32) = gram_svd_from_gram(&a32).unwrap();
        let (_, s64) = gram_svd_from_gram(&a64).unwrap();
        // Compare |λ| = σ²: the square root would amplify the f32 rounding
        // of an eigenvalue near zero.
        for (a, b) in s32.iter().zip(&s64) {
            assert!(((a * a) as f64 - b * b).abs() < 1e-5);
        }
        assert!(u32_.orthonormality_error() < 1e-5);
    }

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
