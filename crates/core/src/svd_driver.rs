//! The dense-local backend of the mode loop: Gram-SVD, QR-SVD and the
//! randomized range finder on a tensor unfolding, plus the sequential TTM.
//! The Gram and LQ kernels are [`Unfolding`]'s — the same ones the
//! distributed backend runs as its local phase, so a 1×…×1 grid returns
//! these bits.

use crate::config::{SthosvdConfig, SvdMethod};
use crate::mode_loop::{unfolding_cols, ModeBackend};
use tucker_linalg::gram_svd::gram_svd_from_gram;
use tucker_linalg::mixed::gram_svd_mixed_from_gram;
use tucker_linalg::randomized::randomized_svd_left_blocked;
use tucker_linalg::svd::svd_left;
use tucker_linalg::tslq::TslqOptions;
use tucker_linalg::{MatRef, Matrix, Result, Scalar};
use tucker_tensor::{ttm, Tensor, Unfolding};

/// Gram matrix `X_(n) X_(n)ᵀ` of the mode-`n` unfolding in working
/// precision.
pub fn gram_of_unfolding<T: Scalar>(y: &Tensor<T>, n: usize) -> Matrix<T> {
    Unfolding::new(y, n).gram()
}

/// LQ factor of the mode-`n` unfolding (paper Alg. 2).
pub fn lq_of_unfolding<T: Scalar>(y: &Tensor<T>, n: usize, opts: TslqOptions) -> Matrix<T> {
    Unfolding::new(y, n).lq(opts)
}

/// Thin SVD of a tall `m × k` unfolding (QR-SVD's path when
/// [`SthosvdConfig::thin_svd`] holds): Golub–Kahan on `A` itself is
/// backward stable, so the `ε‖A‖` accuracy of the padded LQ path holds
/// without its `m × m` triangle. `U` is `m × k`; σ is padded with exact
/// zeros to `m`, the profile length every other path returns.
pub fn thin_svd<T: Scalar>(a: MatRef<'_, T>) -> Result<(Matrix<T>, Vec<T>)> {
    let (u, mut sigma) = svd_left(a)?;
    sigma.resize(a.rows(), T::ZERO);
    Ok((u, sigma))
}

/// Run `f` on the mode-`n` unfolding as one matrix. Middle-mode unfoldings
/// have no single strided view, so they are materialized (one extra copy of
/// the working tensor) — acceptable because the range finder's own GEMMs
/// (or, on a tall mode, the SVD) dominate the copy.
pub fn with_unfolding<T: Scalar, R>(y: &Tensor<T>, n: usize, f: impl FnOnce(MatRef<'_, T>) -> R) -> R {
    let unf = Unfolding::new(y, n);
    match unf.whole() {
        Some(whole) => f(whole),
        None => f(unf.to_matrix().as_ref()),
    }
}

/// The dense-local backend: a [`Tensor`] in this process's memory.
pub struct DenseBackend;

impl<T: Scalar> ModeBackend<T> for DenseBackend {
    type Tensor = Tensor<T>;

    fn norm(&mut self, x: &Tensor<T>) -> T {
        x.norm()
    }

    fn dims<'a>(&'a self, y: &'a Tensor<T>) -> &'a [usize] {
        y.dims()
    }

    /// `U` is the full `I_n × I_n` for the deterministic methods,
    /// `I_n × I^*/I_n` on a thin QR mode and
    /// `I_n × min(R_n + oversampling, I_n)` for the randomized method.
    fn mode_factor(
        &mut self,
        y: &Tensor<T>,
        n: usize,
        cfg: &SthosvdConfig,
    ) -> Result<(Matrix<T>, Vec<T>)> {
        match cfg.method {
            SvdMethod::Gram => gram_svd_from_gram(&gram_of_unfolding(y, n)),
            SvdMethod::Qr if cfg.thin_svd(n, y.dims()[n], unfolding_cols(y.dims(), n)) => {
                with_unfolding(y, n, thin_svd)
            }
            SvdMethod::Qr => svd_left(lq_of_unfolding(y, n, cfg.tslq).as_ref()),
            // `f64` accumulation over `T`-precision blocks.
            SvdMethod::GramMixed => gram_svd_mixed_from_gram(&Unfolding::new(y, n).gram::<f64>()),
            // The *canonical blocked* driver: per-virtual-block partial
            // products folded in global block order with a counter-based Ω
            // fill, which is what the distributed driver
            // (`tucker-dtensor::sketch`) reproduces bit-identically for any
            // task count or grid shape.
            SvdMethod::Randomized => {
                let rank = cfg.fixed_ranks()?[n].min(y.dims()[n]);
                with_unfolding(y, n, |a| randomized_svd_left_blocked(a, rank, &cfg.randomized))
            }
        }
    }

    fn truncate(&mut self, y: &Tensor<T>, n: usize, u_n: &Matrix<T>) -> Result<Tensor<T>> {
        Ok(ttm(y, n, u_n.as_ref(), true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_linalg::syrk_lower;
    use tucker_linalg::svd::singular_values;

    fn mode_svd(y: &Tensor<f64>, n: usize, method: SvdMethod) -> Result<(Matrix<f64>, Vec<f64>)> {
        DenseBackend.mode_factor(y, n, &SthosvdConfig::no_truncation().method(method))
    }

    fn test_tensor(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            let mut v = 0.4;
            for (k, &x) in i.iter().enumerate() {
                v += ((x + 1) * (k + 2)) as f64 * 0.29;
            }
            v.sin()
        })
    }

    #[test]
    fn gram_matches_unfolding_gram() {
        let y = test_tensor(&[4, 5, 3]);
        for n in 0..3 {
            let got = gram_of_unfolding(&y, n);
            let unf = Unfolding::new(&y, n).to_matrix();
            let want = syrk_lower(unf.as_ref());
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn lq_gram_invariant_all_modes() {
        let y = test_tensor(&[4, 5, 3]);
        for n in 0..3 {
            let l = lq_of_unfolding(&y, n, TslqOptions);
            let llt = tucker_linalg::gemm::gemm_into(
                l.as_ref(),
                tucker_linalg::Trans::No,
                l.as_ref(),
                tucker_linalg::Trans::Yes,
            );
            let want = gram_of_unfolding(&y, n);
            assert!(llt.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn both_methods_agree_on_singular_values() {
        let y = test_tensor(&[5, 4, 4]);
        for n in 0..3 {
            let (_, s_gram) = mode_svd(&y, n, SvdMethod::Gram).unwrap();
            let (_, s_qr) = mode_svd(&y, n, SvdMethod::Qr).unwrap();
            let reference = singular_values(Unfolding::new(&y, n).to_matrix().as_ref()).unwrap();
            for i in 0..s_gram.len() {
                // Well-conditioned values: all three agree.
                if reference[i] > 1e-6 * reference[0] {
                    assert!((s_gram[i] - reference[i]).abs() < 1e-8 * reference[0]);
                    assert!((s_qr[i] - reference[i]).abs() < 1e-8 * reference[0]);
                }
            }
        }
    }

    /// A tall mode under a tolerance takes the thin path: `U` is
    /// `I_n × cols`, σ keeps its `I_n` length with an exact-zero tail, and
    /// the values match the padded path's.
    #[test]
    fn thin_path_keeps_the_profile_length_with_an_exact_zero_tail() {
        let y = test_tensor(&[12, 3, 2]);
        let (u, s) = DenseBackend.mode_factor(&y, 0, &SthosvdConfig::with_tolerance(0.0)).unwrap();
        assert_eq!(u.shape(), (12, 6));
        assert_eq!(s.len(), 12);
        assert!(s[6..].iter().all(|&v| v.to_bits() == 0), "{s:?}");
        let (_, padded) = mode_svd(&y, 0, SvdMethod::Qr).unwrap();
        for (a, b) in s.iter().zip(&padded).take(6) {
            assert!((a - b).abs() < 1e-13 * padded[0], "{s:?} vs {padded:?}");
        }
    }

    /// The Fig. 1 matrix made tall: 80 × 40 with singular values decaying
    /// geometrically from 1 to 1e-18. The thin SVD of the unfolding tracks
    /// every value to within a small multiple of `ε·σ₁` — QR-SVD's floor,
    /// not Gram-SVD's `√ε` — and its `U` is orthonormal to working
    /// precision, in both precisions.
    #[test]
    fn thin_path_holds_the_qr_floor_and_orthonormality() {
        use rand::SeedableRng;
        fn check<T: Scalar>(truth: &[f64], y: &Tensor<T>) {
            let cfg = SthosvdConfig::with_tolerance(0.0);
            let (u, s) = DenseBackend.mode_factor(y, 0, &cfg).unwrap();
            assert_eq!((u.shape(), s.len()), ((80, 40), 80));
            let eps = T::EPSILON.to_f64();
            let worst = truth.iter().zip(&s).map(|(t, v)| (t - v.to_f64()).abs()).fold(0.0, f64::max);
            assert!(worst <= 8.0 * eps * truth[0], "{}-byte: |σ − truth| = {worst:e}", T::BYTES);
            let orth = u.orthonormality_error().to_f64();
            assert!(orth <= 40.0 * eps, "{}-byte: ‖UᵀU − I‖ = {orth:e}", T::BYTES);
        }
        let (m, n) = (80, 40);
        let truth: Vec<f64> = (0..n).map(|i| 10f64.powf(-18.0 * i as f64 / (n - 1) as f64)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let u = tucker_linalg::random_orthogonal::<f64, _>(m, n, &mut rng);
        let v = tucker_linalg::random_orthogonal::<f64, _>(n, n, &mut rng);
        let a = Matrix::from_fn(m, n, |i, j| (0..n).map(|k| u[(i, k)] * truth[k] * v[(j, k)]).sum::<f64>());
        // Column-major 80 × 40 data is the mode-0 unfolding of 80 × 8 × 5.
        let y = Tensor::from_data(&[80, 8, 5], a.data().to_vec());
        check(&truth, &y);
        check(&truth, &y.cast::<f32>());
    }

    #[test]
    fn u_is_orthonormal_both_methods() {
        let y = test_tensor(&[6, 3, 4]);
        for method in [SvdMethod::Gram, SvdMethod::Qr] {
            let (u, s) = mode_svd(&y, 0, method).unwrap();
            assert_eq!(u.shape(), (6, 6));
            assert_eq!(s.len(), 6);
            assert!(u.orthonormality_error() < 1e-10, "{method:?}");
        }
    }
}
