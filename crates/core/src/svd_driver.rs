//! The dense-local backend of the mode loop: Gram-SVD, QR-SVD and the
//! randomized range finder on a tensor unfolding, plus the sequential TTM.
//! The Gram and LQ kernels are [`Unfolding`]'s — the same ones the
//! distributed backend runs as its local phase, so a 1×…×1 grid returns
//! these bits.

use crate::config::{SthosvdConfig, SvdMethod};
use crate::mode_loop::ModeBackend;
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

/// Run `f` on the mode-`n` unfolding as one matrix. Middle-mode unfoldings
/// have no single strided view, so they are materialized (one extra copy of
/// the working tensor) — acceptable because the range finder's own GEMMs
/// dominate the copy.
fn with_unfolding<T: Scalar, R>(y: &Tensor<T>, n: usize, f: impl FnOnce(MatRef<'_, T>) -> R) -> R {
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

    /// `U` is the full `I_n × I_n` for the deterministic methods and
    /// `I_n × min(R_n + oversampling, I_n)` for the randomized one.
    fn mode_factor(
        &mut self,
        y: &Tensor<T>,
        n: usize,
        cfg: &SthosvdConfig,
    ) -> Result<(Matrix<T>, Vec<T>)> {
        match cfg.method {
            SvdMethod::Gram => gram_svd_from_gram(&gram_of_unfolding(y, n)),
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
