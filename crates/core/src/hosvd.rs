//! Classic (truncated) HOSVD — De Lathauwer, De Moor, Vandewalle [19] — as a
//! baseline against ST-HOSVD.
//!
//! Unlike ST-HOSVD, every mode's SVD is taken on the *original* tensor, so
//! no work is saved by sequential truncation: each unfolding has the full
//! `I^*/I_n` columns. The same `√N`-quasi-optimality and tolerance guarantee
//! hold, but the flop count is strictly larger — which is exactly why
//! TuckerMPI (and this reproduction) use ST-HOSVD as the workhorse.

use crate::config::SthosvdConfig;
use crate::mode_loop::{factor_mode, ModeBackend, RankRule};
use crate::svd_driver::DenseBackend;
use crate::tucker::TuckerTensor;
use tucker_linalg::{Result, Scalar};
use tucker_tensor::Tensor;

/// Truncated HOSVD: the pieces of the ST-HOSVD mode loop under another
/// schedule — factor every mode from the original tensor, then form the
/// core with a single TTM chain. Accepts the same configuration as
/// [`crate::sthosvd`] (`mode_order` is ignored). HOSVD's tail estimate is
/// looser than ST-HOSVD's, so none is returned; callers use
/// [`TuckerTensor::relative_error_via_core`] instead.
pub fn hosvd<T: Scalar>(x: &Tensor<T>, cfg: &SthosvdConfig) -> Result<TuckerTensor<T>> {
    cfg.validate()?;
    let b = &mut DenseBackend;
    let rule = RankRule::new(&cfg.truncation, x.norm(), x.ndims())?;
    let factors = (0..x.ndims())
        .map(|n| Ok(factor_mode(b, x, n, &rule, cfg)?.u_n))
        .collect::<Result<Vec<_>>>()?;
    let mut core = x.clone();
    for (n, f) in factors.iter().enumerate() {
        core = b.truncate(&core, n, f)?;
    }
    Ok(TuckerTensor { core, factors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SvdMethod;
    use crate::sthosvd::sthosvd;
    use tucker_data_shim::hcci_like;

    /// Local lightweight surrogate to avoid a circular dev-dependency.
    mod tucker_data_shim {
        use tucker_tensor::Tensor;
        pub fn hcci_like(dims: &[usize], seed: u64) -> Tensor<f64> {
            let mut lin = 0usize;
            let base = Tensor::from_fn(dims, |idx| {
                lin += 1;
                let mut scale = 1.0f64;
                for (n, &i) in idx.iter().enumerate() {
                    scale *= 10f64.powf(-(4.0 * i as f64) / (dims[n] as f64));
                }
                let mut z = (seed ^ lin as u64).wrapping_mul(0x9E3779B97F4A7C15);
                z ^= z >> 31;
                scale * (((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5)
            });
            base
        }
    }

    #[test]
    fn hosvd_meets_tolerance() {
        let x = hcci_like(&[10, 10, 8], 1);
        for eps in [1e-1, 1e-2, 1e-3] {
            let cfg = SthosvdConfig::with_tolerance(eps);
            let tk = hosvd(&x, &cfg).unwrap();
            let err = tk.relative_error(&x).to_f64();
            assert!(err <= eps, "eps {eps}: err {err}");
        }
    }

    #[test]
    fn hosvd_never_truncates_harder_than_needed() {
        let x = hcci_like(&[10, 9, 8], 2);
        let cfg = SthosvdConfig::with_tolerance(1e-2);
        let h = hosvd(&x, &cfg).unwrap();
        let s = sthosvd(&x, &cfg).unwrap();
        // Both satisfy the tolerance; ST-HOSVD is allowed to truncate harder
        // in later modes (its unfoldings are already compressed).
        assert!(h.relative_error(&x).to_f64() <= 1e-2);
        assert!(s.relative_error(&x).to_f64() <= 1e-2);
        for n in 0..3 {
            assert!(s.ranks()[n] <= h.ranks()[n] + 1, "mode {n}: st {} vs hosvd {}", s.ranks()[n], h.ranks()[n]);
        }
    }

    #[test]
    fn fixed_ranks_and_both_methods() {
        let x = hcci_like(&[8, 8, 8], 3);
        for method in [SvdMethod::Gram, SvdMethod::Qr] {
            let cfg = SthosvdConfig::with_ranks(vec![3, 4, 2]).method(method);
            let tk = hosvd(&x, &cfg).unwrap();
            assert_eq!(tk.ranks(), vec![3, 4, 2]);
            assert!(tk.factors.iter().all(|u| u.orthonormality_error() < 1e-10));
        }
    }

    #[test]
    fn no_truncation_is_exact() {
        let x = hcci_like(&[6, 5, 7], 4);
        let cfg = SthosvdConfig::no_truncation();
        let tk = hosvd(&x, &cfg).unwrap();
        assert!(tk.relative_error(&x).to_f64() < 1e-12);
    }
}
