//! Sequential ST-HOSVD (Alg. 1 of the paper): the mode loop of
//! [`crate::mode_loop`] over the dense-local backend. The working tensor —
//! and hence all later modes' costs — shrinks as the algorithm proceeds.

use crate::config::SthosvdConfig;
use crate::mode_loop::{self, LoopOutput};
use crate::svd_driver::DenseBackend;
use crate::tucker::TuckerTensor;
use tucker_linalg::{Result, Scalar};
use tucker_tensor::Tensor;

/// ST-HOSVD result with diagnostic information.
pub struct SthosvdOutput<T> {
    /// The computed decomposition.
    pub tucker: TuckerTensor<T>,
    /// Per-mode singular value profiles (indexed by mode, not by processing
    /// order) — the quantity plotted in the paper's Figs. 5–7.
    pub singular_values: Vec<Vec<T>>,
    /// `‖X‖` as computed in working precision.
    pub norm_x: T,
    /// Estimated relative error from the discarded tails (≤ ε in exact
    /// arithmetic; meaningless when the tail is numerical noise).
    pub estimated_error: T,
}

impl<T> SthosvdOutput<T> {
    /// Wrap a finished mode loop, given how its core becomes dense.
    pub fn from_loop<Y>(out: LoopOutput<T, Y>, dense: impl FnOnce(Y) -> Tensor<T>) -> Self {
        SthosvdOutput {
            tucker: TuckerTensor { core: dense(out.core), factors: out.factors },
            singular_values: out.singular_values,
            norm_x: out.norm_x,
            estimated_error: out.estimated_error,
        }
    }
}

/// Run ST-HOSVD, returning the decomposition only.
pub fn sthosvd<T: Scalar>(x: &Tensor<T>, cfg: &SthosvdConfig) -> Result<TuckerTensor<T>> {
    Ok(sthosvd_with_info(x, cfg)?.tucker)
}

/// Run ST-HOSVD, returning the decomposition plus singular value profiles
/// and the tail-based error estimate.
pub fn sthosvd_with_info<T: Scalar>(
    x: &Tensor<T>,
    cfg: &SthosvdConfig,
) -> Result<SthosvdOutput<T>> {
    Ok(SthosvdOutput::from_loop(mode_loop::run(&mut DenseBackend, x, cfg)?, |core| core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModeOrder, SvdMethod};
    use crate::test_util::low_rank_tensor;
    use tucker_linalg::LinalgError;
    use tucker_tensor::ttm;

    #[test]
    fn exact_low_rank_is_recovered() {
        let x = low_rank_tensor(&[8, 9, 7], &[2, 3, 2], 0.0);
        // Gram-SVD's zero singular values are computed as noise at the
        // √ε_d·‖A‖ ≈ 1e-8 level, so it can only meet tolerances above that
        // floor; QR-SVD works down to ε_d (the paper's Theorem 1 vs 2).
        for (method, eps) in [(SvdMethod::Gram, 1e-6), (SvdMethod::Qr, 1e-6), (SvdMethod::Qr, 1e-10)]
        {
            let cfg = SthosvdConfig::with_tolerance(eps).method(method);
            let out = sthosvd_with_info(&x, &cfg).unwrap();
            assert_eq!(out.tucker.ranks(), vec![2, 3, 2], "{method:?} eps={eps}");
            let err = out.tucker.relative_error(&x).to_f64();
            assert!(err < eps, "{method:?} eps={eps}: err {err}");
        }
    }

    #[test]
    fn error_guarantee_holds() {
        let x = low_rank_tensor(&[8, 8, 8], &[3, 3, 3], 1e-3);
        for eps in [1e-1, 1e-2] {
            for method in [SvdMethod::Gram, SvdMethod::Qr] {
                let cfg = SthosvdConfig::with_tolerance(eps).method(method);
                let out = sthosvd_with_info(&x, &cfg).unwrap();
                let err = out.tucker.relative_error(&x).to_f64();
                assert!(err <= eps * 1.05, "{method:?} eps={eps}: err {err}");
                // The estimate brackets the truth up to roundoff.
                assert!(out.estimated_error.to_f64() <= eps * 1.05);
            }
        }
    }

    #[test]
    fn mode_order_does_not_change_guarantee() {
        let x = low_rank_tensor(&[6, 7, 8], &[2, 2, 2], 1e-4);
        for order in [ModeOrder::Forward, ModeOrder::Backward, ModeOrder::Custom(vec![1, 2, 0])] {
            let cfg = SthosvdConfig::with_tolerance(1e-2).order(order.clone());
            let tk = sthosvd(&x, &cfg).unwrap();
            let err = tk.relative_error(&x);
            assert!(err <= 1.05e-2, "{order:?}: err {err}");
        }
    }

    #[test]
    fn fixed_ranks_are_respected() {
        let x = low_rank_tensor(&[8, 8, 8], &[4, 4, 4], 1e-2);
        let cfg = SthosvdConfig::with_ranks(vec![3, 2, 5]);
        let tk = sthosvd(&x, &cfg).unwrap();
        assert_eq!(tk.ranks(), vec![3, 2, 5]);
        assert_eq!(tk.factors[0].shape(), (8, 3));
        assert_eq!(tk.factors[2].shape(), (8, 5));
    }

    #[test]
    fn ranks_capped_at_dimension() {
        let x = low_rank_tensor(&[4, 5, 3], &[2, 2, 2], 0.0);
        let cfg = SthosvdConfig::with_ranks(vec![10, 10, 10]);
        let tk = sthosvd(&x, &cfg).unwrap();
        assert_eq!(tk.ranks(), vec![4, 5, 3]);
    }

    #[test]
    fn ranks_of_the_wrong_length_or_zero_are_typed_errors() {
        let x = low_rank_tensor(&[4, 5, 3], &[2, 2, 2], 0.0);
        for ranks in [vec![2, 2], vec![2, 2, 2, 2], vec![2, 0, 2], vec![]] {
            for method in [SvdMethod::Qr, SvdMethod::Gram, SvdMethod::Randomized] {
                let cfg = SthosvdConfig::with_ranks(ranks.clone()).method(method);
                for e in [sthosvd(&x, &cfg).err(), crate::hosvd(&x, &cfg).err()] {
                    assert!(
                        matches!(e, Some(LinalgError::InvalidConfig { param: "ranks", .. })),
                        "{ranks:?} {method:?}: {e:?}"
                    );
                }
            }
        }
        // Likewise a mode order that is too short, too long, or repeats a mode.
        for order in [vec![0, 1], vec![0, 1, 2, 0], vec![0, 0, 1]] {
            let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]).order(ModeOrder::Custom(order));
            let e = sthosvd(&x, &cfg).err();
            assert!(
                matches!(e, Some(LinalgError::InvalidConfig { param: "mode_order", .. })),
                "{:?}: {e:?}",
                cfg.mode_order
            );
        }
    }

    #[test]
    fn no_truncation_reproduces_tensor() {
        let x = low_rank_tensor(&[5, 4, 6], &[5, 4, 6], 0.0);
        let cfg = SthosvdConfig::no_truncation();
        let out = sthosvd_with_info(&x, &cfg).unwrap();
        assert_eq!(out.tucker.ranks(), vec![5, 4, 6]);
        let err = out.tucker.relative_error(&x);
        assert!(err < 1e-12, "full HOSVD must be exact: {err}");
        // Singular value profiles recorded for every mode.
        for n in 0..3 {
            assert_eq!(out.singular_values[n].len(), x.dims()[n]);
        }
    }

    #[test]
    fn quasi_optimality_factor() {
        // ST-HOSVD error ≤ √N × optimal; with a generous margin we check the
        // error is not wildly above the tail estimate.
        let x = low_rank_tensor(&[7, 7, 7], &[3, 3, 3], 1e-3);
        let cfg = SthosvdConfig::with_tolerance(5e-3);
        let out = sthosvd_with_info(&x, &cfg).unwrap();
        let exact = out.tucker.relative_error(&x).to_f64();
        let est = out.estimated_error.to_f64();
        assert!(exact <= est * 1.1 + 1e-12, "exact {exact} vs est {est}");
    }

    #[test]
    fn single_precision_end_to_end() {
        let x64 = low_rank_tensor(&[6, 6, 6], &[2, 2, 2], 1e-3);
        let x32: Tensor<f32> = x64.cast();
        for method in [SvdMethod::Gram, SvdMethod::Qr] {
            let cfg = SthosvdConfig::with_tolerance(1e-2).method(method);
            let tk = sthosvd(&x32, &cfg).unwrap();
            let err = tk.relative_error(&x32);
            assert!(err <= 1.1e-2, "{method:?}: err {err}");
        }
    }

    /// The paper's headline numerical claim at the ST-HOSVD level: with a
    /// tolerance between ε_s and √ε_s, Gram-single fails to compress while
    /// QR-single compresses fine.
    #[test]
    fn gram_single_fails_where_qr_single_works() {
        // Build a tensor whose per-mode spectra decay to ~1e-6.
        let x64 = {
            let dims = [12usize, 12, 12];
            let mut y = Tensor::<f64>::zeros(&dims);
            // Superdiagonal core: exact multilinear spectra decaying over 8
            // orders of magnitude — most values sit below the Gram-single
            // noise floor √ε_s ≈ 3e-4 but above QR-single's ε_s.
            for k in 0..12 {
                let idx = [k, k, k];
                y.set(&idx, 10f64.powf(-(8.0 * k as f64) / 11.0));
            }
            // Rotate by random orthogonal factors so the unfoldings are dense
            // (a diagonal Gram matrix would hide the cancellation error that
            // creates the noise floor — the paper uses random singular
            // vectors for the same reason).
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(99);
            for n in 0..3 {
                let q = tucker_linalg::random_orthogonal::<f64, _>(12, 12, &mut rng);
                y = ttm(&y, n, q.as_ref(), false);
            }
            y
        };
        let x32: Tensor<f32> = x64.cast();
        let eps = 1e-4;

        let qr = sthosvd(&x32, &SthosvdConfig::with_tolerance(eps).method(SvdMethod::Qr)).unwrap();
        let gram =
            sthosvd(&x32, &SthosvdConfig::with_tolerance(eps).method(SvdMethod::Gram)).unwrap();
        // QR-single: sees the true decay and truncates hard.
        assert!(qr.ranks().iter().all(|&r| r <= 8), "QR should compress: {:?}", qr.ranks());
        // Gram-single: the tail is noise at ~√ε_s·σ₁; its accumulated energy
        // far exceeds the 1e-4 budget, so essentially nothing is truncated.
        assert!(
            gram.ranks().iter().all(|&r| r >= 10),
            "Gram-single should fail to compress: {:?}",
            gram.ranks()
        );
        assert!(
            qr.compression_ratio() > 2.0 * gram.compression_ratio(),
            "QR {} vs Gram {}",
            qr.compression_ratio(),
            gram.compression_ratio()
        );

        // The §5 future-work variant: mixed-precision Gram on the same f32
        // data recovers QR-single's compression (f64 accumulation removes
        // the √ε floor).
        let mixed =
            sthosvd(&x32, &SthosvdConfig::with_tolerance(eps).method(SvdMethod::GramMixed))
                .unwrap();
        assert!(
            mixed.ranks().iter().zip(qr.ranks()).all(|(&m, q)| m <= q + 1),
            "GramMixed should compress like QR-single: {:?} vs {:?}",
            mixed.ranks(),
            qr.ranks()
        );
    }
}
