//! Sparse ST-HOSVD: feed a COO event tensor to the existing Gram/sketch
//! SVD drivers **without densifying at the original size**.
//!
//! The first processed mode is handled sparsely — its Gram matrix is
//! accumulated straight from the events ([`CooTensor::mode_gram`], or the
//! sketched variant) and factored by the same symmetric eigensolver the
//! dense Gram-SVD driver uses — and the first truncating TTM is applied
//! sparsely too. Only the *reduced* working tensor (`R_0 × I_1 × …`) is
//! ever dense; the remaining modes run through the standard dense
//! [`tucker_core`] mode drivers.

use crate::coo::CooTensor;
use crate::error::StreamResult;
use tucker_core::mode_loop::{self, ModeBackend};
use tucker_core::svd_driver::DenseBackend;
use tucker_core::{SthosvdConfig, SthosvdOutput};
use tucker_linalg::gram_svd::gram_svd_from_gram;
use tucker_linalg::{Matrix, Result, Scalar};
use tucker_tensor::Tensor;

/// How the leading mode's Gram matrix is accumulated from the events.
#[derive(Clone, Copy, Debug)]
pub enum SparseGram {
    /// Exact per-column outer products — bit-deterministic.
    Exact,
    /// Keep ~`samples` unfolding columns chosen by a counter-based hash of
    /// the column index, scaled by the inverse keep probability (matches
    /// the dense sketched-Gram estimator's contract: exact when `samples`
    /// covers every column).
    Sketched {
        /// Target number of kept unfolding columns.
        samples: usize,
        /// Hash seed; the sample is a pure function of `(seed, column)`.
        seed: u64,
    },
}

/// The COO backend's working tensor: `None` while it is still the events,
/// dense (and already reduced) after the first truncation.
type Work<T> = Option<Tensor<T>>;

/// The COO backend of the mode loop: sparse kernels while the working
/// tensor is the events, the dense backend afterwards.
struct CooBackend<'a, T> {
    events: &'a CooTensor<T>,
    gram: SparseGram,
}

impl<T: Scalar> ModeBackend<T> for CooBackend<'_, T> {
    type Tensor = Work<T>;

    fn norm(&mut self, _x: &Work<T>) -> T {
        self.events.norm()
    }

    fn dims<'a>(&'a self, y: &'a Work<T>) -> &'a [usize] {
        y.as_ref().map_or(self.events.dims(), Tensor::dims)
    }

    fn mode_factor(
        &mut self,
        y: &Work<T>,
        n: usize,
        cfg: &SthosvdConfig,
    ) -> Result<(Matrix<T>, Vec<T>)> {
        match (y, self.gram) {
            (Some(y), _) => DenseBackend.mode_factor(y, n, cfg),
            // The same symmetric eigensolver the dense Gram-SVD driver uses,
            // whatever `cfg.method` says about the later, dense modes.
            (None, SparseGram::Exact) => gram_svd_from_gram(&self.events.mode_gram(n)),
            (None, SparseGram::Sketched { samples, seed }) => {
                gram_svd_from_gram(&self.events.mode_gram_sketched(n, samples, seed))
            }
        }
    }

    fn truncate(&mut self, y: &Work<T>, n: usize, u_n: &Matrix<T>) -> Result<Work<T>> {
        Ok(Some(match y {
            None => self.events.ttm_t(n, u_n),
            Some(y) => DenseBackend.truncate(y, n, u_n)?,
        }))
    }
}

/// ST-HOSVD over a sparse COO tensor. The first processed mode is handled
/// sparsely (Gram accumulation + sparse TTM); later modes run the dense
/// drivers on the already-truncated working tensor, exactly as
/// [`tucker_core::sthosvd`] would.
pub fn sparse_sthosvd<T: Scalar>(
    x: &CooTensor<T>,
    cfg: &SthosvdConfig,
    gram: SparseGram,
) -> StreamResult<SthosvdOutput<T>> {
    let out = mode_loop::run(&mut CooBackend { events: x, gram }, &None, cfg)?;
    // Only a tensor without modes ends the loop untruncated.
    Ok(SthosvdOutput::from_loop(out, |core| core.unwrap_or_else(|| x.densify())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StreamError;
    use tucker_core::{sthosvd_with_info, ModeOrder, SvdMethod};
    use tucker_linalg::LinalgError;

    /// Sparse-ish low-rank tensor: a rank-(2,2,2) signal sampled at ~half
    /// of the positions (zeros elsewhere), as a COO event stream.
    fn sparse_low_rank() -> CooTensor<f64> {
        let dims = [10usize, 9, 8];
        let mut coo = CooTensor::new(&dims);
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                for l in 0..dims[2] {
                    if (i * 31 + j * 17 + l * 7) % 2 == 0 {
                        let v = (0.5 * i as f64).sin() * (0.3 * j as f64).cos()
                            + 0.5 * (0.2 * i as f64).cos() * (0.7 * (j + l) as f64).sin();
                        coo.push(&[i, j, l], v).unwrap();
                    }
                }
            }
        }
        coo.coalesce();
        coo
    }

    #[test]
    fn sparse_driver_matches_dense_gram_sthosvd() {
        let coo = sparse_low_rank();
        let x: Tensor<f64> = coo.densify();
        for cfg in [SthosvdConfig::with_ranks(vec![4, 4, 4]), SthosvdConfig::with_tolerance(0.35)] {
            let cfg = cfg.method(SvdMethod::Gram);
            let sparse = sparse_sthosvd(&coo, &cfg, SparseGram::Exact).unwrap();
            let dense = sthosvd_with_info(&x, &cfg).unwrap();
            assert_eq!(sparse.tucker.ranks(), dense.tucker.ranks(), "{:?}", cfg.truncation);
            let (es, ed) = (sparse.estimated_error, dense.estimated_error);
            assert!((es - ed).abs() < 1e-10, "estimated: sparse {es} vs dense {ed}");
            let es = sparse.tucker.relative_error(&x);
            let ed = dense.tucker.relative_error(&x);
            assert!((es - ed).abs() < 1e-10, "sparse {es} vs dense {ed}");
            // Leading singular values agree (same Gram up to summation order;
            // the sub-√ε tail is noise under either accumulation).
            let s1 = dense.singular_values[0][0];
            for (a, b) in sparse.singular_values[0].iter().zip(&dense.singular_values[0]).take(4) {
                assert!((a - b).abs() < 1e-8 * s1, "sigma {a} vs {b}");
            }
        }
    }

    #[test]
    fn ranks_of_the_wrong_length_or_zero_are_typed_errors() {
        let coo = sparse_low_rank();
        for ranks in [vec![4, 4], vec![4, 4, 4, 4], vec![4, 0, 4]] {
            let cfg = SthosvdConfig::with_ranks(ranks.clone());
            let e = sparse_sthosvd(&coo, &cfg, SparseGram::Exact).err();
            let typed = matches!(
                e,
                Some(StreamError::Linalg(LinalgError::InvalidConfig { param: "ranks", .. }))
            );
            assert!(typed, "{ranks:?}: {e:?}");
        }
        // Likewise a mode order that is too short, too long, or repeats a mode.
        for order in [vec![0, 1], vec![0, 1, 2, 0], vec![0, 0, 1]] {
            let cfg = SthosvdConfig::with_ranks(vec![4, 4, 4]).order(ModeOrder::Custom(order));
            let e = sparse_sthosvd(&coo, &cfg, SparseGram::Exact).err();
            let typed = matches!(
                e,
                Some(StreamError::Linalg(LinalgError::InvalidConfig { param: "mode_order", .. }))
            );
            assert!(typed, "{:?}: {e:?}", cfg.mode_order);
        }
    }

    #[test]
    fn tolerance_truncation_compresses() {
        let coo = sparse_low_rank();
        let cfg = SthosvdConfig::with_tolerance(0.35);
        let out = sparse_sthosvd(&coo, &cfg, SparseGram::Exact).unwrap();
        let x = coo.densify();
        assert!(out.tucker.ranks().iter().all(|&r| r < 8), "{:?}", out.tucker.ranks());
        let err = out.tucker.relative_error(&x);
        assert!(err <= 0.4, "err {err}");
    }

    #[test]
    fn full_sketch_is_bitwise_exact() {
        let coo = sparse_low_rank();
        let cfg = SthosvdConfig::with_ranks(vec![3, 3, 3]);
        let exact = sparse_sthosvd(&coo, &cfg, SparseGram::Exact).unwrap();
        let ncols = 9 * 8;
        let sk = sparse_sthosvd(&coo, &cfg, SparseGram::Sketched { samples: ncols, seed: 7 })
            .unwrap();
        assert_eq!(exact.tucker.core.data(), sk.tucker.core.data());
        for (a, b) in exact.tucker.factors.iter().zip(&sk.tucker.factors) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn partial_sketch_still_recovers_the_subspace() {
        let coo = sparse_low_rank();
        let cfg = SthosvdConfig::with_ranks(vec![3, 3, 3]);
        let out =
            sparse_sthosvd(&coo, &cfg, SparseGram::Sketched { samples: 48, seed: 11 }).unwrap();
        let x = coo.densify();
        let err = out.tucker.relative_error(&x).to_f64();
        let exact_err = sparse_sthosvd(&coo, &cfg, SparseGram::Exact)
            .unwrap()
            .tucker
            .relative_error(&x)
            .to_f64();
        assert!(err <= exact_err * 2.0 + 0.1, "sketched {err} vs exact {exact_err}");
    }
}
