//! ST-HOSVD: the Sequentially Truncated Higher-Order SVD (Alg. 1 of the
//! paper, after Vannieuwenhoven et al.), in sequential and simulated-MPI
//! parallel form, with the SVD of each unfolding computed either by
//! TuckerMPI's **Gram-SVD** or by the paper's numerically accurate **QR-SVD**
//! — in single or double precision.
//!
//! The four (algorithm × precision) variants the paper compares are spanned
//! by [`SvdMethod`] × the scalar type parameter:
//!
//! | variant | accuracy floor (singular values) | relative speed |
//! |---|---|---|
//! | Gram single | `‖A‖·√ε_s ≈ 3e-4` | fastest |
//! | QR single | `‖A‖·ε_s ≈ 1e-7` | ~2x flops of Gram single |
//! | Gram double | `‖A‖·√ε_d ≈ 1e-8` | ~2x cost of Gram single |
//! | QR double | `‖A‖·ε_d ≈ 2e-16` | slowest |
//!
//! * [`mode_loop`] — Alg. 1 itself, written once: the rank rule and the
//!   `init → step → finish` state over a small backend seam.
//! * [`sthosvd`] / [`SthosvdConfig`] — sequential driver (paper §3.3): the
//!   loop over the dense-local backend.
//! * [`parallel::sthosvd_parallel`] — the distributed algorithm (paper §3.4):
//!   the loop over [`tucker_mpisim`] ranks.
//! * [`TuckerTensor`] — core + factors, reconstruction, compression ratio.
//! * [`model`] — closed-form α-β-γ cost model of §3.5, used to predict
//!   paper-scale runs that exceed the host machine.

pub mod checkpoint;
pub mod config;
pub mod crc32;
pub mod conformance;
pub mod hosvd;
pub mod mode_loop;
pub mod model;
pub mod order;
pub mod parallel;
pub mod shard;
pub mod sthosvd;
pub mod svd_driver;
pub mod truncate;
pub mod tucker;
pub mod tucker_io;

pub use checkpoint::{sthosvd_parallel_checkpointed, CheckpointError, CheckpointOptions};
pub use config::{ModeOrder, SthosvdConfig, SvdMethod, Truncation};
pub use conformance::{check_model, CheckConfig, ModeCheck, ModelCheckReport};
pub use parallel::{sthosvd_parallel, DistBackend, HosvdState, ParallelOutput};
pub use shard::{read_shard_manifest, read_shards, shard_tucker, write_shards, ShardManifest};
pub use sthosvd::{sthosvd, sthosvd_with_info, SthosvdOutput};
pub use hosvd::hosvd;
pub use order::{optimize_mode_order, OrderSearch};
pub use truncate::choose_rank;
pub use tucker::TuckerTensor;
pub use tucker_io::{
    read_tucker, read_tucker_any, read_tucker_checksums, read_tucker_header, write_tucker,
    write_tucker_atomic, AnyTucker, Section, TuckerHeader, TuckerIoError,
};

#[cfg(test)]
pub(crate) mod test_util {
    use tucker_linalg::Matrix;
    use tucker_tensor::{ttm, Tensor};

    /// A low-multilinear-rank tensor plus small deterministic noise.
    pub fn low_rank_tensor(dims: &[usize], ranks: &[usize], noise: f64) -> Tensor<f64> {
        // Core of prescribed ranks with decaying entries, rotated by smooth
        // (non-orthogonal is fine for rank tests) factors.
        let mut y = Tensor::zeros(ranks);
        for (k, v) in y.data_mut().iter_mut().enumerate() {
            *v = 1.0 / (1.0 + k as f64);
        }
        for (n, (&d, &r)) in dims.iter().zip(ranks).enumerate() {
            let u =
                Matrix::from_fn(d, r, |i, j| (((i + 1) * (j + 2) * (n + 3)) as f64 * 0.37).sin());
            y = ttm(&y, n, u.as_ref(), false);
        }
        if noise > 0.0 {
            for (k, v) in y.data_mut().iter_mut().enumerate() {
                *v += noise * ((k as f64) * 1.618).sin();
            }
        }
        y
    }
}
