// Kernels are transcribed from LAPACK-style indexed pseudocode; iterator
// rewrites of the row/column loops obscure the index arithmetic they mirror.
#![allow(clippy::needless_range_loop)]

//! Precision-generic dense linear algebra kernels for the Tucker decomposition.
//!
//! This crate plays the role that BLAS/LAPACK (MKL) plays for TuckerMPI
//! (Ballard, Klinvex, Kolda, TOMS 2020) and for the ICPP'21 paper this
//! repository reproduces: it provides the local computational kernels that
//! the sequential and parallel ST-HOSVD algorithms are built from.
//!
//! Everything is generic over [`Scalar`] (implemented for `f32` and `f64`),
//! which is the Rust analogue of the paper's C++ template generalization of
//! TuckerMPI: machine epsilon enters every algorithm only through the scalar
//! type, so the four (algorithm × precision) variants compared in the paper
//! are exercised by the *same* code.
//!
//! Kernel inventory (LAPACK analogue in parentheses):
//!
//! * [`gemm`] — general matrix multiply over strided views (`gemm`): the one
//!   GEMM, `C += α·A·B`, with the crate's only GEMM pool split; [`gemm_into`]
//!   is it onto zeros, [`gemm_prepacked`] one panel against a pre-packed `A`
//! * [`syrk_lower`] — symmetric rank-k update `C = A·Aᵀ` (`syrk`), the Gram kernel
//! * [`qr::geqrf`] — unblocked Householder QR (`geqr`) in place: the
//!   randomized range finder's bases and the random orthogonal factors
//! * [`lq::lq_factor`] — the Q-less LQ (`gelq` minus `Q`): the only way a
//!   matrix becomes its lower-triangular factor `L`, the tree of flat-tree
//!   leaves over column panels at every row count
//! * [`tplqt::tplqt`] — structured LQ of `[L B]` with `L` lower triangular,
//!   the LQ mirror of LAPACK's `tpqrt` (compact-WY over 16-row blocks), used
//!   by flat-tree and butterfly TSQR
//! * [`tslq::tslq_blocks`] — tall-skinny LQ over any sequence of column
//!   blocks: a fixed tree of serial flat-tree leaves (Alg. 2) on the pool,
//!   merged left to right by `tplqt_pair`, its shape set by the input alone
//! * [`svd`] — Golub–Kahan bidiagonalization + implicit-shift QR SVD (`gesvd`),
//!   the crate's one small-matrix solver: QR-SVD's triangle, and the Gram
//!   matrix's eigendecomposition (for a symmetric `G` the SVD is one, up to
//!   the signs of the eigenvalues)
//! * [`gram_svd`] — the Gram-SVD algorithm used by TuckerMPI (§2.3 of the paper)
//! * [`qr_svd`] — the numerically accurate QR-SVD algorithm (§3.1 of the paper)
//! * [`randomized`] — the blocked randomized range finder: per-block stage
//!   functions, folded in a loop by [`randomized_svd_left_blocked`] and
//!   allgather-folded by `tucker-dtensor`

pub mod error;
pub mod scalar;
pub mod matrix;
pub mod view;
pub mod gemm;
pub mod kernel;
pub mod syrk;
pub mod householder;
pub mod qr;
pub mod lq;
pub mod tplqt;
pub mod tslq;
pub mod bidiag;
pub mod svd;
pub mod gram_svd;
pub mod mixed;
pub mod qr_svd;
pub mod perf;
pub mod random;
pub mod randomized;

pub use error::{LinalgError, Result};
pub use scalar::Scalar;
pub use matrix::Matrix;
pub use view::{MatMut, MatRef};
pub use gemm::{gemm, gemm_into, gemm_reference, Trans};
pub use kernel::{gemm_prepacked, PackedA};
pub use syrk::{syrk_lower, syrk_lower_panels};
pub use svd::{svd_left, SvdOutput};
pub use gram_svd::gram_svd;
pub use mixed::{gram_svd_mixed, syrk_lower_f64_acc};
pub use perf::KernelStat;
pub use qr_svd::qr_svd;
pub use random::{
    gaussian_at, gaussian_block, matrix_with_singular_values, random_matrix, random_orthogonal,
    splitmix64_at, splitmix64_mix,
};
pub use randomized::{
    fold_partial, randomized_svd_left_blocked, sketch_block_count, sketch_block_range,
    RandomizedSvdConfig, SKETCH_COL_BLOCK,
};
