//! Dense N-mode tensors in the TuckerMPI memory layout.
//!
//! A tensor with dimensions `I_0 x I_1 x ... x I_{N-1}` is stored with the
//! first mode varying fastest (the natural generalization of column-major).
//! Under this layout the mode-`n` unfolding is a sequence of `I_n^>`
//! contiguous *row-major* column blocks, each `I_n x I_n^<` (paper §3.3,
//! "Data Layout") — [`unfold::Unfolding`] exposes exactly that structure as
//! zero-copy strided views, and [`ttm::ttm`] computes the tensor-times-matrix
//! product block by block on it.

pub mod codec;
pub mod dims;
pub mod dense;
pub mod io;
pub mod norm;
pub mod slice;
pub mod unfold;
pub mod ttm;

pub use dense::Tensor;
pub use dims::{linear_index, multi_index, prod_after, prod_before, product};
pub use norm::FrobAccumulator;
pub use slice::{hyperslab, SlabSel};
pub use ttm::{ttm, ttm_chain};
pub use unfold::Unfolding;
