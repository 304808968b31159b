//! Block-distributed dense tensors over N-dimensional processor grids —
//! the distributed-memory substrate of the parallel ST-HOSVD (paper §3.4).
//!
//! Following TuckerMPI, the `P = P_0 · P_1 ··· P_{N-1}` ranks are organized
//! into a grid with as many modes as the tensor, and every rank owns a
//! contiguous block (`⌈I_n/P_n⌉` indices for the first `I_n mod P_n` ranks in
//! each mode-`n` fiber, `⌊I_n/P_n⌋` for the rest).
//!
//! * [`grid::ProcessorGrid`] — grid shape, rank ↔ coordinate maps, fibers.
//! * [`dist::DistTensor`] — a rank's local block + metadata; gather for
//!   verification.
//! * [`redistribute`] — the fiber all-to-all that brings a mode-`n`
//!   unfolding into 1D column distribution ([6, Alg. 4] / Alg. 3 line 7).
//! * [`gram`] — parallel Gram matrix: redistribution + local `syrk` +
//!   world all-reduce (TuckerMPI's Gram-SVD path).
//! * [`lq`] — parallel LQ of an unfolding: local (Tensor)LQ + butterfly
//!   TSQR over packed triangles (Alg. 3, QR-SVD path).
//! * [`sketch`] — distributed randomized range-finder and sketched-Gram
//!   drivers over a canonical virtual-block slab layout (bit-identical to
//!   the sequential blocked driver across task counts and grid shapes).
//! * [`ttm`] — parallel TTM truncation: local TTM + fiber reduce-scatter.
//! * [`guard`] — NaN/Inf guards at the kernel boundaries; surface a typed
//!   [`NumericalFault`] naming rank, phase and first offending index.
//! * [`append`] — grow a mode in place: re-balance block boundaries with a
//!   fiber all-to-all and splice in the appended slab (streaming updates).

pub mod append;
pub mod dist;
pub mod grid;
pub mod gram;
pub mod guard;
pub mod lq;
pub mod redistribute;
pub mod sketch;
pub mod ttm;

pub use append::append_mode;
pub use dist::{block_owner, block_range, DistTensor};
pub use gram::{parallel_gram, parallel_gram_mixed};
pub use grid::ProcessorGrid;
pub use guard::{check_finite, NumericalFault};
pub use lq::{parallel_tensor_lq, prev_power_of_two, ReductionTree};
pub use tucker_linalg::perf::lq_flops;
pub use redistribute::redistribute_to_columns;
pub use sketch::{
    parallel_sketch_svd, parallel_sketched_gram, redistribute_to_slab, sketch_cols,
    sketch_qr_flops, slab_blocks, slab_columns, slab_exchange_counts,
};
pub use ttm::{parallel_ttm, parallel_ttm_op};
