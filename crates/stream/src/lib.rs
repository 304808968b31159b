//! Streaming and incremental Tucker decomposition.
//!
//! Three pieces, layered on the batch ST-HOSVD stack:
//!
//! * **Sparse ingestion** ([`CooTensor`], [`sparse_sthosvd`]): event
//!   streams accumulate into a coalesced COO tensor whose mode Gram
//!   matrices feed the existing Gram-SVD solver without densifying
//!   at the original size; the dense working tensor first appears *after*
//!   the leading truncation.
//! * **Incremental updates** ([`StreamState`]): a designated time-like
//!   mode grows by appended slabs; observed subspace drift routes each
//!   append through a cheap stacked-SVD fast path, a randomized
//!   residual-range refresh, or a gated full recompute — plus a pure
//!   row-extension path whose old outputs are bit-identical.
//! * **Atomic publishing** ([`StreamState::publish`]): updates land as
//!   generation-numbered v3 TUCK stores via temp-file + rename, the
//!   contract the serving tier's hot-swap relies on.
//!
//! Everything is deterministic: coalescing is a pure function of the event
//! stream, and the randomized refresh uses the fixed-seed blocked range
//! finder.

pub mod coo;
pub mod error;
pub mod sparse;
pub mod update;

pub use coo::CooTensor;
pub use error::{StreamError, StreamResult};
pub use sparse::sparse_sthosvd;
pub use update::{
    append_dense, fold_matrix, StreamConfig, StreamState, UpdatePath, UpdateReport,
};
