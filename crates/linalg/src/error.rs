//! Error type shared by all kernels in this crate.

use std::fmt;

/// Errors produced by the dense linear algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands have incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Name of the operation that was attempted.
        op: &'static str,
        /// Human-readable description of the offending shapes.
        details: String,
    },
    /// An iterative eigenvalue/singular value solver failed to converge
    /// within its sweep budget.
    NoConvergence {
        /// Name of the solver.
        op: &'static str,
        /// Index of the value that failed to converge.
        index: usize,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The operation requires a non-empty matrix.
    EmptyMatrix {
        /// Name of the operation that was attempted.
        op: &'static str,
    },
    /// A configuration knob is outside its accepted range. Raised at entry
    /// instead of silently clamping the value, so a typo'd `--oversample`
    /// fails loudly rather than quietly changing the algorithm that runs.
    InvalidConfig {
        /// The offending parameter, e.g. `oversampling`.
        param: &'static str,
        /// The rejected value, formatted for display.
        value: String,
        /// What the parameter accepts.
        expected: &'static str,
    },
    /// A NaN/Inf was detected at a numerical-guard boundary (unfolding,
    /// Gram, LQ, TTM). Raised instead of silently propagating garbage —
    /// typically the surfaced form of a detected in-transit corruption.
    NonFinite {
        /// The guarded phase, e.g. `Gram/allreduce`.
        phase: String,
        /// The rank that detected it (0 in sequential code).
        rank: usize,
        /// The tensor mode being processed.
        mode: usize,
        /// First offending flat index within the guarded buffer.
        index: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, details } => {
                write!(f, "{op}: dimension mismatch: {details}")
            }
            LinalgError::NoConvergence { op, index, iterations } => {
                write!(f, "{op}: no convergence at index {index} after {iterations} iterations")
            }
            LinalgError::EmptyMatrix { op } => write!(f, "{op}: empty matrix"),
            LinalgError::InvalidConfig { param, value, expected } => {
                write!(f, "invalid configuration: {param} = {value} (expected {expected})")
            }
            LinalgError::NonFinite { phase, rank, mode, index } => write!(
                f,
                "non-finite value detected on rank {rank} after {phase} \
                 (mode {mode}, first offending index {index})"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = LinalgError::DimensionMismatch { op: "gemm", details: "2x3 * 4x5".into() };
        assert!(e.to_string().contains("gemm"));
        assert!(e.to_string().contains("2x3"));
        let e = LinalgError::NoConvergence { op: "svd", index: 3, iterations: 75 };
        assert!(e.to_string().contains("index 3"));
        let e = LinalgError::EmptyMatrix { op: "svd_left" };
        assert!(e.to_string().contains("svd_left"));
    }
}
