//! Typed errors for the serving layer.

use std::fmt;
use tucker_core::tucker_io::TuckerIoError;

/// Everything that can go wrong answering a reconstruction query.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control rejected the request: the bounded queue was full.
    /// Carries the observed occupancy so clients can back off proportionally.
    Overloaded {
        /// Requests queued at rejection time.
        queued: usize,
        /// Queue capacity.
        capacity: usize,
    },
    /// Admission control rejected the request: its tenant already has its
    /// full quota of requests queued. Distinct from [`ServeError::Overloaded`]
    /// so a noisy neighbor sees *its* limit, not a full-cluster signal.
    QuotaExceeded {
        /// The tenant over its limit.
        tenant: usize,
        /// Requests this tenant had queued at rejection time.
        queued: usize,
        /// The per-tenant queue quota.
        quota: usize,
    },
    /// A replicated query exhausted its retry budget: every attempt on the
    /// shard's replicas failed (crashed, dropped, or failed integrity).
    ReplicasExhausted {
        /// The shard whose replicas were exhausted.
        shard: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Replicas of the shard known dead when the query gave up.
        dead: Vec<usize>,
    },
    /// A replicated query ran past its per-query timeout while failing over.
    Timeout {
        /// The shard being retried when time ran out.
        shard: usize,
        /// Virtual seconds elapsed since dispatch.
        elapsed: f64,
        /// The configured per-query budget.
        budget: f64,
    },
    /// The query is malformed or out of bounds for the store's dimensions.
    BadQuery(String),
    /// The underlying store failed to open or verify (includes checksum
    /// mismatches naming the damaged section).
    Io(TuckerIoError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queued, capacity } => {
                write!(f, "overloaded: {queued}/{capacity} requests queued, admission denied")
            }
            ServeError::QuotaExceeded { tenant, queued, quota } => {
                write!(f, "tenant {tenant} over quota: {queued}/{quota} requests queued")
            }
            ServeError::ReplicasExhausted { shard, attempts, dead } => {
                write!(
                    f,
                    "shard {shard}: all replicas exhausted after {attempts} attempts \
                     (dead replicas: {dead:?})"
                )
            }
            ServeError::Timeout { shard, elapsed, budget } => {
                write!(
                    f,
                    "query timed out failing over on shard {shard}: \
                     {elapsed:.6}s elapsed of {budget:.6}s budget"
                )
            }
            ServeError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            ServeError::Io(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TuckerIoError> for ServeError {
    fn from(e: TuckerIoError) -> Self {
        ServeError::Io(e)
    }
}
