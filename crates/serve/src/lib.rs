//! # tucker-serve — compressed-tensor query engine
//!
//! Serves reconstruction queries (elements, fibers, slices, hyperslabs,
//! strided downsamples) directly from a Tucker decomposition without ever
//! materializing the full tensor. The crate layers as:
//!
//! - [`store`] — read-only [`TuckerStore`] over a checksummed TUCK file,
//!   with the mode-0 core unfolding packed once for all queries;
//! - [`query`] — the [`Query`] selection model and its CLI slab-spec parser;
//! - [`plan`] — the §3.5-style cost model choosing contraction order;
//! - [`cache`] — deterministic byte-budgeted LRU of partial contractions;
//! - `admission` — the one admission policy (bounded queue, per-tenant
//!   quotas, shed-low-first priorities) and virtual-time event order that
//!   both serving loops below drive;
//! - [`engine`] — batched execution plus the single-store serving loop:
//!   worker clocks and share-spec batching over `admission`;
//! - [`replica`] — mode-0 sharding ([`ShardMap`]) and the replicated rank
//!   tier with mpisim fault interpretation and a shared crash registry;
//! - [`router`] — the tier serving loop over `admission`:
//!   consistent-hash routing, failover with capped exponential backoff,
//!   per-query timeouts, mode-0 reassembly, and
//!   generation-numbered live hot-swap ([`StoreUpdate`]): a newly
//!   published decomposition is installed tier-wide at an event boundary,
//!   in-flight queries complete against their dispatch-time generation,
//!   and no query is ever lost or served from a half-installed store;
//! - [`obs`] — request-scoped tracing ([`TraceContext`], span lanes merged
//!   into the mpisim Chrome-trace export), the deterministic `serve-log-v1`
//!   structured log, SLO evaluation ([`evaluate_slo`]), and per-query
//!   critical-path attribution;
//! - [`workload`] — seeded synthetic request traces (the `serve-bench`
//!   harness over them lives in `tucker-bench`).
//!
//! The engine's default path ([`OrderPolicy::Exact`]) is **bit-identical**
//! to slicing `TuckerTensor::reconstruct()` — see the determinism argument
//! in [`store`] and the equivalence proptests under `tests/`.

mod admission;
pub mod cache;
pub mod engine;
pub mod error;
pub mod obs;
pub mod plan;
pub mod query;
pub mod replica;
pub mod router;
pub mod store;
pub mod workload;

pub use cache::{CacheStats, ContractionCache, PartialKey};
pub use engine::{
    tensor_crc, BatchOutput, Completion, Engine, EngineConfig, Priority, QueryCost, QueryOutput,
    Rejection, Request, RunConfig, RunReport,
};
pub use error::ServeError;
pub use obs::{
    evaluate_slo, EngineSpan, EngineStep, LogLevel, ObsConfig, Observer, SloObjective, SloPolicy,
    SloReport, TraceContext,
};
pub use plan::{plan, OrderPolicy, QueryPlan};
pub use query::{ModeSel, Query, QueryKind};
pub use replica::{ReplicaTier, ShardMap};
pub use router::{
    RetryPolicy, Router, StoreUpdate, TierCompletion, TierFailure, TierReport, TierRunConfig,
};
pub use store::{open_any, AnyStore, TuckerStore};
pub use workload::{assign_tenants, synthetic_store, synthetic_trace, WorkloadConfig};
