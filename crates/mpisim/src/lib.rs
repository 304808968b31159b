//! A deterministic simulated MPI runtime.
//!
//! The paper's algorithms are SPMD programs over MPI. This crate runs the
//! same SPMD programs with `P` *simulated ranks as OS threads*, communicating
//! through typed point-to-point channels, and layers an **α-β-γ cost model**
//! (per-message latency α, per-byte bandwidth β, per-flop cost γ — precision
//! aware) on top: every message advances a per-rank virtual clock by
//! `α + β·bytes`, every kernel charges `γ·flops`, and receives synchronize
//! clocks Lamport-style. The resulting *modeled time* reproduces the
//! complexity analysis of the paper's §3.5 and drives the scaling figures,
//! while the real execution of the numerical kernels preserves the
//! floating-point behaviour bit-for-bit per rank.
//!
//! Why simulate? The reproduction target machine is a laptop, not a
//! 704-node cluster; see DESIGN.md §2 for the substitution argument.
//!
//! * [`runtime::Simulator`] — spawns the ranks and collects results + stats.
//! * [`runtime::Ctx`] — per-rank handle: `send`/`recv`, flop charging,
//!   named phase timers.
//! * [`comm::Comm`] — communicators (world or subsets, e.g. processor-grid
//!   fibers) with the collectives the Tucker algorithms need: `sendrecv`,
//!   `bcast`, `allreduce`, `allgather`, `alltoallv`, `reduce_scatter`,
//!   `barrier`.
//! * [`cost::CostModel`] — machine constants; [`cost::CostModel::andes`]
//!   mirrors the paper's evaluation platform.
//! * [`trace::TraceConfig`] — opt-in per-rank event tracing (ring buffers,
//!   Chrome-trace/Perfetto and plain-text exporters), collective-sequence
//!   validation, and a deadlock watchdog; see DESIGN.md §Observability.
//! * [`error::MpiSimError`] — typed runtime failures (type mismatch,
//!   collective mismatch, deadlock, peer disconnect, injected crash/retry
//!   exhaustion) returned by [`runtime::Simulator::try_run`] /
//!   [`runtime::Simulator::run_result`].
//! * [`fault::FaultPlan`] — deterministic fault injection (rank crashes,
//!   message drops with bounded retry, delays, payload bit-flips) keyed by
//!   rank × op index, attached via [`runtime::Simulator::with_faults`]; see
//!   DESIGN.md §Fault model.

pub mod comm;
pub mod cost;
pub mod error;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod runtime;
pub mod stats;
pub mod trace;
pub mod wire;

pub use comm::Comm;
pub use cost::CostModel;
pub use error::{MpiSimError, SimFailure};
pub use fault::{CrashInfo, CrashRegistry, Fault, FaultKind, FaultPlan, MAX_SEND_RETRIES};
pub use json::{json_escape, json_escape_into, json_f64, json_f64_into};
pub use metrics::{Histogram, MetricsRegistry};
pub use runtime::{Ctx, SimOutput, Simulator, ThreadTopology};
pub use stats::{Breakdown, PhaseCritical, PhaseStat, RankStats};
pub use trace::{
    chrome_trace_json, text_timeline, EventKind, RankTrace, TraceBuffer, TraceConfig, TraceEvent,
};
pub use wire::Wire;
