//! The query router: consistent-hash replica selection, failover with
//! capped exponential backoff, per-query timeouts, and the tier's serving
//! loop — the `admission` module decides who gets in and which event is next;
//! this module paces the head against the replica clocks, applies store
//! updates at event boundaries, and serves each dispatch with failover.
//!
//! ## Routing
//!
//! Each shard owns a ring of [`VNODES`] hashed virtual nodes per replica;
//! a query hashes to a point on its shard's ring and walks clockwise to
//! produce a deterministic replica *preference order*. Dead replicas (per
//! the shared [`CrashRegistry`](tucker_mpisim::CrashRegistry)) are skipped
//! without consuming an attempt; live ones are tried in preference order,
//! rotating on failure.
//!
//! ## Failover contract
//!
//! A failed attempt — replica crash, lost message, or a response whose
//! CRC-32 disagrees with the replica's own fingerprint — is retried on the
//! next live replica after an exponential backoff (`backoff_base`, doubled
//! per failure, capped at `backoff_cap`), until [`RetryPolicy::max_attempts`]
//! or the per-query [`RetryPolicy::timeout`] budget runs out. Every outcome
//! is typed: an admitted query either completes **bit-identically** to the
//! unsharded engine (mode-0 row separability, see [`crate::replica`]) or
//! fails with [`ServeError::ReplicasExhausted`] / [`ServeError::Timeout`] —
//! a corrupt payload is never returned.
//!
//! ## Assembly
//!
//! A multi-shard query executes one shard-local piece per shard and gathers
//! the pieces along mode 0: with the first-mode-fastest layout, for every
//! trailing index the per-shard mode-0 runs are contiguous and are emitted
//! in ascending shard (= ascending global row) order, reproducing the
//! unsharded element order exactly.

use crate::admission::{Admission, Event, Outcome, Step};
use crate::engine::{tensor_crc, EngineConfig, Rejection, Request};
use crate::error::ServeError;
use crate::obs::{mix64, Field, LogLevel, ObsConfig, Observer, SpanName, TraceContext};
use crate::query::{ModeSel, Query};
use crate::replica::{Attempt, ReplicaTier};
use tucker_core::TuckerTensor;
use tucker_mpisim::{FaultPlan, MetricsRegistry};
use tucker_tensor::io::IoScalar;
use tucker_tensor::{SlabSel, Tensor};

/// Virtual nodes per replica on each shard's hash ring.
const VNODES: usize = 16;

/// Failover knobs for one query.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts per shard piece before giving up (≥ 1).
    pub max_attempts: u32,
    /// First backoff after a failed attempt, virtual seconds.
    pub backoff_base: f64,
    /// Backoff ceiling, virtual seconds.
    pub backoff_cap: f64,
    /// Per-query virtual-time budget: an attempt that would *start* more
    /// than this long after dispatch fails the query with
    /// [`ServeError::Timeout`].
    pub timeout: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_base: 50e-6,
            backoff_cap: 800e-6,
            timeout: 0.25,
        }
    }
}

/// Tier serving-loop shape: the admission bounds plus the failover policy.
#[derive(Clone, Copy, Debug)]
pub struct TierRunConfig {
    /// Bounded admission queue capacity.
    pub queue_capacity: usize,
    /// Per-tenant cap on queued requests; `None` disables quotas.
    pub tenant_quota: Option<usize>,
    /// Failover policy applied to every admitted query.
    pub retry: RetryPolicy,
}

impl Default for TierRunConfig {
    fn default() -> Self {
        TierRunConfig {
            queue_capacity: usize::MAX,
            tenant_quota: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// One admitted request served to completion by the tier.
#[derive(Clone, Debug)]
pub struct TierCompletion {
    /// Index into the submitted request slice.
    pub index: usize,
    /// Arrival time.
    pub arrival: f64,
    /// Dispatch time (arrival + queueing).
    pub dispatch: f64,
    /// Completion time (max over shard pieces, including retries).
    pub finish: f64,
    /// Shards the query spanned.
    pub shards: usize,
    /// Replica attempts consumed (≥ `shards`).
    pub attempts: u32,
    /// Failed attempts that were retried elsewhere.
    pub failovers: u32,
    /// Result elements.
    pub elems: usize,
    /// CRC-32 of the assembled result payload.
    pub crc: u32,
    /// Store generation the query was served against. Dispatch is
    /// synchronous in virtual time, so a query never straddles a swap:
    /// every shard piece of one query sees the same generation.
    pub generation: u64,
}

/// A scheduled hot-swap: at virtual time `at`, re-shard `tucker` over the
/// live tier and install it as `generation`. Applied by
/// [`Router::run_with_updates`] at event boundaries — in-flight queries
/// complete against the generation they dispatched under; queries
/// dispatched after `at` see the new one.
pub struct StoreUpdate<T: IoScalar> {
    /// Virtual time the update becomes visible.
    pub at: f64,
    /// The newly published decomposition.
    pub tucker: TuckerTensor<T>,
    /// Its generation number (what [`TierCompletion::generation`] reports).
    pub generation: u64,
}

/// One admitted request the tier could not serve. Unlike the single-store
/// engine — whose only failure mode aborts the run — the tier degrades
/// per-query: the loop continues and the failure is typed.
#[derive(Debug)]
pub struct TierFailure {
    /// Index into the submitted request slice.
    pub index: usize,
    /// Arrival time.
    pub arrival: f64,
    /// Why the query failed (`ReplicasExhausted`, `Timeout`, `BadQuery`).
    pub error: ServeError,
}

/// Outcome of a tier run.
#[derive(Debug)]
pub struct TierReport {
    /// Every served request, in submission order.
    pub completions: Vec<TierCompletion>,
    /// Every request denied admission (typed `Overloaded`/`QuotaExceeded`).
    pub rejections: Vec<Rejection>,
    /// Every admitted request that failed after admission.
    pub failures: Vec<TierFailure>,
    /// Total replica-busy virtual seconds (including work discarded to
    /// integrity failures).
    pub busy_seconds: f64,
    /// Virtual time at which the last event happened.
    pub makespan: f64,
    /// Worst observed failover recovery: max over completed queries of
    /// (finish − first failed attempt), virtual seconds. `None` when no
    /// admitted query ever saw a failed attempt.
    pub failover_recovery_vt: Option<f64>,
}

crate::engine::latency_report!(TierReport);

/// Per-query failover bookkeeping.
#[derive(Default)]
struct QueryStats {
    attempts: u32,
    failovers: u32,
    first_failure: Option<f64>,
    busy: f64,
}

impl QueryStats {
    fn note_failure(&mut self, at: f64) {
        self.failovers += 1;
        self.first_failure = Some(match self.first_failure {
            Some(f) => f.min(at),
            None => at,
        });
    }
}

/// Where a query lands on its shard's ring: a pure function of the mode-0
/// selection and the tenant, so routing is deterministic and replayable.
fn route_key(sel0: SlabSel, tenant: usize) -> u64 {
    let (start, step, count) = sel0;
    mix64(start as u64 ^ mix64(step as u64 ^ mix64(count as u64 ^ mix64(tenant as u64))))
}

/// Gather shard pieces along mode 0 (ascending global-row order) into the
/// unsharded result layout. First-mode-fastest: for each trailing index,
/// each piece contributes one contiguous mode-0 run.
fn concat_mode0<T: IoScalar>(mut parts: Vec<Tensor<T>>) -> Tensor<T> {
    assert!(!parts.is_empty(), "concat of zero pieces");
    if parts.len() == 1 {
        return parts.pop().expect("non-empty");
    }
    let rest_dims: Vec<usize> = parts[0].dims()[1..].to_vec();
    let rest: usize = rest_dims.iter().product();
    let counts: Vec<usize> = parts.iter().map(|p| p.dims()[0]).collect();
    let total: usize = counts.iter().sum();
    let mut data = Vec::with_capacity(total * rest);
    for j in 0..rest {
        for (p, &cnt) in parts.iter().zip(&counts) {
            data.extend_from_slice(&p.data()[j * cnt..(j + 1) * cnt]);
        }
    }
    let mut dims = Vec::with_capacity(rest_dims.len() + 1);
    dims.push(total);
    dims.extend_from_slice(&rest_dims);
    Tensor::from_data(&dims, data)
}

/// The replicated tier's front door.
pub struct Router<T: IoScalar> {
    tier: ReplicaTier<T>,
    dims: Vec<usize>,
    rings: Vec<Vec<(u64, usize)>>,
    metrics: MetricsRegistry,
    obs: Observer,
}

impl<T: IoScalar> Router<T> {
    /// Shard `tk` `shards` ways, replicate each shard `replicas` times, and
    /// stand up the router with `plan`'s faults armed against world ranks.
    pub fn new(
        tk: &TuckerTensor<T>,
        shards: usize,
        replicas: usize,
        cfg: EngineConfig,
        plan: &FaultPlan,
    ) -> Self {
        Self::from_tier(ReplicaTier::new(tk, shards, replicas, cfg, plan))
    }

    /// Wrap an existing tier.
    pub fn from_tier(tier: ReplicaTier<T>) -> Self {
        let replicas = tier.replicas();
        let rings = (0..tier.shard_map().shards())
            .map(|shard| {
                let mut ring = Vec::with_capacity(replicas * VNODES);
                for rep in 0..replicas {
                    let rank = tier.rank(shard, rep);
                    for v in 0..VNODES {
                        let h = mix64(shard as u64 ^ mix64(rank as u64 ^ mix64(v as u64)));
                        ring.push((h, rank));
                    }
                }
                ring.sort_unstable();
                ring
            })
            .collect();
        let dims = tier.dims().to_vec();
        Router { tier, dims, rings, metrics: MetricsRegistry::default(), obs: Observer::off() }
    }

    /// The underlying tier.
    pub fn tier(&self) -> &ReplicaTier<T> {
        &self.tier
    }

    /// Swap the tier onto a newly published decomposition (see
    /// [`ReplicaTier::hot_swap`]). The consistent-hash rings depend only on
    /// the shard and replica counts — both unchanged by a swap — so routing
    /// state stays valid; only the served dims are refreshed. On error the
    /// tier is untouched.
    pub fn hot_swap(&mut self, tk: &TuckerTensor<T>, generation: u64) -> Result<(), ServeError> {
        self.tier.hot_swap(tk, generation)?;
        self.dims = self.tier.dims().to_vec();
        self.metrics.counter_add("serve/store/swaps", 1);
        self.metrics.gauge_set("serve/store/generation", generation as f64);
        Ok(())
    }

    /// Switch observability collection on (or back off). Spans, log lines,
    /// and attribution only change side buffers: results, CRCs, virtual
    /// timings, and the serving order are bit-identical either way.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        self.obs = Observer::new(cfg, self.tier.world_size());
        self.tier.set_span_recording(cfg.tracing);
    }

    /// The observability sink (spans, structured log, attribution).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// The router's metrics registry (`serve/replica/*`, `serve/retry/*`,
    /// `serve/failover_recovery_vt`, plus the engine's `serve/query/*`
    /// admission counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Replica preference order for a routing key: walk the shard's ring
    /// clockwise from the key's point, keeping first occurrences.
    fn preference(&self, shard: usize, key: u64) -> Vec<usize> {
        let ring = &self.rings[shard];
        let start = ring.partition_point(|&(h, _)| h < key);
        let mut order = Vec::with_capacity(self.tier.replicas());
        for i in 0..ring.len() {
            let (_, rank) = ring[(start + i) % ring.len()];
            if !order.contains(&rank) {
                order.push(rank);
                if order.len() == self.tier.replicas() {
                    break;
                }
            }
        }
        order
    }

    /// Earliest virtual time the request could start: its arrival, pushed
    /// out by the busiest-shard best-replica clock. Only paces the dispatch
    /// loop — attempts re-derive start times per replica.
    fn ready_time(&self, req: &Request) -> f64 {
        if req.query.validate(&self.dims).is_err() {
            return req.arrival; // dispatch immediately; fails typed
        }
        let sel0 = req.query.normalized(&self.dims)[0];
        let mut ready = req.arrival;
        for (shard, _) in self.tier.shard_map().split(sel0) {
            let mut best = f64::INFINITY;
            for rep in 0..self.tier.replicas() {
                let rank = self.tier.rank(shard, rep);
                if !self.tier.registry().is_crashed(rank) {
                    best = best.min(self.tier.clock(rank));
                }
            }
            if best.is_finite() {
                ready = ready.max(best);
            }
        }
        ready
    }

    /// Record one failed attempt: spans for the failed window and the
    /// backoff that follows it, a fault instant on the replica lane, a
    /// `warn` log line, and backoff attribution.
    #[allow(clippy::too_many_arguments)]
    fn note_failed_attempt(
        &mut self,
        index: usize,
        ctx: TraceContext,
        shard: usize,
        rank: usize,
        k: u32,
        at: f64,
        span_start: Option<(f64, f64)>,
        backoff: f64,
        cause: &'static str,
    ) {
        if self.obs.tracing() {
            let replica = rank % self.tier.replicas();
            let (s0, dur) = span_start.unwrap_or((at, 0.0));
            self.obs.span(
                rank,
                s0,
                SpanName::Attempt { index, k, shard, replica, outcome: cause },
                dur,
            );
            self.obs.fault(rank, at, format!("q{index} attempt#{k} {cause} on r{rank}"));
            let lane = self.obs.router_lane();
            self.obs.span(lane, at, SpanName::Backoff { index, k }, backoff);
            if dur > 0.0 {
                self.obs.attr(index, "contraction", dur, 0.0, 0, 0);
            }
            self.obs.attr(index, "backoff", backoff, 0.0, 0, 0);
        }
        if self.obs.logging(LogLevel::Warn) {
            self.obs.log(
                LogLevel::Warn,
                at,
                "failover",
                Some(ctx),
                &[
                    ("query", Field::U(index as u64)),
                    ("shard", Field::U(shard as u64)),
                    ("rank", Field::U(rank as u64)),
                    ("attempt", Field::U(k as u64)),
                    ("cause", Field::S(cause)),
                    ("backoff", Field::F(backoff)),
                ],
                "attempt failed; retrying on next live replica",
            );
        }
    }

    /// Serve one shard-local piece with failover: try live replicas in
    /// preference order, backing off exponentially after each failure.
    #[allow(clippy::too_many_arguments)]
    fn serve_piece(
        &mut self,
        index: usize,
        ctx: TraceContext,
        shard: usize,
        q: &Query,
        t0: f64,
        key: u64,
        policy: &RetryPolicy,
        stats: &mut QueryStats,
    ) -> Result<(Tensor<T>, f64), ServeError> {
        let pref = self.preference(shard, key);
        let mut t = t0;
        let mut backoff = policy.backoff_base.max(0.0);
        let mut tried: u32 = 0;
        loop {
            let alive: Vec<usize> = pref
                .iter()
                .copied()
                .filter(|&r| !self.tier.registry().is_crashed(r))
                .collect();
            if alive.is_empty() || tried >= policy.max_attempts {
                self.metrics.counter_add("serve/retry/exhausted", 1);
                let dead: Vec<usize> = self
                    .tier
                    .registry()
                    .crashed_ranks()
                    .into_iter()
                    .filter(|&r| self.tier.shard_of(r) == shard)
                    .collect();
                if self.obs.tracing() {
                    let lane = self.obs.router_lane();
                    self.obs.fault(
                        lane,
                        t,
                        format!("q{index} s{shard} replicas exhausted after {tried} attempts"),
                    );
                }
                if self.obs.logging(LogLevel::Error) {
                    self.obs.log(
                        LogLevel::Error,
                        t,
                        "exhausted",
                        Some(ctx),
                        &[
                            ("query", Field::U(index as u64)),
                            ("shard", Field::U(shard as u64)),
                            ("attempts", Field::U(tried as u64)),
                            ("dead", Field::U(dead.len() as u64)),
                        ],
                        "no live replica answered",
                    );
                }
                return Err(ServeError::ReplicasExhausted { shard, attempts: tried, dead });
            }
            let rank = alive[tried as usize % alive.len()];
            let start = t.max(self.tier.clock(rank));
            if start - t0 > policy.timeout {
                self.metrics.counter_add("serve/retry/timeouts", 1);
                if self.obs.tracing() {
                    let lane = self.obs.router_lane();
                    self.obs.fault(
                        lane,
                        start,
                        format!("q{index} s{shard} timeout after {tried} attempts"),
                    );
                }
                if self.obs.logging(LogLevel::Error) {
                    self.obs.log(
                        LogLevel::Error,
                        start,
                        "timeout",
                        Some(ctx),
                        &[
                            ("query", Field::U(index as u64)),
                            ("shard", Field::U(shard as u64)),
                            ("elapsed", Field::F(start - t0)),
                            ("budget", Field::F(policy.timeout)),
                        ],
                        "per-query budget exhausted before an attempt could start",
                    );
                }
                return Err(ServeError::Timeout {
                    shard,
                    elapsed: start - t0,
                    budget: policy.timeout,
                });
            }
            tried += 1;
            stats.attempts += 1;
            let k = tried - 1;
            let actx = ctx.child(k as u64);
            self.metrics.counter_add("serve/retry/attempts", 1);
            self.metrics.counter_add(&format!("serve/replica/r{rank}/attempts"), 1);
            if self.obs.tracing() {
                // Replica-availability wait between target choice and start.
                self.obs.attr(index, "routing", (start - t).max(0.0), 0.0, 0, 1);
            }
            match self.tier.attempt(rank, q, t) {
                Attempt::Served { tensor, crc, finish, sub } => {
                    stats.busy += finish - start;
                    // Verify end-to-end: the router trusts its own CRC of
                    // the received payload, not the replica's word.
                    if tensor_crc(&tensor) != crc {
                        self.metrics.counter_add("serve/retry/integrity_failures", 1);
                        self.metrics.counter_add("serve/retry/failovers", 1);
                        stats.note_failure(finish);
                        self.note_failed_attempt(
                            index,
                            actx,
                            shard,
                            rank,
                            k,
                            finish,
                            Some((start, finish - start)),
                            backoff,
                            "corrupt",
                        );
                        t = finish + backoff;
                        backoff = (backoff * 2.0).min(policy.backoff_cap);
                        continue;
                    }
                    self.metrics.counter_add(&format!("serve/replica/r{rank}/served"), 1);
                    if self.obs.tracing() {
                        let replica = rank % self.tier.replicas();
                        self.obs.span(
                            rank,
                            start,
                            SpanName::Attempt { index, k, shard, replica, outcome: "ok" },
                            finish - start,
                        );
                        for s in &sub {
                            self.obs.span(
                                rank,
                                start + s.offset,
                                SpanName::Engine { index, step: s.step },
                                s.dur,
                            );
                        }
                        let bytes = (tensor.len() * std::mem::size_of::<T>()) as u64;
                        self.obs.attr(index, "contraction", finish - start, 0.0, bytes, 0);
                    }
                    return Ok((tensor, finish));
                }
                lost @ (Attempt::Crashed { at } | Attempt::Dropped { at }) => {
                    let (counter, outcome) = match lost {
                        Attempt::Crashed { .. } => ("serve/replica/crashes", "crash"),
                        _ => ("serve/retry/dropped", "drop"),
                    };
                    self.metrics.counter_add(counter, 1);
                    self.metrics.counter_add("serve/retry/failovers", 1);
                    stats.note_failure(at);
                    self.note_failed_attempt(index, actx, shard, rank, k, at, None, backoff, outcome);
                    t = at + backoff;
                    backoff = (backoff * 2.0).min(policy.backoff_cap);
                }
                Attempt::Failed(e) => return Err(e),
            }
        }
    }

    /// Serve one admitted request: split on mode 0, serve each piece (with
    /// failover) against its shard, and assemble.
    fn serve_one(
        &mut self,
        index: usize,
        req: &Request,
        t0: f64,
        rc: &TierRunConfig,
    ) -> Result<(TierCompletion, QueryStats), ServeError> {
        req.query.validate(&self.dims)?;
        let sels = req.query.normalized(&self.dims);
        let pieces = self.tier.shard_map().split(sels[0]);
        let key = route_key(sels[0], req.tenant);
        let ctx = TraceContext::mint(index, req.tenant);
        let mut stats = QueryStats::default();
        let mut parts = Vec::with_capacity(pieces.len());
        let mut finish = t0;
        for (pi, &(shard, local0)) in pieces.iter().enumerate() {
            // Pieces run on disjoint replica sets: each starts at dispatch
            // time, in parallel in virtual time.
            let mut lsel = sels.clone();
            lsel[0] = local0;
            let local = Query {
                sel: lsel
                    .iter()
                    .map(|&(start, step, count)| ModeSel::Strided { start, step, count })
                    .collect(),
            };
            let (tensor, f) = self.serve_piece(
                index,
                ctx.child(pi as u64),
                shard,
                &local,
                t0,
                key,
                &rc.retry,
                &mut stats,
            )?;
            finish = finish.max(f);
            parts.push(tensor);
        }
        let tensor = concat_mode0(parts);
        if self.obs.tracing() {
            let bytes = (tensor.len() * std::mem::size_of::<T>()) as u64;
            self.obs.attr(index, "reassembly", 0.0, 0.0, bytes, pieces.len() as u64);
        }
        Ok((
            TierCompletion {
                index,
                arrival: req.arrival,
                dispatch: t0,
                finish,
                shards: pieces.len(),
                attempts: stats.attempts,
                failovers: stats.failovers,
                elems: tensor.len(),
                crc: tensor_crc(&tensor),
                generation: self.tier.generation(),
            },
            stats,
        ))
    }

    /// Log what admission did with the arrival at `at` (nothing for a
    /// plain enqueue): the rejected or shed request, its tenant, and the
    /// occupancy or evictor that explains it.
    fn log_admission(&mut self, requests: &[Request], at: f64, outcome: Outcome) {
        if !self.obs.logging(LogLevel::Warn) {
            return;
        }
        let (event, index, detail, msg) = match outcome {
            Outcome::Queued => return,
            Outcome::QuotaRejected { index, queued } => {
                ("quota_rejected", index, ("queued", queued), "tenant over its admission quota")
            }
            Outcome::ShedLow { victim, evicted_for } => (
                "shed_low",
                victim,
                ("evicted_for", evicted_for),
                "low-priority request shed for a high-priority arrival",
            ),
            Outcome::Rejected { index, queued } => {
                ("rejected", index, ("queued", queued), "admission queue full")
            }
        };
        let tenant = requests[index].tenant;
        self.obs.log(
            LogLevel::Warn,
            at,
            event,
            Some(TraceContext::mint(index, tenant)),
            &[
                ("query", Field::U(index as u64)),
                ("tenant", Field::U(tenant as u64)),
                (detail.0, Field::U(detail.1 as u64)),
            ],
            msg,
        );
    }

    /// Apply one scheduled update, logging and counting the outcome. A
    /// swap rejected by validation leaves the tier serving its old
    /// generation; the run continues either way.
    fn apply_update(&mut self, u: &StoreUpdate<T>, now: f64) {
        match self.hot_swap(&u.tucker, u.generation) {
            Ok(()) => {
                if self.obs.logging(LogLevel::Info) {
                    self.obs.log(
                        LogLevel::Info,
                        now,
                        "hot_swap",
                        None,
                        &[
                            ("generation", Field::U(u.generation)),
                            ("scheduled", Field::F(u.at)),
                        ],
                        "store generation installed tier-wide",
                    );
                }
            }
            Err(e) => {
                self.metrics.counter_add("serve/store/swap_rejected", 1);
                if self.obs.logging(LogLevel::Error) {
                    let why = e.to_string();
                    self.obs.log(
                        LogLevel::Error,
                        now,
                        "swap_rejected",
                        None,
                        &[
                            ("generation", Field::U(u.generation)),
                            ("error", Field::S(&why)),
                        ],
                        "hot swap failed validation; keeping old generation",
                    );
                }
            }
        }
    }

    /// Run a request trace through the tier in virtual time: the shared
    /// admission policy (bounded queue, per-tenant quotas, shed-low-first)
    /// in front of failover-serving dispatch. Admitted
    /// queries either complete bit-identically to the unsharded engine or
    /// fail typed; the loop itself never aborts.
    pub fn run(&mut self, requests: &[Request], rc: &TierRunConfig) -> TierReport {
        self.run_with_updates(requests, rc, &[])
    }

    /// [`Router::run`] with a schedule of live store updates. Before each
    /// loop event — a dispatch at its start time, or an arrival — every
    /// pending [`StoreUpdate`] whose `at` has passed is hot-swapped in.
    /// `serve_one` is synchronous within the dispatch loop, so a query
    /// dispatched before a swap completes entirely against the old
    /// generation and one dispatched after sees the new one: no query is
    /// ever lost or served from a half-installed store. An update that
    /// fails validation is skipped (counted under
    /// `serve/store/swap_rejected`) and the tier keeps the old generation.
    /// Updates timed after the last event are applied before the report is
    /// returned, so the tier's final generation reflects the full schedule.
    pub fn run_with_updates(
        &mut self,
        requests: &[Request],
        rc: &TierRunConfig,
        updates: &[StoreUpdate<T>],
    ) -> TierReport {
        assert!(rc.retry.max_attempts > 0, "run: need at least one attempt");
        let mut upd_order: Vec<&StoreUpdate<T>> = updates.iter().collect();
        // Stable: updates scheduled for the same time land in slice order.
        upd_order.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite update times"));
        let mut pending = upd_order.into_iter().peekable();

        let mut adm = Admission::new(requests, rc.queue_capacity, rc.tenant_quota);
        let mut completions = Vec::new();
        let mut failures = Vec::new();
        let mut busy_seconds = 0.0;
        let mut recovery: Option<f64> = None;

        loop {
            let ready = adm.head().map_or(0.0, |head| self.ready_time(head));
            let Some(Event { at, step }) = adm.next_event(ready, &mut self.metrics) else {
                break;
            };
            // Install every store update whose time has passed before the
            // event (a dispatch at its start time, or an arrival) is acted on.
            let mut swapped = false;
            while let Some(u) = pending.next_if(|u| u.at <= at) {
                self.apply_update(u, at);
                swapped = true;
            }
            let head = match step {
                Step::Dispatch { head } => head,
                Step::Arrival(outcome) => {
                    self.log_admission(requests, at, outcome);
                    continue;
                }
            };
            // A swap re-shards mode 0, which can change the replica clocks
            // pacing the head: it starts when the new layout is ready for it.
            let t0 = if swapped { self.ready_time(&requests[head]) } else { at };
            let tenant = requests[head].tenant;
            let ctx = TraceContext::mint(head, tenant);
            let wait = (t0 - requests[head].arrival).max(0.0);
            if self.obs.tracing() {
                let lane = self.obs.router_lane();
                self.obs.span(lane, requests[head].arrival, SpanName::Queue { index: head }, wait);
                self.obs.attr(head, "queue", wait, 0.0, 0, 0);
            }
            if self.obs.logging(LogLevel::Debug) {
                self.obs.log(
                    LogLevel::Debug,
                    t0,
                    "dispatch",
                    Some(ctx),
                    &[
                        ("query", Field::U(head as u64)),
                        ("tenant", Field::U(tenant as u64)),
                        ("queue_wait", Field::F(wait)),
                    ],
                    "dispatching admitted query",
                );
            }
            match self.serve_one(head, &requests[head], t0, rc) {
                Ok((c, stats)) => {
                    adm.note_finish(c.finish);
                    busy_seconds += stats.busy;
                    if let Some(first) = stats.first_failure {
                        let rec = (c.finish - first).max(0.0);
                        recovery = Some(match recovery {
                            Some(r) => r.max(rec),
                            None => rec,
                        });
                    }
                    // Per-tenant SLO inputs are recorded unconditionally
                    // (pure virtual-time functions of the trace, so they
                    // are identical with observability on or off).
                    let latency = c.finish - c.arrival;
                    self.metrics.observe(
                        &format!("serve/tenant/t{tenant}/latency_ns"),
                        (latency * 1e9) as u64,
                    );
                    self.metrics.counter_add(&format!("serve/tenant/t{tenant}/completed"), 1);
                    let slow = latency > self.obs.config().slow_query_threshold;
                    if slow {
                        self.metrics.counter_add("serve/query/slow", 1);
                        self.obs.note_slow();
                    }
                    self.obs.finish_query(head, latency);
                    if self.obs.logging(LogLevel::Info) {
                        self.obs.log(
                            LogLevel::Info,
                            c.finish,
                            "complete",
                            Some(ctx),
                            &[
                                ("query", Field::U(head as u64)),
                                ("tenant", Field::U(tenant as u64)),
                                ("shards", Field::U(c.shards as u64)),
                                ("attempts", Field::U(c.attempts as u64)),
                                ("failovers", Field::U(c.failovers as u64)),
                                ("latency", Field::F(latency)),
                                ("crc", Field::U(c.crc as u64)),
                            ],
                            "query served",
                        );
                    }
                    if slow && self.obs.logging(LogLevel::Warn) {
                        self.obs.log(
                            LogLevel::Warn,
                            c.finish,
                            "slow_query",
                            Some(ctx),
                            &[
                                ("query", Field::U(head as u64)),
                                ("tenant", Field::U(tenant as u64)),
                                ("latency", Field::F(latency)),
                                (
                                    "threshold",
                                    Field::F(self.obs.config().slow_query_threshold),
                                ),
                            ],
                            "latency over the slow-query threshold",
                        );
                    }
                    completions.push(c);
                }
                Err(error) => {
                    self.metrics.counter_add("serve/query/failed", 1);
                    self.metrics.counter_add(&format!("serve/tenant/t{tenant}/failed"), 1);
                    if self.obs.logging(LogLevel::Error) {
                        let why = error.to_string();
                        self.obs.log(
                            LogLevel::Error,
                            t0,
                            "query_failed",
                            Some(ctx),
                            &[
                                ("query", Field::U(head as u64)),
                                ("tenant", Field::U(tenant as u64)),
                                ("error", Field::S(&why)),
                            ],
                            "admitted query lost",
                        );
                    }
                    failures.push(TierFailure {
                        index: head,
                        arrival: requests[head].arrival,
                        error,
                    });
                }
            }
        }
        let (rejections, makespan) = adm.finish();
        // Updates scheduled past the last event still land, so the tier's
        // final generation reflects the whole schedule.
        for u in pending {
            self.apply_update(u, u.at.max(makespan));
        }
        if let Some(r) = recovery {
            self.metrics.gauge_set("serve/failover_recovery_vt", r);
        }
        completions.sort_by_key(|c| c.index);
        TierReport {
            completions,
            rejections,
            failures,
            busy_seconds,
            makespan,
            failover_recovery_vt: recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunConfig};
    use crate::store::TuckerStore;
    use crate::workload::{synthetic_store, synthetic_trace, WorkloadConfig};
    use std::collections::BTreeMap;

    fn small_workload() -> (TuckerTensor<f64>, Vec<Request>) {
        let wl = WorkloadConfig {
            dims: vec![40, 24, 20],
            ranks: vec![10, 8, 6],
            requests: 60,
            ..WorkloadConfig::default()
        };
        (synthetic_store::<f64>(&wl.dims, &wl.ranks), synthetic_trace(&wl))
    }

    fn single_engine_crcs(tk: &TuckerTensor<f64>, trace: &[Request]) -> BTreeMap<usize, u32> {
        let mut engine =
            Engine::new(TuckerStore::from_tucker(tk.clone()), EngineConfig::default());
        let report = engine.run(trace, &RunConfig::default()).expect("single engine runs");
        report.completions.iter().map(|c| (c.index, c.crc)).collect()
    }

    #[test]
    fn healthy_tier_is_bit_identical_to_single_engine() {
        let (tk, trace) = small_workload();
        let baseline = single_engine_crcs(&tk, &trace);
        let mut router =
            Router::new(&tk, 3, 2, EngineConfig::default(), &FaultPlan::none());
        let report = router.run(&trace, &TierRunConfig::default());
        assert!(report.rejections.is_empty() && report.failures.is_empty());
        assert_eq!(report.completions.len(), trace.len());
        for c in &report.completions {
            assert_eq!(c.crc, baseline[&c.index], "request {} diverged", c.index);
        }
        assert!(report.failover_recovery_vt.is_none(), "no faults, no failovers");
        assert!(report.latency_quantile(0.99).is_some());
    }

    #[test]
    fn crashed_replica_fails_over_without_losing_queries() {
        let (tk, trace) = small_workload();
        let baseline = single_engine_crcs(&tk, &trace);
        // Kill replica 0 of shard 0 (world rank 0) on its 3rd attempt —
        // mid-workload, after it has served traffic.
        let plan = FaultPlan::new().crash(0, 2);
        let mut router = Router::new(&tk, 2, 2, EngineConfig::default(), &plan);
        let report = router.run(&trace, &TierRunConfig::default());
        assert!(report.failures.is_empty(), "failover must absorb the crash: {:?}", report.failures);
        assert_eq!(report.completions.len(), trace.len(), "zero admitted queries lost");
        for c in &report.completions {
            assert_eq!(c.crc, baseline[&c.index]);
        }
        assert!(router.tier().registry().is_crashed(0), "registry names the dead rank");
        let recovery = report.failover_recovery_vt.expect("a failover happened");
        assert!(recovery > 0.0 && recovery.is_finite());
        assert!(report.completions.iter().any(|c| c.failovers > 0));
    }

    #[test]
    fn corrupted_payload_is_retried_never_returned() {
        let (tk, trace) = small_workload();
        let baseline = single_engine_crcs(&tk, &trace);
        // Corrupt one response bit on each replica's early ops.
        let plan = FaultPlan::new().corrupt(0, 1, 7, 33).corrupt(1, 0, 2, 5);
        let mut router = Router::new(&tk, 1, 2, EngineConfig::default(), &plan);
        let report = router.run(&trace, &TierRunConfig::default());
        assert!(report.failures.is_empty());
        assert_eq!(report.completions.len(), trace.len());
        for c in &report.completions {
            assert_eq!(c.crc, baseline[&c.index], "a wrong-CRC payload leaked through");
        }
        assert!(
            router.metrics().counter("serve/retry/integrity_failures") >= 1,
            "at least one corrupt response must have been caught"
        );
    }

    #[test]
    fn dead_shard_yields_typed_exhaustion_not_a_hang() {
        let (tk, trace) = small_workload();
        // Both replicas of shard 0 die immediately; shard 1 stays healthy.
        let plan = FaultPlan::new().crash(0, 0).crash(1, 0);
        let mut router = Router::new(&tk, 2, 2, EngineConfig::default(), &plan);
        let report = router.run(&trace, &TierRunConfig::default());
        assert_eq!(
            report.completions.len() + report.failures.len(),
            trace.len(),
            "every admitted query resolves"
        );
        assert!(!report.failures.is_empty(), "shard-0 queries must fail");
        for f in &report.failures {
            match &f.error {
                ServeError::ReplicasExhausted { shard: 0, dead, .. } => {
                    assert_eq!(dead, &vec![0, 1], "failure names the dead ranks");
                }
                other => panic!("expected ReplicasExhausted on shard 0, got {other}"),
            }
        }
    }

    #[test]
    fn endless_drops_trip_the_query_timeout_typed() {
        let (tk, trace) = small_workload();
        // One replica, every attempt dropped: retries back off until the
        // per-query budget runs out — a typed Timeout, never a hang.
        let plan = FaultPlan::new().flaky(0, 0..100_000, 1);
        let mut router = Router::new(&tk, 1, 1, EngineConfig::default(), &plan);
        let rc = TierRunConfig {
            retry: RetryPolicy {
                max_attempts: 1000,
                backoff_base: 0.04,
                backoff_cap: 0.04,
                timeout: 0.05,
            },
            ..TierRunConfig::default()
        };
        let report = router.run(&trace, &rc);
        assert_eq!(report.completions.len() + report.failures.len(), trace.len());
        assert!(report.completions.is_empty(), "nothing can be served");
        assert!(
            report
                .failures
                .iter()
                .all(|f| matches!(f.error, ServeError::Timeout { .. })),
            "endless drops must surface as per-query timeouts"
        );
    }

    #[test]
    fn preference_order_is_deterministic_and_complete() {
        let (tk, _) = small_workload();
        let router = Router::new(&tk, 2, 3, EngineConfig::default(), &FaultPlan::none());
        for shard in 0..2 {
            let a = router.preference(shard, 0x1234_5678);
            let b = router.preference(shard, 0x1234_5678);
            assert_eq!(a, b, "same key, same order");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            let expect: Vec<usize> = (0..3).map(|r| router.tier().rank(shard, r)).collect();
            assert_eq!(sorted, expect, "every replica appears exactly once");
        }
        // Different keys spread across different primaries somewhere.
        let spread: std::collections::BTreeSet<usize> =
            (0u64..64).map(|k| router.preference(0, mix64(k))[0]).collect();
        assert!(spread.len() > 1, "ring must not map every key to one replica");
    }
}
