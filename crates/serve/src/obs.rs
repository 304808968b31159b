//! Query observability: request-scoped tracing, deterministic structured
//! logging, SLO evaluation, and per-query critical-path attribution.
//!
//! ## Trace model
//!
//! A [`TraceContext`] (trace id + span id, SplitMix64-derived from the
//! request index and tenant — pure virtual-time determinism, no wall clock)
//! is minted at router admission and propagated through every failover
//! attempt, retry, backoff window, shard fan-out, cache lookup, and
//! partial-TTM plan step. Spans land in per-lane ring buffers (one
//! [`SpanLane`] per replica rank plus one for the router itself) as
//! compact deferred labels — nothing formats on the serving hot path —
//! and materialize as explicit-duration [`EventKind::Span`] events at
//! snapshot time, so the same
//! [`chrome_trace_json`](tucker_mpisim::chrome_trace_json) exporter that
//! renders mpisim simulator timelines renders the serving tier — and
//! [`Observer::merged_traces`] splices both into one Perfetto-loadable file.
//!
//! ## `serve-log-v1`
//!
//! The structured log is JSON-lines with a fixed field order per event:
//! `schema`, `vt`, `level`, `event`, then (when a query is in scope)
//! `trace`/`span` as zero-padded hex, then event-specific fields, then
//! `msg`. Floats go through [`json_f64`] (shortest round-trip), so a run's
//! log is byte-identical across machines and invocations. A slow-query
//! entry fires at `warn` when an end-to-end latency exceeds
//! [`ObsConfig::slow_query_threshold`].
//!
//! ## SLO semantics
//!
//! [`evaluate_slo`] reads the router's metrics registry — the per-tenant
//! log₂ latency histograms and admission/failure counters the tier records
//! unconditionally — and scores it against an [`SloPolicy`]. Latency
//! objectives use [`Histogram::quantile_upper`], the *inclusive upper
//! bucket edge*, so an SLO can only be conservatively breached, never
//! quietly met by under-estimation. Each objective carries a burn rate
//! (observed ÷ objective): > 1.0 means the error budget is burning faster
//! than allowed, i.e. the objective is breached.

use std::collections::VecDeque;
use std::fmt::Write as _;
use tucker_mpisim::{
    json_escape, json_escape_into, json_f64, json_f64_into, Breakdown, EventKind, Histogram,
    MetricsRegistry, PhaseStat, RankStats, RankTrace, TraceEvent,
};

/// SplitMix64 finalizer: the ring/routing hash and the trace-id mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request-scoped trace identity, deterministic under virtual time.
///
/// `trace_id` names the query end-to-end; `span_id` names the current
/// operation within it. Both derive from the request index and tenant via
/// SplitMix64, so two runs of the same trace mint identical ids and the
/// exported artifacts are byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Query-scoped id, stable across every attempt/retry of the query.
    pub trace_id: u64,
    /// Parent span id for the operation currently in scope.
    pub span_id: u64,
}

impl TraceContext {
    /// Mint the root context for request `index` of tenant `tenant`.
    pub fn mint(index: usize, tenant: usize) -> Self {
        let trace_id = mix64(0x7ACE_1D5A_17ED_C0DE ^ mix64(index as u64 ^ mix64(tenant as u64)));
        TraceContext { trace_id, span_id: mix64(trace_id) }
    }

    /// Derive the child context for sub-operation `ordinal` (attempt
    /// number, shard piece, plan step) of this span.
    pub fn child(&self, ordinal: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: mix64(self.span_id ^ mix64(ordinal)),
        }
    }
}

/// Structured-log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Per-attempt chatter (dispatches, cache decisions).
    Debug,
    /// Query lifecycle (admission, completion).
    Info,
    /// Degraded-but-served (failover, slow query, shed load).
    Warn,
    /// Query lost (timeout, exhaustion, hard failure).
    Error,
}

impl LogLevel {
    /// Lowercase name used in `serve-log-v1` lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// Observability switches. The default is everything off — the tier then
/// behaves (and allocates) exactly as it did before this module existed.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Record spans into per-lane ring buffers.
    pub tracing: bool,
    /// Emit `serve-log-v1` JSON lines.
    pub logging: bool,
    /// Minimum severity that reaches the log.
    pub level: LogLevel,
    /// End-to-end latency (virtual seconds) above which a completion also
    /// logs a `slow_query` entry at `warn` and bumps `serve/query/slow`.
    pub slow_query_threshold: f64,
    /// Per-lane span ring-buffer capacity.
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tracing: false,
            logging: false,
            level: LogLevel::Info,
            slow_query_threshold: 1e-3,
            span_capacity: 16_384,
        }
    }
}

impl ObsConfig {
    /// Tracing and logging on (at `debug`), defaults elsewhere.
    pub fn full() -> Self {
        ObsConfig { tracing: true, logging: true, level: LogLevel::Debug, ..Default::default() }
    }

    /// Whether any collection is on at all.
    pub fn enabled(&self) -> bool {
        self.tracing || self.logging
    }
}

/// One value in a structured-log line.
pub(crate) enum Field<'a> {
    /// Unsigned integer, emitted bare.
    U(u64),
    /// Float, emitted via [`json_f64`].
    F(f64),
    /// String, emitted escaped and quoted.
    S(&'a str),
}

/// A modeled sub-span the engine records inside one service window:
/// cache lookups, the shared mode-0 GEMM, per-mode TTM plan steps, and the
/// result-transfer tail, with offsets relative to service start.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpan {
    /// Which plan step the span covers (rendered to its label at export).
    pub step: EngineStep,
    /// Offset from service start, modeled seconds.
    pub offset: f64,
    /// Modeled duration, seconds.
    pub dur: f64,
}

/// Compact engine plan-step identity. Kept as data rather than a formatted
/// label so recording a span inside the serving loop is allocation-free;
/// the display string is rendered once, at snapshot/export time.
#[derive(Clone, Copy, Debug)]
pub enum EngineStep {
    /// Cache lookup for a mode-0 partial (`cache hit rows a..b` /
    /// `cache miss rows a..b`).
    Cache {
        /// Whether the lookup hit.
        hit: bool,
        /// First mode-0 row of the partial.
        start: usize,
        /// One past the last mode-0 row of the partial.
        end: usize,
    },
    /// The mode-0 contractions a batch shares (`gemm/mode0 shared xN`).
    Gemm {
        /// Distinct partials computed for the batch.
        shared: usize,
    },
    /// One TTM plan step (`ttm/mode{n}`).
    Ttm {
        /// The contracted mode.
        mode: usize,
    },
    /// The result-transfer tail (`emit`).
    Emit,
}

impl EngineStep {
    /// Append the step's display label (the exact strings the trace export
    /// has always carried).
    fn render_into(&self, out: &mut String) {
        let _ = match *self {
            EngineStep::Cache { hit, start, end } => write!(
                out,
                "cache {} rows {}..{}",
                if hit { "hit" } else { "miss" },
                start,
                end
            ),
            EngineStep::Gemm { shared } => write!(out, "gemm/mode0 shared x{shared}"),
            EngineStep::Ttm { mode } => write!(out, "ttm/mode{mode}"),
            EngineStep::Emit => {
                out.push_str("emit");
                Ok(())
            }
        };
    }
}

/// Deferred span label: the serving loop records these compact values and
/// the formatting cost is paid once in [`Observer::snapshot`], keeping
/// `format!` (and its allocations) out of the <2%-overhead hot path.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SpanName {
    /// `q{index}/attempt#{k} s{shard}r{replica} {outcome}`
    Attempt {
        /// Request index.
        index: usize,
        /// Zero-based attempt ordinal.
        k: u32,
        /// Shard the piece targets.
        shard: usize,
        /// Replica within the shard.
        replica: usize,
        /// `ok`, `corrupt`, `crash`, or `drop`.
        outcome: &'static str,
    },
    /// `q{index}/backoff#{k}`
    Backoff {
        /// Request index.
        index: usize,
        /// Zero-based attempt ordinal the backoff follows.
        k: u32,
    },
    /// `q{index}/queue`
    Queue {
        /// Request index.
        index: usize,
    },
    /// `q{index}/` + the engine step's label.
    Engine {
        /// Request index.
        index: usize,
        /// The plan step inside the service window.
        step: EngineStep,
    },
}

impl SpanName {
    /// Render the display label — byte-identical to what eager formatting
    /// at record time used to produce.
    fn render(&self) -> String {
        let mut out = String::with_capacity(32);
        let _ = match *self {
            SpanName::Attempt { index, k, shard, replica, outcome } => {
                write!(out, "q{index}/attempt#{k} s{shard}r{replica} {outcome}")
            }
            SpanName::Backoff { index, k } => write!(out, "q{index}/backoff#{k}"),
            SpanName::Queue { index } => write!(out, "q{index}/queue"),
            SpanName::Engine { index, step } => {
                let _ = write!(out, "q{index}/");
                step.render_into(&mut out);
                Ok(())
            }
        };
        out
    }
}

/// One deferred event on a lane; `seq` is implicit (`dropped` + position).
enum Pending {
    /// Explicit-duration span.
    Span {
        /// Deferred label.
        name: SpanName,
        /// Span length, virtual seconds.
        dur: f64,
    },
    /// Instant fault marker (rare: one per failed attempt / lost query).
    Fault {
        /// Human-readable description.
        desc: String,
    },
}

/// Bounded per-lane event ring mirroring
/// [`TraceBuffer`](tucker_mpisim::TraceBuffer) semantics (evict-oldest,
/// dropped counter, monotone sequence numbers) while deferring label
/// rendering to snapshot time.
struct SpanLane {
    cap: usize,
    dropped: u64,
    events: VecDeque<(f64, Pending)>,
}

impl SpanLane {
    fn new(cap: usize) -> Self {
        SpanLane { cap: cap.max(1), dropped: 0, events: VecDeque::new() }
    }

    fn push(&mut self, vt: f64, event: Pending) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((vt, event));
    }

    /// Materialize the lane as a [`RankTrace`]; names render here, once.
    fn snapshot(&self, rank: usize) -> RankTrace {
        let events = self
            .events
            .iter()
            .enumerate()
            .map(|(i, (vt, event))| TraceEvent {
                seq: self.dropped + i as u64,
                wall: 0.0,
                vt: *vt,
                kind: match event {
                    Pending::Span { name, dur } => {
                        EventKind::Span { name: name.render(), dur: *dur }
                    }
                    Pending::Fault { desc } => EventKind::Fault { desc: desc.clone() },
                },
            })
            .collect();
        RankTrace { rank, dropped: self.dropped, events }
    }
}

/// The tier's observability sink: span lanes, the structured log, and
/// per-query critical-path attribution. Owned by the router; every mutator
/// is a no-op (behind one branch) when the corresponding switch is off.
pub struct Observer {
    cfg: ObsConfig,
    world: usize,
    /// Lanes `0..world` mirror replica world ranks; lane `world` is the
    /// router itself (queueing, backoff, admission events).
    lanes: Vec<SpanLane>,
    spans: u64,
    log: Vec<String>,
    slow_queries: u64,
    /// Per-query phase attribution, one pseudo-"rank" per admitted query
    /// (PR1's critical-path machinery, reused lane-for-lane).
    attr_ids: Vec<usize>,
    /// Dense request-index → attribution-slot map (`usize::MAX` =
    /// unassigned). Request indices are small and dense, so a flat vector
    /// beats an ordered map on the per-phase hot path.
    attr_slot: Vec<usize>,
    attr: Vec<RankStats>,
}

impl Observer {
    /// A sink for a `world`-rank tier.
    pub fn new(cfg: ObsConfig, world: usize) -> Self {
        let lanes = if cfg.tracing {
            (0..=world).map(|_| SpanLane::new(cfg.span_capacity)).collect()
        } else {
            Vec::new()
        };
        Observer {
            cfg,
            world,
            lanes,
            spans: 0,
            log: Vec::new(),
            slow_queries: 0,
            attr_ids: Vec::new(),
            attr_slot: Vec::new(),
            attr: Vec::new(),
        }
    }

    /// The all-off sink every router starts with.
    pub fn off() -> Self {
        Observer::new(ObsConfig::default(), 0)
    }

    /// The active configuration.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.cfg.tracing
    }

    /// Whether a line at `level` would reach the log.
    #[inline]
    pub fn logging(&self, level: LogLevel) -> bool {
        self.cfg.logging && level >= self.cfg.level
    }

    /// The router's own lane index (replica lanes are `0..world`).
    pub(crate) fn router_lane(&self) -> usize {
        self.world
    }

    /// Record an explicit-duration span on `lane` starting at `start_vt`.
    /// The label is deferred data — nothing formats until snapshot.
    pub(crate) fn span(&mut self, lane: usize, start_vt: f64, name: SpanName, dur: f64) {
        if self.cfg.tracing {
            self.lanes[lane].push(start_vt, Pending::Span { name, dur });
            self.spans += 1;
        }
    }

    /// Record an instant fault marker on `lane` (crash, drop, timeout,
    /// integrity failure) — rendered as a Perfetto instant.
    pub(crate) fn fault(&mut self, lane: usize, vt: f64, desc: String) {
        if self.cfg.tracing {
            self.lanes[lane].push(vt, Pending::Fault { desc });
        }
    }

    /// Append one `serve-log-v1` line. Callers should guard with
    /// [`Observer::logging`] so field/msg formatting is skipped when off.
    pub(crate) fn log(
        &mut self,
        level: LogLevel,
        vt: f64,
        event: &str,
        ctx: Option<TraceContext>,
        fields: &[(&str, Field<'_>)],
        msg: &str,
    ) {
        if !self.logging(level) {
            return;
        }
        // One pre-sized buffer per line; escaping and float rendering
        // append in place, so a line costs exactly one allocation.
        let mut line = String::with_capacity(160 + msg.len());
        line.push_str("{\"schema\":\"serve-log-v1\",\"vt\":");
        json_f64_into(&mut line, vt);
        line.push_str(",\"level\":\"");
        line.push_str(level.as_str());
        line.push_str("\",\"event\":\"");
        line.push_str(event);
        line.push('"');
        if let Some(tc) = ctx {
            let _ = write!(
                line,
                ",\"trace\":\"{:016x}\",\"span\":\"{:016x}\"",
                tc.trace_id, tc.span_id
            );
        }
        for (k, v) in fields {
            line.push_str(",\"");
            line.push_str(k);
            line.push_str("\":");
            match v {
                Field::U(u) => {
                    let _ = write!(line, "{u}");
                }
                Field::F(f) => json_f64_into(&mut line, *f),
                Field::S(s) => {
                    line.push('"');
                    json_escape_into(&mut line, s);
                    line.push('"');
                }
            }
        }
        line.push_str(",\"msg\":\"");
        json_escape_into(&mut line, msg);
        line.push_str("\"}");
        self.log.push(line);
    }

    /// Count one slow query (the log line itself goes through [`Observer::log`]).
    pub(crate) fn note_slow(&mut self) {
        self.slow_queries += 1;
    }

    /// Accumulate `modeled` seconds (plus flop/byte/message counts) of
    /// `phase` against query `index`'s attribution lane.
    pub(crate) fn attr(
        &mut self,
        index: usize,
        phase: &str,
        modeled: f64,
        flops: f64,
        bytes: u64,
        msgs: u64,
    ) {
        if !self.cfg.tracing {
            return;
        }
        if index >= self.attr_slot.len() {
            self.attr_slot.resize(index + 1, usize::MAX);
        }
        let mut slot = self.attr_slot[index];
        if slot == usize::MAX {
            slot = self.attr.len();
            self.attr_slot[index] = slot;
            self.attr_ids.push(index);
            self.attr.push(RankStats::default());
        }
        self.attr[slot].accumulate(
            phase,
            PhaseStat { wall: 0.0, modeled, flops, bytes_sent: bytes, msgs },
        );
    }

    /// Seal query `index`'s attribution lane with its end-to-end latency
    /// (the lane's "modeled makespan").
    pub(crate) fn finish_query(&mut self, index: usize, latency: f64) {
        if !self.cfg.tracing {
            return;
        }
        if let Some(&slot) = self.attr_slot.get(index) {
            if slot != usize::MAX {
                self.attr[slot].modeled_time = latency;
            }
        }
    }

    /// Snapshot every lane (`rank` = lane index; the last lane is the
    /// router).
    pub fn snapshot(&self) -> Vec<RankTrace> {
        self.lanes.iter().enumerate().map(|(i, l)| l.snapshot(i)).collect()
    }

    /// Splice simulator traces after the serve lanes so one
    /// [`chrome_trace_json`](tucker_mpisim::chrome_trace_json) call renders
    /// the merged timeline (`sim` ranks are renumbered past the tier's).
    pub fn merged_traces(&self, sim: &[RankTrace]) -> Vec<RankTrace> {
        let mut all = self.snapshot();
        let base = all.len();
        for (i, t) in sim.iter().enumerate() {
            let mut t = t.clone();
            t.rank = base + i;
            all.push(t);
        }
        all
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> u64 {
        self.spans
    }

    /// The structured-log lines, in emission (virtual-time) order.
    pub fn log_lines(&self) -> &[String] {
        &self.log
    }

    /// The whole log as newline-terminated text (empty when no lines).
    pub fn log_text(&self) -> String {
        if self.log.is_empty() {
            String::new()
        } else {
            let mut s = self.log.join("\n");
            s.push('\n');
            s
        }
    }

    /// Completions that exceeded the slow-query threshold.
    pub fn slow_queries(&self) -> u64 {
        self.slow_queries
    }

    /// Per-query critical-path breakdown: every admitted query is one
    /// pseudo-rank; phases are `queue`, `routing`, `backoff`, `contraction`,
    /// and `reassembly`.
    pub fn critical_path(&self) -> Breakdown {
        Breakdown::from_ranks(&self.attr)
    }

    /// Text rendering of [`Observer::critical_path`] with a legend mapping
    /// the breakdown's pseudo-rank numbers back to request indices.
    pub fn critical_path_report(&self) -> String {
        if self.attr.is_empty() {
            return "no per-query attribution recorded (tracing off, or nothing served)\n"
                .to_string();
        }
        let b = self.critical_path();
        let mut out = String::from(
            "per-query critical path (one pseudo-rank per admitted query):\n",
        );
        out.push_str(&b.critical_path_report());
        let mut seen = std::collections::BTreeSet::new();
        for row in &b.critical_path {
            if seen.insert(row.rank) {
                out.push_str(&format!(
                    "  rank {} = request #{}\n",
                    row.rank, self.attr_ids[row.rank]
                ));
            }
        }
        out
    }
}

/// Service-level objectives for one tier run, all latencies in
/// milliseconds of virtual time.
#[derive(Clone, Copy, Debug)]
pub struct SloPolicy {
    /// Per-tenant p50 end-to-end latency objective, ms.
    pub p50_ms: f64,
    /// Per-tenant p99 end-to-end latency objective, ms.
    pub p99_ms: f64,
    /// Admitted-query error budget (failed ÷ admitted), fraction.
    pub error_rate: f64,
    /// Worst failover recovery (finish − first failed attempt), ms.
    pub recovery_ms: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy { p50_ms: 1.0, p99_ms: 5.0, error_rate: 1e-3, recovery_ms: 50.0 }
    }
}

/// One scored objective.
#[derive(Clone, Debug)]
pub struct SloObjective {
    /// Objective name (`tenant0/p99_ms`, `error_rate`, `recovery_ms`).
    pub name: String,
    /// Observed value (conservative upper bound for latencies).
    pub observed: f64,
    /// The policy's target.
    pub objective: f64,
    /// Observed ÷ objective: > 1 burns budget faster than allowed.
    pub burn_rate: f64,
    /// Whether the objective is breached (`observed > objective`).
    pub breached: bool,
}

/// A typed SLO evaluation: one row per objective, deterministic order
/// (tenants ascending, then `error_rate`, then `recovery_ms`).
#[derive(Clone, Debug)]
pub struct SloReport {
    /// Scored objectives.
    pub objectives: Vec<SloObjective>,
}

impl SloReport {
    /// Whether any objective is breached.
    pub fn breached(&self) -> bool {
        self.objectives.iter().any(|o| o.breached)
    }

    /// Names of every breached objective, report order.
    pub fn breached_names(&self) -> Vec<&str> {
        self.objectives.iter().filter(|o| o.breached).map(|o| o.name.as_str()).collect()
    }

    /// Human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::from("SLO report\n");
        out.push_str("  objective                    observed     target       burn    status\n");
        for o in &self.objectives {
            out.push_str(&format!(
                "  {:<27}  {:>11.6}  {:>11.6}  {:>6.2}  {}\n",
                o.name,
                o.observed,
                o.objective,
                o.burn_rate,
                if o.breached { "BREACH" } else { "ok" }
            ));
        }
        out.push_str(&format!(
            "  overall: {}\n",
            if self.breached() { "BREACHED" } else { "within objectives" }
        ));
        out
    }

    /// Deterministic JSON (`tucker-slo-v1`): fixed key order, floats via
    /// [`json_f64`] — byte-identical across invocations of the same run.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .objectives
            .iter()
            .map(|o| {
                format!(
                    "  {{\"name\":\"{}\",\"observed\":{},\"objective\":{},\"burn_rate\":{},\"breached\":{}}}",
                    json_escape(&o.name),
                    json_f64(o.observed),
                    json_f64(o.objective),
                    json_f64(o.burn_rate),
                    o.breached
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"tucker-slo-v1\",\"breached\":{},\"objectives\":[\n{}\n]}}\n",
            self.breached(),
            rows.join(",\n")
        )
    }
}

/// Score one objective.
fn objective(name: String, observed: f64, target: f64) -> SloObjective {
    let burn_rate = if target > 0.0 {
        observed / target
    } else if observed > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    SloObjective { name, observed, objective: target, burn_rate, breached: observed > target }
}

/// Evaluate `policy` against a tier run's metrics registry: the per-tenant
/// `serve/tenant/t{n}/latency_ns` log₂ histograms (scored by
/// [`Histogram::quantile_upper`] — conservative upper bucket edges), the
/// per-tenant completed/failed counters, and the
/// `serve/failover_recovery_vt` gauge.
pub fn evaluate_slo(metrics: &MetricsRegistry, policy: &SloPolicy) -> SloReport {
    // Discover tenants from the unconditional per-tenant counters.
    let mut tenants: Vec<usize> = Vec::new();
    for (name, _) in metrics.counters() {
        if let Some(rest) = name.strip_prefix("serve/tenant/t") {
            if let Some((id, _)) = rest.split_once('/') {
                if let Ok(t) = id.parse::<usize>() {
                    if !tenants.contains(&t) {
                        tenants.push(t);
                    }
                }
            }
        }
    }
    tenants.sort_unstable();

    let quantile_ms = |h: Option<&Histogram>, q: f64| -> f64 {
        h.and_then(|h| h.quantile_upper(q)).map_or(0.0, |ns| ns as f64 / 1e6)
    };

    let mut objectives = Vec::new();
    let mut completed_total = 0u64;
    let mut failed_total = 0u64;
    for &t in &tenants {
        let h = metrics.histogram(&format!("serve/tenant/t{t}/latency_ns"));
        objectives.push(objective(
            format!("tenant{t}/p50_ms"),
            quantile_ms(h, 0.5),
            policy.p50_ms,
        ));
        objectives.push(objective(
            format!("tenant{t}/p99_ms"),
            quantile_ms(h, 0.99),
            policy.p99_ms,
        ));
        completed_total += metrics.counter(&format!("serve/tenant/t{t}/completed"));
        failed_total += metrics.counter(&format!("serve/tenant/t{t}/failed"));
    }
    let admitted = completed_total + failed_total;
    let observed_rate =
        if admitted > 0 { failed_total as f64 / admitted as f64 } else { 0.0 };
    objectives.push(objective("error_rate".to_string(), observed_rate, policy.error_rate));
    let recovery_ms = metrics.gauge("serve/failover_recovery_vt").unwrap_or(0.0) * 1e3;
    objectives.push(objective("recovery_ms".to_string(), recovery_ms, policy.recovery_ms));
    SloReport { objectives }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceContext::mint(7, 2);
        assert_eq!(a, TraceContext::mint(7, 2), "same request, same identity");
        assert_ne!(a.trace_id, TraceContext::mint(8, 2).trace_id);
        assert_ne!(a.trace_id, TraceContext::mint(7, 3).trace_id);
        let c0 = a.child(0);
        let c1 = a.child(1);
        assert_eq!(c0.trace_id, a.trace_id, "children stay in the trace");
        assert_ne!(c0.span_id, c1.span_id, "siblings get distinct spans");
        assert_eq!(c0, a.child(0), "child derivation is pure");
    }

    #[test]
    fn log_lines_are_fixed_order_json_with_escaping() {
        let mut obs = Observer::new(ObsConfig::full(), 2);
        obs.log(
            LogLevel::Warn,
            1.5e-4,
            "failover",
            Some(TraceContext { trace_id: 0xABC, span_id: 0x1 }),
            &[("query", Field::U(12)), ("elapsed", Field::F(0.5)), ("why", Field::S("he said \"no\""))],
            "retrying",
        );
        assert_eq!(
            obs.log_lines(),
            &[concat!(
                "{\"schema\":\"serve-log-v1\",\"vt\":0.00015,\"level\":\"warn\",",
                "\"event\":\"failover\",\"trace\":\"0000000000000abc\",",
                "\"span\":\"0000000000000001\",\"query\":12,\"elapsed\":0.5,",
                "\"why\":\"he said \\\"no\\\"\",\"msg\":\"retrying\"}"
            )
            .to_string()]
        );
        // Below-threshold severity is filtered.
        let mut quiet = Observer::new(
            ObsConfig { level: LogLevel::Error, ..ObsConfig::full() },
            1,
        );
        quiet.log(LogLevel::Info, 0.0, "x", None, &[], "dropped");
        assert!(quiet.log_lines().is_empty());
        assert_eq!(quiet.log_text(), "");
    }

    #[test]
    fn spans_land_on_lanes_and_merge_with_sim_traces() {
        use tucker_mpisim::TraceBuffer;
        let mut obs = Observer::new(ObsConfig::full(), 2);
        obs.span(
            0,
            1e-6,
            SpanName::Attempt { index: 0, k: 0, shard: 0, replica: 0, outcome: "ok" },
            2e-6,
        );
        obs.span(obs.router_lane(), 0.0, SpanName::Queue { index: 0 }, 1e-6);
        assert_eq!(obs.span_count(), 2);
        let mut sim = TraceBuffer::new(8);
        sim.push(0.0, 5e-6, EventKind::Fault { desc: "injected".into() });
        let merged = obs.merged_traces(&[sim.snapshot(0)]);
        assert_eq!(merged.len(), 4, "2 replica lanes + router lane + 1 sim rank");
        assert_eq!(merged[3].rank, 3, "sim rank renumbered past the tier lanes");
        let json = tucker_mpisim::chrome_trace_json(&merged);
        assert!(json.contains("\"name\":\"q0/attempt#0 s0r0 ok\",\"ph\":\"X\""));
        assert!(json.contains("fault: injected"));
    }

    #[test]
    fn disabled_observer_collects_nothing() {
        let mut obs = Observer::off();
        obs.log(LogLevel::Error, 0.0, "x", None, &[], "m");
        obs.attr(0, "queue", 1.0, 0.0, 0, 0);
        obs.finish_query(0, 1.0);
        assert!(!obs.tracing() && !obs.logging(LogLevel::Error));
        assert_eq!(obs.span_count(), 0);
        assert!(obs.log_lines().is_empty());
        assert!(obs.snapshot().is_empty());
        assert!(obs.critical_path_report().contains("no per-query attribution"));
    }

    #[test]
    fn critical_path_reuses_rank_machinery_with_query_legend() {
        let mut obs = Observer::new(ObsConfig::full(), 1);
        obs.attr(3, "queue", 2e-3, 0.0, 0, 0);
        obs.attr(3, "contraction", 1e-3, 1e6, 0, 1);
        obs.finish_query(3, 3e-3);
        obs.attr(9, "contraction", 5e-4, 5e5, 0, 1);
        obs.finish_query(9, 5e-4);
        let b = obs.critical_path();
        assert_eq!(b.slowest_rank, 0, "query #3 is the slowest pseudo-rank");
        assert!((b.modeled_time - 3e-3).abs() < 1e-12);
        assert_eq!(b.critical_path[0].phase, "queue", "queue wait dominates");
        let report = obs.critical_path_report();
        assert!(report.contains("rank 0 = request #3"), "legend maps ranks to requests:\n{report}");
    }

    #[test]
    fn slo_evaluator_scores_tenants_errors_and_recovery() {
        let mut m = MetricsRegistry::default();
        // Tenant 0: healthy, fast. Tenant 1: one slow outlier + a failure.
        for _ in 0..99 {
            m.observe("serve/tenant/t0/latency_ns", 100_000); // 0.1 ms
        }
        m.counter_add("serve/tenant/t0/completed", 99);
        // 98 fast + 2 outliers: nearest-rank p99 of 100 samples is the 99th,
        // which must land inside the outlier bucket.
        for _ in 0..98 {
            m.observe("serve/tenant/t1/latency_ns", 100_000);
        }
        m.observe("serve/tenant/t1/latency_ns", 40_000_000); // 40 ms outlier
        m.observe("serve/tenant/t1/latency_ns", 40_000_000);
        m.counter_add("serve/tenant/t1/completed", 100);
        m.counter_add("serve/tenant/t1/failed", 1);
        m.gauge_set("serve/failover_recovery_vt", 0.002); // 2 ms
        let report = evaluate_slo(&m, &SloPolicy::default());
        let names: Vec<&str> = report.objectives.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "tenant0/p50_ms",
                "tenant0/p99_ms",
                "tenant1/p50_ms",
                "tenant1/p99_ms",
                "error_rate",
                "recovery_ms"
            ]
        );
        assert!(!report.objectives[0].breached, "tenant 0 p50 within 1 ms");
        let t1p99 = &report.objectives[3];
        assert!(t1p99.breached, "40 ms outlier must breach the 5 ms p99");
        assert!(t1p99.observed > 5.0 && t1p99.burn_rate > 1.0);
        let err = &report.objectives[4];
        assert!(err.breached, "1/200 failed is over the 0.1% budget");
        assert!((err.observed - 1.0 / 200.0).abs() < 1e-12);
        assert!(!report.objectives[5].breached, "2 ms recovery within 50 ms");
        assert_eq!(report.breached_names(), vec!["tenant1/p99_ms", "error_rate"]);
        // Exports are pure functions of the registry: byte-identical.
        assert_eq!(report.to_json(), evaluate_slo(&m, &SloPolicy::default()).to_json());
        assert!(report.table().contains("BREACH"));
        assert!(report.to_json().starts_with("{\"schema\":\"tucker-slo-v1\",\"breached\":true,"));
    }

    #[test]
    fn slo_evaluator_on_empty_registry_is_clean() {
        let report = evaluate_slo(&MetricsRegistry::default(), &SloPolicy::default());
        assert!(!report.breached());
        assert_eq!(report.objectives.len(), 2, "error_rate + recovery_ms only");
        assert_eq!(report.objectives[0].observed, 0.0);
    }
}
