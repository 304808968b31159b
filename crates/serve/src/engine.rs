//! The query engine: planning, cached/batched execution, and a
//! deterministic multi-worker serving loop.
//!
//! ## Execution (per query, [`OrderPolicy::Exact`])
//!
//! 1. **Mode 0** through the store's pre-packed core ([`TuckerStore`]):
//!    either the exact selected rows, or — with the cache enabled — a
//!    block-aligned contiguous row range whose partial is reusable across
//!    queries, with the exact rows cut out by a bit-preserving gather.
//! 2. **Modes 1…N−1** ascending, each a TTM against a zero-copy strided
//!    row-subview of the factor. Ascending order plus the kernel
//!    determinism contract make the result bit-identical to the same
//!    hyperslab of `TuckerTensor::reconstruct()`.
//!
//! [`OrderPolicy::Cost`] instead contracts in the planner's
//! flop-minimizing order — faster, equal to rounding only.
//!
//! ## Serving loop
//!
//! [`Engine::run`] simulates a bounded-queue multi-worker executor in
//! *virtual time*: requests carry arrival timestamps, workers advance a
//! modeled clock by each batch's predicted service time (§3.5-style
//! `γ·flops` plus transfer terms from [`CostModel`]), and the `admission`
//! module — shared with the replicated tier — rejects arrivals that find
//! the queue full (or a tenant over quota) with a typed
//! [`ServeError::Overloaded`] / [`ServeError::QuotaExceeded`] and picks the
//! next event. Everything — batching decisions, latencies, throughput — is
//! a pure function of the request trace and config, so benchmark artifacts
//! are machine-independent and reproducible.

use crate::admission::{Admission, Event, Step};
use crate::cache::{CacheStats, ContractionCache, PartialKey};
use crate::error::ServeError;
use crate::obs::{EngineSpan, EngineStep};
use crate::plan::{plan, OrderPolicy, QueryPlan};
use crate::query::Query;
use crate::store::TuckerStore;
use std::collections::BTreeMap;
use std::sync::Arc;
use tucker_core::crc32::scalars_crc;
use tucker_mpisim::{CostModel, MetricsRegistry};
use tucker_tensor::io::IoScalar;
use tucker_tensor::{hyperslab, ttm, SlabSel, Tensor};

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Contraction-cache payload budget in bytes; 0 disables caching.
    pub cache_budget: usize,
    /// Mode-0 cache block alignment (rows). Queries landing in the same
    /// aligned range share one cached partial.
    pub block: usize,
    /// Contraction-order policy.
    pub order_policy: OrderPolicy,
    /// Machine model for predicted service times.
    pub cost: CostModel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_budget: 64 << 20,
            block: 32,
            order_policy: OrderPolicy::Exact,
            cost: CostModel::andes(),
        }
    }
}

/// Modeled cost of answering one query.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCost {
    /// Floating-point operations executed for this query alone (shared
    /// partial-contraction work is accounted separately).
    pub flops: f64,
    /// Bytes gathered/emitted.
    pub bytes: f64,
    /// Modeled service seconds (this query's share).
    pub seconds: f64,
}

/// One query answered.
pub struct QueryOutput<T> {
    /// The reconstructed hyperslab.
    pub tensor: Tensor<T>,
    /// Modeled per-query cost.
    pub cost: QueryCost,
    /// The plan that was executed.
    pub plan: QueryPlan,
}

/// A batch answered: per-query outputs plus the cost of the partial
/// contractions shared across the batch.
pub struct BatchOutput<T> {
    /// Outputs in request order.
    pub outputs: Vec<QueryOutput<T>>,
    /// Modeled seconds of shared work (computed partials).
    pub shared_seconds: f64,
}

/// The serving engine: store + cache + metrics.
pub struct Engine<T: IoScalar> {
    store: TuckerStore<T>,
    cache: ContractionCache<T>,
    cfg: EngineConfig,
    metrics: MetricsRegistry,
    synced: CacheStats,
    record_spans: bool,
    spans: Vec<EngineSpan>,
}

impl<T: IoScalar> Engine<T> {
    /// Wrap a store for serving.
    pub fn new(store: TuckerStore<T>, cfg: EngineConfig) -> Self {
        let cache = ContractionCache::new(cfg.cache_budget);
        Engine {
            store,
            cache,
            cfg,
            metrics: MetricsRegistry::default(),
            synced: CacheStats::default(),
            record_spans: false,
            spans: Vec::new(),
        }
    }

    /// Toggle per-call [`EngineSpan`] recording (cache lookups, the shared
    /// mode-0 GEMM, per-mode TTM plan steps, the transfer tail). Recording
    /// only appends to a side buffer — results and modeled costs are
    /// bit-identical either way.
    pub fn set_span_recording(&mut self, on: bool) {
        self.record_spans = on;
    }

    /// Drain the spans recorded since the last call (empty when recording
    /// is off). Offsets are relative to the call's service start.
    pub fn take_spans(&mut self) -> Vec<EngineSpan> {
        std::mem::take(&mut self.spans)
    }

    /// The underlying store.
    pub fn store(&self) -> &TuckerStore<T> {
        &self.store
    }

    /// Replace the store with a newer generation and invalidate every
    /// cached partial — entries derive from the old core and must never
    /// answer a query against the new one. Metrics, span recording, and
    /// cache history all survive the swap.
    pub fn swap_store(&mut self, store: TuckerStore<T>) {
        self.store = store;
        self.cache.clear();
        self.metrics.counter_add("serve/store/swaps", 1);
        self.metrics.gauge_set("serve/store/generation", self.store.generation() as f64);
    }

    /// The engine's metrics registry (`serve/*` namespace).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Align a mode-0 selection to the covering cache block range.
    fn aligned_range(&self, sel0: SlabSel) -> (usize, usize) {
        let (start, step, count) = sel0;
        let i0 = self.store.dims()[0];
        let b = self.cfg.block.max(1);
        let last = start + (count - 1) * step;
        (start - start % b, ((last / b + 1) * b).min(i0))
    }

    /// The mode-0 spec whose partial this query consumes: the aligned
    /// contiguous range when caching, the exact selection otherwise.
    /// Queries with equal specs can share one partial contraction — the
    /// serving loop batches on this key.
    pub fn share_spec(&self, sel0: SlabSel) -> SlabSel {
        if self.cfg.cache_budget > 0 {
            let (bstart, bend) = self.aligned_range(sel0);
            (bstart, 1, bend - bstart)
        } else {
            sel0
        }
    }

    /// Answer one query.
    pub fn execute(&mut self, q: &Query) -> Result<QueryOutput<T>, ServeError> {
        let mut batch = self.execute_batch(std::slice::from_ref(q))?;
        let mut out = batch.outputs.pop().expect("batch of one");
        // A solo call owns the shared work it triggered.
        out.cost.seconds += batch.shared_seconds;
        Ok(out)
    }

    /// Answer a batch of queries, computing each distinct mode-0 partial
    /// once (one [`TuckerStore::contract_mode0`] against the packed core,
    /// on the calling thread) and sharing it across the batch — and across
    /// future batches via the cache.
    pub fn execute_batch(&mut self, qs: &[Query]) -> Result<BatchOutput<T>, ServeError> {
        if self.record_spans {
            self.spans.clear();
        }
        let dims = self.store.dims().to_vec();
        let ranks = self.store.ranks().to_vec();
        if dims.is_empty() {
            return Err(ServeError::BadQuery("store has no modes".into()));
        }
        for q in qs {
            q.validate(&dims)?;
        }
        let sels: Vec<Vec<SlabSel>> = qs.iter().map(|q| q.normalized(&dims)).collect();
        let sb = self.store.scalar_bytes();
        let gamma = self.cfg.cost.gamma(sb);
        let rest: usize = ranks.iter().skip(1).product();

        if self.cfg.order_policy == OrderPolicy::Cost {
            // Cost order bypasses the packed-core/cache path: a plain TTM
            // chain in planner order (tolerance-equal, not bit-equal).
            let outputs: Result<Vec<_>, ServeError> =
                sels.iter().map(|sel| self.execute_cost_order(sel, &ranks, gamma)).collect();
            let outputs = outputs?;
            self.note_batch(&outputs, qs.len(), 0.0);
            return Ok(BatchOutput { outputs, shared_seconds: 0.0 });
        }

        // Distinct partial specs across the batch, in first-seen order.
        let mut spec_of = Vec::with_capacity(qs.len());
        let mut distinct: Vec<SlabSel> = Vec::new();
        let mut index_of: BTreeMap<SlabSel, usize> = BTreeMap::new();
        for sel in &sels {
            let spec = self.share_spec(sel[0]);
            let idx = *index_of.entry(spec).or_insert_with(|| {
                distinct.push(spec);
                distinct.len() - 1
            });
            spec_of.push(idx);
        }

        // Resolve each distinct partial: cache hit, or one contraction.
        let caching = self.cfg.cache_budget > 0;
        let mut partials: Vec<Option<Arc<Tensor<T>>>> = vec![None; distinct.len()];
        if caching {
            for (i, &spec) in distinct.iter().enumerate() {
                let key = PartialKey { mode: 0, start: spec.0, end: spec.0 + spec.2 };
                partials[i] = self.cache.get(key);
                if self.record_spans {
                    self.spans.push(EngineSpan {
                        step: EngineStep::Cache {
                            hit: partials[i].is_some(),
                            start: spec.0,
                            end: spec.0 + spec.2,
                        },
                        offset: 0.0,
                        dur: 0.0,
                    });
                }
            }
        }
        let missing: Vec<usize> =
            (0..distinct.len()).filter(|&i| partials[i].is_none()).collect();
        let mut shared_flops = 0.0;
        for &i in &missing {
            let spec = distinct[i];
            shared_flops += 2.0 * spec.2 as f64 * ranks[0] as f64 * rest as f64;
            let value = Arc::new(self.store.contract_mode0(spec));
            if caching {
                let key = PartialKey { mode: 0, start: spec.0, end: spec.0 + spec.2 };
                let bytes = value.len() * sb;
                self.cache.insert(key, Arc::clone(&value), bytes);
            }
            partials[i] = Some(value);
        }
        let shared_seconds = if missing.is_empty() {
            0.0
        } else {
            self.cfg.cost.alpha + gamma * shared_flops
        };
        if self.record_spans && shared_seconds > 0.0 {
            self.spans.push(EngineSpan {
                step: EngineStep::Gemm { shared: missing.len() },
                offset: 0.0,
                dur: shared_seconds,
            });
        }

        // Per-query tails.
        let mut outputs = Vec::with_capacity(qs.len());
        for (sel, &pidx) in sels.iter().zip(&spec_of) {
            let partial = partials[pidx].as_ref().expect("resolved above");
            let spec = distinct[pidx];
            let (start, step, count) = sel[0];
            let mut cost = QueryCost::default();
            // Cut the selected rows out of the (possibly wider) partial.
            let base: Arc<Tensor<T>> = if (start, step, count) == spec {
                Arc::clone(partial)
            } else {
                let mut gsel = vec![(start - spec.0, step, count)];
                gsel.extend(ranks.iter().skip(1).map(|&r| (0, 1, r)));
                let g = hyperslab(partial, &gsel);
                cost.bytes += (g.len() * sb) as f64;
                Arc::new(g)
            };
            // Modes 1..N ascending (bit-identity with reconstruct()).
            let mut counts: Vec<usize> = sel.iter().map(|&(_, _, c)| c).collect();
            counts[0] = count;
            let qplan = plan(&ranks, &counts, OrderPolicy::Exact);
            let mut y: Option<Tensor<T>> = None;
            // Modeled offset of the next plan step within this query's
            // service window (shared GEMM first, then the dispatch α).
            let mut step_off = shared_seconds + self.cfg.cost.alpha;
            for n in 1..dims.len() {
                let u = self.store.factor_rows(n, sel[n]);
                let src = y.as_ref().unwrap_or(&base);
                let before: usize = counts[..n].iter().product();
                let after: usize = ranks[n + 1..].iter().product();
                let step_flops = 2.0 * counts[n] as f64 * ranks[n] as f64 * (before * after) as f64;
                cost.flops += step_flops;
                if self.record_spans {
                    self.spans.push(EngineSpan {
                        step: EngineStep::Ttm { mode: n },
                        offset: step_off,
                        dur: gamma * step_flops,
                    });
                    step_off += gamma * step_flops;
                }
                y = Some(ttm(src, n, u, false));
            }
            let tensor = match y {
                Some(t) => t,
                None => (*base).clone(),
            };
            cost.bytes += (tensor.len() * sb) as f64;
            cost.seconds =
                self.cfg.cost.alpha + gamma * cost.flops + self.cfg.cost.beta_per_byte * cost.bytes;
            if self.record_spans {
                self.spans.push(EngineSpan {
                    step: EngineStep::Emit,
                    offset: step_off,
                    dur: self.cfg.cost.beta_per_byte * cost.bytes,
                });
            }
            outputs.push(QueryOutput { tensor, cost, plan: qplan });
        }
        self.note_batch(&outputs, qs.len(), shared_seconds);
        Ok(BatchOutput { outputs, shared_seconds })
    }

    /// Cost-order execution: plain TTM chain in the planner's order.
    fn execute_cost_order(
        &mut self,
        sel: &[SlabSel],
        ranks: &[usize],
        gamma: f64,
    ) -> Result<QueryOutput<T>, ServeError> {
        let counts: Vec<usize> = sel.iter().map(|&(_, _, c)| c).collect();
        let qplan = plan(ranks, &counts, OrderPolicy::Cost);
        let mut cost = QueryCost::default();
        let mut extents: Vec<usize> = ranks.to_vec();
        let mut y: Option<Tensor<T>> = None;
        for &n in &qplan.order {
            let u = self.store.factor_rows(n, sel[n]);
            let rest: usize =
                extents.iter().enumerate().filter(|&(m, _)| m != n).map(|(_, &e)| e).product();
            cost.flops += 2.0 * counts[n] as f64 * ranks[n] as f64 * rest as f64;
            extents[n] = counts[n];
            let src_owned;
            let src = match &y {
                Some(t) => t,
                None => {
                    src_owned = self.store.tucker().core.clone();
                    &src_owned
                }
            };
            y = Some(ttm(src, n, u, false));
        }
        let tensor = y.unwrap_or_else(|| self.store.tucker().core.clone());
        let sb = self.store.scalar_bytes();
        cost.bytes = (tensor.len() * sb) as f64;
        cost.seconds =
            self.cfg.cost.alpha + gamma * cost.flops + self.cfg.cost.beta_per_byte * cost.bytes;
        Ok(QueryOutput { tensor, cost, plan: qplan })
    }

    /// Record per-batch metrics and sync cache counters.
    fn note_batch(&mut self, outputs: &[QueryOutput<T>], batch_size: usize, shared_seconds: f64) {
        self.metrics.counter_add("serve/query/count", outputs.len() as u64);
        self.metrics.observe("serve/batch/size", batch_size as u64);
        for out in outputs {
            let ns = ((out.cost.seconds + shared_seconds / batch_size.max(1) as f64) * 1e9) as u64;
            self.metrics.observe("serve/query/latency", ns);
        }
        let s = self.cache.stats();
        self.metrics.counter_add("serve/cache/hits", s.hits - self.synced.hits);
        self.metrics.counter_add("serve/cache/misses", s.misses - self.synced.misses);
        self.metrics.counter_add("serve/cache/evictions", s.evictions - self.synced.evictions);
        self.metrics.gauge_set("serve/cache/bytes", s.bytes as f64);
        self.synced = s;
    }

    /// Run a request trace through the virtual-time serving loop. Returns
    /// every admitted request's completion (with a CRC-32 fingerprint of
    /// its result payload — in-flight corruption shows up as a mismatch
    /// against a direct [`Engine::execute`]) and every rejection, which is
    /// always typed: [`ServeError::Overloaded`] for a full queue,
    /// [`ServeError::QuotaExceeded`] for a tenant over its quota.
    pub fn run(&mut self, requests: &[Request], rc: &RunConfig) -> Result<RunReport, ServeError> {
        assert!(rc.workers > 0, "run: need at least one worker");
        assert!(rc.batch_limit > 0, "run: batch limit must be positive");
        let dims = self.store.dims().to_vec();
        let mut adm = Admission::new(requests, rc.queue_capacity, rc.tenant_quota);
        let mut workers = vec![0.0f64; rc.workers];
        let mut completions = Vec::new();
        let mut busy_seconds = 0.0;

        loop {
            // Earliest-free worker.
            let (w, free) = workers
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite").then(a.0.cmp(&b.0)))
                .map(|(i, &t)| (i, t))
                .expect("workers non-empty");
            let (head, t0) = match adm.next_event(free, &mut self.metrics) {
                Some(Event { at, step: Step::Dispatch { head } }) => (head, at),
                Some(_) => continue,
                // Graceful drain complete: no arrivals left, queue empty.
                None => break,
            };
            // Batch: queued requests sharing the head's partial spec
            // that have already arrived by dispatch time.
            let spec_of = |r: &Request| self.share_spec(r.query.normalized(&dims)[0]);
            let head_spec = spec_of(&requests[head]);
            let mut batch = vec![head];
            adm.pull_into_batch(&mut batch, rc.batch_limit, |cand| {
                cand.arrival <= t0 && spec_of(cand) == head_spec
            });
            let queries: Vec<Query> = batch.iter().map(|&i| requests[i].query.clone()).collect();
            let out = self.execute_batch(&queries)?;
            let service: f64 =
                out.shared_seconds + out.outputs.iter().map(|o| o.cost.seconds).sum::<f64>();
            let finish = t0 + service;
            workers[w] = finish;
            busy_seconds += service;
            adm.note_finish(finish);
            for (&idx, o) in batch.iter().zip(&out.outputs) {
                completions.push(Completion {
                    index: idx,
                    arrival: requests[idx].arrival,
                    dispatch: t0,
                    finish,
                    batch_size: batch.len(),
                    elems: o.tensor.len(),
                    crc: tensor_crc(&o.tensor),
                });
            }
        }
        completions.sort_by_key(|c| c.index);
        let (rejections, makespan) = adm.finish();
        Ok(RunReport { completions, rejections, busy_seconds, makespan })
    }
}

/// CRC-32 fingerprint of a tensor's little-endian payload bytes.
pub fn tensor_crc<T: IoScalar>(t: &Tensor<T>) -> u32 {
    scalars_crc(t.data())
}

/// Scheduling class of a request. Under overload the bounded queue sheds
/// [`Priority::Low`] traffic first: a high-priority arrival finding the
/// queue full evicts the newest queued low-priority request instead of
/// being rejected itself (graceful degradation instead of collapse).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Interactive traffic; shed last.
    #[default]
    High,
    /// Best-effort traffic; shed first under overload.
    Low,
}

/// A timestamped request for the serving loop.
#[derive(Clone, Debug)]
pub struct Request {
    /// Virtual arrival time, seconds.
    pub arrival: f64,
    /// The query.
    pub query: Query,
    /// Tenant the request is billed to, for per-tenant admission quotas.
    pub tenant: usize,
    /// Scheduling class under overload.
    pub priority: Priority,
}

impl Request {
    /// A high-priority request from the default tenant.
    pub fn new(arrival: f64, query: Query) -> Self {
        Request { arrival, query, tenant: 0, priority: Priority::High }
    }
}

/// Serving-loop shape.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Concurrent workers.
    pub workers: usize,
    /// Bounded admission queue capacity.
    pub queue_capacity: usize,
    /// Max queries dispatched as one batch.
    pub batch_limit: usize,
    /// Per-tenant cap on queued requests; `None` disables quotas. A tenant
    /// at its cap gets a typed [`ServeError::QuotaExceeded`] even when the
    /// queue itself has room.
    pub tenant_quota: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            workers: 1,
            queue_capacity: usize::MAX,
            batch_limit: 16,
            tenant_quota: None,
        }
    }
}

/// One admitted request, served to completion.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Index into the submitted request slice.
    pub index: usize,
    /// Arrival time.
    pub arrival: f64,
    /// Dispatch time (arrival + queueing).
    pub dispatch: f64,
    /// Completion time.
    pub finish: f64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Result elements.
    pub elems: usize,
    /// CRC-32 of the result payload.
    pub crc: u32,
}

/// One request denied admission.
#[derive(Debug)]
pub struct Rejection {
    /// Index into the submitted request slice.
    pub index: usize,
    /// Arrival time.
    pub arrival: f64,
    /// [`ServeError::Overloaded`] (full queue, or a low-priority request
    /// shed to admit a high-priority one) or [`ServeError::QuotaExceeded`].
    pub error: ServeError,
}

/// Outcome of a serving-loop run.
#[derive(Debug)]
pub struct RunReport {
    /// Every admitted request, in submission order.
    pub completions: Vec<Completion>,
    /// Every rejected request.
    pub rejections: Vec<Rejection>,
    /// Total worker-busy virtual seconds.
    pub busy_seconds: f64,
    /// Virtual time at which the last request finished.
    pub makespan: f64,
}

/// The latency accessors of a run report: [`RunReport`] and the tier's
/// [`TierReport`](crate::router::TierReport) both hold `completions` with
/// `arrival` and `finish`, and a `makespan`.
macro_rules! latency_report {
    ($report:ty) => {
        impl $report {
            /// Sorted end-to-end latencies (finish − arrival), seconds.
            pub fn latencies_sorted(&self) -> Vec<f64> {
                let mut l: Vec<f64> =
                    self.completions.iter().map(|c| c.finish - c.arrival).collect();
                l.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                l
            }

            /// Latency quantile (`q` clamped to `[0, 1]`) with linear
            /// interpolation between order statistics: quantile `q` sits at
            /// fractional position `q·(n−1)` of the sorted samples, and
            /// values between two samples are blended by the fractional
            /// part. Returns `None` when nothing completed (e.g. a
            /// rejection-only overload run) — callers must not read that as
            /// "p99 = 0" — or when the interpolated value is not finite.
            pub fn latency_quantile(&self, q: f64) -> Option<f64> {
                let sorted = self.latencies_sorted();
                if sorted.is_empty() {
                    return None;
                }
                let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let v = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
                v.is_finite().then_some(v)
            }

            /// Completed requests per virtual second.
            pub fn throughput(&self) -> f64 {
                if self.makespan > 0.0 {
                    self.completions.len() as f64 / self.makespan
                } else {
                    0.0
                }
            }
        }
    };
}
pub(crate) use latency_report;

latency_report!(RunReport);

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_latencies(lat: &[f64]) -> RunReport {
        let completions = lat
            .iter()
            .enumerate()
            .map(|(i, &l)| Completion {
                index: i,
                arrival: 0.0,
                dispatch: 0.0,
                finish: l,
                batch_size: 1,
                elems: 1,
                crc: 0,
            })
            .collect();
        RunReport { completions, rejections: Vec::new(), busy_seconds: 0.0, makespan: 1.0 }
    }

    #[test]
    fn latency_quantile_is_none_on_zero_samples() {
        let r = report_with_latencies(&[]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(r.latency_quantile(q), None, "empty set has no quantile");
        }
    }

    #[test]
    fn latency_quantile_one_sample_is_that_sample_at_every_q() {
        let r = report_with_latencies(&[0.25]);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(r.latency_quantile(q), Some(0.25));
        }
    }

    #[test]
    fn latency_quantile_two_samples_interpolates_linearly() {
        let r = report_with_latencies(&[1.0, 3.0]);
        assert_eq!(r.latency_quantile(0.0), Some(1.0));
        assert_eq!(r.latency_quantile(1.0), Some(3.0));
        // Nearest-rank would snap to a sample; the median must now be the
        // midpoint, and p75 three quarters of the way up.
        assert_eq!(r.latency_quantile(0.5), Some(2.0));
        assert_eq!(r.latency_quantile(0.75), Some(2.5));
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(r.latency_quantile(-1.0), Some(1.0));
        assert_eq!(r.latency_quantile(7.0), Some(3.0));
    }

    #[test]
    fn latency_quantile_rejects_non_finite_interpolants() {
        let r = report_with_latencies(&[1.0, f64::INFINITY]);
        assert_eq!(r.latency_quantile(1.0), None, "infinite sample is not a quantile");
        assert_eq!(r.latency_quantile(0.0), Some(1.0));
    }
}
