//! The deterministic serving harness behind `tucker serve-bench` and
//! `tucker slo-report`: naive-vs-batched serving, the replicated tier under
//! failover, and the shared tier workload, on a seeded synthetic trace in
//! virtual time. `tests/serve_fixtures.rs` pins the full-size records byte
//! for byte.
//!
//! [`run_serve_bench`] makes three runs over the same request trace:
//!
//! 1. **naive** — cache off, batch limit 1: every query contracts its own
//!    mode-0 partial.
//! 2. **batched** — cache on, batching on: partials are computed once per
//!    aligned block and shared across the batch and the cache.
//! 3. **overload** — batched config squeezed through one worker and a tiny
//!    admission queue: exercises typed [`ServeError::Overloaded`]
//!    rejections (none of which may corrupt admitted results).
//!
//! Every admitted request's result is CRC-fingerprinted; the naive and
//! batched fingerprints must agree request-for-request (the batched path is
//! bit-identical by design), and the overload run's completions must be a
//! CRC-subset of the batched ones. All clocks are modeled
//! ([`CostModel`](tucker_mpisim::CostModel)), so the emitted numbers are
//! machine-independent.

use std::collections::BTreeMap;
use tucker_mpisim::FaultPlan;
use tucker_serve::{
    assign_tenants, synthetic_store, synthetic_trace, Engine, EngineConfig, ObsConfig, Request,
    Router, RunConfig, RunReport, ServeError, TierReport, TierRunConfig, TuckerStore,
    WorkloadConfig,
};

/// The workload every harness here runs: the [`WorkloadConfig`] default, or
/// — `quick`, for CI smoke runs — `48×40×36` at ranks `12×10×9` with 120
/// requests.
fn bench_workload(quick: bool) -> WorkloadConfig {
    if quick {
        WorkloadConfig {
            dims: vec![48, 40, 36],
            ranks: vec![12, 10, 9],
            requests: 120,
            ..WorkloadConfig::default()
        }
    } else {
        WorkloadConfig::default()
    }
}

/// Shape of the store every harness here serves, for callers that size a
/// tier against it before asking for one.
pub fn bench_dims(quick: bool) -> Vec<usize> {
    bench_workload(quick).dims
}

/// Comma-joined integers for the JSON records' array fields.
fn ints(v: &[usize]) -> String {
    v.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(",")
}

/// Everything the `serve-bench` record holds.
#[derive(Clone, Debug)]
pub struct ServeBenchResult {
    /// Synthetic tensor dimensions.
    pub shape: Vec<usize>,
    /// Stored ranks.
    pub ranks: Vec<usize>,
    /// Requests in the trace.
    pub queries: usize,
    /// Worker-busy seconds, naive run.
    pub naive_busy_s: f64,
    /// Worker-busy seconds, batched run.
    pub batched_busy_s: f64,
    /// `naive_busy_s / batched_busy_s` — the gated number.
    pub speedup: f64,
    /// Median end-to-end modeled latency, batched run, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile modeled latency, batched run, milliseconds.
    pub p99_ms: f64,
    /// Completed queries per modeled second, batched run.
    pub throughput_qps: f64,
    /// Mean batch size in the batched run.
    pub mean_batch: f64,
    /// Cache hits in the batched run.
    pub cache_hits: u64,
    /// Cache misses in the batched run.
    pub cache_misses: u64,
    /// Admitted-and-completed requests in the overload run.
    pub overload_completed: usize,
    /// Typed `Overloaded` rejections in the overload run.
    pub overload_rejected: usize,
}

impl ServeBenchResult {
    /// Deterministic JSON (keys in fixed order).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"bench\":\"serve\",\"shape\":[{shape}],\"ranks\":[{ranks}],",
                "\"queries\":{queries},\"naive_busy_s\":{naive:.9},",
                "\"batched_busy_s\":{batched:.9},\"speedup\":{speedup:.4},",
                "\"p50_ms\":{p50:.6},\"p99_ms\":{p99:.6},",
                "\"throughput_qps\":{qps:.3},\"mean_batch\":{mb:.4},",
                "\"cache_hits\":{hits},\"cache_misses\":{misses},",
                "\"overload_completed\":{oc},\"overload_rejected\":{or}}}"
            ),
            shape = ints(&self.shape),
            ranks = ints(&self.ranks),
            queries = self.queries,
            naive = self.naive_busy_s,
            batched = self.batched_busy_s,
            speedup = self.speedup,
            p50 = self.p50_ms,
            p99 = self.p99_ms,
            qps = self.throughput_qps,
            mb = self.mean_batch,
            hits = self.cache_hits,
            misses = self.cache_misses,
            oc = self.overload_completed,
            or = self.overload_rejected,
        )
    }
}

fn crc_by_index(report: &RunReport) -> BTreeMap<usize, u32> {
    report.completions.iter().map(|c| (c.index, c.crc)).collect()
}

/// Run the serving benchmark. `quick` shrinks the store and trace for CI
/// smoke runs; the full configuration backs the committed fixture.
pub fn run_serve_bench(quick: bool) -> Result<ServeBenchResult, ServeError> {
    let wl = bench_workload(quick);
    let trace = synthetic_trace(&wl);
    let tucker = synthetic_store::<f64>(&wl.dims, &wl.ranks);
    // One worker for both strategies: the queue backs up enough for real
    // batches to form, and busy-time is an apples-to-apples compute total.
    let open_queue = RunConfig { workers: 1, queue_capacity: usize::MAX, batch_limit: 16, tenant_quota: None };

    // Naive: cache off, batch of one.
    let mut naive = Engine::new(
        TuckerStore::from_tucker(tucker.clone()),
        EngineConfig { cache_budget: 0, ..EngineConfig::default() },
    );
    let naive_report =
        naive.run(&trace, &RunConfig { batch_limit: 1, ..open_queue })?;
    assert_eq!(naive_report.completions.len(), trace.len(), "open queue drops nothing");

    // Batched: cache + batching on.
    let mut batched =
        Engine::new(TuckerStore::from_tucker(tucker.clone()), EngineConfig::default());
    let batched_report = batched.run(&trace, &open_queue)?;
    assert_eq!(batched_report.completions.len(), trace.len());

    // Bit-identity across strategies: every request's payload CRC agrees.
    let naive_crc = crc_by_index(&naive_report);
    let batched_crc = crc_by_index(&batched_report);
    assert_eq!(naive_crc, batched_crc, "batched results must be bit-identical to naive");

    // Overload: the same queries arriving 50× faster at one worker behind
    // a tiny queue — must reject (typed), never corrupt admitted work.
    let burst: Vec<_> = trace
        .iter()
        .map(|r| Request::new(r.arrival * 0.02, r.query.clone()))
        .collect();
    let mut overload =
        Engine::new(TuckerStore::from_tucker(tucker), EngineConfig::default());
    let overload_report = overload
        .run(&burst, &RunConfig { workers: 1, queue_capacity: 8, batch_limit: 16, tenant_quota: None })?;
    assert_eq!(
        overload_report.completions.len() + overload_report.rejections.len(),
        trace.len(),
        "every request either completes or is rejected"
    );
    for c in &overload_report.completions {
        assert_eq!(batched_crc[&c.index], c.crc, "admitted results survive overload intact");
    }
    for r in &overload_report.rejections {
        assert!(
            matches!(r.error, ServeError::Overloaded { .. }),
            "rejections are typed Overloaded"
        );
    }

    let stats = batched.cache_stats();
    let n = batched_report.completions.len().max(1);
    let mean_batch = batched_report.completions.iter().map(|c| c.batch_size).sum::<usize>()
        as f64
        / n as f64;
    let speedup = naive_report.busy_seconds / batched_report.busy_seconds.max(1e-30);
    Ok(ServeBenchResult {
        shape: wl.dims.clone(),
        ranks: wl.ranks.clone(),
        queries: trace.len(),
        naive_busy_s: naive_report.busy_seconds,
        batched_busy_s: batched_report.busy_seconds,
        speedup,
        // The gate fails loudly if a run somehow completed nothing instead
        // of reporting a bogus p99 = 0.
        p50_ms: batched_report.latency_quantile(0.50).expect("batched run completed requests")
            * 1e3,
        p99_ms: batched_report.latency_quantile(0.99).expect("batched run completed requests")
            * 1e3,
        throughput_qps: batched_report.throughput(),
        mean_batch,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        overload_completed: overload_report.completions.len(),
        overload_rejected: overload_report.rejections.len(),
    })
}

/// Everything the `serve-bench --shards` record holds: the replicated tier under three
/// regimes — healthy, one replica crashed mid-workload, and overload with
/// tenants and priorities.
#[derive(Clone, Debug)]
pub struct FailoverBenchResult {
    /// Synthetic tensor dimensions.
    pub shape: Vec<usize>,
    /// Stored ranks.
    pub ranks: Vec<usize>,
    /// Requests in the trace.
    pub queries: usize,
    /// Mode-0 shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Median latency, healthy tier, milliseconds.
    pub healthy_p50_ms: f64,
    /// 99th-percentile latency, healthy tier, milliseconds.
    pub healthy_p99_ms: f64,
    /// Completed queries per modeled second, healthy tier.
    pub healthy_qps: f64,
    /// Admitted queries lost in the failover run — the headline gate: 0.
    pub failover_lost: usize,
    /// Whether every failover-run result was CRC-equal to the unsharded
    /// engine's answer for the same request.
    pub failover_crc_identical: bool,
    /// Worst failover recovery (finish − first failed attempt), virtual
    /// seconds; 0 when the injected plan never fired.
    pub failover_recovery_vt_s: f64,
    /// Failed attempts that were retried elsewhere in the failover run.
    pub failovers: u64,
    /// World ranks dead at the end of the failover run.
    pub dead_ranks: Vec<usize>,
    /// Completions in the overload run.
    pub overload_completed: usize,
    /// Typed rejections (`Overloaded` + `QuotaExceeded`) in the overload run.
    pub overload_rejected: usize,
    /// Low-priority requests evicted by high-priority arrivals.
    pub overload_shed_low: u64,
    /// Typed per-tenant quota rejections.
    pub overload_quota_rejected: u64,
    /// 99th-percentile latency of *admitted* traffic under overload,
    /// milliseconds — the p99-under-overload gate.
    pub overload_p99_ms: f64,
}

impl FailoverBenchResult {
    /// Deterministic JSON (keys in fixed order).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"bench\":\"failover\",\"shape\":[{shape}],\"ranks\":[{ranks}],",
                "\"queries\":{queries},\"shards\":{shards},\"replicas\":{replicas},",
                "\"healthy_p50_ms\":{hp50:.6},\"healthy_p99_ms\":{hp99:.6},",
                "\"healthy_qps\":{hqps:.3},\"failover_lost\":{lost},",
                "\"failover_crc_identical\":{crc},",
                "\"failover_recovery_vt_s\":{rec:.9},\"failovers\":{fo},",
                "\"dead_ranks\":[{dead}],\"overload_completed\":{oc},",
                "\"overload_rejected\":{or},\"overload_shed_low\":{shed},",
                "\"overload_quota_rejected\":{quota},\"overload_p99_ms\":{op99:.6}}}"
            ),
            shape = ints(&self.shape),
            ranks = ints(&self.ranks),
            queries = self.queries,
            shards = self.shards,
            replicas = self.replicas,
            hp50 = self.healthy_p50_ms,
            hp99 = self.healthy_p99_ms,
            hqps = self.healthy_qps,
            lost = self.failover_lost,
            crc = self.failover_crc_identical,
            rec = self.failover_recovery_vt_s,
            fo = self.failovers,
            dead = ints(&self.dead_ranks),
            oc = self.overload_completed,
            or = self.overload_rejected,
            shed = self.overload_shed_low,
            quota = self.overload_quota_rejected,
            op99 = self.overload_p99_ms,
        )
    }
}

/// Run the replicated-tier benchmark behind `serve-bench --shards`.
///
/// Four runs over the same seeded trace:
///
/// 1. **baseline** — the unsharded engine, for per-request CRC ground truth;
/// 2. **healthy** — the `shards × replicas` tier, fault-free: must complete
///    everything bit-identically;
/// 3. **failover** — the same tier with `plan` armed (default: crash one
///    replica mid-workload): zero admitted queries may be lost and every
///    answer must stay CRC-identical to the baseline;
/// 4. **overload** — the healthy tier fed the trace 50× faster through a
///    tiny queue with per-tenant quotas and a low-priority mix: sheds typed,
///    never corrupts admitted work.
pub fn run_failover_bench(
    quick: bool,
    shards: usize,
    replicas: usize,
    plan: Option<&FaultPlan>,
) -> Result<FailoverBenchResult, ServeError> {
    let wl = bench_workload(quick);
    assert!(shards >= 1 && replicas >= 1, "need at least one shard and replica");
    let trace = synthetic_trace(&wl);
    let tucker = synthetic_store::<f64>(&wl.dims, &wl.ranks);

    // Baseline: per-request CRC ground truth from the unsharded engine.
    let mut single =
        Engine::new(TuckerStore::from_tucker(tucker.clone()), EngineConfig::default());
    let single_report = single.run(&trace, &RunConfig::default())?;
    let baseline = crc_by_index(&single_report);

    // Healthy tier: everything completes, bit-identically.
    let mut healthy =
        Router::new(&tucker, shards, replicas, EngineConfig::default(), &FaultPlan::none());
    let healthy_report = healthy.run(&trace, &TierRunConfig::default());
    assert_eq!(healthy_report.completions.len(), trace.len(), "healthy tier drops nothing");
    assert!(healthy_report.failures.is_empty() && healthy_report.rejections.is_empty());
    for c in &healthy_report.completions {
        assert_eq!(baseline[&c.index], c.crc, "healthy tier must be bit-identical");
    }

    // Failover: kill one replica mid-workload (or run the caller's plan).
    let world = shards * replicas;
    let default_plan = FaultPlan::new().crash(1 % world, 2);
    let plan = plan.unwrap_or(&default_plan);
    let mut faulty = Router::new(&tucker, shards, replicas, EngineConfig::default(), plan);
    let failover_report = faulty.run(&trace, &TierRunConfig::default());
    let failover_lost = trace.len() - failover_report.completions.len();
    let failover_crc_identical =
        failover_report.completions.iter().all(|c| baseline[&c.index] == c.crc);
    let dead_ranks = faulty.tier().registry().crashed_ranks();

    // Overload: 500× faster arrivals, 4 tenants, 30% low-priority traffic,
    // a tiny queue, and per-tenant quotas. The tier has `shards × replicas`
    // workers, so the squeeze is proportionally harder than the
    // single-engine overload run.
    let mut burst: Vec<Request> = trace
        .iter()
        .map(|r| Request::new(r.arrival * 0.002, r.query.clone()))
        .collect();
    assign_tenants(&mut burst, 4, 0.3, wl.seed);
    let mut over =
        Router::new(&tucker, shards, replicas, EngineConfig::default(), &FaultPlan::none());
    let overload_rc =
        TierRunConfig { queue_capacity: 4, tenant_quota: Some(2), ..TierRunConfig::default() };
    let overload_report = over.run(&burst, &overload_rc);
    assert!(overload_report.failures.is_empty(), "a healthy tier cannot fail queries");
    assert_eq!(
        overload_report.completions.len() + overload_report.rejections.len(),
        trace.len(),
        "every request either completes or is rejected typed"
    );
    for c in &overload_report.completions {
        assert_eq!(baseline[&c.index], c.crc, "admitted results survive overload intact");
    }

    let expect = "completed requests exist";
    Ok(FailoverBenchResult {
        shape: wl.dims.clone(),
        ranks: wl.ranks.clone(),
        queries: trace.len(),
        shards,
        replicas,
        healthy_p50_ms: healthy_report.latency_quantile(0.50).expect(expect) * 1e3,
        healthy_p99_ms: healthy_report.latency_quantile(0.99).expect(expect) * 1e3,
        healthy_qps: healthy_report.throughput(),
        failover_lost,
        failover_crc_identical,
        failover_recovery_vt_s: failover_report.failover_recovery_vt.unwrap_or(0.0),
        failovers: failover_report.completions.iter().map(|c| c.failovers as u64).sum(),
        dead_ranks,
        overload_completed: overload_report.completions.len(),
        overload_rejected: overload_report.rejections.len(),
        overload_shed_low: over.metrics().counter("serve/query/shed_low"),
        overload_quota_rejected: over.metrics().counter("serve/query/quota_rejected"),
        overload_p99_ms: overload_report.latency_quantile(0.99).expect(expect) * 1e3,
    })
}

/// Run the failover-bench scenario once on a fresh `shards × replicas`
/// tier with the given observability configuration, returning the router
/// (for its metrics, observer, and trace lanes) alongside the report.
///
/// This is the shared workload behind `serve-bench --trace`, `tucker
/// slo-report`, and `figs overhead_obs`. `plan = None` arms the
/// default mid-workload crash of rank `1 % world` so every artifact
/// produced from this workload contains a real failover story.
pub fn run_tier_workload(
    quick: bool,
    shards: usize,
    replicas: usize,
    plan: Option<&FaultPlan>,
    obs: ObsConfig,
) -> Result<(Router<f64>, TierReport), ServeError> {
    let wl = bench_workload(quick);
    assert!(shards >= 1 && replicas >= 1, "need at least one shard and replica");
    let mut trace = synthetic_trace(&wl);
    assign_tenants(&mut trace, 4, 0.3, wl.seed);
    let tucker = synthetic_store::<f64>(&wl.dims, &wl.ranks);
    let world = shards * replicas;
    let default_plan = FaultPlan::new().crash(1 % world, 2);
    let plan = plan.unwrap_or(&default_plan);
    let mut router = Router::new(&tucker, shards, replicas, EngineConfig::default(), plan);
    router.enable_obs(obs);
    let report = router.run(&trace, &TierRunConfig::default());
    Ok((router, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_hits_the_speedup_gate() {
        let r = run_serve_bench(true).expect("bench runs");
        assert_eq!(r.queries, 120);
        assert!(
            r.speedup >= 2.0,
            "batched serving must be ≥2× naive, got {:.2}×",
            r.speedup
        );
        assert!(r.cache_hits > r.cache_misses, "hot workload should mostly hit");
        assert!(r.overload_rejected > 0, "overload run should shed load");
        assert!(r.p50_ms <= r.p99_ms);
        assert!(r.throughput_qps > 0.0);
    }

    #[test]
    fn quick_failover_bench_loses_nothing_and_recovers() {
        let r = run_failover_bench(true, 2, 2, None).expect("failover bench runs");
        assert_eq!(r.queries, 120);
        assert_eq!(r.failover_lost, 0, "killing 1 of 2 replicas must lose zero queries");
        assert!(r.failover_crc_identical, "failover answers must stay bit-identical");
        assert!(
            r.failover_recovery_vt_s > 0.0 && r.failover_recovery_vt_s.is_finite(),
            "the default plan crashes a replica, so recovery must be measured"
        );
        assert_eq!(r.dead_ranks, vec![1], "exactly the injected victim dies");
        assert!(r.failovers >= 1);
        assert!(r.overload_rejected > 0, "overload must shed load");
        assert!(r.overload_shed_low >= 1, "low-priority traffic sheds first");
        assert!(r.overload_quota_rejected >= 1, "quotas must bite under overload");
        assert!(r.healthy_p50_ms <= r.healthy_p99_ms);
        let j = r.to_json();
        for key in [
            "\"bench\":\"failover\"",
            "\"failover_lost\":0",
            "\"failover_crc_identical\":true",
            "\"failover_recovery_vt_s\":",
            "\"dead_ranks\":[1]",
            "\"overload_p99_ms\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn tier_workload_with_default_plan_tells_a_failover_story() {
        let (router, report) =
            run_tier_workload(true, 2, 2, None, ObsConfig::full()).expect("workload runs");
        assert_eq!(report.completions.len(), 120, "nothing may be lost to the crash");
        assert!(report.completions.iter().any(|c| c.failovers > 0), "crash must force failover");
        let obs = router.observer();
        assert!(obs.span_count() > 0);
        assert!(
            obs.log_lines().iter().any(|l| l.contains("\"event\":\"failover\"")),
            "failover must be logged"
        );
        let traces = obs.snapshot();
        assert_eq!(traces.len(), 5, "4 replica lanes + 1 router lane");
    }

    #[test]
    fn json_round_trips_key_fields() {
        let r = run_serve_bench(true).expect("bench runs");
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"bench\":\"serve\"",
            "\"speedup\":",
            "\"p50_ms\":",
            "\"p99_ms\":",
            "\"overload_rejected\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
