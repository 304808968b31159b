//! Serving-loop invariants: typed overload rejection with zero lost or
//! corrupted in-flight queries, graceful drain, and corrupted-store
//! rejection at open time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use tucker_core::tucker_io::TuckerIoError;
use tucker_mpisim::FaultPlan;
use tucker_serve::workload::{assign_tenants, synthetic_store, synthetic_trace, WorkloadConfig};
use tucker_serve::{
    Engine, EngineConfig, Request, Router, RunConfig, ServeError, TierRunConfig, TuckerStore,
};

fn small_workload() -> WorkloadConfig {
    WorkloadConfig {
        dims: vec![48, 20, 16],
        ranks: vec![10, 6, 5],
        requests: 160,
        ..WorkloadConfig::default()
    }
}

fn engine_for(wl: &WorkloadConfig) -> Engine<f64> {
    Engine::new(
        TuckerStore::from_tucker(synthetic_store::<f64>(&wl.dims, &wl.ranks)),
        EngineConfig::default(),
    )
}

#[test]
fn overload_rejects_typed_and_preserves_admitted_results() {
    let wl = small_workload();
    let trace = synthetic_trace(&wl);
    // Ground truth CRCs from an uncontended run that admits everything.
    let mut calm = engine_for(&wl);
    let calm_report = calm
        .run(&trace, &RunConfig { workers: 4, queue_capacity: usize::MAX, batch_limit: 8, tenant_quota: None })
        .expect("calm run");
    assert_eq!(calm_report.completions.len(), trace.len());
    assert!(calm_report.rejections.is_empty());
    let truth: BTreeMap<usize, u32> =
        calm_report.completions.iter().map(|c| (c.index, c.crc)).collect();

    // Burst the same queries at one slow worker behind a 4-deep queue.
    let burst: Vec<Request> = trace
        .iter()
        .map(|r| Request::new(r.arrival * 0.01, r.query.clone()))
        .collect();
    let mut hot = engine_for(&wl);
    let report = hot
        .run(&burst, &RunConfig { workers: 1, queue_capacity: 4, batch_limit: 4, tenant_quota: None })
        .expect("overloaded run still completes");

    assert!(!report.rejections.is_empty(), "the burst must overload the queue");
    // Every request is accounted for exactly once: completed or rejected.
    assert_eq!(report.completions.len() + report.rejections.len(), trace.len());
    let mut seen = vec![false; trace.len()];
    for c in &report.completions {
        assert!(!seen[c.index]);
        seen[c.index] = true;
    }
    for r in &report.rejections {
        assert!(!seen[r.index]);
        seen[r.index] = true;
        // Rejections are the typed backpressure error, with real capacity info.
        match &r.error {
            ServeError::Overloaded { queued, capacity } => {
                assert_eq!(*capacity, 4);
                assert!(*queued >= *capacity);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "no request may be silently dropped");
    // Zero corrupted in-flight queries: every admitted result's payload CRC
    // matches the uncontended ground truth.
    for c in &report.completions {
        assert_eq!(truth[&c.index], c.crc, "request {} corrupted under load", c.index);
    }
    // Metrics agree with the report.
    assert_eq!(
        hot.metrics().counter("serve/query/rejected"),
        report.rejections.len() as u64
    );
}

#[test]
fn drain_completes_everything_after_arrivals_stop() {
    let wl = small_workload();
    let trace = synthetic_trace(&wl);
    // All requests arrive at once at a single worker with room to queue:
    // the loop must drain the whole backlog after the last arrival.
    let all_at_once: Vec<Request> =
        trace.iter().map(|r| Request::new(0.0, r.query.clone())).collect();
    let mut engine = engine_for(&wl);
    let report = engine
        .run(&all_at_once, &RunConfig { workers: 1, queue_capacity: usize::MAX, batch_limit: 8, tenant_quota: None })
        .expect("drain run");
    assert!(report.rejections.is_empty());
    assert_eq!(report.completions.len(), trace.len());
    // Virtual time: the worker is busy back-to-back, so the last finish
    // equals total busy time.
    let last = report.completions.iter().map(|c| c.finish).fold(0.0f64, f64::max);
    assert!((last - report.busy_seconds).abs() <= 1e-9 * report.busy_seconds.max(1.0));
    // Batching happened (the trace shares hot blocks heavily).
    assert!(report.completions.iter().any(|c| c.batch_size > 1));
}

#[test]
fn corrupted_store_is_rejected_at_open_with_section_name() {
    static UNIQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "serve-corrupt-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.tkr");
    let tucker = synthetic_store::<f64>(&[12, 10, 8], &[4, 3, 3]);
    tucker_core::write_tucker(&path, &tucker).unwrap();

    // Pristine file opens and serves.
    assert!(TuckerStore::<f64>::open(&path).is_ok());

    // Flip one byte deep in the payload region: open must fail with a typed
    // checksum error naming a section — never a panic or silent garbage.
    let mut bytes = std::fs::read(&path).unwrap();
    let victim = bytes.len() - 17;
    bytes[victim] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match TuckerStore::<f64>::open(&path) {
        Err(ServeError::Io(TuckerIoError::ChecksumMismatch { section, stored, computed })) => {
            assert_ne!(stored, computed);
            let name = section.to_string();
            assert!(!name.is_empty(), "section must be nameable: {name}");
        }
        Err(other) => panic!("expected ChecksumMismatch, got {other}"),
        Ok(_) => panic!("corrupted store must not open"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_queue_run_matches_direct_execution() {
    // The serving loop is a scheduler, not a transformer: results must be
    // exactly what Engine::execute returns for each query.
    let wl = WorkloadConfig { requests: 40, ..small_workload() };
    let trace = synthetic_trace(&wl);
    let mut served = engine_for(&wl);
    let report = served
        .run(&trace, &RunConfig { workers: 2, queue_capacity: usize::MAX, batch_limit: 6, tenant_quota: None })
        .expect("run");
    let mut direct = engine_for(&wl);
    for c in &report.completions {
        let out = direct.execute(&trace[c.index].query).expect("direct");
        assert_eq!(tucker_serve::tensor_crc(&out.tensor), c.crc);
        assert_eq!(out.tensor.len(), c.elems);
    }
}

/// The tier's admission policy and event order are the engine's: a healthy
/// 1×1 tier and a one-worker, unbatched engine produce the same virtual
/// timeline bit for bit, with or without pressure on the queue.
/// (`busy_seconds` is not compared: the engine sums service times, the tier
/// sums `finish − start`, equal only to rounding.)
#[test]
fn one_by_one_tier_is_the_single_engine() {
    let wl = WorkloadConfig {
        dims: vec![40, 24, 20],
        ranks: vec![10, 8, 6],
        requests: 200,
        ..WorkloadConfig::default()
    };
    let tucker = synthetic_store::<f64>(&wl.dims, &wl.ranks);
    let mut base = synthetic_trace(&wl);
    assign_tenants(&mut base, 4, 0.3, 7);
    // (queue capacity, tenant quota, arrival scale, cache on)
    let settings = [
        (usize::MAX, None, 1.0, true),
        (usize::MAX, None, 1.0, false),
        (4, Some(2), 0.002, true),
        (8, None, 0.02, true),
        (3, Some(1), 0.0005, false),
    ];
    let (mut quota_rejected, mut shed_low) = (0, 0);
    for (queue_capacity, tenant_quota, scale, cache) in settings {
        let what =
            format!("capacity {queue_capacity} quota {tenant_quota:?} x{scale} cache {cache}");
        let trace: Vec<Request> =
            base.iter().map(|r| Request { arrival: r.arrival * scale, ..r.clone() }).collect();
        let cfg = EngineConfig {
            cache_budget: if cache { EngineConfig::default().cache_budget } else { 0 },
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(TuckerStore::from_tucker(tucker.clone()), cfg.clone());
        let e = engine
            .run(&trace, &RunConfig { workers: 1, batch_limit: 1, queue_capacity, tenant_quota })
            .expect("engine run");
        let mut router = Router::new(&tucker, 1, 1, cfg, &FaultPlan::none());
        let t = router.run(
            &trace,
            &TierRunConfig { queue_capacity, tenant_quota, ..TierRunConfig::default() },
        );

        assert!(t.failures.is_empty(), "{what}: a healthy tier fails nothing");
        assert_eq!(e.completions.len() + e.rejections.len(), trace.len(), "{what}");
        let timeline = |index: usize, crc: u32, dispatch: f64, finish: f64| {
            (index, crc, dispatch.to_bits(), finish.to_bits())
        };
        let engine_done: Vec<_> =
            e.completions.iter().map(|c| timeline(c.index, c.crc, c.dispatch, c.finish)).collect();
        let tier_done: Vec<_> =
            t.completions.iter().map(|c| timeline(c.index, c.crc, c.dispatch, c.finish)).collect();
        assert_eq!(engine_done, tier_done, "{what}: completions");
        let engine_rejected: Vec<_> =
            e.rejections.iter().map(|r| (r.index, r.error.to_string())).collect();
        let tier_rejected: Vec<_> =
            t.rejections.iter().map(|r| (r.index, r.error.to_string())).collect();
        assert_eq!(engine_rejected, tier_rejected, "{what}: rejections");
        assert_eq!(e.makespan.to_bits(), t.makespan.to_bits(), "{what}: makespan");
        for counter in
            ["serve/query/rejected", "serve/query/quota_rejected", "serve/query/shed_low"]
        {
            assert_eq!(
                engine.metrics().counter(counter),
                router.metrics().counter(counter),
                "{what}: {counter}"
            );
        }
        quota_rejected += engine.metrics().counter("serve/query/quota_rejected");
        shed_low += engine.metrics().counter("serve/query/shed_low");
    }
    assert!(quota_rejected > 0 && shed_low > 0, "the squeezed settings must reach every arm");
}
