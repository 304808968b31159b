//! Property tests for live store hot-swap.
//!
//! Two load-bearing guarantees, checked over random layouts and traces:
//!
//! 1. **No-op swap bit-identity** — republishing the *same* decomposition
//!    mid-trace changes nothing: every query completes with exactly the
//!    CRC a swap-free run produces, zero queries are lost, and the tier's
//!    generation still advances.
//! 2. **Real append locality** — after an append-mode update (new rows
//!    extended onto the time factor; old factor rows and the core are
//!    bit-preserved by construction, see `tucker_stream`), every query
//!    confined to pre-existing rows is served bit-identically to the
//!    pre-update store, while the appended rows become servable.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tucker_mpisim::FaultPlan;
use tucker_serve::workload::{synthetic_store, synthetic_trace, WorkloadConfig};
use tucker_serve::{
    Engine, EngineConfig, Priority, Query, Request, Router, RunConfig, ShardMap, StoreUpdate,
    TierRunConfig, TuckerStore,
};
use tucker_stream::{StreamConfig, StreamState};
use tucker_core::SthosvdConfig;
use tucker_tensor::Tensor;

fn workload(d0: usize, d1: usize, d2: usize, requests: usize, seed: u64) -> WorkloadConfig {
    let rank = |d: usize| (d / 2).clamp(2, 6);
    WorkloadConfig {
        dims: vec![d0, d1, d2],
        ranks: vec![rank(d0), rank(d1), rank(d2)],
        requests,
        seed,
        ..WorkloadConfig::default()
    }
}

/// A smooth low-rank field: histories and the slabs appended to them are
/// slices of it.
fn smooth(i: &[usize]) -> f64 {
    (0.4 * i[0] as f64).sin() * (0.3 * i[1] as f64).cos() + 0.5 * (0.2 * (i[1] + i[2]) as f64).sin()
}

/// Per-request CRCs from a swap-free tier run over the same layout.
fn tier_crcs(
    tucker: &tucker_core::TuckerTensor<f64>,
    trace: &[Request],
    shards: usize,
    replicas: usize,
) -> BTreeMap<usize, u32> {
    let mut router =
        Router::new(tucker, shards, replicas, EngineConfig::default(), &FaultPlan::none());
    let report = router.run(trace, &TierRunConfig::default());
    assert!(report.failures.is_empty() && report.rejections.is_empty());
    report.completions.iter().map(|c| (c.index, c.crc)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Republishing the identical decomposition mid-trace is invisible to
    /// every answer, and no query is lost across the swap.
    #[test]
    fn noop_update_is_bit_invisible(
        (d0, d1, d2, seed, shards, replicas) in
            (8usize..24, 6usize..14, 5usize..10, 0u64..1 << 48, 1usize..4, 1usize..3)
    ) {
        let shards = shards.min(d0);
        let wl = workload(d0, d1, d2, 24, seed);
        let trace = synthetic_trace(&wl);
        let tucker = synthetic_store::<f64>(&wl.dims, &wl.ranks);
        let truth = tier_crcs(&tucker, &trace, shards, replicas);

        let mid = trace[trace.len() / 2].arrival;
        let updates =
            vec![StoreUpdate { at: mid, tucker: tucker.clone(), generation: 1 }];
        let mut router =
            Router::new(&tucker, shards, replicas, EngineConfig::default(), &FaultPlan::none());
        let report = router.run_with_updates(&trace, &TierRunConfig::default(), &updates);

        prop_assert!(report.failures.is_empty() && report.rejections.is_empty());
        prop_assert_eq!(report.completions.len(), trace.len(), "zero queries lost");
        for c in &report.completions {
            prop_assert_eq!(c.crc, truth[&c.index], "request {} diverged", c.index);
            prop_assert!(c.generation <= 1);
        }
        prop_assert_eq!(router.tier().generation(), 1, "swap must have landed");
        // Dispatch order follows arrivals, so generations are monotone in
        // dispatch time: once the swap lands no later dispatch sees gen 0.
        let mut by_dispatch: Vec<_> = report.completions.iter().collect();
        by_dispatch.sort_by(|a, b| a.dispatch.partial_cmp(&b.dispatch).unwrap());
        let gens: Vec<u64> = by_dispatch.iter().map(|c| c.generation).collect();
        prop_assert!(gens.windows(2).all(|w| w[0] <= w[1]), "generations {gens:?}");
    }

    /// An append-mode update only changes what it appended: queries over
    /// pre-existing rows are bit-identical across the swap, and the new
    /// rows become servable at the bumped generation.
    #[test]
    fn real_append_changes_only_intersecting_slabs(
        (d0, d1, d2, grow) in (6usize..14, 5usize..10, 4usize..8, 1usize..4),
        (shards, replicas, seed) in (1usize..4, 1usize..3, 0u64..1 << 48),
    ) {
        let shards = shards.min(d0);
        // A smooth low-rank history plus a same-model appended slab.
        let f = smooth;
        let x: Tensor<f64> = Tensor::from_fn(&[d0, d1, d2], f);
        let ranks = vec![3.min(d0), 3.min(d1), 3.min(d2)];
        let cfg = StreamConfig::new(0, SthosvdConfig::with_ranks(ranks));
        let mut state = StreamState::from_initial(&x, cfg).unwrap();
        let old = state.tucker().clone();
        let slab = Tensor::from_fn(&[grow, d1, d2], |i| f(&[i[0] + d0, i[1], i[2]]));
        let rep = state.append_extend(&slab).unwrap();
        let new = state.tucker().clone();
        prop_assert_eq!(new.original_dims(), vec![d0 + grow, d1, d2]);

        let wl = workload(d0, d1, d2, 20, seed);
        let trace = synthetic_trace(&wl); // selections stay within old rows
        let truth = tier_crcs(&old, &trace, shards, replicas);

        let mid = trace[trace.len() / 2].arrival;
        let updates =
            vec![StoreUpdate { at: mid, tucker: new, generation: rep.generation }];
        let mut router =
            Router::new(&old, shards, replicas, EngineConfig::default(), &FaultPlan::none());
        let report = router.run_with_updates(&trace, &TierRunConfig::default(), &updates);

        prop_assert!(report.failures.is_empty() && report.rejections.is_empty());
        prop_assert_eq!(report.completions.len(), trace.len(), "zero queries lost");
        for c in &report.completions {
            // Old rows reconstruct from bit-identical factors and core, so
            // even queries served *after* the swap keep their exact bits.
            prop_assert_eq!(c.crc, truth[&c.index], "request {} diverged", c.index);
        }
        prop_assert_eq!(router.tier().generation(), rep.generation);

        // The appended rows exist only at the new generation and serve.
        let probe = Request {
            arrival: 0.0,
            query: Query::parse(&format!("{}:{},0,0", d0, d0 + grow)).unwrap(),
            tenant: 0,
            priority: Priority::High,
        };
        let after = router.run(&[probe], &TierRunConfig::default());
        prop_assert!(after.failures.is_empty());
        prop_assert_eq!(after.completions.len(), 1);
        prop_assert_eq!(after.completions[0].elems, grow);
        prop_assert_eq!(after.completions[0].generation, rep.generation);
    }
}

/// A swap re-shards mode 0, so the replica that will serve the queue's head
/// can change at the very event the swap lands on. The head is paced by the
/// layout it is served under: on a backed-up one-replica-per-shard tier
/// every query dispatches exactly when the previous query on its shard
/// finishes — not earlier, and not held back by the shard it used to live on.
#[test]
fn dispatch_at_a_swap_is_paced_by_the_new_shard_layout() {
    let rows = 40;
    let old = synthetic_store::<f64>(&[rows, 24, 20], &[10, 8, 6]);
    let new = synthetic_store::<f64>(&[2 * rows, 24, 20], &[10, 8, 6]);
    // Single-row queries hopping across the old shard boundaries, arriving
    // far faster than they are served, so the replica clocks pace dispatch.
    let row_of = |index: usize| index * 7 % rows;
    let trace: Vec<Request> = (0..60)
        .map(|i| {
            let q = Query::parse(&format!("{},*,{}", row_of(i), i % 20)).unwrap();
            Request::new(i as f64 * 2e-6, q)
        })
        .collect();
    for (shards, swap_after) in [(2, 10), (2, 25), (3, 10), (3, 40)] {
        let updates = vec![StoreUpdate {
            at: trace[swap_after].arrival + 1e-7,
            tucker: new.clone(),
            generation: 1,
        }];
        let mut router = Router::new(&old, shards, 1, EngineConfig::default(), &FaultPlan::none());
        let report = router.run_with_updates(&trace, &TierRunConfig::default(), &updates);
        assert_eq!(report.completions.len(), trace.len());
        // FIFO dispatch: submission order is dispatch order.
        let mut free = vec![0.0f64; shards];
        for c in &report.completions {
            let served_rows = if c.generation == 0 { rows } else { 2 * rows };
            let shard = ShardMap::new(served_rows, shards).owner(row_of(c.index));
            assert_eq!(
                c.dispatch,
                free[shard].max(c.arrival),
                "{shards} shards, swap after #{swap_after}: request {} on shard {shard}",
                c.index
            );
            free[shard] = c.finish;
        }
    }
}

/// A hot-swap landing while a replica crashes: on a 2 × 2 tier whose world
/// rank 1 dies at its third operation, a *different* decomposition (the
/// streamed history after one appended slab) is installed at the median
/// arrival. Nothing is lost, and every answer is bit-identical to an
/// unsharded engine holding the generation that served it.
#[test]
fn swap_during_a_replica_crash_loses_and_corrupts_nothing() {
    let (t0, grow, d1, d2) = (24usize, 8usize, 14usize, 12usize);
    let f = smooth;
    let x0: Tensor<f64> = Tensor::from_fn(&[t0, d1, d2], f);
    let ranks = vec![3, 3, 3];
    let cfg = StreamConfig::new(0, SthosvdConfig::with_ranks(ranks.clone()));
    let mut state = StreamState::from_initial(&x0, cfg).unwrap();
    let old = state.tucker().clone();
    let slab = Tensor::from_fn(&[grow, d1, d2], |i| f(&[i[0] + t0, i[1], i[2]]));
    let generation = state.append(&slab).unwrap().generation;
    assert_eq!(generation, 1);
    let new = state.into_tucker();
    assert_ne!(old.core.data(), new.core.data(), "the append must change the decomposition");

    // Queries stay within the old rows, so both generations can answer them.
    let wl = WorkloadConfig { dims: vec![t0, d1, d2], ranks, requests: 120, ..WorkloadConfig::default() };
    let trace = synthetic_trace(&wl);
    let truth = |tk: &tucker_core::TuckerTensor<f64>, generation: u64| -> BTreeMap<usize, u32> {
        let store = TuckerStore::from_tucker_generation(tk.clone(), generation);
        let report = Engine::new(store, EngineConfig::default())
            .run(&trace, &RunConfig::default())
            .expect("baseline run");
        assert_eq!(report.completions.len(), trace.len(), "baseline drops nothing");
        report.completions.iter().map(|c| (c.index, c.crc)).collect()
    };
    let by_generation = [truth(&old, 0), truth(&new, 1)];

    let plan = FaultPlan::new().crash(1, 2);
    let mut router = Router::new(&old, 2, 2, EngineConfig::default(), &plan);
    let updates = [StoreUpdate { at: trace[trace.len() / 2].arrival, tucker: new, generation }];
    let report = router.run_with_updates(&trace, &TierRunConfig::default(), &updates);

    assert!(report.failures.is_empty() && report.rejections.is_empty());
    assert_eq!(report.completions.len(), trace.len(), "zero queries lost");
    let mut served = [0usize; 2];
    for c in &report.completions {
        served[c.generation as usize] += 1;
        assert_eq!(
            by_generation[c.generation as usize][&c.index], c.crc,
            "request {} diverged from generation {}", c.index, c.generation
        );
    }
    assert!(served[0] > 0 && served[1] > 0, "swap not mid-trace: {served:?}");
    assert!(report.completions.iter().any(|c| c.failovers > 0), "the crash must force a failover");
    assert_eq!(router.tier().generation(), 1);
    assert_eq!(router.tier().registry().crashed_ranks(), vec![1]);
}
