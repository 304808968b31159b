//! Property-based tests of the distributed layer: for random tensor shapes,
//! processor grids and modes, the parallel kernels must reproduce their
//! sequential references exactly (up to roundoff).

use proptest::prelude::*;
use std::time::Duration;
use tucker_rs::dtensor::{
    parallel_gram, parallel_tensor_lq, parallel_ttm, DistTensor, ProcessorGrid, ReductionTree,
};
use tucker_rs::linalg::tslq::TslqOptions;
use tucker_rs::linalg::{gemm_into, syrk_lower, Matrix, Trans};
use tucker_rs::core::{sthosvd_parallel, ModeOrder, SthosvdConfig, SvdMethod};
use tucker_rs::mpisim::{Comm, CostModel, FaultPlan, MpiSimError, SimFailure, Simulator, TraceConfig};
use tucker_rs::tensor::{ttm, Tensor, Unfolding};

/// Strategy: (dims, grid) with 3 modes, small sizes, grid dividing nothing in
/// particular (uneven division exercised on purpose), plus a mode index.
fn shapes() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, usize)> {
    (
        proptest::collection::vec(2usize..7, 3),
        proptest::collection::vec(1usize..4, 3),
        0usize..3,
    )
        .prop_filter("grid no larger than dims per mode", |(dims, grid, _)| {
            dims.iter().zip(grid).all(|(d, g)| g <= d) && grid.iter().product::<usize>() <= 12
        })
}

fn test_tensor(dims: &[usize], seed: u64) -> Tensor<f64> {
    let mut lin = 0usize;
    Tensor::from_fn(dims, |_| {
        lin += 1;
        tucker_rs::data::hash_noise(seed, lin)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scatter_gather_roundtrip((dims, grid, _) in shapes()) {
        let x = test_tensor(&dims, 1);
        let g = ProcessorGrid::new(&grid);
        let p = g.total();
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &g, ctx.rank());
            let mut world = Comm::world(ctx);
            dt.gather(ctx, &mut world)
        });
        for got in out.results {
            prop_assert_eq!(&got, &x);
        }
    }

    #[test]
    fn parallel_gram_matches_sequential((dims, grid, n) in shapes()) {
        let x = test_tensor(&dims, 2);
        let g = ProcessorGrid::new(&grid);
        let p = g.total();
        let want = syrk_lower(Unfolding::new(&x, n).to_matrix().as_ref());
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &g, ctx.rank());
            let mut world = Comm::world(ctx);
            parallel_gram(ctx, &mut world, &dt, n).unwrap()
        });
        for got in out.results {
            prop_assert!(got.max_abs_diff(&want) < 1e-10 * want.max_abs().max(1.0));
        }
    }

    #[test]
    fn parallel_lq_satisfies_gram_invariant((dims, grid, n) in shapes()) {
        let x = test_tensor(&dims, 3);
        let g = ProcessorGrid::new(&grid);
        let p = g.total();
        let want = syrk_lower(Unfolding::new(&x, n).to_matrix().as_ref());
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &g, ctx.rank());
            let mut world = Comm::world(ctx);
            parallel_tensor_lq(ctx, &mut world, &dt, n, ReductionTree::Butterfly, TslqOptions)
                .unwrap()
        });
        let l0 = &out.results[0];
        for l in &out.results {
            // Identical on all ranks (bitwise, required for SPMD rank choices).
            prop_assert_eq!(l, l0);
            let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
            prop_assert!(llt.max_abs_diff(&want) < 1e-9 * want.max_abs().max(1.0));
        }
    }

    #[test]
    fn parallel_ttm_matches_sequential((dims, grid, n) in shapes()) {
        let x = test_tensor(&dims, 4);
        let g = ProcessorGrid::new(&grid);
        let p = g.total();
        let r = dims[n].div_ceil(2);
        let u = Matrix::from_fn(dims[n], r, |i, j| ((i * 3 + j * 5) as f64 * 0.31).sin());
        let want = ttm(&x, n, u.as_ref(), true);
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &g, ctx.rank());
            let y = parallel_ttm(ctx, &dt, n, &u).unwrap();
            let mut world = Comm::world(ctx);
            y.gather(ctx, &mut world)
        });
        for got in out.results {
            prop_assert!(got.max_abs_diff(&want) < 1e-11);
        }
    }

    #[test]
    fn distributed_norm_matches((dims, grid, _) in shapes()) {
        let x = test_tensor(&dims, 5);
        let g = ProcessorGrid::new(&grid);
        let p = g.total();
        let want = x.norm();
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &g, ctx.rank());
            let mut world = Comm::world(ctx);
            dt.norm(ctx, &mut world)
        });
        for got in out.results {
            prop_assert!((got - want).abs() < 1e-11 * want.max(1.0));
        }
    }

    /// The metrics registries only *count*: enabling per-rank metrics
    /// collection must produce bit-identical cores, factors, and error
    /// estimates to a metrics-off run, for arbitrary grids and every SVD
    /// method (the counters never touch the data path, and the kernel
    /// collector in `tucker-linalg` only reads sizes).
    #[test]
    fn metrics_do_not_perturb_results(
        (dims, grid, _) in shapes(),
        seed in 0u64..1000,
        method_sel in 0usize..3,
    ) {
        let x = test_tensor(&dims, seed);
        let method = match method_sel {
            0 => SvdMethod::Qr,
            1 => SvdMethod::Gram,
            _ => SvdMethod::GramMixed,
        };
        let ranks: Vec<usize> = dims.iter().map(|&d| d.div_ceil(2)).collect();
        let cfg = SthosvdConfig::with_ranks(ranks).method(method);
        let p: usize = grid.iter().product();
        let run = |metrics: bool| {
            Simulator::new(p)
                .with_cost(CostModel::andes())
                .with_metrics(metrics)
                .run(|ctx| sthosvd_bits(ctx, &x, &grid, &cfg).unwrap())
                .results
        };
        let plain = run(false);
        let metered = run(true);
        prop_assert_eq!(plain, metered, "metrics collection changed numerical results");
    }

    /// The observability layer only *records*: running the full parallel
    /// ST-HOSVD with tracing + collective validation + watchdog armed must
    /// produce bit-identical cores, factors, and error estimates to a
    /// tracing-off run, for arbitrary grids and every SVD method.
    #[test]
    fn tracing_does_not_perturb_results(
        (dims, grid, _) in shapes(),
        seed in 0u64..1000,
        method_sel in 0usize..3,
    ) {
        let x = test_tensor(&dims, seed);
        let method = match method_sel {
            0 => SvdMethod::Qr,
            1 => SvdMethod::Gram,
            _ => SvdMethod::GramMixed,
        };
        let ranks: Vec<usize> = dims.iter().map(|&d| d.div_ceil(2)).collect();
        let cfg = SthosvdConfig::with_ranks(ranks).method(method).order(ModeOrder::Backward);
        let run = |trace: Option<TraceConfig>| {
            let p: usize = grid.iter().product();
            let mut sim = Simulator::new(p).with_cost(CostModel::andes());
            if let Some(tc) = trace {
                sim = sim.with_trace(tc);
            }
            let out = sim.run(|ctx| {
                let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&grid), ctx.rank());
                let po = sthosvd_parallel(ctx, &dt, &cfg).unwrap();
                let mut bits: Vec<u64> =
                    po.core.local().data().iter().map(|v| v.to_bits()).collect();
                for f in &po.factors {
                    bits.extend(f.data().iter().map(|v| v.to_bits()));
                }
                bits.push(po.estimated_error.to_bits());
                bits
            });
            out.results
        };
        let plain = run(None);
        let traced = run(Some(TraceConfig::validating()));
        prop_assert_eq!(plain, traced, "tracing changed numerical results");
    }
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PR3 zero-copy collectives: for any communicator size, payload length
    /// and root, the `Arc`-shared `bcast_shared`/`allgather_shared` must
    /// deliver bit-identical values to the owned (cloning) entry points and
    /// to the independently reconstructed ground truth — sharing the
    /// sender's allocation must be unobservable in the data.
    #[test]
    fn zero_copy_collectives_match_cloning_path(
        p in 1usize..9,
        len in 1usize..17,
        root_sel in 0usize..8,
        seed in 0u64..1000,
    ) {
        let root = root_sel % p;
        let payload = |rank: usize| -> Vec<f64> {
            (0..len).map(|i| tucker_rs::data::hash_noise(seed, rank * len + i + 1)).collect()
        };
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let me = ctx.rank();
            let mine = payload(me);
            let mut world = Comm::world(ctx);
            let owned_b = world.bcast(ctx, root, (me == root).then(|| mine.clone()));
            let shared_b = world.bcast_shared(ctx, root, (me == root).then(|| mine.clone()));
            let owned_g = world.allgather(ctx, mine.clone());
            let shared_g = world.allgather_shared(ctx, mine);
            (owned_b, shared_b, owned_g, shared_g)
        });
        let want_root = bits_of(&payload(root));
        for (owned_b, shared_b, owned_g, shared_g) in out.results {
            prop_assert_eq!(&bits_of(&owned_b), &want_root);
            prop_assert_eq!(&bits_of(&shared_b), &want_root, "shared bcast diverged");
            prop_assert_eq!(owned_g.len(), p);
            prop_assert_eq!(shared_g.len(), p);
            for (rank, (ob, sb)) in owned_g.iter().zip(&shared_g).enumerate() {
                let want = bits_of(&payload(rank));
                prop_assert_eq!(&bits_of(ob), &want);
                prop_assert_eq!(&bits_of(sb), &want, "shared allgather block diverged");
            }
        }
    }
}

/// Bits of a full parallel ST-HOSVD on every rank: core block, factors, and
/// the error estimate — the "did anything change at all" fingerprint.
fn sthosvd_bits(
    ctx: &mut tucker_rs::mpisim::Ctx,
    x: &Tensor<f64>,
    grid: &[usize],
    cfg: &SthosvdConfig,
) -> Result<Vec<u64>, tucker_rs::linalg::LinalgError> {
    let dt = DistTensor::scatter_from(x, &ProcessorGrid::new(grid), ctx.rank());
    let po = sthosvd_parallel(ctx, &dt, cfg)?;
    let mut bits: Vec<u64> = po.core.local().data().iter().map(|v| v.to_bits()).collect();
    for f in &po.factors {
        bits.extend(f.data().iter().map(|v| v.to_bits()));
    }
    bits.push(po.estimated_error.to_bits());
    Ok(bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chaos test of the fault-injection layer: under random deterministic
    /// plans of crashes, message drops and delays, a full parallel ST-HOSVD
    /// must either complete with output bit-identical to the fault-free run
    /// (faults tolerated) or fail with a typed simulator error naming the
    /// fault — never hang (the 5s watchdog would convert a hang into a
    /// Deadlock error, which fails the test) and never silently corrupt.
    #[test]
    fn chaos_faults_never_hang_or_silently_corrupt(
        (dims, grid, _) in shapes(),
        seed in 0u64..1000,
        raw_faults in proptest::collection::vec(
            (0usize..3, 0usize..16, 0u64..300, 1u32..4, 0u64..5),
            0..5,
        ),
    ) {
        let x = test_tensor(&dims, seed);
        let p: usize = grid.iter().product();
        let ranks: Vec<usize> = dims.iter().map(|&d| d.div_ceil(2)).collect();
        let cfg = SthosvdConfig::with_ranks(ranks);

        let mut plan = FaultPlan::new();
        let mut has_crash = false;
        for &(kind, rank, op, times, tenths) in &raw_faults {
            let rank = rank % p;
            plan = match kind {
                0 => {
                    has_crash = true;
                    plan.crash(rank, op)
                }
                1 => plan.drop_msg(rank, op, times),
                _ => plan.delay(rank, op, tenths as f64 * 0.1, Duration::ZERO),
            };
        }

        let reference = Simulator::new(p)
            .with_cost(CostModel::andes())
            .run(|ctx| sthosvd_bits(ctx, &x, &grid, &cfg).unwrap());

        let chaotic = Simulator::new(p)
            .with_cost(CostModel::andes())
            .with_watchdog(Duration::from_secs(5))
            .with_faults(plan)
            .run_result(|ctx| sthosvd_bits(ctx, &x, &grid, &cfg));

        match chaotic {
            Ok(out) => {
                // Tolerated (or never-reached) faults: results must be
                // bit-identical on every rank.
                for (got, want) in out.results.iter().zip(&reference.results) {
                    prop_assert_eq!(got, want, "tolerated faults changed the results");
                }
            }
            Err(SimFailure::Sim(e)) => {
                // Failing is allowed only for the typed fault errors, and
                // only when the plan actually contains a crash (drops here
                // retry fewer than the retransmit budget; delays always
                // deliver).
                prop_assert!(has_crash, "typed failure without a crash in the plan: {e}");
                prop_assert!(
                    matches!(
                        e,
                        MpiSimError::RankCrashed { .. }
                            | MpiSimError::PeerFailed { .. }
                            | MpiSimError::PeerDisconnected { .. }
                    ),
                    "unexpected error class under crash faults: {e}"
                );
            }
            Err(SimFailure::Rank { rank, error, .. }) => {
                panic!("rank {rank} surfaced an algorithm error under comm faults: {error}");
            }
        }
    }
}

/// Metrics are part of the deterministic contract: two identical runs must
/// serialize byte-identical per-rank metrics JSON (counters, modeled-time
/// gauges, and histograms only — wall-clock readings are deliberately
/// excluded from the serialization).
#[test]
fn metrics_json_is_deterministic_across_runs() {
    let dims = [8usize, 8, 8];
    let grid = [2usize, 2, 2];
    let x = test_tensor(&dims, 11);
    let cfg = SthosvdConfig::with_ranks(vec![4, 4, 4]).method(SvdMethod::Qr);
    let run = || {
        let out = Simulator::new(8)
            .with_cost(CostModel::andes())
            .with_metrics(true)
            .run(|ctx| sthosvd_bits(ctx, &x, &grid, &cfg).unwrap());
        let per_rank: Vec<String> = out.metrics.iter().map(|m| m.to_json()).collect();
        (out.results.clone(), per_rank.join(","))
    };
    let (bits_a, json_a) = run();
    let (bits_b, json_b) = run();
    assert_eq!(bits_a, bits_b, "results drifted between identical runs");
    assert_eq!(json_a, json_b, "metrics JSON drifted between identical runs");
    // Sanity: the serialization actually carries the cross-layer families.
    for key in [
        "comm/alltoallv/bytes",
        "comm/p2p/modeled_s",
        "kernel/lq/flops",
        "mem/peak_live_payload_bytes",
        "sthosvd/mode0/retained_rank",
    ] {
        assert!(json_a.contains(key), "metrics JSON missing {key}");
    }
}

/// A metrics-off run must leave no trace of the machinery: the registries
/// vector stays empty and results are bit-identical to a never-configured
/// simulator (the `with_metrics(false)` default path).
#[test]
fn disabled_metrics_run_matches_baseline_bitwise() {
    let dims = [6usize, 5, 4];
    let grid = [2usize, 1, 2];
    let x = test_tensor(&dims, 13);
    let cfg = SthosvdConfig::with_tolerance(1e-2).method(SvdMethod::Gram);
    let baseline = Simulator::new(4)
        .with_cost(CostModel::andes())
        .run(|ctx| sthosvd_bits(ctx, &x, &grid, &cfg).unwrap());
    let disabled = Simulator::new(4)
        .with_cost(CostModel::andes())
        .with_metrics(false)
        .run(|ctx| sthosvd_bits(ctx, &x, &grid, &cfg).unwrap());
    assert!(disabled.metrics.is_empty(), "with_metrics(false) must collect nothing");
    assert_eq!(baseline.results, disabled.results, "disabled metrics changed results");
    assert!(
        (baseline.breakdown().modeled_time - disabled.breakdown().modeled_time).abs() < 1e-15,
        "disabled metrics changed modeled time"
    );
}

/// `with_faults(FaultPlan::none())` must be free: the fault machinery adds
/// zero modeled time and zero numerical perturbation when the plan is empty.
#[test]
fn empty_fault_plan_adds_no_overhead_to_sthosvd() {
    let dims = [6usize, 5, 4];
    let grid = [2usize, 2, 1];
    let x = test_tensor(&dims, 7);
    let cfg = SthosvdConfig::with_tolerance(1e-2).method(SvdMethod::Qr);
    let run = |faults: Option<FaultPlan>| {
        let mut sim = Simulator::new(4).with_cost(CostModel::andes());
        if let Some(fp) = faults {
            sim = sim.with_faults(fp);
        }
        let out = sim.run(|ctx| sthosvd_bits(ctx, &x, &grid, &cfg).unwrap());
        (out.results.clone(), out.breakdown().modeled_time)
    };
    let (plain_bits, plain_time) = run(None);
    let (armed_bits, armed_time) = run(Some(FaultPlan::none()));
    assert_eq!(plain_bits, armed_bits, "empty fault plan changed results");
    assert!(
        (plain_time - armed_time).abs() < 1e-12,
        "empty fault plan changed modeled time: {plain_time} vs {armed_time}"
    );
}
