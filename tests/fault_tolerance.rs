//! End-to-end fault tolerance: checkpoint/restart of the parallel ST-HOSVD
//! under injected rank crashes, and detection of in-transit corruption.
//!
//! The contract under test is the strongest one the design makes: a run that
//! crashes, is restarted with `--resume`, and completes must produce output
//! **bit-identical** to a run that never crashed.

use std::path::PathBuf;
use std::time::Duration;
use tucker_rs::core::checkpoint::{latest_step, save_step};
use tucker_rs::core::{
    sthosvd_parallel, sthosvd_parallel_checkpointed, CheckpointOptions, DistBackend, HosvdState,
    SthosvdConfig, SvdMethod,
};
use tucker_rs::dtensor::{DistTensor, ProcessorGrid};
use tucker_rs::linalg::LinalgError;
use tucker_rs::mpisim::{Comm, CostModel, Ctx, FaultPlan, MpiSimError, SimFailure, Simulator};
use tucker_rs::tensor::Tensor;

const DIMS: [usize; 3] = [6, 5, 4];
const GRID: [usize; 3] = [2, 2, 1];

fn test_tensor() -> Tensor<f64> {
    let mut lin = 0usize;
    Tensor::from_fn(&DIMS, |_| {
        lin += 1;
        tucker_rs::data::hash_noise(11, lin)
    })
}

fn config() -> SthosvdConfig {
    SthosvdConfig::with_tolerance(1e-3).method(SvdMethod::Qr)
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tucker_ft_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Full-output fingerprint: core block bits, factor bits, error estimate.
fn bits_of(ctx: &mut Ctx, po: &tucker_rs::core::ParallelOutput<f64>) -> Vec<u64> {
    let _ = ctx;
    let mut bits: Vec<u64> = po.core.local().data().iter().map(|v| v.to_bits()).collect();
    for f in &po.factors {
        bits.extend(f.data().iter().map(|v| v.to_bits()));
    }
    bits.push(po.estimated_error.to_bits());
    bits
}

fn reference_bits(x: &Tensor<f64>, cfg: &SthosvdConfig) -> Vec<Vec<u64>> {
    Simulator::new(4)
        .with_cost(CostModel::andes())
        .run(|ctx| {
            let dt = DistTensor::scatter_from(x, &ProcessorGrid::new(&GRID), ctx.rank());
            let po = sthosvd_parallel(ctx, &dt, cfg).unwrap();
            bits_of(ctx, &po)
        })
        .results
}

#[test]
fn checkpointed_fresh_run_is_bit_identical_and_commits_every_mode() {
    let x = test_tensor();
    let cfg = config();
    let dir = tmp_dir("fresh");
    let want = reference_bits(&x, &cfg);

    let out = Simulator::new(4).with_cost(CostModel::andes()).run(|ctx| {
        let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&GRID), ctx.rank());
        let opts = CheckpointOptions::new(&dir);
        let po = sthosvd_parallel_checkpointed(ctx, &dt, &cfg, &opts).unwrap();
        bits_of(ctx, &po)
    });
    assert_eq!(out.results, want, "checkpointing changed the results");

    // One committed step per mode, and per-rank files for each.
    assert_eq!(latest_step(&dir).unwrap(), Some(DIMS.len()));
    for step in 1..=DIMS.len() {
        assert!(dir.join(format!("step{step}.commit")).exists(), "missing commit {step}");
        for rank in 0..4 {
            assert!(
                dir.join(format!("step{step}.rank{rank}.tkcp")).exists(),
                "missing rank file {step}/{rank}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_then_resume_is_bit_identical_to_uninterrupted() {
    let x = test_tensor();
    let cfg = config();
    let want = reference_bits(&x, &cfg);

    // Probe 1: per-rank op count at the moment the first checkpoint commits.
    let probe1 = tmp_dir("probe1");
    let first_commit_ops = Simulator::new(4)
        .with_cost(CostModel::andes())
        .run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&GRID), ctx.rank());
            let mut world = Comm::world(ctx);
            let mut state =
                HosvdState::init(&mut DistBackend { ctx, world: &mut world }, &dt, &cfg).unwrap();
            state.step(&mut DistBackend { ctx, world: &mut world }, &dt, &cfg).unwrap();
            save_step(ctx, &mut world, &probe1, &state).unwrap();
            ctx.op_index()
        })
        .results;
    std::fs::remove_dir_all(&probe1).unwrap();

    // Probe 2: per-rank op count of a complete checkpointed run.
    let probe2 = tmp_dir("probe2");
    let total_ops = Simulator::new(4)
        .with_cost(CostModel::andes())
        .run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&GRID), ctx.rank());
            let opts = CheckpointOptions::new(&probe2);
            sthosvd_parallel_checkpointed(ctx, &dt, &cfg, &opts).unwrap();
            ctx.op_index()
        })
        .results;
    std::fs::remove_dir_all(&probe2).unwrap();

    // Crash rank 1 midway between its first commit and the end of the run:
    // at least one committed step exists, and at least one mode is missing.
    let victim = 1usize;
    let crash_op = (first_commit_ops[victim] + total_ops[victim]) / 2;
    assert!(crash_op > first_commit_ops[victim] && crash_op < total_ops[victim]);

    let dir = tmp_dir("crash");
    let failure = Simulator::new(4)
        .with_cost(CostModel::andes())
        .with_watchdog(Duration::from_secs(5))
        .with_faults(FaultPlan::new().crash(victim, crash_op))
        .run_result(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&GRID), ctx.rank());
            let opts = CheckpointOptions::new(&dir);
            sthosvd_parallel_checkpointed(ctx, &dt, &cfg, &opts).map(|po| bits_of(ctx, &po))
        })
        .unwrap_err();
    match failure {
        SimFailure::Sim(MpiSimError::RankCrashed { rank, .. }) => assert_eq!(rank, victim),
        other => panic!("expected RankCrashed({victim}), got {other}"),
    }

    // The crash happened after at least one two-phase commit...
    let committed = latest_step(&dir).unwrap().expect("no committed step before the crash");
    assert!((1..DIMS.len()).contains(&committed), "crash should interrupt mid-run: {committed}");

    // ...so the resumed run starts from that step and must land on the exact
    // bits of the uninterrupted reference.
    let resumed = Simulator::new(4).with_cost(CostModel::andes()).run(|ctx| {
        let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&GRID), ctx.rank());
        let opts = CheckpointOptions::new(&dir).resume(true);
        let po = sthosvd_parallel_checkpointed(ctx, &dt, &cfg, &opts).unwrap();
        bits_of(ctx, &po)
    });
    assert_eq!(resumed.results, want, "resumed run differs from the uninterrupted one");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_without_checkpoints_behaves_like_a_fresh_run() {
    let x = test_tensor();
    let cfg = config();
    let want = reference_bits(&x, &cfg);
    let dir = tmp_dir("empty_resume");
    let out = Simulator::new(4).with_cost(CostModel::andes()).run(|ctx| {
        let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&GRID), ctx.rank());
        let opts = CheckpointOptions::new(&dir).resume(true);
        let po = sthosvd_parallel_checkpointed(ctx, &dt, &cfg, &opts).unwrap();
        bits_of(ctx, &po)
    });
    assert_eq!(out.results, want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// In-transit bit-flips: scan the early send ops of rank 1 with an
/// exponent-bit corruption. Payload values are kept in `[1, 2)` so a flip of
/// bit 62 of a raw tensor element is non-finite by construction; the run
/// must then fail with the typed `NumericalFault` (surfaced as
/// `LinalgError::NonFinite`) at a guarded kernel boundary — and every
/// injection, caught or not, must terminate.
#[test]
fn corruption_of_tensor_payloads_is_detected_by_the_guards() {
    let x = Tensor::from_fn(&[4, 4, 4], |i| {
        1.0 + ((i[0] * 17 + i[1] * 5 + i[2] * 3) as f64 * 0.618).fract() * 0.9
    });
    let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]).method(SvdMethod::Qr);
    let mut detected = 0usize;
    for op in 0..40u64 {
        let result = Simulator::new(2)
            .with_cost(CostModel::andes())
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new().corrupt(1, op, 0, 62))
            .run_result(|ctx| {
                let dt =
                    DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 1, 1]), ctx.rank());
                sthosvd_parallel(ctx, &dt, &cfg).map(|po| po.ranks())
            });
        if let Err(SimFailure::Rank { error, .. }) = &result {
            // A flip can also land in already-reduced data (e.g. a packed
            // triangle), where the SVD fails to converge before any guard
            // sees a non-finite — still a typed, attributable failure.
            match error {
                LinalgError::NonFinite { .. } => {
                    assert!(error.to_string().contains("non-finite"), "{error}");
                    detected += 1;
                }
                LinalgError::NoConvergence { .. } => {}
                other => panic!("corruption surfaced an unexpected algorithm error: {other}"),
            }
        }
    }
    assert!(detected > 0, "no injected corruption was caught by the NaN/Inf guards");
}
