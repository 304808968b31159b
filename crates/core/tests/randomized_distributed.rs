//! Property tests of the distributed randomized mode driver (DESIGN.md
//! §15): bit-identity of the sketch SVD across task counts and grid shapes,
//! f32/f64 agreement of the sketch subspace, and the randomized driver's
//! reconstruction error against QR-SVD's.

use proptest::prelude::*;
use rand::SeedableRng;
use tucker_core::{sthosvd, sthosvd_parallel, SthosvdConfig, SvdMethod};
use tucker_dtensor::{parallel_sketch_svd, DistTensor, ProcessorGrid};
use tucker_linalg::gemm::gemm_into;
use tucker_linalg::randomized::{randomized_svd_left_blocked, RandomizedSvdConfig};
use tucker_linalg::Matrix;
use tucker_mpisim::{Comm, CostModel, Simulator};
use tucker_tensor::{Tensor, Unfolding};

fn tensor(dims: &[usize], seed: u64) -> Tensor<f64> {
    let total: usize = dims.iter().product();
    let data: Vec<f64> = (0..total)
        .map(|i| {
            let h = tucker_linalg::splitmix64_at(seed, i as u64, 29);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    Tensor::from_data(dims, data)
}

/// Grid shapes exercising 1, 2, 4, 6, and 7 simulated tasks.
const GRIDS: [[usize; 3]; 5] = [[1, 1, 1], [2, 1, 1], [1, 2, 2], [2, 3, 1], [7, 1, 1]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The distributed sketch SVD is bitwise equal to the sequential
    /// canonical blocked driver — and therefore to itself — for every task
    /// count and grid shape, given a fixed seed.
    #[test]
    fn sketch_svd_bit_identical_across_grids(
        d0 in 6usize..13, d1 in 5usize..11, d2 in 4usize..9,
        n in 0usize..3, seed in any::<u64>(),
    ) {
        let dims = [d0, d1, d2];
        let x = tensor(&dims, seed);
        let cfg = RandomizedSvdConfig { power_iterations: 1, seed, ..Default::default() };
        let rank = 3usize;
        let whole = Unfolding::new(&x, n).to_matrix();
        let (u_seq, s_seq) =
            randomized_svd_left_blocked(whole.as_ref(), rank, &cfg).unwrap();
        for grid_dims in GRIDS {
            let grid = ProcessorGrid::new(&grid_dims);
            let out = Simulator::new(grid.total())
                .run_result(|ctx| {
                    let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
                    let mut world = Comm::world(ctx);
                    parallel_sketch_svd(ctx, &mut world, &dt, n, rank, &cfg)
                        .map_err(|e| e.to_string())
                })
                .expect("parallel sketch must succeed");
            for (u, s) in &out.results {
                prop_assert_eq!(u, &u_seq, "U: grid {:?} mode {}", grid_dims, n);
                prop_assert_eq!(s, &s_seq, "sigma: grid {:?} mode {}", grid_dims, n);
            }
        }
    }
}

/// Full fixed-rank ST-HOSVD with `--svd randomized` across task counts and
/// grid shapes: the first processed mode's factor is **bitwise** identical
/// (the sketch driver is canonical and all runs see the identical input
/// tensor), and later modes — whose inputs pick up last-bit differences
/// from the grid-dependent TTM reduce-scatter grouping, as with every
/// method — stay within a tight deterministic tolerance.
#[test]
fn randomized_sthosvd_factors_agree_across_grids() {
    let dims = [16usize, 12, 10];
    let x = tensor(&dims, 11);
    let cfg = SthosvdConfig::with_ranks(vec![4, 4, 4]).method(SvdMethod::Randomized);
    let mut reference: Option<(Vec<_>, Vec<Vec<f64>>)> = None;
    for grid_dims in GRIDS {
        let grid = ProcessorGrid::new(&grid_dims);
        let out = Simulator::new(grid.total()).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
            let po = sthosvd_parallel(ctx, &dt, &cfg).unwrap();
            (po.factors, po.singular_values)
        });
        for (factors, sv) in &out.results {
            match &reference {
                None => reference = Some((factors.clone(), sv.clone())),
                Some((rf, rs)) => {
                    assert_eq!(&factors[0], &rf[0], "mode-0 factor differs on grid {grid_dims:?}");
                    assert_eq!(&sv[0], &rs[0], "mode-0 sigma differs on grid {grid_dims:?}");
                    for (n, (u, r)) in factors.iter().zip(rf).enumerate() {
                        let dev = u.max_abs_diff(r);
                        assert!(dev < 1e-12, "factor {n} deviates {dev:.3e} on grid {grid_dims:?}");
                    }
                }
            }
        }
    }
}

/// The f32 and f64 sketches agree: Ω is generated in f64 and rounded, so on
/// a matrix with a well-separated spectrum the two precisions find the same
/// dominant subspace and singular values to f32 accuracy.
#[test]
fn sketch_subspace_agrees_across_precisions() {
    let rank = 4usize;
    let m = 18usize;
    let ncols = 40usize;
    // Geometrically decaying spectrum: σ_i = 2^-i, so the top-`rank`
    // subspace is well separated from the oversampling tail.
    let sv: Vec<f64> = (0..m).map(|i| (2.0f64).powi(-(i as i32))).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let a64 = tucker_linalg::matrix_with_singular_values::<f64, _>(&sv, ncols, &mut rng);
    let a32 = tucker_linalg::Matrix::<f32>::from_fn(m, ncols, |i, j| a64[(i, j)] as f32);
    let cfg64 = RandomizedSvdConfig { power_iterations: 2, ..Default::default() };
    let cfg32 = RandomizedSvdConfig { power_iterations: 2, ..Default::default() };
    let (u64m, s64) = randomized_svd_left_blocked(a64.as_ref(), rank, &cfg64).unwrap();
    let (u32m, s32) = randomized_svd_left_blocked(a32.as_ref(), rank, &cfg32).unwrap();
    for i in 0..rank {
        let rel = ((s64[i] - s32[i] as f64) / s64[i]).abs();
        assert!(rel < 1e-3, "sigma[{i}]: f64 {:.6e} vs f32 {:.6e}", s64[i], s32[i]);
    }
    // Compare the projectors onto the top-`rank` left subspace.
    let t64 = u64m.truncate_cols(rank);
    let p64 = gemm_into(
        t64.as_ref(),
        tucker_linalg::Trans::No,
        t64.as_ref(),
        tucker_linalg::Trans::Yes,
    );
    let t32 = u32m.truncate_cols(rank);
    let t32in64 = tucker_linalg::Matrix::<f64>::from_fn(m, rank, |i, j| t32[(i, j)] as f64);
    let p32 = gemm_into(
        t32in64.as_ref(),
        tucker_linalg::Trans::No,
        t32in64.as_ref(),
        tucker_linalg::Trans::Yes,
    );
    let dev = p64.max_abs_diff(&p32);
    assert!(dev < 1e-3, "subspace projectors disagree: {dev:.3e}");
}

/// Low-rank-plus-noise synthetic tensor: a rank-`rank` signal with
/// geometrically decaying term weights and an `eps`-sized dense tail — the
/// regime the randomized range finder is designed for.
fn low_rank_tensor(dims: &[usize], rank: usize, eps: f64, seed: u64) -> Tensor<f64> {
    let unit = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let factors: Vec<Matrix<f64>> = (0..dims.len())
        .map(|n| {
            Matrix::from_fn(dims[n], rank, |i, t| {
                unit(tucker_linalg::splitmix64_at(seed + 101 * n as u64, i as u64, t as u64))
            })
        })
        .collect();
    let mut lin = 0u64;
    Tensor::from_fn(dims, |idx| {
        lin += 1;
        let signal: f64 = (0..rank)
            .map(|t| {
                let weight = (0.5f64).powi(t as i32);
                idx.iter().enumerate().fold(weight, |p, (n, &i)| p * factors[n][(i, t)])
            })
            .sum();
        signal + eps * unit(tucker_linalg::splitmix64_at(seed ^ 0x00FF_00FF, lin, 2))
    })
}

fn fixed_rank_error(x: &Tensor<f64>, ranks: &[usize], method: SvdMethod, power: usize) -> f64 {
    let cfg = SthosvdConfig::with_ranks(ranks.to_vec())
        .method(method)
        .randomized(RandomizedSvdConfig { power_iterations: power, ..Default::default() });
    sthosvd(x, &cfg).expect("fixed-rank ST-HOSVD").relative_error(x)
}

/// The accuracy the randomized driver is sold on (Minster–Li–Ballard,
/// arXiv:2211.13028): with one power iteration its error on a low-rank
/// tensor is within 1.5× of QR-SVD's, and on a flat (video-like) spectrum
/// two power iterations are no worse than none.
#[test]
fn randomized_error_tracks_qr_and_power_iterations_help() {
    let x = low_rank_tensor(&[96, 24, 24], 8, 1e-6, 41);
    let qr = fixed_rank_error(&x, &[8, 8, 8], SvdMethod::Qr, 0);
    let randomized = fixed_rank_error(&x, &[8, 8, 8], SvdMethod::Randomized, 1);
    assert!(qr > 0.0 && qr < 1e-4, "rank-8 truncation leaves only the 1e-6 tail: {qr:e}");
    assert!(randomized <= 1.5 * qr, "randomized q=1 {randomized:e} vs QR {qr:e}");

    let video = tucker_data::video_surrogate::<f64>(&[16, 24, 3, 20], 22);
    let q0 = fixed_rank_error(&video, &[4, 4, 2, 4], SvdMethod::Randomized, 0);
    let q2 = fixed_rank_error(&video, &[4, 4, 2, 4], SvdMethod::Randomized, 2);
    assert!(q2 <= q0, "power iterations must not hurt: q=2 {q2:e} vs q=0 {q0:e}");
}
