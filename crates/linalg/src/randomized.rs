//! Randomized range-finder SVD (Halko–Martinsson–Tropp) — the alternative
//! algorithm the paper's conclusion names as the likely competitor for loose
//! tolerances ("for large tolerances where Gram single is the preferred
//! method, alternatives such as randomized ... algorithms are likely to be
//! competitive and should be compared against", §5; cf. refs [1], [22]).
//!
//! For a short-fat `m x n` unfolding and target rank `r ≪ m`, the sketch
//! `Y = A·Ω` costs `2·m·n·(r+p)` flops — *less* than both Gram (`n·m²`) and
//! QR (`2·n·m²`) when `r + p < m/2` — at the price of a small probabilistic
//! accuracy loss and a rank that must be known a priori.

use crate::error::Result;
use crate::gemm::{gemm_into, Trans};
use crate::gram_svd::gram_svd_from_gram;
use crate::matrix::Matrix;
use crate::qr::{form_q, geqrf};
use crate::random::gaussian_block;
use crate::scalar::Scalar;
use crate::syrk::syrk_lower;
use crate::view::MatRef;

/// Parameters of the randomized range finder.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedSvdConfig {
    /// Extra sketch columns beyond the target rank (Halko et al. suggest
    /// 5–10).
    pub oversampling: usize,
    /// Power iterations `(A Aᵀ)^q` applied to the sketch; 1–2 sharpen the
    /// spectrum when it decays slowly (e.g. the video dataset).
    pub power_iterations: usize,
    /// RNG seed for the Gaussian test matrix (fixed for reproducibility).
    pub seed: u64,
}

impl Default for RandomizedSvdConfig {
    fn default() -> Self {
        RandomizedSvdConfig { oversampling: 8, power_iterations: 1, seed: 0x5EED }
    }
}

/// Fixed width of the *virtual column blocks* the canonical sketch is
/// defined over.
///
/// The global unfolding columns are cut into `ceil(n / 32)` blocks at fixed
/// global offsets — a pure function of the column count, independent of how
/// the columns are distributed. Every partial product (`A_v·Ω_v`, `A_vᵀQ`,
/// `QᵀA_v`) is computed per block and the per-block results are folded
/// left-to-right in block order, so the sequential driver and every
/// distributed partitioning perform the *same* floating-point operations in
/// the *same* order: the output is bit-identical across task counts and
/// grid shapes.
pub const SKETCH_COL_BLOCK: usize = 32;

/// Number of virtual column blocks for an `n`-column unfolding.
pub fn sketch_block_count(n: usize) -> usize {
    n.div_ceil(SKETCH_COL_BLOCK).max(1)
}

/// Global column range of virtual block `v` (half-open).
pub fn sketch_block_range(n: usize, v: usize) -> std::ops::Range<usize> {
    let start = (v * SKETCH_COL_BLOCK).min(n);
    start..n.min(start + SKETCH_COL_BLOCK)
}

/// Left-to-right fold of per-block partial results. Shared by the
/// sequential and distributed drivers so both sum in the identical order.
pub fn fold_partial<T: Scalar>(acc: &mut Option<Matrix<T>>, part: Matrix<T>) {
    match acc {
        None => *acc = Some(part),
        Some(a) => {
            debug_assert_eq!(a.rows(), part.rows());
            debug_assert_eq!(a.cols(), part.cols());
            for (x, y) in a.data_mut().iter_mut().zip(part.data()) {
                *x += *y;
            }
        }
    }
}

/// Sketch-stage partial `A_v·Ω_v` (`m x k`) of the virtual block whose first
/// global column is `start`. Ω_v comes from the counter-based
/// [`gaussian_block`] fill, so it is seekable in O(1): a distributed rank
/// generates only its slice, no broadcast.
pub fn sketch_block<T: Scalar>(av: MatRef<'_, T>, seed: u64, start: usize, k: usize) -> Matrix<T> {
    let omega = gaussian_block::<T>(seed, start, av.cols(), k);
    gemm_into(av, Trans::No, omega.as_ref(), Trans::No)
}

/// Power-iteration partial `A_v (A_vᵀ Q)` (`m x k`) of one virtual block.
pub fn power_block<T: Scalar>(av: MatRef<'_, T>, q: &Matrix<T>) -> Matrix<T> {
    let w = gemm_into(av, Trans::Yes, q.as_ref(), Trans::No); // |v| x k
    gemm_into(av, Trans::No, w.as_ref(), Trans::No)
}

/// Projected-Gram partial `B_v B_vᵀ` (`k x k`, `B_v = Qᵀ A_v`) of one
/// virtual block.
pub fn projected_gram_block<T: Scalar>(av: MatRef<'_, T>, q: &Matrix<T>) -> Matrix<T> {
    let bv = gemm_into(q.as_ref(), Trans::Yes, av, Trans::No); // k x |v|
    syrk_lower(bv.as_ref())
}

/// QR re-orthonormalization of a folded sketch: the explicit `Q` of `Y`.
pub fn orthonormalize<T: Scalar>(mut y: Matrix<T>) -> Matrix<T> {
    let k = y.cols().min(y.rows());
    let taus = geqrf(&mut y.as_mut());
    form_q(y.as_ref(), &taus, k)
}

/// The small projected problem: the eigendecomposition of the folded `k x k`
/// Gram matrix `H = Σ_v B_v B_vᵀ` — Gram-SVD's [`gram_svd_from_gram`], the
/// SVD of the symmetric `H` — gives `U_H` and `sigma = sqrt(|lambda|)`; lift
/// back `U = Q·U_H`.
pub fn solve_projected<T: Scalar>(q: &Matrix<T>, h: &Matrix<T>) -> Result<(Matrix<T>, Vec<T>)> {
    let (u_h, sigma) = gram_svd_from_gram(h)?;
    Ok((gemm_into(q.as_ref(), Trans::No, u_h.as_ref(), Trans::No), sigma))
}

/// Canonical blocked randomized range-finder SVD: returns (`U` of size
/// `m x k`, `sigma` of length `k`, descending) with
/// `k = min(rank + oversampling, min(m, n))`. Callers truncate `U` to `rank`
/// columns; the oversampled directions improve the subspace estimate.
///
/// This is the sequential fold of the stage functions above; the
/// distributed driver (`tucker-dtensor::sketch`) allgather-folds the same
/// functions and is bit-identical to it:
/// * All wide products are evaluated per [`SKETCH_COL_BLOCK`]-column virtual
///   block and folded in block order (see [`fold_partial`]).
/// * The projected problem is solved through the small `k x k` Gram matrix
///   `H` and its eigendecomposition rather than a QR-SVD of the `k x n`
///   projection `B`. `H` is tiny and replicable, which keeps the
///   distributed solve redundant (every rank solves the same `H`) instead
///   of requiring a bit-reproducible parallel LQ. The cost is a `‖A‖·√ε`
///   floor on the *reported* singular values — the subspace `Q·U_H` itself
///   is orthonormal to working precision, so reconstruction accuracy is
///   unaffected; only tail estimates inherit the Gram floor.
pub fn randomized_svd_left_blocked<T: Scalar>(
    a: MatRef<'_, T>,
    rank: usize,
    cfg: &RandomizedSvdConfig,
) -> Result<(Matrix<T>, Vec<T>)> {
    let (m, n) = (a.rows(), a.cols());
    let k = (rank + cfg.oversampling).min(m.min(n)).max(1);
    // One stage: its per-block partials folded in virtual-block order.
    let fold = |stage: &dyn Fn(MatRef<'_, T>, usize) -> Matrix<T>| {
        let mut acc: Option<Matrix<T>> = None;
        for v in 0..sketch_block_count(n) {
            let r = sketch_block_range(n, v);
            fold_partial(&mut acc, stage(a.submatrix(0, r.start, m, r.len()), r.start));
        }
        acc.expect("sketch_block_count is >= 1")
    };

    let mut y = fold(&|av, start| sketch_block(av, cfg.seed, start, k));
    for _ in 0..cfg.power_iterations {
        let q = orthonormalize(y);
        y = fold(&|av, _| power_block(av, &q));
    }
    let q = orthonormalize(y); // m x k, orthonormal columns
    let h = fold(&|av, _| projected_gram_block(av, &q));
    solve_projected(&q, &h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::matrix_with_singular_values_seeded;

    #[test]
    fn recovers_dominant_subspace() {
        let sv = [10.0, 5.0, 2.0, 1e-6, 1e-7, 1e-8];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 200, 1);
        let (u, s) = randomized_svd_left_blocked(a.as_ref(), 3, &RandomizedSvdConfig::default()).unwrap();
        assert!(u.orthonormality_error() < 1e-12);
        for i in 0..3 {
            assert!((s[i] - sv[i]).abs() / sv[i] < 1e-6, "sigma_{i}: {} vs {}", s[i], sv[i]);
        }
        // Projection residual of the truncated U captures the tail only.
        let uk = u.truncate_cols(3);
        let uta = gemm_into(uk.as_ref(), Trans::Yes, a.as_ref(), Trans::No);
        let p = gemm_into(uk.as_ref(), Trans::No, uta.as_ref(), Trans::No);
        let mut resid = a.clone();
        for (r, q) in resid.data_mut().iter_mut().zip(p.data()) {
            *r -= *q;
        }
        let tail = (1e-12f64 + 1e-14 + 1e-16).sqrt();
        assert!(resid.frob_norm() < 10.0 * tail, "residual {}", resid.frob_norm());
    }

    #[test]
    fn power_iterations_help_on_flat_spectra() {
        // Slowly decaying spectrum: plain sketch leaks, power iteration fixes.
        let sv: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 300, 2);
        let err = |q: usize| {
            let cfg = RandomizedSvdConfig { power_iterations: q, ..Default::default() };
            let (u, _) = randomized_svd_left_blocked(a.as_ref(), 10, &cfg).unwrap();
            let uk = u.truncate_cols(10);
            let uta = gemm_into(uk.as_ref(), Trans::Yes, a.as_ref(), Trans::No);
            let p = gemm_into(uk.as_ref(), Trans::No, uta.as_ref(), Trans::No);
            let mut resid = a.clone();
            for (r, qv) in resid.data_mut().iter_mut().zip(p.data()) {
                *r -= *qv;
            }
            resid.frob_norm()
        };
        let e0 = err(0);
        let e2 = err(2);
        assert!(e2 <= e0 * 1.001, "power iterations should not hurt: {e0} -> {e2}");
        // And e2 must be close to the optimal tail.
        let opt: f64 = sv[10..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!(e2 < 1.2 * opt, "e2 {e2} vs optimal {opt}");
    }

    #[test]
    fn deterministic_given_seed() {
        let sv = [4.0, 2.0, 1.0];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 50, 3);
        let cfg = RandomizedSvdConfig::default();
        let (u1, s1) = randomized_svd_left_blocked(a.as_ref(), 2, &cfg).unwrap();
        let (u2, s2) = randomized_svd_left_blocked(a.as_ref(), 2, &cfg).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(s1, s2);
        // ... and the seed is what it is deterministic in.
        let reseeded = RandomizedSvdConfig { seed: cfg.seed + 1, ..cfg };
        let (u3, _) = randomized_svd_left_blocked(a.as_ref(), 2, &reseeded).unwrap();
        assert_ne!(u1, u3);
    }

    #[test]
    fn rank_larger_than_matrix_is_capped() {
        let sv = [2.0, 1.0];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 10, 4);
        let (u, s) = randomized_svd_left_blocked(a.as_ref(), 99, &RandomizedSvdConfig::default()).unwrap();
        assert_eq!(u.cols(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn blocked_driver_recovers_dominant_subspace() {
        let sv = [10.0, 5.0, 2.0, 1e-6, 1e-7, 1e-8];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 200, 1);
        let cfg = RandomizedSvdConfig::default();
        let (u, s) = randomized_svd_left_blocked(a.as_ref(), 3, &cfg).unwrap();
        assert!(u.orthonormality_error() < 1e-12);
        for i in 0..3 {
            assert!((s[i] - sv[i]).abs() / sv[i] < 1e-5, "sigma_{i}: {} vs {}", s[i], sv[i]);
        }
    }

    #[test]
    fn blocked_driver_is_deterministic() {
        let sv = [4.0, 2.0, 1.0];
        let a = matrix_with_singular_values_seeded::<f64>(&sv, 70, 3);
        let cfg = RandomizedSvdConfig::default();
        let (u1, s1) = randomized_svd_left_blocked(a.as_ref(), 2, &cfg).unwrap();
        let (u2, s2) = randomized_svd_left_blocked(a.as_ref(), 2, &cfg).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn sketch_block_partition_covers_all_columns() {
        for n in [1usize, 31, 32, 33, 64, 100, 1000] {
            let nv = sketch_block_count(n);
            let mut next = 0;
            for v in 0..nv {
                let r = sketch_block_range(n, v);
                assert_eq!(r.start, next, "gap before block {v} of {n}");
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, n, "blocks must cover all {n} columns");
        }
    }

    #[test]
    fn single_precision() {
        let sv = [3.0, 1.5, 0.7];
        let a64 = matrix_with_singular_values_seeded::<f64>(&sv, 80, 5);
        let a32 = Matrix::<f32>::from_fn(3, 80, |i, j| a64[(i, j)] as f32);
        let (u, s) = randomized_svd_left_blocked(a32.as_ref(), 3, &RandomizedSvdConfig::default()).unwrap();
        assert!(u.orthonormality_error() < 1e-5);
        for i in 0..3 {
            assert!((s[i] as f64 - sv[i]).abs() / sv[i] < 1e-4);
        }
    }
}
