//! Singular value decomposition via Golub–Kahan–Reinsch implicit-shift QR
//! on the bidiagonal form (the `gesvd` equivalent).
//!
//! QR-SVD (paper §3.1) computes the LQ factorization of the short-fat
//! unfolding and then calls this routine on the small triangular factor; the
//! backward stability of both steps is what gives QR-SVD its
//! `O(ε‖A‖)` singular value accuracy (Theorem 1), versus Gram-SVD's
//! `O(ε‖A‖²/σᵢ)` (Theorem 2).

use crate::bidiag::bidiagonalize;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::MatRef;

/// Maximum implicit-QR sweeps per singular value before giving up.
const MAX_SWEEPS: usize = 75;

/// SVD result: `A ≈ U · diag(s) · Vᵀ`.
pub struct SvdOutput<T> {
    /// Left singular vectors (`m x min(m,n)`), if requested.
    pub u: Option<Matrix<T>>,
    /// Singular values, non-negative, sorted descending.
    pub s: Vec<T>,
    /// Right singular vectors (`n x min(m,n)`), if requested.
    pub v: Option<Matrix<T>>,
}

/// Full-control SVD of a general matrix view.
pub fn svd<T: Scalar>(a: MatRef<'_, T>, want_u: bool, want_v: bool) -> Result<SvdOutput<T>> {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return Ok(SvdOutput { u: want_u.then(|| Matrix::zeros(m, 0)), s: vec![], v: want_v.then(|| Matrix::zeros(n, 0)) });
    }
    if m < n {
        // SVD of the transpose, with U and V swapped.
        let t = svd(a.t(), want_v, want_u)?;
        return Ok(SvdOutput { u: t.v, s: t.s, v: t.u });
    }
    let mut work = a.to_matrix();
    let bd = bidiagonalize(&mut work, want_u, want_v)?;
    let mut d = bd.d;
    let mut e = bd.e;
    let mut u = bd.u;
    let mut v = bd.v;
    bdsqr(&mut d, &mut e, u.as_mut(), v.as_mut())?;
    sort_descending(&mut d, u.as_mut(), v.as_mut());
    Ok(SvdOutput { u, s: d, v })
}

/// Singular values and left singular vectors of `A` — the quantities line 4
/// of ST-HOSVD (Alg. 1) needs. `U` is `m x min(m, n)`.
pub fn svd_left<T: Scalar>(a: MatRef<'_, T>) -> Result<(Matrix<T>, Vec<T>)> {
    let out = svd(a, true, false)?;
    match out.u {
        Some(u) => Ok((u, out.s)),
        // svd always honors want_u; keep the guard typed so a driver bug
        // surfaces as an error in the affected rank instead of an abort.
        None => Err(LinalgError::EmptyMatrix { op: "svd_left" }),
    }
}

/// Singular values only.
pub fn singular_values<T: Scalar>(a: MatRef<'_, T>) -> Result<Vec<T>> {
    Ok(svd(a, false, false)?.s)
}

/// Implicit-shift QR iteration on an upper bidiagonal matrix
/// (`d` diagonal, `e[i] = B[i-1, i]`, `e[0]` unused and forced to zero).
///
/// Left Givens rotations are accumulated into the columns of `u`, right
/// rotations into the columns of `v`. On return `d` holds the non-negative
/// (unsorted) singular values.
///
/// Each rotation is applied to its two columns the moment it is generated:
/// a column of `u`/`v` is contiguous, so the pair stays in cache, and the
/// whole iteration is serial.
///
/// Failure paths are typed ([`LinalgError::NoConvergence`] on a stalled
/// value, [`LinalgError::NonFinite`] on a NaN/Inf band); on error the
/// contents of `u`/`v` are unspecified.
pub fn bdsqr<T: Scalar>(
    d: &mut [T],
    e: &mut [T],
    mut u: Option<&mut Matrix<T>>,
    mut v: Option<&mut Matrix<T>>,
) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    // Typed guard: a NaN in the band would make every negligibility test
    // below read false and walk the split scan off the front of the block.
    for i in 0..n {
        if !(d[i].is_finite() && e[i].is_finite()) {
            return Err(LinalgError::NonFinite { phase: "bdsqr".into(), rank: 0, mode: 0, index: i });
        }
    }
    // e[0] is defined as unused; force the invariant the split scan's
    // termination argument rests on rather than trusting the caller.
    e[0] = T::ZERO;
    // Scale reference for negligibility tests.
    let mut anorm = T::ZERO;
    for i in 0..n {
        anorm = anorm.max(d[i].abs() + e[i].abs());
    }
    if anorm == T::ZERO {
        return Ok(());
    }
    let eps = T::EPSILON;

    for k in (0..n).rev() {
        let mut its = 0usize;
        loop {
            // Find a split point: the block [l..=k] has nonzero superdiagonal
            // entries; either e[l] is negligible (clean split) or d[l-1] is
            // negligible (requires cancellation of e[l]). e[0] is zero, so
            // the first test fires by l = 0; the explicit l == 0 arm keeps
            // the scan in bounds even if iteration produced a NaN (which the
            // sweep budget then reports as NoConvergence).
            let mut l = k;
            let mut cancel = false;
            loop {
                if l == 0 || e[l].abs() <= eps * anorm {
                    e[l] = T::ZERO;
                    break;
                }
                if d[l - 1].abs() <= eps * anorm {
                    cancel = true;
                    break;
                }
                l -= 1;
            }
            if cancel {
                // d[l-1] ≈ 0: chase e[l] off the end of row l-1 with left
                // rotations against row l-1 (columns l-1 of U).
                let mut c = T::ZERO;
                let mut s = T::ONE;
                let lm1 = l - 1;
                for i in l..=k {
                    let f = s * e[i];
                    e[i] = c * e[i];
                    if f.abs() <= eps * anorm {
                        break;
                    }
                    let g = d[i];
                    let h = f.hypot(g);
                    d[i] = h;
                    c = g / h;
                    s = -f / h;
                    if let Some(uu) = u.as_deref_mut() {
                        rotate_cols(uu, lm1, i, c, s);
                    }
                }
            }

            let z = d[k];
            if l == k {
                // Converged: 1x1 block.
                if z < T::ZERO {
                    d[k] = -z;
                    if let Some(vv) = v.as_deref_mut() {
                        negate_col(vv, k);
                    }
                }
                break;
            }
            its += 1;
            if its > MAX_SWEEPS {
                return Err(LinalgError::NoConvergence { op: "bdsqr", index: k, iterations: its });
            }

            // Wilkinson-style shift from the trailing 2x2 of BᵀB.
            let mut x = d[l];
            let nm = k - 1;
            let y = d[nm];
            let mut g = e[nm];
            let mut h = e[k];
            let mut f = ((y - z) * (y + z) + (g - h) * (g + h)) / (T::TWO * h * y);
            g = f.hypot(T::ONE);
            f = ((x - z) * (x + z) + h * (y / (f + g.copysign(f)) - h)) / x;

            // Chase the bulge through the block with paired rotations.
            let mut c = T::ONE;
            let mut s = T::ONE;
            for j in l..=nm {
                let i = j + 1;
                g = e[i];
                let mut y = d[i];
                h = s * g;
                g *= c;
                let mut zz = f.hypot(h);
                e[j] = zz;
                c = f / zz;
                s = h / zz;
                f = x * c + g * s;
                g = g * c - x * s;
                h = y * s;
                y *= c;
                if let Some(vv) = v.as_deref_mut() {
                    rotate_cols(vv, j, i, c, s);
                }
                zz = f.hypot(h);
                d[j] = zz;
                if zz != T::ZERO {
                    let inv = T::ONE / zz;
                    c = f * inv;
                    s = h * inv;
                }
                f = c * g + s * y;
                x = c * y - s * g;
                if let Some(uu) = u.as_deref_mut() {
                    rotate_cols(uu, j, i, c, s);
                }
            }
            e[l] = T::ZERO;
            e[k] = f;
            d[k] = x;
        }
    }
    // A degenerate shift (zero pivot) can drive the chase non-finite without
    // exhausting the sweep budget; keep that failure typed too.
    for (i, x) in d.iter().enumerate() {
        if !x.is_finite() {
            return Err(LinalgError::NonFinite { phase: "bdsqr".into(), rank: 0, mode: 0, index: i });
        }
    }
    Ok(())
}

/// Apply a Givens rotation to columns `(j, i)` of `m`:
/// `col_j ← c·col_j + s·col_i`, `col_i ← c·col_i − s·col_j_old`.
#[inline]
fn rotate_cols<T: Scalar>(m: &mut Matrix<T>, j: usize, i: usize, c: T, s: T) {
    let rows = m.rows();
    let (pj, pi) = (j.min(i), j.max(i));
    let data = m.data_mut();
    let (head, tail) = data.split_at_mut(pi * rows);
    let cj;
    let ci;
    if j < i {
        cj = &mut head[pj * rows..pj * rows + rows];
        ci = &mut tail[..rows];
    } else {
        ci = &mut head[pi * rows..pi * rows + rows];
        cj = &mut tail[..rows];
    }
    for r in 0..rows {
        let xj = cj[r];
        let xi = ci[r];
        cj[r] = c * xj + s * xi;
        ci[r] = c * xi - s * xj;
    }
}

#[inline]
fn negate_col<T: Scalar>(m: &mut Matrix<T>, j: usize) {
    for v in m.col_mut(j) {
        *v = -*v;
    }
}

/// Sort singular values descending, permuting U/V columns consistently.
pub fn sort_descending<T: Scalar>(s: &mut [T], u: Option<&mut Matrix<T>>, v: Option<&mut Matrix<T>>) {
    let n = s.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| s[b].partial_cmp(&s[a]).unwrap_or(std::cmp::Ordering::Equal));
    let sorted: Vec<T> = order.iter().map(|&i| s[i]).collect();
    s.copy_from_slice(&sorted);
    if let Some(u) = u {
        permute_cols(u, &order);
    }
    if let Some(v) = v {
        permute_cols(v, &order);
    }
}

fn permute_cols<T: Scalar>(m: &mut Matrix<T>, order: &[usize]) {
    let cols_needed = order.len().min(m.cols());
    let src = m.clone();
    for (dst, &s) in order.iter().enumerate().take(cols_needed) {
        m.col_mut(dst).copy_from_slice(src.col(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, matmul, Trans};

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn check_full_svd<T: Scalar>(a: &Matrix<T>, tol: f64) {
        let out = svd(a.as_ref(), true, true).unwrap();
        let u = out.u.unwrap();
        let v = out.v.unwrap();
        let k = a.rows().min(a.cols());
        assert_eq!(u.shape(), (a.rows(), k));
        assert_eq!(v.shape(), (a.cols(), k));
        assert!(u.orthonormality_error().to_f64() < tol, "U not orthonormal");
        assert!(v.orthonormality_error().to_f64() < tol, "V not orthonormal");
        // Non-negative descending.
        for i in 0..k {
            assert!(out.s[i] >= T::ZERO);
            if i > 0 {
                assert!(out.s[i - 1] >= out.s[i]);
            }
        }
        // A = U Σ Vᵀ.
        let mut us = u.clone();
        for j in 0..k {
            let sj = out.s[j];
            for val in us.col_mut(j) {
                *val *= sj;
            }
        }
        let recon = gemm_into(us.as_ref(), Trans::No, v.as_ref(), Trans::Yes);
        let scale = a.max_abs().to_f64().max(1.0);
        assert!(recon.max_abs_diff(a).to_f64() < tol * scale, "A != U Σ Vᵀ");
    }

    #[test]
    fn square_random() {
        check_full_svd(&pseudo_matrix(8, 8, 1), 1e-12);
    }

    #[test]
    fn tall_random() {
        check_full_svd(&pseudo_matrix(15, 6, 2), 1e-12);
    }

    #[test]
    fn wide_random() {
        check_full_svd(&pseudo_matrix(6, 15, 3), 1e-12);
    }

    #[test]
    fn known_singular_values_diagonal() {
        let mut a = Matrix::<f64>::zeros(4, 4);
        for (i, &s) in [5.0, 3.0, 2.0, 1.0].iter().enumerate() {
            a[(i, i)] = s;
        }
        let s = singular_values(a.as_ref()).unwrap();
        for (got, want) in s.iter().zip([5.0, 3.0, 2.0, 1.0]) {
            assert!((got - want).abs() < 1e-13);
        }
    }

    #[test]
    fn known_singular_values_2x2() {
        // [[1, 1], [0, 1]] has σ = golden-ratio pair: sqrt((3±sqrt(5))/2).
        let a = Matrix::from_row_major(2, 2, &[1.0f64, 1.0, 0.0, 1.0]);
        let s = singular_values(a.as_ref()).unwrap();
        let s1 = ((3.0 + 5.0f64.sqrt()) / 2.0).sqrt();
        let s2 = ((3.0 - 5.0f64.sqrt()) / 2.0).sqrt();
        assert!((s[0] - s1).abs() < 1e-14);
        assert!((s[1] - s2).abs() < 1e-14);
    }

    #[test]
    fn rank_deficient() {
        // Rank-1 outer product.
        let a = Matrix::from_fn(6, 6, |i, j| ((i + 1) * (j + 1)) as f64);
        let s = singular_values(a.as_ref()).unwrap();
        assert!(s[0] > 1.0);
        for &tail in &s[1..] {
            assert!(tail < 1e-12 * s[0]);
        }
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::<f64>::zeros(5, 3);
        let out = svd(a.as_ref(), true, false).unwrap();
        assert_eq!(out.s, vec![0.0; 3]);
        assert!(out.u.unwrap().orthonormality_error() < 1e-15);
    }

    #[test]
    fn one_by_one_negative() {
        let a = Matrix::from_row_major(1, 1, &[-3.0f64]);
        let out = svd(a.as_ref(), true, true).unwrap();
        assert!((out.s[0] - 3.0).abs() < 1e-15);
        // U σ Vᵀ must still reconstruct -3.
        let u = out.u.unwrap()[(0, 0)];
        let v = out.v.unwrap()[(0, 0)];
        assert!((u * 3.0 * v - (-3.0)).abs() < 1e-14);
    }

    #[test]
    fn left_vectors_span_dominant_subspace() {
        // A = u1 σ1 v1ᵀ + u2 σ2 v2ᵀ with known u's.
        let m = 10;
        let mut a = Matrix::<f64>::zeros(m, m);
        for j in 0..m {
            a[(0, j)] = 4.0 * ((j as f64) * 0.7).sin();
            a[(1, j)] = 0.5 * ((j as f64) * 1.3).cos();
        }
        let (u, s) = svd_left(a.as_ref()).unwrap();
        assert!(s[0] > s[1] && s[1] > 0.0);
        // The leading two left vectors must span {e0, e1}: components outside
        // the first two coordinates vanish, and u0 is dominated by e0.
        assert!(u[(0, 0)].abs() > 0.9);
        for j in 0..2 {
            for r in 2..m {
                assert!(u[(r, j)].abs() < 1e-10, "u[{r},{j}] = {}", u[(r, j)]);
            }
        }
    }

    #[test]
    fn geometric_decay_accuracy_double() {
        // The Fig. 1 setup in miniature: geometric decay over 12 orders.
        let n = 20;
        let decay: Vec<f64> = (0..n).map(|i| 10f64.powf(-(12.0 * i as f64) / (n - 1) as f64)).collect();
        let a = crate::random::matrix_with_singular_values_seeded::<f64>(&decay, n, 42);
        let s = singular_values(a.as_ref()).unwrap();
        for i in 0..n {
            let rel = (s[i] - decay[i]).abs() / decay[i];
            assert!(rel < 1e-3, "σ_{i}: got {} want {} rel {rel}", s[i], decay[i]);
        }
    }

    #[test]
    fn single_precision_svd() {
        let a = Matrix::<f32>::from_fn(10, 10, |i, j| ((i * 10 + j) as f32 * 0.37).sin());
        let out = svd(a.as_ref(), true, true).unwrap();
        let u = out.u.unwrap();
        let v = out.v.unwrap();
        assert!(u.orthonormality_error() < 1e-5);
        let mut us = u.clone();
        for j in 0..10 {
            let sj = out.s[j];
            for val in us.col_mut(j) {
                *val *= sj;
            }
        }
        let recon = gemm_into(us.as_ref(), Trans::No, v.as_ref(), Trans::Yes);
        assert!(recon.max_abs_diff(&a) < 1e-4);
    }

    #[test]
    fn values_match_gram_eigenvalues_for_well_conditioned() {
        // σ(A) and σ(A·Aᵀ) = σ(A)² against the known values.
        let sv = [3.0, 2.0, 1.0, 0.5, 0.25, 0.125];
        let a = crate::random::matrix_with_singular_values_seeded::<f64>(&sv, 30, 7);
        let s = singular_values(a.as_ref()).unwrap();
        let lambda = singular_values(crate::syrk::syrk_lower(a.as_ref()).as_ref()).unwrap();
        for i in 0..6 {
            assert!((s[i] - sv[i]).abs() < 1e-12 * sv[0]);
            assert!((lambda[i] - sv[i] * sv[i]).abs() < 1e-12 * sv[0] * sv[0]);
        }
    }

    #[test]
    fn sort_is_consistent_with_reconstruction() {
        // Already covered by check_full_svd, but verify explicit ordering on a
        // matrix engineered to converge out of order.
        let mut a = Matrix::<f64>::zeros(5, 5);
        for (i, &s) in [1.0, 5.0, 2.0, 4.0, 3.0].iter().enumerate() {
            a[(i, i)] = s;
        }
        check_full_svd(&a, 1e-12);
        let s = singular_values(a.as_ref()).unwrap();
        assert_eq!(s, vec![5.0, 4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn large_squares_and_lq_triangles() {
        check_full_svd(&pseudo_matrix(64, 64, 11), 1e-11);
        check_full_svd(&pseudo_matrix(90, 40, 12), 1e-11);
        // The triangles the drivers hand the SVD: `L` of a short-fat matrix,
        // below and above the rows where the fold's products go parallel.
        for (m, seed) in [(130, 14), (456, 15)] {
            let a = pseudo_matrix(m, 4096, seed);
            check_full_svd(&crate::lq::lq_factor(a.as_ref()), 1e-12);
            let a32 = Matrix::<f32>::from_fn(m, 4096, |i, j| a[(i, j)] as f32);
            check_full_svd(&crate::lq::lq_factor(a32.as_ref()), 2e-4);
        }
    }

    #[test]
    fn nan_input_is_typed_error() {
        let mut a = pseudo_matrix(6, 6, 13);
        a[(3, 2)] = f64::NAN;
        match svd(a.as_ref(), true, true) {
            Err(LinalgError::NonFinite { .. }) => {}
            other => panic!("expected NonFinite, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn bdsqr_nan_band_is_typed_error() {
        // Regression shape: a NaN ahead of the scan start used to defeat
        // both negligibility tests and underflow the `d[l-1]` index at l = 0.
        let mut d = vec![1.0f64, f64::NAN, 2.0];
        let mut e = vec![0.0f64, 0.5, 0.25];
        match bdsqr(&mut d, &mut e, None, None) {
            Err(LinalgError::NonFinite { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn matmul_sanity_for_test_helpers() {
        // Guard for the helper itself.
        let i = Matrix::<f64>::identity(3);
        assert!(matmul(&i, &i).max_abs_diff(&i) < 1e-15);
    }
}
