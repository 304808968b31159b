//! Golub–Kahan Householder bidiagonalization.
//!
//! Reduces an `m x n` matrix (`m ≥ n`) to upper bidiagonal form
//! `B = U_lᵀ A V_r` by alternating left and right Householder reflectors, and
//! optionally accumulates the thin `U_l` (`m x n`) and `V_r` (`n x n`)
//! factors. This is the first half of the `gesvd`-equivalent used to take the
//! SVD of the small triangular factor `L` in QR-SVD (paper §3.1 and §3.4
//! "SVD of L").
//!
//! The reduction is LAPACK's unblocked `gebd2`: one left and one right
//! reflector per column, each applied to the whole trailing block before the
//! next column is read. The inputs are the small triangles of QR-SVD (tens to
//! a few hundred rows), where this serial loop is faster than the blocked
//! `gebrd`/`labrd` form: at these sizes the blocked form's delayed-update
//! bookkeeping costs more than its rank-`nb` GEMMs save (DESIGN.md §13).
//!
//! Failure paths are typed: a wide input is a
//! [`LinalgError::DimensionMismatch`] and a non-finite band (NaN/Inf input,
//! or overflow during reduction) is a [`LinalgError::NonFinite`] — no panics
//! on the convergence path, so a simulated rank can surface the failure
//! instead of aborting the run.

use crate::error::{LinalgError, Result};
use crate::householder::{apply_reflector_left, make_reflector};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Result of a bidiagonalization.
pub struct Bidiag<T> {
    /// Diagonal of `B` (length `n`).
    pub d: Vec<T>,
    /// Superdiagonal of `B`: `e[i] = B[i-1, i]`, with `e[0] = 0` (length `n`).
    pub e: Vec<T>,
    /// Thin left factor `U_l` (`m x n`), if requested.
    pub u: Option<Matrix<T>>,
    /// Right factor `V_r` (`n x n`), if requested.
    pub v: Option<Matrix<T>>,
}

/// Bidiagonalize `a` in place (`m ≥ n` required).
///
/// Errors with [`LinalgError::DimensionMismatch`] on a wide input and
/// [`LinalgError::NonFinite`] if the reduced band contains a NaN or
/// infinity (e.g. from non-finite input).
pub fn bidiagonalize<T: Scalar>(a: &mut Matrix<T>, want_u: bool, want_v: bool) -> Result<Bidiag<T>> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::DimensionMismatch {
            op: "bidiagonalize",
            details: format!("requires m >= n, got {m} x {n}"),
        });
    }
    let mut d = vec![T::ZERO; n];
    let mut e = vec![T::ZERO; n];
    let mut ltaus = vec![T::ZERO; n];
    let mut rtaus = vec![T::ZERO; n.saturating_sub(1)];

    crate::perf::with_kernel("bidiag", crate::perf::bidiag_flops(m, n), 0, || {
        gebd2(a, &mut d, &mut e, &mut ltaus, &mut rtaus)
    });

    for i in 0..n {
        if !(d[i].is_finite() && e[i].is_finite()) {
            return Err(LinalgError::NonFinite {
                phase: "bidiagonalize".into(),
                rank: 0,
                mode: 0,
                index: i,
            });
        }
    }

    let mut buf = vec![T::ZERO; m.max(n).max(1)];

    // Backward accumulation of the thin U_l = H^l_0 · · · H^l_{n-1} · I(m x n).
    // Reads only the reflector tails stored in `a`; the implicit leading 1 is
    // supplied here.
    let u = want_u.then(|| {
        let mut u = Matrix::<T>::zeros(m, n);
        for i in 0..n {
            u[(i, i)] = T::ONE;
        }
        for i in (0..n).rev() {
            if ltaus[i] == T::ZERO {
                continue;
            }
            let len = m - i;
            buf[0] = T::ONE;
            for r in 1..len {
                buf[r] = a[(i + r, i)];
            }
            let mut um = u.as_mut();
            let mut sub = um.submatrix_mut(i, 0, len, n);
            apply_reflector_left(&buf[..len], ltaus[i], &mut sub);
        }
        u
    });

    // Backward accumulation of V_r = H^r_0 · · · H^r_{n-2} · I(n x n).
    let v = want_v.then(|| {
        let mut v = Matrix::<T>::identity(n);
        for i in (0..n.saturating_sub(1)).rev() {
            if rtaus[i] == T::ZERO {
                continue;
            }
            let len = n - i - 1;
            buf[0] = T::ONE;
            for r in 1..len {
                buf[r] = a[(i, i + 1 + r)];
            }
            let mut vm = v.as_mut();
            let mut sub = vm.submatrix_mut(i + 1, 0, len, n);
            apply_reflector_left(&buf[..len], rtaus[i], &mut sub);
        }
        v
    });

    Ok(Bidiag { d, e, u, v })
}

/// LAPACK `gebd2`, the column-at-a-time reduction: fills `d`, `e` and the
/// reflector scalars, and leaves each reflector's tail in `a` below the
/// diagonal (left) or right of the superdiagonal (right). The trailing
/// submatrix is fully up to date when each column is processed.
fn gebd2<T: Scalar>(a: &mut Matrix<T>, d: &mut [T], e: &mut [T], ltaus: &mut [T], rtaus: &mut [T]) {
    let (m, n) = a.shape();
    let mut buf = vec![T::ZERO; m.max(n).max(1)];
    for i in 0..n {
        // Left reflector annihilating A[i+1.., i].
        let tail = m - i - 1;
        for r in 0..tail {
            buf[r + 1] = a[(i + 1 + r, i)];
        }
        let (beta, tau) = make_reflector(a[(i, i)], &mut buf[1..=tail]);
        d[i] = beta;
        ltaus[i] = tau;
        for r in 0..tail {
            a[(i + 1 + r, i)] = buf[r + 1];
        }
        if tau != T::ZERO && i + 1 < n {
            buf[0] = T::ONE;
            let mut am = a.as_mut();
            let mut trailing = am.submatrix_mut(i, i + 1, m - i, n - i - 1);
            apply_reflector_left(&buf[..m - i], tau, &mut trailing);
        }

        // Right reflector annihilating A[i, i+2..].
        if i + 1 < n {
            let rtail = n - i - 2;
            for r in 0..rtail {
                buf[r + 1] = a[(i, i + 2 + r)];
            }
            let (beta, tau) = make_reflector(a[(i, i + 1)], &mut buf[1..=rtail]);
            e[i + 1] = beta;
            rtaus[i] = tau;
            for r in 0..rtail {
                a[(i, i + 2 + r)] = buf[r + 1];
            }
            if tau != T::ZERO && i + 1 < m {
                buf[0] = T::ONE;
                // A[i+1.., i+1..] ← A[i+1.., i+1..] · H, done as a left apply
                // on the transposed view (H is symmetric).
                let mut am = a.as_mut();
                let mut trailing = am.submatrix_mut(i + 1, i + 1, m - i - 1, n - i - 1);
                let mut tt = trailing.t_mut();
                apply_reflector_left(&buf[..n - i - 1], tau, &mut tt);
            }
        }
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

    fn bidiag_as_matrix(d: &[f64], e: &[f64], m: usize) -> Matrix<f64> {
        let n = d.len();
        let mut b = Matrix::zeros(m, n);
        for i in 0..n {
            b[(i, i)] = d[i];
            if i > 0 {
                b[(i - 1, i)] = e[i];
            }
        }
        b
    }

    fn check(a0: &Matrix<f64>, tol: f64) {
        let mut work = a0.clone();
        let bd = bidiagonalize(&mut work, true, true).unwrap();
        let u = bd.u.unwrap();
        let v = bd.v.unwrap();
        assert!(u.orthonormality_error() < tol, "U not orthonormal");
        assert!(v.orthonormality_error() < tol, "V not orthonormal");
        // A ≈ U B Vᵀ.
        let b = bidiag_as_matrix(&bd.d, &bd.e, a0.rows().min(a0.cols()).max(bd.d.len()));
        let b = Matrix::from_fn(u.cols(), v.rows(), |i, j| b[(i, j)]);
        let ub = matmul(&u, &b);
        let ubvt = gemm_into(ub.as_ref(), Trans::No, v.as_ref(), Trans::Yes);
        assert!(ubvt.max_abs_diff(a0) < tol * a0.max_abs().max(1.0), "A != U B Vᵀ");
    }

    #[test]
    fn square() {
        check(&pseudo_matrix(7, 7, 1), 1e-12);
    }

    #[test]
    fn tall() {
        check(&pseudo_matrix(12, 5, 2), 1e-12);
    }

    #[test]
    fn lower_triangular_input() {
        // The QR-SVD use case: L from an LQ factorization.
        let full = pseudo_matrix(6, 6, 3);
        let l = Matrix::from_fn(6, 6, |i, j| if j <= i { full[(i, j)] } else { 0.0 });
        check(&l, 1e-12);
    }

    #[test]
    fn blocked_path_square() {
        check(&pseudo_matrix(48, 48, 5), 1e-11);
    }

    #[test]
    fn blocked_path_tall() {
        check(&pseudo_matrix(90, 60, 6), 1e-11);
    }

    #[test]
    fn blocked_path_lower_triangular() {
        let full = pseudo_matrix(50, 50, 7);
        let l = Matrix::from_fn(50, 50, |i, j| if j <= i { full[(i, j)] } else { 0.0 });
        check(&l, 1e-11);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_row_major(1, 1, &[-4.0f64]);
        let mut w = a.clone();
        let bd = bidiagonalize(&mut w, true, true).unwrap();
        assert!((bd.d[0].abs() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn column_vector() {
        let a = Matrix::from_row_major(4, 1, &[3.0f64, 0.0, 4.0, 0.0]);
        let mut w = a.clone();
        let bd = bidiagonalize(&mut w, true, false).unwrap();
        assert!((bd.d[0].abs() - 5.0).abs() < 1e-14);
        let u = bd.u.unwrap();
        assert!(u.orthonormality_error() < 1e-14);
    }

    #[test]
    fn norm_is_preserved() {
        let a = pseudo_matrix(9, 6, 4);
        let mut w = a.clone();
        let bd = bidiagonalize(&mut w, false, false).unwrap();
        let bnorm: f64 = bd
            .d
            .iter()
            .chain(bd.e.iter())
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt();
        assert!((bnorm - a.frob_norm()).abs() < 1e-12);
    }

    #[test]
    fn wide_input_is_typed_error() {
        let mut a = pseudo_matrix(3, 8, 8);
        match bidiagonalize(&mut a, false, false) {
            Err(LinalgError::DimensionMismatch { op, .. }) => assert_eq!(op, "bidiagonalize"),
            other => panic!("expected DimensionMismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn non_finite_input_is_typed_error() {
        let mut a = pseudo_matrix(40, 40, 9);
        a[(20, 20)] = f64::NAN;
        match bidiagonalize(&mut a, true, true) {
            Err(LinalgError::NonFinite { phase, .. }) => assert_eq!(phase, "bidiagonalize"),
            other => panic!("expected NonFinite, got {:?}", other.map(|_| ())),
        }
    }
}
