//! Unblocked Householder QR factorization (LAPACK `geqrf`) and explicit Q
//! formation (`orgqr`), operating in place on strided views.
//!
//! The tall-skinny bases of the randomized range finder and the random
//! orthogonal factors of the generators go through here; no LQ does — a
//! matrix becomes `L` through [`crate::lq::lq_factor`] alone.

use crate::householder::{apply_reflector_left, make_reflector};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

/// In-place Householder QR: on return the upper triangle of `a` holds `R`
/// and the strict lower triangle holds the reflector tails. Returns the
/// `tau` coefficients.
pub fn geqrf<T: Scalar>(a: &mut MatMut<'_, T>) -> Vec<T> {
    let m = a.rows();
    let n = a.cols();
    crate::perf::with_kernel("qr", crate::perf::qr_flops(m, n), 0, || {
        let k = m.min(n);
        let mut taus = vec![T::ZERO; k];
        let mut v = vec![T::ZERO; m];
        for i in 0..k {
            let tail = m - i - 1;
            for r in 0..tail {
                v[r + 1] = a.get(i + 1 + r, i);
            }
            let alpha = a.get(i, i);
            let (beta, tau) = make_reflector(alpha, &mut v[1..=tail]);
            taus[i] = tau;
            a.set(i, i, beta);
            for r in 0..tail {
                a.set(i + 1 + r, i, v[r + 1]);
            }
            if tau != T::ZERO && i + 1 < n {
                v[0] = T::ONE;
                let mut trailing = a.submatrix_mut(i, i + 1, m - i, n - i - 1);
                apply_reflector_left(&v[..m - i], tau, &mut trailing);
            }
        }
        taus
    })
}

/// Extract `R` (`min(m,n) x n`, upper triangular/trapezoidal) from a factored
/// matrix.
pub fn qr_r<T: Scalar>(a_fact: MatRef<'_, T>) -> Matrix<T> {
    let m = a_fact.rows();
    let n = a_fact.cols();
    let k = m.min(n);
    Matrix::from_fn(k, n, |i, j| if j >= i { a_fact.get(i, j) } else { T::ZERO })
}

/// Form the thin orthogonal factor `Q` (`m x k_cols`) from the output of
/// [`geqrf`] (LAPACK `orgqr`).
pub fn form_q<T: Scalar>(a_fact: MatRef<'_, T>, taus: &[T], k_cols: usize) -> Matrix<T> {
    let m = a_fact.rows();
    assert!(k_cols <= m, "form_q: requested more columns than rows");
    let mut q = Matrix::<T>::zeros(m, k_cols);
    for i in 0..k_cols {
        q[(i, i)] = T::ONE;
    }
    let mut v = vec![T::ZERO; m];
    for i in (0..taus.len()).rev() {
        if taus[i] == T::ZERO {
            continue;
        }
        let len = m - i;
        v[0] = T::ONE;
        for r in 1..len {
            v[r] = a_fact.get(i + r, i);
        }
        let mut sub = q.as_mut();
        let mut sub = sub.submatrix_mut(i, 0, len, k_cols);
        apply_reflector_left(&v[..len], taus[i], &mut sub);
    }
    q
}

/// Convenience: QR of an owned matrix, returning `(Q_thin, R)` with
/// `Q` of size `m x min(m,n)`.
pub fn qr<T: Scalar>(a: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let mut work = a.clone();
    let taus = geqrf(&mut work.as_mut());
    let r = qr_r(work.as_ref());
    let q = form_q(work.as_ref(), &taus, a.rows().min(a.cols()));
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn check_qr(a: &Matrix<f64>, tol: f64) {
        let (q, r) = qr(a);
        // Q orthonormal columns.
        assert!(q.orthonormality_error() < tol, "Q not orthonormal");
        // A = Q R.
        let qr_prod = matmul(&q, &r);
        assert!(qr_prod.max_abs_diff(a) < tol * a.max_abs().max(1.0), "A != QR");
        // R upper triangular.
        for j in 0..r.cols() {
            for i in j + 1..r.rows() {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn tall_matrix() {
        check_qr(&pseudo_matrix(20, 5, 1), 1e-13);
    }

    #[test]
    fn square_matrix() {
        check_qr(&pseudo_matrix(8, 8, 2), 1e-13);
    }

    #[test]
    fn wide_matrix() {
        check_qr(&pseudo_matrix(5, 12, 3), 1e-13);
    }

    #[test]
    fn rank_deficient_matrix() {
        // Two identical columns.
        let mut a = pseudo_matrix(10, 4, 4);
        for i in 0..10 {
            let v = a[(i, 0)];
            a[(i, 1)] = v;
        }
        check_qr(&a, 1e-12);
    }

    #[test]
    fn r_diagonal_magnitudes_match_column_norms_for_orthogonal_input() {
        // For a diagonal input, |R| diag equals |input| diag.
        let mut a = Matrix::<f64>::zeros(5, 5);
        for i in 0..5 {
            a[(i, i)] = (i + 1) as f64;
        }
        let (_, r) = qr(&a);
        for i in 0..5 {
            assert!((r[(i, i)].abs() - (i + 1) as f64).abs() < 1e-13);
        }
    }

    #[test]
    fn qr_on_transposed_view_equals_lq() {
        // geqrf applied to a transposed (row-contiguous) view must produce the
        // same R as applied to an explicit transpose.
        let a = pseudo_matrix(6, 15, 5); // short-fat
        let mut at_owned = a.transposed(); // 15x6 tall
        let taus_owned = geqrf(&mut at_owned.as_mut());
        let r_owned = qr_r(at_owned.as_ref());

        let mut work = a.clone();
        let mut wm = work.as_mut();
        let mut wt = wm.t_mut(); // 15x6 view over 6x15 data
        let taus_view = geqrf(&mut wt);
        let r_view = qr_r(wt.rb());

        assert_eq!(taus_owned.len(), taus_view.len());
        for (x, y) in taus_owned.iter().zip(&taus_view) {
            assert!((x - y).abs() < 1e-13);
        }
        assert!(r_owned.max_abs_diff(&r_view) < 1e-13);
    }

    #[test]
    fn single_precision_qr() {
        let a = Matrix::<f32>::from_fn(12, 6, |i, j| ((3 * i + j) as f32).sin());
        let mut work = a.clone();
        let taus = geqrf(&mut work.as_mut());
        let q = form_q(work.as_ref(), &taus, 6);
        assert!(q.orthonormality_error() < 1e-5);
        let r = qr_r(work.as_ref());
        let prod = matmul(&q, &r);
        assert!(prod.max_abs_diff(&a) < 1e-5);
    }
}
