//! Q-less LQ of short-fat matrices: the one way a matrix becomes `L`.
//!
//! For an `m x n` unfolding with `m ≪ n`, `A = L·Q` reduces the SVD problem
//! to the small lower-triangular `L` (paper §3.1); `Q`, the `τ`s and the
//! reflector tails are never wanted, so no entry point hands them out.
//! [`lq_factor`] is [`tslq_blocks`] over the one view at every shape: the
//! view is cut into cache-sized column panels, each folded into a running
//! triangle by the blocked `tplqt` (the paper's flat tree, Alg. 2), whose
//! trailing products are GEMMs — so a tall triangle gets the GEMM rate from
//! the fold itself and needs no second kernel. A matrix of 16 panels or
//! more is cut into a fixed number of flat-tree leaves that run on the pool
//! and merge left to right, so `L` does not depend on the thread count.
//!
//! The measurements are in EXPERIMENTS.md: "One Q-less LQ" (the flat tree
//! halves the 48 x 76 032 HCCI mode-0 LQ), "A GEMM-rate `tplqt`" (the
//! blocked fold halves it again), "One LQ kernel" (the fold against the
//! compact-WY QR it replaced above 64 rows) and "A fixed tree of flat-tree
//! leaves" (the leaves on the second core).

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::tslq::{tslq_blocks, TslqOptions};
use crate::view::MatRef;

/// LQ factor `L` (`m x m` lower triangular, zero-padded when `n < m` — the
/// paper's §3.4 detail: the TSQR tree needs a square triangle) of a view,
/// leaving the input untouched. One `"lq"` perf frame — `tslq_blocks`' —
/// with the model count of the whole factorization; the folds' own frames
/// nest under it.
pub fn lq_factor<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    tslq_blocks(a.rows(), std::iter::once(a), TslqOptions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, Trans};
    use crate::syrk::syrk_lower;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    /// `L Lᵀ` must equal `A Aᵀ` (Q orthogonality), the invariant the Gram and
    /// LQ paths share.
    fn check_llt_equals_aat(a: &Matrix<f64>, tol: f64) {
        let l = lq_factor(a.as_ref());
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(llt.max_abs_diff(&aat) < tol, "L Lᵀ != A Aᵀ");
    }

    #[test]
    fn short_fat_matrix() {
        check_llt_equals_aat(&pseudo_matrix(6, 40, 1), 1e-12);
    }

    #[test]
    fn square_matrix() {
        check_llt_equals_aat(&pseudo_matrix(9, 9, 2), 1e-12);
    }

    #[test]
    fn tall_matrix_is_padded() {
        let a = pseudo_matrix(10, 4, 3);
        let l = lq_factor(a.as_ref());
        assert_eq!(l.shape(), (10, 10));
        // Columns 4..10 are zero padding.
        for j in 4..10 {
            for i in 0..10 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
        check_llt_equals_aat(&a, 1e-12);
    }

    #[test]
    fn l_is_lower_triangular() {
        let a = pseudo_matrix(5, 20, 4);
        let l = lq_factor(a.as_ref());
        for j in 0..5 {
            for i in 0..j {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn row_major_input_matches_col_major() {
        let a = pseudo_matrix(4, 15, 5);
        // Row-major copy of the same matrix.
        let mut rm = vec![0.0f64; 60];
        for i in 0..4 {
            for j in 0..15 {
                rm[i * 15 + j] = a[(i, j)];
            }
        }
        let l_cm = lq_factor(a.as_ref());
        let l_rm = lq_factor(MatRef::row_major(&rm, 4, 15));
        // L is unique up to column signs; compare L Lᵀ.
        let p_cm = gemm_into(l_cm.as_ref(), Trans::No, l_cm.as_ref(), Trans::Yes);
        let p_rm = gemm_into(l_rm.as_ref(), Trans::No, l_rm.as_ref(), Trans::Yes);
        assert!(p_cm.max_abs_diff(&p_rm) < 1e-12);
    }

    #[test]
    fn row_major_view_input() {
        let data: Vec<f64> = (0..216 * 72).map(|x| ((x as f64) * 0.17).sin()).collect();
        let a = MatRef::row_major(&data, 72, 216);
        let l = lq_factor(a);
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a);
        assert!(llt.max_abs_diff(&aat) < 1e-11 * aat.max_abs());
    }

    #[test]
    fn zero_size_trailing_block() {
        // 128 rows are eight whole `tplqt` blocks: the last one has no rows
        // below it to update.
        let a = pseudo_matrix(128, 300, 15);
        check_llt_equals_aat(&a, 1e-11 * syrk_lower(a.as_ref()).max_abs());
    }

    #[test]
    fn residual_is_at_rounding_level_on_tall_triangles() {
        // `max|LLᵀ − AAᵀ| / max|AAᵀ|` reads 5–8e-16 on these shapes; the
        // bound leaves a 2.5× margin.
        for (m, seed) in [(65, 21), (130, 22), (456, 23)] {
            let a = pseudo_matrix(m, 4096, seed);
            let l = lq_factor(a.as_ref());
            let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
            let aat = syrk_lower(a.as_ref());
            let rel = llt.max_abs_diff(&aat) / aat.max_abs();
            assert!(rel <= 2e-15, "{m} x 4096: residual {rel:e}");
        }
    }

    #[test]
    fn single_precision_lq() {
        let a = Matrix::<f32>::from_fn(5, 30, |i, j| ((i * 31 + j) as f32).sin());
        let l = lq_factor(a.as_ref());
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(llt.max_abs_diff(&aat) < 1e-3 * aat.max_abs());
    }
}
