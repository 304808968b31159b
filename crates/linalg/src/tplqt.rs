//! Structured LQ of `[L B]` with `L` lower triangular — the LQ mirror of
//! LAPACK's `tpqrt` ("triangular-pentagonal QR").
//!
//! This is the reduction operator of both TSQR variants in the paper:
//! the sequential flat tree annihilates one column block of the unfolding at
//! a time against the running triangle (Alg. 2 line 7), and the parallel
//! butterfly annihilates the partner processor's triangle at every tree level
//! (Alg. 3 lines 14/16).
//!
//! `L` is updated in place with the new triangular factor; `B` is consumed
//! (on return it holds reflector junk). The pentagonal sub-structure of `B`
//! is not exploited — the paper observes (§4.2.1) that `tpqrt` is not
//! performance critical, and treating `B` as a full rectangle only affects
//! the lower-order `O(m³)` term.

use crate::householder::make_reflector;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::MatMut;

/// In-place structured LQ of `[L B]`: `L` (`m x m`, lower triangular) receives
/// the LQ factor of the concatenation; `B` (`m x k`) is destroyed.
pub fn tplqt<T: Scalar>(l: &mut Matrix<T>, b: &mut MatMut<'_, T>) {
    let m = l.rows();
    assert_eq!(l.cols(), m, "tplqt: L must be square");
    assert_eq!(b.rows(), m, "tplqt: row count mismatch");
    let k = b.cols();
    if k == 0 {
        return;
    }
    // Model count 2·m²·k: `B` is treated as a full rectangle (see above).
    crate::perf::with_kernel("lq", (2 * m * m * k) as u64, 0, || tplqt_impl(l, b, m, k))
}

fn tplqt_impl<T: Scalar>(l: &mut Matrix<T>, b: &mut MatMut<'_, T>, m: usize, k: usize) {
    let mut v = vec![T::ZERO; k];
    let mut w = vec![T::ZERO; m];
    for i in 0..m {
        // Build the reflector from (L[i,i], B[i, :]). Row i of L left of the
        // diagonal is final output and does not participate; right of the
        // diagonal it is structurally zero.
        for c in 0..k {
            v[c] = b.get(i, c);
        }
        let alpha = l[(i, i)];
        let (beta, tau) = make_reflector(alpha, &mut v);
        l[(i, i)] = beta;
        if tau == T::ZERO || i + 1 == m {
            continue;
        }
        let nrows = m - i - 1;
        // w_j = L[j, i] + B[j, :] · v   for j = i+1..m
        for j in 0..nrows {
            w[j] = l[(i + 1 + j, i)];
        }
        if b.col_stride() == 1 {
            let rs = b.row_stride();
            let data = b.data_mut();
            for j in 0..nrows {
                let row = &data[(i + 1 + j) * rs..(i + 1 + j) * rs + k];
                let mut acc = w[j];
                for c in 0..k {
                    acc = row[c].mul_add(v[c], acc);
                }
                w[j] = acc;
            }
            for j in 0..nrows {
                let tw = tau * w[j];
                l[(i + 1 + j, i)] -= tw;
                let row = &mut data[(i + 1 + j) * rs..(i + 1 + j) * rs + k];
                for c in 0..k {
                    row[c] = (-tw).mul_add(v[c], row[c]);
                }
            }
        } else if b.row_stride() == 1 {
            let cs = b.col_stride();
            let data = b.data_mut();
            for c in 0..k {
                let vc = v[c];
                if vc == T::ZERO {
                    continue;
                }
                let col = &data[c * cs + i + 1..c * cs + m];
                for j in 0..nrows {
                    w[j] = col[j].mul_add(vc, w[j]);
                }
            }
            for j in 0..nrows {
                let tw = tau * w[j];
                l[(i + 1 + j, i)] -= tw;
                w[j] = tw; // reuse as scaled weight for the update pass
            }
            for c in 0..k {
                let vc = v[c];
                if vc == T::ZERO {
                    continue;
                }
                let col = &mut data[c * cs + i + 1..c * cs + m];
                for j in 0..nrows {
                    col[j] = (-w[j]).mul_add(vc, col[j]);
                }
            }
            continue; // L update already folded in above
        } else {
            for j in 0..nrows {
                let mut acc = w[j];
                for c in 0..k {
                    acc += b.get(i + 1 + j, c) * v[c];
                }
                w[j] = acc;
            }
            for j in 0..nrows {
                let tw = tau * w[j];
                l[(i + 1 + j, i)] -= tw;
                for c in 0..k {
                    let vc = v[c];
                    b.update(i + 1 + j, c, |x| x - tw * vc);
                }
            }
        }
    }
}

/// Reduce two lower-triangular factors: `L_out = LQ-factor of [L_a  L_b]`,
/// updating `L_a` in place and consuming a copy of `L_b`.
///
/// This is the butterfly/binomial TSQR reduction operation (Alg. 3).
pub fn tplqt_pair<T: Scalar>(l_a: &mut Matrix<T>, l_b: &Matrix<T>) {
    let m = l_a.rows();
    assert_eq!(l_b.shape(), (m, m), "tplqt_pair: shape mismatch");
    let mut scratch = l_b.clone();
    let mut view = scratch.as_mut();
    tplqt(l_a, &mut view);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, Trans};
    use crate::lq::lq_factor;
    use crate::syrk::syrk_lower;
    use crate::view::MatRef;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    /// Check that the updated L satisfies L_new L_newᵀ = [L B][L B]ᵀ.
    fn check_gram_invariant(l0: &Matrix<f64>, b: &Matrix<f64>, tol: f64) {
        let m = l0.rows();
        let k = b.cols();
        let mut l = l0.clone();
        let mut bwork = b.clone();
        let mut bview = bwork.as_mut();
        tplqt(&mut l, &mut bview);
        // Expected Gram: L0 L0ᵀ + B Bᵀ.
        let mut expect = gemm_into(l0.as_ref(), Trans::No, l0.as_ref(), Trans::Yes);
        let bbt = syrk_lower(b.as_ref());
        for j in 0..m {
            for i in 0..m {
                expect[(i, j)] += bbt[(i, j)];
            }
        }
        let got = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        assert!(got.max_abs_diff(&expect) < tol, "Gram invariant violated (k={k})");
        // L stays lower triangular.
        for j in 0..m {
            for i in 0..j {
                assert_eq!(l[(i, j)], 0.0, "fill-in above diagonal");
            }
        }
    }

    fn lower_tri(seed: u64, m: usize) -> Matrix<f64> {
        let full = pseudo_matrix(m, m, seed);
        Matrix::from_fn(m, m, |i, j| if j <= i { full[(i, j)] } else { 0.0 })
    }

    #[test]
    fn triangle_plus_rectangle() {
        check_gram_invariant(&lower_tri(1, 6), &pseudo_matrix(6, 10, 2), 1e-12);
    }

    #[test]
    fn triangle_plus_triangle() {
        check_gram_invariant(&lower_tri(3, 5), &lower_tri(4, 5), 1e-12);
    }

    #[test]
    fn triangle_plus_single_column() {
        check_gram_invariant(&lower_tri(5, 4), &pseudo_matrix(4, 1, 6), 1e-13);
    }

    #[test]
    fn zero_b_is_identity_operation_up_to_sign() {
        let l0 = lower_tri(7, 4);
        let b = Matrix::<f64>::zeros(4, 3);
        check_gram_invariant(&l0, &b, 1e-13);
    }

    #[test]
    fn matches_dense_lq_of_concatenation() {
        let m = 5;
        let l0 = lower_tri(8, m);
        let b = pseudo_matrix(m, 7, 9);
        // Dense LQ of [L0 B].
        let concat = Matrix::from_fn(m, m + 7, |i, j| if j < m { l0[(i, j)] } else { b[(i, j - m)] });
        let l_dense = lq_factor(concat.as_ref());
        let mut l = l0.clone();
        let mut bwork = b.clone();
        let mut bview = bwork.as_mut();
        tplqt(&mut l, &mut bview);
        // Unique up to column signs; compare Grams.
        let g1 = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let g2 = gemm_into(l_dense.as_ref(), Trans::No, l_dense.as_ref(), Trans::Yes);
        assert!(g1.max_abs_diff(&g2) < 1e-12);
    }

    #[test]
    fn row_major_b_matches_col_major_b() {
        let m = 6;
        let l0 = lower_tri(10, m);
        let b = pseudo_matrix(m, 9, 11);
        let mut l_cm = l0.clone();
        let mut b_cm = b.clone();
        let mut v = b_cm.as_mut();
        tplqt(&mut l_cm, &mut v);

        let mut l_rm = l0.clone();
        let mut rm = vec![0.0f64; m * 9];
        for i in 0..m {
            for j in 0..9 {
                rm[i * 9 + j] = b[(i, j)];
            }
        }
        let mut v = MatMut::row_major(&mut rm, m, 9);
        tplqt(&mut l_rm, &mut v);
        assert!(l_cm.max_abs_diff(&l_rm) < 1e-12);
    }

    #[test]
    fn pair_reduction_accumulates_both_grams() {
        let a = pseudo_matrix(4, 12, 12);
        let b = pseudo_matrix(4, 12, 13);
        let mut la = lq_factor(a.as_ref());
        let lb = lq_factor(b.as_ref());
        tplqt_pair(&mut la, &lb);
        let got = gemm_into(la.as_ref(), Trans::No, la.as_ref(), Trans::Yes);
        // Expected: A Aᵀ + B Bᵀ.
        let mut expect = syrk_lower(a.as_ref());
        let bbt = syrk_lower(b.as_ref());
        for j in 0..4 {
            for i in 0..4 {
                expect[(i, j)] += bbt[(i, j)];
            }
        }
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn single_precision_pair() {
        let a = Matrix::<f32>::from_fn(3, 8, |i, j| ((i * 8 + j) as f32).cos());
        let b = Matrix::<f32>::from_fn(3, 8, |i, j| ((i * 8 + j) as f32).sin());
        let mut la = lq_factor(a.as_ref());
        let lb = lq_factor(b.as_ref());
        tplqt_pair(&mut la, &lb);
        let got = gemm_into(la.as_ref(), Trans::No, la.as_ref(), Trans::Yes);
        let mut expect = syrk_lower(a.as_ref());
        let bbt = syrk_lower(b.as_ref());
        for j in 0..3 {
            for i in 0..3 {
                expect[(i, j)] += bbt[(i, j)];
            }
        }
        assert!(got.max_abs_diff(&expect) < 1e-4);
    }

    /// The MatRef import is exercised here to keep the test module honest
    /// about what tplqt consumes.
    #[test]
    fn b_is_destroyed_but_shape_preserved() {
        let mut l = lower_tri(14, 3);
        let mut b = pseudo_matrix(3, 4, 15);
        let before: MatRef<'_, f64> = b.as_ref();
        let (r, c) = (before.rows(), before.cols());
        let mut v = b.as_mut();
        tplqt(&mut l, &mut v);
        assert_eq!((v.rows(), v.cols()), (r, c));
    }
}
