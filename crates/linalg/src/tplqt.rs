//! Structured LQ of `[L B]` with `L` lower triangular — the LQ mirror of
//! LAPACK's `tpqrt` ("triangular-pentagonal QR").
//!
//! This is the reduction operator of both TSQR variants in the paper:
//! each flat-tree leaf annihilates one column block of the unfolding at a
//! time against its running triangle (Alg. 2 line 7), and the leaves'
//! triangles — like the partner processor's triangle at every level of the
//! parallel butterfly (Alg. 3 lines 14/16) — are merged by [`tplqt_pair`].
//!
//! `L` is updated in place with the new triangular factor; `B` is consumed
//! (on return its contents are unspecified). The pentagonal sub-structure of
//! `B` is not exploited: treating `B` as a full rectangle only affects the
//! lower-order `O(m³)` term. The paper calls `tpqrt` not performance
//! critical (§4.2.1) because MKL's runs at GEMM rate; here, since the flat
//! tree is the LQ of every matrix and of every leaf, this kernel *is* the
//! LQ's time, so it is blocked:
//!
//! Row `i`'s reflector is `H_i = I − τ_i v_i v_iᵀ` with `v_i = e_i ⊕ b_i`
//! (`b_i` the tail left in row `i` of `B`). Rows are swept in blocks `I` of
//! [`NB`]; inside a block the reflectors are generated and applied one at a
//! time to the block's own rows. Their product is `I − V·T·Vᵀ` with the
//! upper-triangular `T` of the forward `larft` recurrence, which needs only
//! `v_aᵀv_c = b_a·b_c` (the `e` parts are orthogonal). The rows `R` below
//! the block are then updated once, by two calls into [`gemm_par`]:
//!
//! ```text
//! Wᵀ = L[R,I]ᵀ + B_I·B_Rᵀ,   Wᵀ ← Tᵀ·Wᵀ,   L[R,I] −= W,   B_Rᵀ −= B_Iᵀ·Wᵀ
//! ```
//!
//! Both products are posed on transposed views so that `C` is
//! column-contiguous (`Wᵀ` is a small column-major matrix; `B_Rᵀ` of a
//! row-contiguous `B` is `k × |R|` with leading dimension `k`) and the GEMM
//! engine writes back through column slices; the second product's `A = B_Iᵀ`
//! packs by `memcpy`. `gemm_par` splits `C` into fixed 256-column panels
//! over the pool once more than 256 rows lie below the block (`|R| > 256`,
//! so only on triangles above 272 rows) and the product passes 2²² flops,
//! and is the serial `gemm` otherwise; either way its bits are the serial
//! call's. Everything else is serial and in a fixed order, so the bits of
//! `L` depend on the values of `[L B]` alone — not on `B`'s layout, nor on
//! the thread budget, nor on which thread runs the call (a leaf of
//! `tslq_blocks` may run on a pool worker).

use crate::gemm::gemm_par;
use crate::householder::norm2;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{transpose_into, MatMut, MatRef};

/// Rows per compact-WY block: wide enough that the second product's inner
/// dimension fills the microkernel's depth loop, narrow enough that the
/// unblocked in-block work (`∝ NB` per row) stays a third of the flops at
/// 48 rows (DESIGN.md §13).
const NB: usize = 16;

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
    crate::perf::with_kernel("lq", (2 * m * m * k) as u64, 0, || {
        if b.row_contiguous() {
            let ld = b.row_stride();
            assert!(m == 1 || ld >= k, "tplqt: rows of B overlap");
            fold_rows(l, b.data_mut(), ld, k);
        } else {
            // One body: any other layout becomes the row-major matrix first
            // (`B` is consumed either way).
            let mut rows = vec![T::ZERO; m * k];
            transpose_into(b.rb(), &mut MatMut::col_major(&mut rows, k, m));
            fold_rows(l, &mut rows, k, k);
        }
    })
}

/// The blocked kernel on a row-contiguous `B`: row `i` is `b[i·ld..][..k]`.
fn fold_rows<T: Scalar>(l: &mut Matrix<T>, b: &mut [T], ld: usize, k: usize) {
    let m = l.rows();
    let mut t = [T::ZERO; NB * NB];
    let mut g = [T::ZERO; NB];
    // `Wᵀ`, column-major `nb x |R|`.
    let mut wt = vec![T::ZERO; NB * m.saturating_sub(NB)];
    for i0 in (0..m).step_by(NB) {
        let nb = NB.min(m - i0);
        let nr = m - i0 - nb;

        // Reflectors of the block, applied to the block's own rows.
        for i in i0..i0 + nb {
            let (v, below) = b[i * ld..].split_at_mut(k);
            let (beta, tau) = make_reflector(l[(i, i)], v);
            l[(i, i)] = beta;
            t[(i - i0) * (NB + 1)] = tau;
            if tau == T::ZERO {
                continue;
            }
            for j in i + 1..i0 + nb {
                let row = &mut below[(j - i) * ld - k..][..k];
                let tw = tau * (l[(j, i)] + T::dot(row, v));
                l[(j, i)] -= tw;
                T::axpy(-tw, v, row);
            }
        }

        if nr == 0 {
            break;
        }

        // Forward larft: T[..a, a] = −τ_a · T[..a, ..a] · g, g_c = b_c·b_a.
        let row = |i: usize| &b[i * ld..][..k];
        for a in 1..nb {
            for (c, gc) in g[..a].iter_mut().enumerate() {
                *gc = T::dot(row(i0 + c), row(i0 + a));
            }
            let tau = t[a * (NB + 1)];
            for r in 0..a {
                let mut s = T::ZERO;
                for c in r..a {
                    s += t[c * NB + r] * g[c];
                }
                t[a * NB + r] = -tau * s;
            }
        }

        // Wᵀ = L[R,I]ᵀ + B_I·B_Rᵀ.
        let wt = &mut wt[..nb * nr];
        for (j, col) in wt.chunks_exact_mut(nb).enumerate() {
            for (a, w) in col.iter_mut().enumerate() {
                *w = l[(i0 + nb + j, i0 + a)];
            }
        }
        let (bi, br) = b[i0 * ld..].split_at_mut(nb * ld);
        gemm_par(
            T::ONE,
            MatRef::strided(bi, nb, k, ld, 1),
            MatRef::strided(br, k, nr, 1, ld),
            &mut MatMut::col_major(wt, nb, nr),
        );
        // Wᵀ ← Tᵀ·Wᵀ in place (bottom row first), L[R,I] −= W.
        for (j, col) in wt.chunks_exact_mut(nb).enumerate() {
            for a in (0..nb).rev() {
                let mut s = T::ZERO;
                for c in 0..=a {
                    s += t[a * NB + c] * col[c];
                }
                col[a] = s;
                l[(i0 + nb + j, i0 + a)] -= s;
            }
        }
        // B_Rᵀ −= B_Iᵀ·Wᵀ.
        gemm_par(
            -T::ONE,
            MatRef::strided(bi, k, nb, 1, ld),
            MatRef::col_major(wt, nb, nr),
            &mut MatMut::strided(br, k, nr, 1, ld),
        );
    }
}

/// [`crate::householder::make_reflector`] with the norm of the `k`-long tail
/// taken as `sqrt(x·x)` through [`Scalar::dot`] when the sum of squares is
/// safely inside the normal range ([`Scalar::sumsq_is_safe`]), and by the
/// scaled [`norm2`] (one division per element) otherwise. Same sign choice, same `safmin` rescaling.
fn make_reflector<T: Scalar>(alpha: T, x: &mut [T]) -> (T, T) {
    let norm = |x: &[T]| {
        let ssq = T::dot(x, x);
        if ssq.sumsq_is_safe() {
            ssq.sqrt()
        } else {
            norm2(x)
        }
    };
    let mut xnorm = norm(x);
    if xnorm == T::ZERO {
        return (alpha, T::ZERO);
    }
    let mut alpha = alpha;
    let mut beta = -alpha.hypot(xnorm).copysign(alpha);
    let safmin = T::MIN_POSITIVE / T::EPSILON;
    let rsafmn = T::ONE / safmin;
    let mut rescalings = 0usize;
    while beta.abs() < safmin && rescalings < 32 {
        for v in x.iter_mut() {
            *v *= rsafmn;
        }
        alpha *= rsafmn;
        xnorm = norm(x);
        beta = -alpha.hypot(xnorm).copysign(alpha);
        rescalings += 1;
    }
    let tau = (beta - alpha) / beta;
    let inv = T::ONE / (alpha - beta);
    for v in x.iter_mut() {
        *v *= inv;
    }
    for _ in 0..rescalings {
        beta *= safmin;
    }
    (beta, tau)
}

/// Reduce two lower-triangular factors: `L_out = LQ-factor of [L_a  L_b]`,
/// updating `L_a` in place and consuming a copy of `L_b`.
///
/// This is the butterfly/binomial TSQR reduction operation (Alg. 3), and the
/// merge of `tslq_blocks`' flat-tree leaves.
pub fn tplqt_pair<T: Scalar>(l_a: &mut Matrix<T>, l_b: &Matrix<T>) {
    let m = l_a.rows();
    assert_eq!(l_b.shape(), (m, m), "tplqt_pair: shape mismatch");
    // The row-major copy `tplqt` would make of a column-major `L_b`.
    let mut rows = l_b.transposed();
    tplqt(l_a, &mut MatMut::row_major(rows.data_mut(), m, m));
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
        tplqt(&mut l_cm, &mut b.clone().as_mut());

        let mut l_rm = l0.clone();
        let mut rm = b.transposed();
        tplqt(&mut l_rm, &mut MatMut::row_major(rm.data_mut(), m, 9));
        assert_eq!(l_cm, l_rm, "one body: the layout of B is not an input");
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
