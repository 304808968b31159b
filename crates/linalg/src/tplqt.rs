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
//! [`NB`]; inside a block the reflectors are generated and applied in turn
//! to the block's own rows, with a one-step look-ahead: the pass that
//! applies `H_{p−1}` to a row also takes the row's dot with `b_p`, which
//! `H_p` needs, so each row is read once per reflector and up to
//! [`crate::scalar::STREAM_ROWS`] rows run side by side
//! ([`Scalar::axpy_dot_rows`]). Their product is `I − V·T·Vᵀ` with the
//! upper-triangular `T` of the forward `larft` recurrence, which needs only
//! `v_aᵀv_c = b_a·b_c` (the `e` parts are orthogonal; one
//! [`Scalar::dot_rows`] pass per column of `T`). Every dot and update has
//! the bits of one [`Scalar::dot`] / [`Scalar::axpy`] call, so `L` is the
//! one the reflector-at-a-time loop computes. The rows `R` below the block
//! are then updated once, by two calls into [`gemm`]:
//!
//! ```text
//! Wᵀ = L[R,I]ᵀ + B_I·B_Rᵀ,   Wᵀ ← Tᵀ·Wᵀ,   L[R,I] −= W,   B_Rᵀ −= B_Iᵀ·Wᵀ
//! ```
//!
//! Both products are posed on transposed views so that `C` is
//! column-contiguous (`Wᵀ` is a small column-major matrix; `B_Rᵀ` of a
//! row-contiguous `B` is `k × |R|` with leading dimension `k`) and the GEMM
//! engine writes back through column slices; the second product's `A = B_Iᵀ`
//! packs by `memcpy`. `gemm` splits `C` into fixed 256-column panels over
//! the pool once more than 256 rows lie below the block (`|R| > 256`, so
//! only on triangles above 272 rows) and the product passes 2²² flops, and
//! runs serially otherwise; either way its bits are the serial engine's. Everything else is serial and in a fixed order, so the bits of
//! `L` depend on the values of `[L B]` alone — not on `B`'s layout, nor on
//! the thread budget, nor on which thread runs the call (a leaf of
//! `tslq_blocks` may run on a pool worker).

use crate::gemm::gemm;
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
    fold_blocks(l, b, ld, k, reflect_block, larft);
}

/// Generates the reflectors of the rows `i0..i0 + nb` and applies each to
/// the block's rows below it, storing `τ_i` on the diagonal of `t`.
type ReflectBlock<T> = fn(&mut Matrix<T>, &mut [T], usize, usize, usize, usize, &mut [T; NB * NB]);
/// Fills the strictly upper part of the block's `T` from its reflectors.
type Larft<T> = fn(&[T], usize, usize, usize, usize, &mut [T; NB * NB]);

/// The block sweep of [`fold_rows`] around its two in-block steps.
fn fold_blocks<T: Scalar>(
    l: &mut Matrix<T>,
    b: &mut [T],
    ld: usize,
    k: usize,
    reflect: ReflectBlock<T>,
    larft: Larft<T>,
) {
    let m = l.rows();
    let mut t = [T::ZERO; NB * NB];
    // `Wᵀ`, column-major `nb x |R|`.
    let mut wt = vec![T::ZERO; NB * m.saturating_sub(NB)];
    for i0 in (0..m).step_by(NB) {
        let nb = NB.min(m - i0);
        let nr = m - i0 - nb;

        reflect(l, b, ld, k, i0, nb, &mut t);
        if nr == 0 {
            break;
        }
        larft(b, ld, k, i0, nb, &mut t);

        // Wᵀ = L[R,I]ᵀ + B_I·B_Rᵀ.
        let wt = &mut wt[..nb * nr];
        for (j, col) in wt.chunks_exact_mut(nb).enumerate() {
            for (a, w) in col.iter_mut().enumerate() {
                *w = l[(i0 + nb + j, i0 + a)];
            }
        }
        let (bi, br) = b[i0 * ld..].split_at_mut(nb * ld);
        gemm(
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
        gemm(
            -T::ONE,
            MatRef::strided(bi, k, nb, 1, ld),
            MatRef::col_major(wt, nb, nr),
            &mut MatMut::strided(br, k, nr, 1, ld),
        );
    }
}

/// The in-block reflectors with a one-step look-ahead. Applying `H_p` to a
/// row `j` below it needs `w_j = L[j,p] + row_j·b_p`; that dot runs in the
/// pass that applies `H_{p−1}` to the row ([`Scalar::axpy_dot_rows`]), so
/// every row below the pivot is read once per reflector. The next pivot's
/// row goes first, alone, because `b_p` is that row once `H_{p−1}` has
/// updated and `make_reflector` has scaled it; its pass returns the row's
/// sum of squares, which is `make_reflector`'s. Each value is the one the
/// reflector-at-a-time loop computes (one dot, then one axpy per row), so
/// `L` has its bits.
fn reflect_block<T: Scalar>(
    l: &mut Matrix<T>,
    b: &mut [T],
    ld: usize,
    k: usize,
    i0: usize,
    nb: usize,
    t: &mut [T; NB * NB],
) {
    let end = i0 + nb;
    // `alpha[j − i0] = −τ_{p−1}·w_j`, the pending update of row `j ≥ p` by
    // `H_{p−1}` while `pending`; then the dots `row_j·b_p` into `d`.
    let mut alpha = [T::ZERO; NB];
    let mut d = [T::ZERO; NB];
    let mut pending = false;
    for p in i0..end {
        let ssq = if pending {
            let (prev, pivot) = b[(p - 1) * ld..].split_at_mut(ld);
            let mut ssq = [T::ZERO];
            T::axpy_dot_rows(&alpha[p - i0..][..1], &prev[..k], None, &mut pivot[..k], ld, &mut ssq);
            ssq[0]
        } else {
            let v = &b[p * ld..][..k];
            T::dot(v, v)
        };
        let (beta, tau) = make_reflector(l[(p, p)], &mut b[p * ld..][..k], ssq);
        l[(p, p)] = beta;
        t[(p - i0) * (NB + 1)] = tau;

        // Rows `p + 1..end`: the pending `H_{p−1}`, then the dot with `b_p`.
        let below = p + 1..end;
        if !below.is_empty() {
            let at = below.start - i0..nb;
            let (head, rows) = b.split_at_mut(below.start * ld);
            let v = &head[p * ld..][..k];
            match (pending, tau != T::ZERO) {
                (true, true) => {
                    let prev = &head[(p - 1) * ld..][..k];
                    T::axpy_dot_rows(&alpha[at.clone()], prev, Some(v), rows, ld, &mut d[at]);
                }
                (true, false) => {
                    for (r, &a) in alpha[at].iter().enumerate() {
                        T::axpy(a, &head[(p - 1) * ld..][..k], &mut rows[r * ld..][..k]);
                    }
                }
                (false, true) => T::dot_rows(v, rows, ld, &mut d[at]),
                (false, false) => {}
            }
        }
        pending = tau != T::ZERO;
        if pending {
            for j in below {
                let tw = tau * (l[(j, p)] + d[j - i0]);
                l[(j, p)] -= tw;
                alpha[j - i0] = -tw;
            }
        }
    }
}

/// Forward larft: `T[..a, a] = −τ_a · T[..a, ..a] · g`, `g_c = b_c·b_a`,
/// one [`Scalar::dot_rows`] pass per column.
fn larft<T: Scalar>(b: &[T], ld: usize, k: usize, i0: usize, nb: usize, t: &mut [T; NB * NB]) {
    let mut g = [T::ZERO; NB];
    for a in 1..nb {
        T::dot_rows(&b[(i0 + a) * ld..][..k], &b[i0 * ld..], ld, &mut g[..a]);
        let tau = t[a * (NB + 1)];
        for r in 0..a {
            let mut s = T::ZERO;
            for c in r..a {
                s += t[c * NB + r] * g[c];
            }
            t[a * NB + r] = -tau * s;
        }
    }
}

/// [`crate::householder::make_reflector`] with the norm of the `k`-long tail
/// taken as `sqrt(ssq)` — `ssq = x·x` through [`Scalar::dot`], handed in by
/// the caller's pass over the row — when the sum of squares is safely inside
/// the normal range ([`Scalar::sumsq_is_safe`]), and by the scaled [`norm2`]
/// (one division per element) otherwise. Same sign choice, same `safmin`
/// rescaling.
fn make_reflector<T: Scalar>(alpha: T, x: &mut [T], ssq: T) -> (T, T) {
    let norm = |x: &[T], ssq: T| if ssq.sumsq_is_safe() { ssq.sqrt() } else { norm2(x) };
    let mut xnorm = norm(x, ssq);
    if xnorm == T::ZERO {
        return (alpha, T::ZERO);
    }
    let mut alpha = alpha;
    let mut beta = -alpha.hypot(xnorm).copysign(alpha);
    let safmin = T::MIN_POSITIVE / T::EPSILON;
    let rsafmn = T::ONE / safmin;
    let mut rescalings = 0usize;
    while beta.abs() < safmin && rescalings < 32 {
        T::scale(rsafmn, x);
        alpha *= rsafmn;
        xnorm = norm(x, T::dot(x, x));
        beta = -alpha.hypot(xnorm).copysign(alpha);
        rescalings += 1;
    }
    let tau = (beta - alpha) / beta;
    T::scale(T::ONE / (alpha - beta), x);
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

    /// The in-block loop before the look-ahead, kept as the oracle: one
    /// reflector at a time, each row of the block below it read by a dot
    /// and then by an axpy.
    fn reflect_block_oracle<T: Scalar>(
        l: &mut Matrix<T>,
        b: &mut [T],
        ld: usize,
        k: usize,
        i0: usize,
        nb: usize,
        t: &mut [T; NB * NB],
    ) {
        for i in i0..i0 + nb {
            let (v, below) = b[i * ld..].split_at_mut(k);
            let (beta, tau) = make_reflector(l[(i, i)], v, T::dot(v, v));
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
    }

    /// The larft before `dot_rows`: one dot per pair of reflectors.
    fn larft_oracle<T: Scalar>(b: &[T], ld: usize, k: usize, i0: usize, nb: usize, t: &mut [T; NB * NB]) {
        let row = |i: usize| &b[i * ld..][..k];
        let mut g = [T::ZERO; NB];
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
    }

    /// `tplqt` on `[L B]` with `B` row-major at stride `ld ≥ k`, against the
    /// oracle's fold of the same bits: `L` must match bit for bit.
    fn check_against_oracle<T: Scalar>(l0: &Matrix<T>, b0: &[T], ld: usize, k: usize, what: &str) {
        let m = l0.rows();
        let (mut l, mut b) = (l0.clone(), b0.to_vec());
        tplqt(&mut l, &mut MatMut::strided(&mut b, m, k, ld, 1));
        let (mut want, mut b) = (l0.clone(), b0.to_vec());
        fold_blocks(&mut want, &mut b, ld, k, reflect_block_oracle, larft_oracle);
        let bits = |l: &Matrix<T>| l.data().iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&l), bits(&want), "{} {what}", T::PRECISION_NAME);
    }

    fn oracle_sweep<T: Scalar>() {
        for m in [1usize, 2, 15, 16, 17, 31, 33, 48, 65] {
            for k in [1usize, 31, 32, 33, 1024, 1027] {
                let ld = k + 5 * (m % 2);
                let tri = lower_tri(m as u64, m);
                let l0 = Matrix::from_fn(m, m, |i, j| T::from_f64(tri[(i, j)]));
                let src = pseudo_matrix(m, ld, 100 + k as u64);
                let b0: Vec<T> = (0..m * ld).map(|e| T::from_f64(src[(e / ld, e % ld)])).collect();
                check_against_oracle(&l0, &b0, ld, k, &format!("m = {m}, k = {k}, ld = {ld}"));
            }
        }
    }

    #[test]
    fn look_ahead_has_the_bits_of_the_reflector_at_a_time_loop() {
        oracle_sweep::<f64>();
        oracle_sweep::<f32>();
    }

    /// Rows planted to reach every branch of the look-ahead: in a 40-row
    /// fold, zero tails (`τ = 0`) after a live reflector (row 5) and after
    /// another zero tail (row 6) — so row 7's reflector has nothing pending
    /// — in the middle of a block and as a block's first row (16), and
    /// tiny rows whose sum of squares takes the scaled `norm2` (rows 0, 9,
    /// 20) or whose `β` takes the `safmin` rescaling (rows 11, 33). A
    /// planted row has no `L` entries left of its diagonal, so the
    /// reflectors above it leave its tail zero or tiny.
    fn check_planted_rows<T: Scalar>(norm2_scale: f64, rescale: f64) {
        let (m, k) = (40usize, 1027usize);
        let full = lower_tri(21, m);
        let src = pseudo_matrix(m, k, 22);
        let plant = |i: usize| match i {
            5 | 6 | 16 => Some(0.0),
            0 | 9 | 20 => Some(norm2_scale),
            11 | 33 => Some(rescale),
            _ => None,
        };
        let l0 = Matrix::from_fn(m, m, |i, j| match (plant(i), j.cmp(&i)) {
            (_, std::cmp::Ordering::Greater) | (Some(_), std::cmp::Ordering::Less) => T::ZERO,
            (Some(s), std::cmp::Ordering::Equal) => T::from_f64(full[(i, i)] * s),
            (None, _) => T::from_f64(full[(i, j)]),
        });
        let b0: Vec<T> = (0..m * k).map(|e| T::from_f64(src[(e / k, e % k)] * plant(e / k).unwrap_or(1.0))).collect();
        let row = |i: usize| &b0[i * k..][..k];
        for i in [0, 9, 20] {
            assert!(!T::dot(row(i), row(i)).sumsq_is_safe(), "row {i} must take norm2");
        }
        check_against_oracle(&l0, &b0, k, k, "planted rows");
        // A zero tail leaves its diagonal as it was (`τ = 0`, `β = α`).
        let mut l = l0.clone();
        tplqt(&mut l, &mut MatMut::row_major(&mut b0.clone(), m, k));
        for i in [5, 6, 16] {
            assert_eq!(l[(i, i)], l0[(i, i)], "{} row {i}", T::PRECISION_NAME);
        }
        for i in [11, 33] {
            assert!(l[(i, i)] != T::ZERO && l[(i, i)].abs() < T::MIN_POSITIVE / T::EPSILON, "row {i}");
        }
    }

    #[test]
    fn planted_rows_reach_every_branch_with_the_oracles_bits() {
        check_planted_rows::<f64>(1e-142, 1e-300);
        check_planted_rows::<f32>(1e-15, 1e-34);
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
