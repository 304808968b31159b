//! Blocked Householder QR via the compact WY representation
//! (`H_0 H_1 ··· H_{k-1} = I − V·T·Vᵀ`, LAPACK `larft`/`larfb`).
//!
//! The unblocked factorization applies each reflector with matrix-vector
//! work (low arithmetic intensity); on the 256 × 16384 unfoldings the
//! ST-HOSVD drivers produce it is memory bound at a few GFLOP/s. This module
//! rebuilds the hot path so that ~90% of the flops run through the
//! register-tiled GEMM engine of `crate::kernel`:
//!
//! * **Panels** are factored by halving recursion (width `nb` → `nb/2` →
//!   … → 8, then unblocked), always on *column-contiguous* storage:
//!   [`crate::lq::lq_factor`], the LQ side's only entry point, transposes a
//!   short-fat input with more than [`DEFAULT_BLOCK`] rows once into an
//!   owned column-major workspace (a cache-blocked O(mn) copy), runs this
//!   QR there and reads `L = Rᵀ` out of the triangle — `Q`, the `τ`s and
//!   the tails are never copied back. Every reflector apply is a single
//!   pass over contiguous columns instead of the two-pass row-major streams
//!   of a transposed view.
//! * The **`T` factor** (`larft`) gets its panel Gram matrix `VᵀV` from the
//!   tiled SYRK; only the tiny `k × k` recurrence remains scalar.
//! * **Trailing updates** `C ← C − V·Tᵀ·(VᵀC)` consume the factored panel in
//!   place (`V2`, the rectangular bulk of `V`, is a view into the workspace;
//!   only the jb×jb unit triangle `V1` is copied): the wide `V2ᵀC` runs
//!   through [`gemm_into`] (parallel, deterministic) and the rank-`nb`
//!   accumulate through [`gemm_par`], which fans fixed-width column panels
//!   out over rayon. Panel boundaries are constants, each panel is computed
//!   by the same serial engine over the full inner dimension, so the result
//!   is bit-identical for every thread count — the invariant gemm/syrk
//!   already satisfy.
//!
//! Degenerate shapes (a single panel, `nb ≤ 1`, or an empty trailing block)
//! delegate to the unblocked path and are therefore *bitwise* identical to
//! the serial reference.

use crate::gemm::{gemm, gemm_into, gemm_par, Trans};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

/// Default panel width (tuned on the 256 × 16384 ST-HOSVD unfolding shape:
/// wide enough that the trailing GEMMs amortize their C-tile traffic over a
/// long inner dimension, while the halving recursion keeps the panel's own
/// factorization out of the unblocked reflector streams).
pub const DEFAULT_BLOCK: usize = 64;

/// Edge length of the cache-blocked transpose copies.
const TRANSPOSE_TILE: usize = 128;

/// Blocked in-place Householder QR. Identical output convention to
/// [`crate::qr::geqrf`] (R in the upper triangle, reflector tails below,
/// `tau`s returned); trailing updates are performed as GEMMs.
pub fn geqrf_blocked<T: Scalar>(a: &mut MatMut<'_, T>, nb: usize) -> Vec<T> {
    let (m, n) = (a.rows(), a.cols());
    crate::perf::with_kernel("qr", crate::perf::qr_flops(m, n), 0, || geqrf_blocked_impl(a, nb))
}

/// Body of [`geqrf_blocked`], split out of the perf-collector frame; the
/// panel `geqrf`s and trailing-update GEMMs inside are depth-guarded.
pub(crate) fn geqrf_blocked_impl<T: Scalar>(a: &mut MatMut<'_, T>, nb: usize) -> Vec<T> {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    // Degenerate shapes — a single panel covers every reflector, or blocking
    // is disabled — take the unblocked path on the same view, so blocked and
    // unblocked agree bit for bit (not just to roundoff).
    if nb <= 1 || k <= nb {
        return crate::qr::geqrf_impl(a);
    }
    let mut taus = vec![T::ZERO; k];
    let mut j = 0;
    while j < k {
        let jb = nb.min(k - j);
        let pm = m - j;
        // Factor the panel A[j.., j..j+jb] recursively with a half-width
        // inner panel, so most of the panel's own trailing work runs through
        // the GEMM engine too (the recursion bottoms out in geqrf_impl at
        // width 8, keeping unblocked reflector streams to a sliver of the
        // flops).
        let ptaus = {
            let mut panel = a.submatrix_mut(j, j, pm, jb);
            if nb / 2 >= 8 {
                geqrf_blocked_impl(&mut panel, nb / 2)
            } else {
                crate::qr::geqrf_impl(&mut panel)
            }
        };
        taus[j..j + jb].copy_from_slice(&ptaus);

        let nc = n - j - jb;
        if nc > 0 {
            if a.col_contiguous() {
                // The factored panel (read) and the trailing block (write)
                // occupy disjoint column ranges of the column-contiguous
                // buffer, so a split lets the update consume the panel in
                // place — no pm×jb copy of V.
                let ld = a.col_stride();
                let data = a.data_mut();
                let (left, right) = data.split_at_mut((j + jb) * ld);
                let panel = MatRef::strided(&left[j * ld + j..], pm, jb, 1, ld);
                let mut c =
                    MatMut::strided(&mut right[j..j + (nc - 1) * ld + pm], pm, nc, 1, ld);
                wy_update(panel, &ptaus, &mut c);
            } else {
                // Strided input (e.g. a row-major view): copy the panel out
                // once; wy_update never reads its upper triangle.
                let panel = {
                    let pv = a.rb();
                    pv.submatrix(j, j, pm, jb).to_matrix()
                };
                let mut c = a.submatrix_mut(j, j + jb, pm, nc);
                wy_update(panel.as_ref(), &ptaus, &mut c);
            }
        }
        j += jb;
    }
    taus
}

/// Owned column-major transpose of a view (cache-blocked copy).
pub(crate) fn transposed_matrix<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    let (m, n) = (a.rows(), a.cols());
    let mut out = Matrix::<T>::zeros(n, m);
    transpose_into(a, &mut out.as_mut());
    out
}

/// `dst ← srcᵀ`, tiled so both sides stay cache-resident (a strided
/// straight-line copy touches one cache line per element; the tiles cut that
/// to one line per [`TRANSPOSE_TILE`] elements on the strided side).
///
/// When both sides are column-contiguous the tile interior runs on raw
/// slices — the strided `get`/`set` path costs an indexing multiply and a
/// bounds check per element, which made the 32 MB copy of the hot LQ shape
/// cost more than the panel factorizations it was buying.
pub(crate) fn transpose_into<T: Scalar>(src: MatRef<'_, T>, dst: &mut MatMut<'_, T>) {
    let (m, n) = (src.rows(), src.cols());
    assert_eq!((dst.rows(), dst.cols()), (n, m), "transpose_into: shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    // Mixed layouts transpose by straight memcpy: row i of a row-contiguous
    // src IS column i of a col-contiguous dst (and vice versa) — the case a
    // row-major unfolding view hits on its way into the column-major QR
    // workspace.
    if src.row_contiguous() && dst.col_contiguous() {
        let srs = src.row_stride();
        let dcs = dst.col_stride();
        let s = src.data();
        let d = dst.data_mut();
        for i in 0..m {
            d[i * dcs..i * dcs + n].copy_from_slice(&s[i * srs..i * srs + n]);
        }
        return;
    }
    if src.col_contiguous() && dst.row_contiguous() {
        let scs = src.col_stride();
        let drs = dst.row_stride();
        let s = src.data();
        let d = dst.data_mut();
        for j in 0..n {
            d[j * drs..j * drs + m].copy_from_slice(&s[j * scs..j * scs + m]);
        }
        return;
    }
    if src.col_contiguous() && dst.col_contiguous() {
        let scs = src.col_stride();
        let dcs = dst.col_stride();
        let s = src.data();
        let d = dst.data_mut();
        // Two-phase tiles through an L1-resident scratch block: gather the
        // tile with contiguous column memcpys, then scatter with contiguous
        // writes into dst columns. Both DRAM streams stay sequential; the
        // only strided accesses land in the scratch buffer.
        // Heap, not a stack array: the tile is 128 KiB at f64.
        #[allow(clippy::useless_vec)]
        let mut scratch = vec![T::ZERO; TRANSPOSE_TILE * TRANSPOSE_TILE];
        let mut i0 = 0;
        while i0 < m {
            let ib = TRANSPOSE_TILE.min(m - i0);
            let mut j0 = 0;
            while j0 < n {
                let jb = TRANSPOSE_TILE.min(n - j0);
                for jj in 0..jb {
                    let off = (j0 + jj) * scs + i0;
                    scratch[jj * ib..jj * ib + ib].copy_from_slice(&s[off..off + ib]);
                }
                for t in 0..ib {
                    let dcol = &mut d[(i0 + t) * dcs + j0..(i0 + t) * dcs + j0 + jb];
                    for (jj, x) in dcol.iter_mut().enumerate() {
                        *x = scratch[jj * ib + t];
                    }
                }
                j0 += jb;
            }
            i0 += ib;
        }
        return;
    }
    let mut i0 = 0;
    while i0 < m {
        let ib = TRANSPOSE_TILE.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let jb = TRANSPOSE_TILE.min(n - j0);
            for i in i0..i0 + ib {
                for j in j0..j0 + jb {
                    dst.set(j, i, src.get(i, j));
                }
            }
            j0 += jb;
        }
        i0 += ib;
    }
}

/// Compact-WY trailing update `C ← (I − V·T·Vᵀ)ᵀ C = C − V·Tᵀ·(VᵀC)`
/// (LAPACK `larfb`, forward columnwise, applied from the left).
///
/// `panel` is the factored panel: reflector tails in the strict lower part
/// (the upper triangle — `R` — is never read). `V` is split as
/// `[V1; V2]` with `V1` the jb×jb unit lower triangle (a tiny explicit copy)
/// and `V2` the rectangular remainder, consumed *in place* as a view — the
/// previous build materialized the whole pm×jb `V`, which cost a zero-fill
/// plus a copy per panel on a path that is otherwise pure GEMM.
fn wy_update<T: Scalar>(panel: MatRef<'_, T>, taus: &[T], c: &mut MatMut<'_, T>) {
    let pm = panel.rows();
    let jb = panel.cols();
    let nc = c.cols();
    debug_assert_eq!(c.rows(), pm);
    let mut v1 = Matrix::<T>::zeros(jb, jb);
    for cc in 0..jb {
        v1[(cc, cc)] = T::ONE;
        for r in cc + 1..jb {
            v1[(r, cc)] = panel.get(r, cc);
        }
    }
    let m2 = pm - jb;
    let v2 = panel.submatrix(jb, 0, m2, jb);
    // Gram matrix G = VᵀV = V1ᵀV1 + V2ᵀV2: the panel-length dot products go
    // through the tiled SYRK (they are half the larft flops and were the
    // scalar bottleneck of the unblocked build); the jb×jb triangle through
    // a small GEMM. Only the lower part of G is read by the recurrence.
    let mut g = if m2 > 0 {
        crate::syrk::syrk_lower(v2.t())
    } else {
        Matrix::<T>::zeros(jb, jb)
    };
    gemm(T::ONE, v1.as_ref().t(), v1.as_ref(), T::ONE, &mut g.as_mut());
    let t = larft_from_gram(&g, taus);
    // W = VᵀC: the wide GEMM on V2 plus the small triangular correction.
    let mut w = {
        let cv = c.rb();
        if m2 > 0 {
            gemm_into(v2, Trans::Yes, cv.submatrix(jb, 0, m2, nc), Trans::No) // jb x nc
        } else {
            Matrix::<T>::zeros(jb, nc)
        }
    };
    {
        let cv = c.rb();
        gemm(T::ONE, v1.as_ref().t(), cv.submatrix(0, 0, jb, nc), T::ONE, &mut w.as_mut());
    }
    // X = TᵀW (tiny), then the rank-jb accumulate C ← C − V·X in place.
    let x = gemm_into(t.as_ref(), Trans::Yes, w.as_ref(), Trans::No); // jb x nc
    {
        let mut c1 = c.submatrix_mut(0, 0, jb, nc);
        gemm(-T::ONE, v1.as_ref(), x.as_ref(), T::ONE, &mut c1);
    }
    if m2 > 0 {
        let mut c2 = c.submatrix_mut(jb, 0, m2, nc);
        gemm_par(-T::ONE, v2, x.as_ref(), &mut c2);
    }
}

/// Form the upper-triangular `T` of the compact WY representation
/// (LAPACK `larft`, forward columnwise, `H_0···H_{k-1} = I − V·T·Vᵀ`) from
/// the precomputed Gram matrix `G = VᵀV` (lower part): the `k × k`
/// recurrence `T[0..i, i] = −τᵢ·T[0..i, 0..i]·G[i, 0..i]ᵀ` stays scalar.
fn larft_from_gram<T: Scalar>(g: &Matrix<T>, taus: &[T]) -> Matrix<T> {
    let k = taus.len();
    let mut t = Matrix::<T>::zeros(k, k);
    for i in 0..k {
        let tau = taus[i];
        t[(i, i)] = tau;
        if i == 0 || tau == T::ZERO {
            continue;
        }
        for r in 0..i {
            let mut acc = T::ZERO;
            for c in r..i {
                acc += t[(r, c)] * g[(i, c)];
            }
            t[(r, i)] = -tau * acc;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lq::lq_factor;
    use crate::qr::{form_q, qr_r};
    use crate::syrk::syrk_lower;
    use crate::view::MatRef;

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn check_qr(a: &Matrix<f64>, nb: usize) {
        let mut work = a.clone();
        let taus = geqrf_blocked(&mut work.as_mut(), nb);
        let q = form_q(work.as_ref(), &taus, a.rows().min(a.cols()));
        let r = qr_r(work.as_ref());
        assert!(q.orthonormality_error() < 1e-12, "Q not orthonormal (nb={nb})");
        let prod = crate::gemm::matmul(&q, &r);
        assert!(prod.max_abs_diff(a) < 1e-11 * a.max_abs().max(1.0), "A != QR (nb={nb})");
    }

    #[test]
    fn tall_various_block_sizes() {
        let a = pseudo(60, 20, 1);
        for nb in [1, 3, 8, 20, 64] {
            check_qr(&a, nb);
        }
    }

    #[test]
    fn wide_matrix() {
        check_qr(&pseudo(10, 50, 2), 4);
    }

    #[test]
    fn square_matrix() {
        check_qr(&pseudo(33, 33, 3), 8);
    }

    #[test]
    fn panel_not_dividing_k() {
        check_qr(&pseudo(25, 17, 4), 5);
    }

    #[test]
    fn matches_unblocked_r_up_to_roundoff() {
        let a = pseudo(40, 16, 5);
        let mut w1 = a.clone();
        let t1 = crate::qr::geqrf(&mut w1.as_mut());
        let mut w2 = a.clone();
        let t2 = geqrf_blocked(&mut w2.as_mut(), 6);
        let r1 = qr_r(w1.as_ref());
        let r2 = qr_r(w2.as_ref());
        assert!(r1.max_abs_diff(&r2) < 1e-12, "R differs");
        for (x, y) in t1.iter().zip(&t2) {
            assert!((x - y).abs() < 1e-12, "taus differ");
        }
    }

    #[test]
    fn degenerate_shapes_are_bitwise_unblocked() {
        // Single panel (k ≤ nb), single-column panels (nb = 1), and rows
        // shorter than the panel width must reproduce the unblocked
        // factorization exactly — same bits, not just same math.
        for (m, n, nb, seed) in
            [(40usize, 8usize, 8usize, 10u64), (6, 30, 32, 11), (1, 17, 4, 12), (5, 5, 1, 13)]
        {
            let a = pseudo(m, n, seed);
            let mut wq_b = a.clone();
            let tq_b = geqrf_blocked(&mut wq_b.as_mut(), nb);
            let mut wq_u = a.clone();
            let tq_u = crate::qr::geqrf(&mut wq_u.as_mut());
            assert_eq!(wq_b.data(), wq_u.data(), "qr data {m}x{n} nb={nb}");
            assert_eq!(tq_b, tq_u, "qr taus {m}x{n} nb={nb}");
        }
    }

    #[test]
    fn zero_size_trailing_block() {
        // k an exact multiple of nb: the final panel has an empty trailing
        // block, which must be skipped cleanly.
        check_qr(&pseudo(48, 16, 14), 8);
        let a = pseudo(2 * DEFAULT_BLOCK, 300, 15);
        let l = lq_factor(a.as_ref());
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(llt.max_abs_diff(&aat) < 1e-11 * aat.max_abs());
    }

    #[test]
    fn blocked_lq_gram_invariant() {
        // More rows than one panel: compact-WY, against the unblocked QR
        // of the transpose.
        let a = pseudo(DEFAULT_BLOCK + 16, 300, 6);
        let l = lq_factor(a.as_ref());
        let mut at = transposed_matrix(a.as_ref());
        crate::qr::geqrf(&mut at.as_mut());
        let unblocked = Matrix::from_fn(a.rows(), a.rows(), |i, j| if j <= i { at[(j, i)] } else { 0.0 });
        assert!(l.max_abs_diff(&unblocked) < 1e-11);
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        assert!(llt.max_abs_diff(&aat) < 1e-10 * aat.max_abs());
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
    fn single_precision() {
        let a64 = pseudo(30, 10, 7);
        let a = Matrix::<f32>::from_fn(30, 10, |i, j| a64[(i, j)] as f32);
        let mut w = a.clone();
        let taus = geqrf_blocked(&mut w.as_mut(), 4);
        let q = form_q(w.as_ref(), &taus, 10);
        assert!(q.orthonormality_error() < 1e-5);
    }

    #[test]
    fn transpose_helpers_roundtrip() {
        let a = pseudo(70, 130, 8); // crosses tile boundaries in both dims
        let at = transposed_matrix(a.as_ref());
        assert_eq!(at.shape(), (130, 70));
        for i in 0..70 {
            for j in 0..130 {
                assert_eq!(at[(j, i)], a[(i, j)]);
            }
        }
        let mut back = Matrix::<f64>::zeros(70, 130);
        transpose_into(at.as_ref(), &mut back.as_mut());
        assert_eq!(back.data(), a.data());
    }

    #[test]
    fn gemm_helper_sanity() {
        let i = Matrix::<f64>::identity(3);
        let out = gemm_into(i.as_ref(), Trans::No, i.as_ref(), Trans::No);
        assert!(out.max_abs_diff(&i) < 1e-15);
    }
}
