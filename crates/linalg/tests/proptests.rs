//! Property-based tests of the dense kernels: factorization identities that
//! must hold for arbitrary shapes and data.

use proptest::prelude::*;
use tucker_linalg::gemm::{gemm, gemm_into, matmul, Trans};
use tucker_linalg::lq::lq_factor;
use tucker_linalg::qr::qr;
use tucker_linalg::svd::svd;
use tucker_linalg::syrk_lower;
use tucker_linalg::tplqt::tplqt;
use tucker_linalg::tslq::{tslq_blocks, TslqOptions};
use tucker_linalg::{syev, syrk_lower_f64_acc, MatMut, MatRef, Matrix, Scalar};

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix<f64>> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(m, n, seed)| {
        let mut state = seed | 1;
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qr_identity(a in matrix_strategy(12)) {
        let (q, r) = qr(&a);
        prop_assert!(q.orthonormality_error() < 1e-12);
        let qr_prod = matmul(&q, &r);
        prop_assert!(qr_prod.max_abs_diff(&a) < 1e-11 * a.max_abs().max(1.0));
    }

    #[test]
    fn lq_gram_invariant(a in matrix_strategy(12)) {
        let l = lq_factor(a.as_ref());
        let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let aat = syrk_lower(a.as_ref());
        prop_assert!(llt.max_abs_diff(&aat) < 1e-10 * aat.max_abs().max(1.0));
    }

    #[test]
    fn svd_full_identity(a in matrix_strategy(10)) {
        let out = svd(a.as_ref(), true, true).unwrap();
        let u = out.u.unwrap();
        let v = out.v.unwrap();
        prop_assert!(u.orthonormality_error() < 1e-11);
        prop_assert!(v.orthonormality_error() < 1e-11);
        // Descending, non-negative.
        for w in out.s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        if let Some(last) = out.s.last() {
            prop_assert!(*last >= 0.0);
        }
        // A = U Σ Vᵀ.
        let mut us = u.clone();
        for (j, &s) in out.s.iter().enumerate() {
            for val in us.col_mut(j) {
                *val *= s;
            }
        }
        let recon = gemm_into(us.as_ref(), Trans::No, v.as_ref(), Trans::Yes);
        prop_assert!(recon.max_abs_diff(&a) < 1e-10 * a.max_abs().max(1.0));
    }

    #[test]
    fn svd_frobenius_identity(a in matrix_strategy(10)) {
        // ‖A‖_F² = Σ σᵢ².
        let out = svd(a.as_ref(), false, false).unwrap();
        let ssq: f64 = out.s.iter().map(|s| s * s).sum();
        let f2 = a.frob_norm().powi(2);
        prop_assert!((ssq - f2).abs() < 1e-9 * f2.max(1.0));
    }

    #[test]
    fn syev_identity(a in matrix_strategy(10)) {
        // Symmetrize first.
        let n = a.rows().min(a.cols());
        let s = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let out = syev(&s).unwrap();
        prop_assert!(out.vectors.orthonormality_error() < 1e-11);
        let az = matmul(&s, &out.vectors);
        let mut zl = out.vectors.clone();
        for (j, &l) in out.values.iter().enumerate() {
            for v in zl.col_mut(j) {
                *v *= l;
            }
        }
        prop_assert!(az.max_abs_diff(&zl) < 1e-10 * s.max_abs().max(1.0));
    }

    #[test]
    fn tslq_matches_dense_lq(
        a in matrix_strategy(8),
        block in 1usize..6,
        coalesce in 1usize..4,
    ) {
        let l_tree = tslq_blocks(a.rows(), a.as_ref().col_panels(block), TslqOptions { coalesce });
        let g_tree = gemm_into(l_tree.as_ref(), Trans::No, l_tree.as_ref(), Trans::Yes);
        let want = syrk_lower(a.as_ref());
        prop_assert!(g_tree.max_abs_diff(&want) < 1e-10 * want.max_abs().max(1.0));
    }

    #[test]
    fn tplqt_gram_additivity(a in matrix_strategy(8), b in matrix_strategy(8)) {
        // Make compatible: L from a (square m x m), B with same row count.
        let m = a.rows().min(b.rows());
        let asub = Matrix::from_fn(m, a.cols(), |i, j| a[(i, j)]);
        let bsub = Matrix::from_fn(m, b.cols(), |i, j| b[(i, j)]);
        let mut l = lq_factor(asub.as_ref());
        let mut bwork = bsub.clone();
        let mut bv = bwork.as_mut();
        tplqt(&mut l, &mut bv);
        let got = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let mut want = syrk_lower(asub.as_ref());
        let bbt = syrk_lower(bsub.as_ref());
        for (w, x) in want.data_mut().iter_mut().zip(bbt.data()) {
            *w += *x;
        }
        prop_assert!(got.max_abs_diff(&want) < 1e-10 * want.max_abs().max(1.0));
    }

    #[test]
    fn gemm_is_associative(
        a in matrix_strategy(7),
        b in matrix_strategy(7),
        c in matrix_strategy(7),
    ) {
        // Conform shapes: A (m x k), B (k x l), C (l x n).
        let k = a.cols().min(b.rows());
        let l = b.cols().min(c.rows());
        let aa = Matrix::from_fn(a.rows(), k, |i, j| a[(i, j)]);
        let bb = Matrix::from_fn(k, l, |i, j| b[(i, j)]);
        let cc = Matrix::from_fn(l, c.cols(), |i, j| c[(i, j)]);
        let left = matmul(&matmul(&aa, &bb), &cc);
        let right = matmul(&aa, &matmul(&bb, &cc));
        prop_assert!(left.max_abs_diff(&right) < 1e-10 * left.max_abs().max(1.0));
    }

    #[test]
    fn transpose_contract(a in matrix_strategy(9)) {
        // (Aᵀ)ᵀ = A through views and owned transposes.
        let t = a.transposed().transposed();
        prop_assert_eq!(&t, &a);
        let via_view = a.as_ref().t().t().to_matrix();
        prop_assert_eq!(&via_view, &a);
    }
}

// ---- PR3: the register-tiled engine vs a naive oracle, across shapes,
// ---- memory layouts and precisions.

/// Deterministic pseudo-random matrix in `[-2, 2)`, generic over precision.
fn seeded<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        T::from_f64(((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0)
    })
}

/// Naive triple-loop `alpha·A·B + beta·C` — independently coded oracle.
fn naive_gemm<T: Scalar>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c0: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(c0.rows(), c0.cols(), |i, j| {
        let mut acc = T::ZERO;
        for l in 0..a.cols() {
            acc += a[(i, l)] * b[(l, j)];
        }
        alpha * acc + beta * c0[(i, j)]
    })
}

/// The same logical matrix exposed through different memory layouts: dense
/// column-major, an interior submatrix of a larger allocation (strided
/// columns), or a transposed view of the transposed storage (row-major
/// strides). The padding is poisoned so any out-of-window read shows up.
struct Viewed<T: Scalar> {
    store: Matrix<T>,
    kind: u8,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> Viewed<T> {
    fn new(base: &Matrix<T>, kind: u8) -> Self {
        let (m, n) = (base.rows(), base.cols());
        let store = match kind % 3 {
            0 => base.clone(),
            1 => Matrix::from_fn(m + 3, n + 2, |i, j| {
                if (2..m + 2).contains(&i) && (1..n + 1).contains(&j) {
                    base[(i - 2, j - 1)]
                } else {
                    T::from_f64(1e30)
                }
            }),
            _ => base.transposed(),
        };
        Viewed { store, kind: kind % 3, rows: m, cols: n }
    }

    fn view(&self) -> MatRef<'_, T> {
        match self.kind {
            0 => self.store.as_ref(),
            1 => self.store.as_ref().submatrix(2, 1, self.rows, self.cols),
            _ => self.store.as_ref().t(),
        }
    }
}

/// Coefficient pairs covering the beta==0 clear, beta==1 accumulate, and
/// general-scaling paths.
const COEFS: [(f64, f64); 4] = [(1.0, 0.0), (1.0, 1.0), (-0.5, 0.25), (2.0, -1.0)];

#[allow(clippy::too_many_arguments)]
fn check_gemm<T: Scalar>(m: usize, k: usize, n: usize, seed: u64, ak: u8, bk: u8, coef: usize, tol: f64) {
    let a = seeded::<T>(m, k, seed);
    let b = seeded::<T>(k, n, seed ^ 0x5555_5555);
    let c0 = seeded::<T>(m, n, seed ^ 0xaaaa_aaaa);
    let (alpha, beta) = COEFS[coef % COEFS.len()];
    let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
    let (av, bv) = (Viewed::new(&a, ak), Viewed::new(&b, bk));

    let mut c = c0.clone();
    gemm(alpha, av.view(), bv.view(), beta, &mut c.as_mut());
    let want = naive_gemm(alpha, &a, &b, beta, &c0);
    let scale = (k as f64) * want.max_abs().to_f64().max(1.0);
    prop_assert!(
        c.max_abs_diff(&want).to_f64() <= tol * scale,
        "gemm({m}x{k}x{n}, views {ak}/{bk}, coef {coef}) diverged from the naive oracle"
    );

    // Packing reads logical elements in a layout-independent order, so the
    // result must be bit-identical to the dense-view call, not just close.
    let mut dense = c0.clone();
    gemm(alpha, a.as_ref(), b.as_ref(), beta, &mut dense.as_mut());
    prop_assert_eq!(c.data(), dense.data(), "strided views changed the bit pattern");
}

fn check_syrk<T: Scalar>(m: usize, n: usize, seed: u64, kind: u8, tol: f64) {
    let a = seeded::<T>(m, n, seed);
    let got = syrk_lower(Viewed::new(&a, kind).view());
    let scale = (n as f64).max(1.0);
    for i in 0..m {
        for j in 0..=i {
            let mut acc = T::ZERO;
            for l in 0..n {
                acc += a[(i, l)] * a[(j, l)];
            }
            prop_assert!(
                (got[(i, j)] - acc).abs().to_f64() <= tol * scale * acc.abs().to_f64().max(1.0),
                "syrk({m}x{n}) entry ({i},{j}) diverged from the naive oracle"
            );
            // Mirrored upper triangle must be exact, not approximate.
            prop_assert_eq!(got[(i, j)], got[(j, i)]);
        }
    }
    let dense = syrk_lower(a.as_ref());
    prop_assert_eq!(got.data(), dense.data(), "strided views changed the bit pattern");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_matches_naive_f64(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        seed in any::<u64>(), ak in 0u8..3, bk in 0u8..3, coef in 0usize..4,
    ) {
        check_gemm::<f64>(m, k, n, seed, ak, bk, coef, 1e-14);
    }

    #[test]
    fn gemm_matches_naive_f32(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        seed in any::<u64>(), ak in 0u8..3, bk in 0u8..3, coef in 0usize..4,
    ) {
        check_gemm::<f32>(m, k, n, seed, ak, bk, coef, 1e-5);
    }

    #[test]
    fn gemm_microkernel_edge_shapes(
        // Straddle the MR/NR/KC tile boundaries where partial tiles and
        // zero-padding kick in (f64 MR=8, f32 MR=16, NR=4, KC=256).
        mi in 0usize..7, ki in 0usize..4, ni in 0usize..4, seed in any::<u64>(),
    ) {
        let m = [1usize, 7, 8, 9, 15, 16, 17][mi];
        let k = [1usize, 255, 256, 257][ki];
        let n = [1usize, 3, 4, 5][ni];
        check_gemm::<f64>(m, k, n, seed, 0, 0, 0, 1e-14);
        check_gemm::<f32>(m, k, n, seed, 0, 0, 0, 1e-5);
    }

    #[test]
    fn syrk_matches_naive_f64(
        m in 1usize..20, n in 1usize..32, seed in any::<u64>(), kind in 0u8..3,
    ) {
        check_syrk::<f64>(m, n, seed, kind, 1e-14);
    }

    #[test]
    fn syrk_matches_naive_f32(
        m in 1usize..20, n in 1usize..32, seed in any::<u64>(), kind in 0u8..3,
    ) {
        check_syrk::<f32>(m, n, seed, kind, 1e-5);
    }

    #[test]
    fn mixed_syrk_accumulates_in_double(
        m in 1usize..16, n in 1usize..48, seed in any::<u64>(),
    ) {
        // Single-precision input, f64 accumulation: each product of two f32
        // values is exact in f64, so only the summation order separates the
        // kernel from the oracle.
        let a = seeded::<f32>(m, n, seed);
        let got = syrk_lower_f64_acc(a.as_ref());
        for i in 0..m {
            for j in 0..=i {
                let mut acc = 0.0f64;
                for l in 0..n {
                    acc += a[(i, l)] as f64 * a[(j, l)] as f64;
                }
                prop_assert!(
                    (got[(i, j)] - acc).abs() <= 1e-12 * (n as f64) * acc.abs().max(1.0),
                    "mixed syrk entry ({i},{j}) lost double accumulation"
                );
            }
        }
    }
}

// ---- PR6: blocked compact-WY QR/LQ and the bidiagonal SVD — bitwise
// ---- determinism across rayon task counts, plus orthonormality and
// ---- backward-error bounds on random and rank-deficient inputs.

use tucker_linalg::blocked_qr::geqrf_blocked;
use tucker_linalg::qr::{form_q, qr_r};

/// Task counts every parallel code path must reproduce bitwise.
const TASK_COUNTS: [usize; 3] = [1, 2, 7];

/// Run `f` with the rayon worker budget pinned to `tasks` (the same
/// thread-local knob the MPI simulator uses to partition cores across rank
/// threads), restoring the previous budget afterwards.
fn with_tasks<R>(tasks: usize, f: impl FnOnce() -> R) -> R {
    let prev = rayon::current_thread_limit();
    rayon::set_current_thread_limit(Some(tasks));
    let out = f();
    rayon::set_current_thread_limit(prev);
    out
}

/// QR + LQ + SVD of `a`, and `a` folded into its own `L` by `tplqt` — the
/// tuple every pool must reproduce bit for bit.
#[allow(clippy::type_complexity)]
fn factorization_bits<T: Scalar>(
    a: &Matrix<T>,
    nb: usize,
) -> (Vec<T>, Vec<T>, Vec<T>, Vec<T>, Vec<T>, Vec<T>, Vec<T>) {
    let mut wq = a.clone();
    let tq = geqrf_blocked(&mut wq.as_mut(), nb);
    let out = svd(a.as_ref(), true, true).expect("svd");
    let l = lq_factor(a.as_ref());
    let mut folded = l.clone();
    tplqt(&mut folded, &mut a.clone().as_mut());
    (
        wq.data().to_vec(),
        tq,
        out.s,
        out.u.expect("u").data().to_vec(),
        out.v.expect("v").data().to_vec(),
        l.data().to_vec(),
        folded.data().to_vec(),
    )
}

fn check_bitwise_across_pools<T: Scalar>(a: &Matrix<T>, nb: usize) {
    // Reference: whatever worker budget the test harness itself runs under.
    let want = factorization_bits(a, nb);
    for tasks in TASK_COUNTS {
        let got = with_tasks(tasks, || factorization_bits(a, nb));
        assert_eq!(
            got, want,
            "blocked QR/LQ/SVD changed bits under a {tasks}-task budget ({}x{}, nb={nb})",
            a.rows(),
            a.cols()
        );
    }
}

/// Random-rank-deficient matrix: product of seeded `m x r` and `r x n`.
fn rank_deficient<T: Scalar>(m: usize, n: usize, r: usize, seed: u64) -> Matrix<T> {
    let b = seeded::<T>(m, r.max(1), seed);
    let c = seeded::<T>(r.max(1), n, seed ^ 0x3333_3333);
    gemm_into(b.as_ref(), Trans::No, c.as_ref(), Trans::No)
}

fn check_qr_backward_error<T: Scalar>(a: &Matrix<T>, nb: usize, tol: f64) {
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let mut w = a.clone();
    let taus = geqrf_blocked(&mut w.as_mut(), nb);
    let q = form_q(w.as_ref(), &taus, k);
    assert!(
        q.orthonormality_error().to_f64() < tol,
        "Q lost orthonormality ({m}x{n}, nb={nb})"
    );
    let r = qr_r(w.as_ref());
    let prod = gemm_into(q.as_ref(), Trans::No, r.as_ref(), Trans::No);
    let scale = a.max_abs().to_f64().max(1.0) * (k as f64).max(1.0);
    assert!(
        prod.max_abs_diff(a).to_f64() < tol * scale,
        "A != QR backward error ({m}x{n}, nb={nb})"
    );
}

fn check_lq_backward_error<T: Scalar>(a: &Matrix<T>, tol: f64) {
    let l = lq_factor(a.as_ref());
    let llt = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
    let aat = syrk_lower(a.as_ref());
    let scale = aat.max_abs().to_f64().max(1.0) * (a.cols() as f64).max(1.0);
    assert!(
        llt.max_abs_diff(&aat).to_f64() < tol * scale,
        "L Lᵀ != A Aᵀ ({}x{})",
        a.rows(),
        a.cols()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_factorizations_bitwise_across_pools(
        m in 1usize..20, n in 1usize..20, seed in any::<u64>(), nbi in 0usize..3,
    ) {
        // Small nb so the blocked paths (panels + WY trailing updates) are
        // exercised even at proptest sizes; nb=2 also hits the recursion
        // bottom and nb=32 the degenerate single-panel delegation.
        let nb = [2usize, 8, 32][nbi];
        check_bitwise_across_pools(&seeded::<f64>(m, n, seed), nb);
        check_bitwise_across_pools(&seeded::<f32>(m, n, seed), nb);
    }

    #[test]
    fn blocked_qr_lq_backward_error(
        m in 1usize..20, n in 1usize..20, seed in any::<u64>(), nbi in 0usize..3,
        deficient in any::<bool>(),
    ) {
        let nb = [2usize, 8, 32][nbi];
        let r = (m.min(n) / 2).max(1);
        let a64: Matrix<f64> =
            if deficient { rank_deficient(m, n, r, seed) } else { seeded(m, n, seed) };
        let a32: Matrix<f32> =
            if deficient { rank_deficient(m, n, r, seed) } else { seeded(m, n, seed) };
        check_qr_backward_error(&a64, nb, 1e-12);
        check_qr_backward_error(&a32, nb, 1e-4);
        check_lq_backward_error(&a64, 1e-12);
        check_lq_backward_error(&a32, 1e-4);
    }

    #[test]
    fn svd_rank_deficient_inputs(
        m in 2usize..14, n in 2usize..14, seed in any::<u64>(),
    ) {
        // Rank-deficient inputs drive the implicit-QR sweep through its
        // split/cancellation branches; the trailing singular values must
        // come out (near) zero and the factors stay orthonormal.
        let r = (m.min(n) / 2).max(1);
        let a = rank_deficient::<f64>(m, n, r, seed);
        let out = svd(a.as_ref(), true, true).unwrap();
        let u = out.u.unwrap();
        let v = out.v.unwrap();
        prop_assert!(u.orthonormality_error() < 1e-11);
        prop_assert!(v.orthonormality_error() < 1e-11);
        let smax = out.s.first().copied().unwrap_or(0.0);
        for &s in &out.s[r.min(out.s.len())..] {
            prop_assert!(s <= 1e-10 * smax.max(1.0), "rank-{r} input grew σ={s}");
        }
        let mut us = u.clone();
        for (j, &s) in out.s.iter().enumerate() {
            for val in us.col_mut(j) {
                *val *= s;
            }
        }
        let recon = gemm_into(us.as_ref(), Trans::No, v.as_ref(), Trans::Yes);
        prop_assert!(recon.max_abs_diff(&a) < 1e-10 * a.max_abs().max(1.0));
    }
}

/// Deterministic large-shape determinism check: sizes chosen so the
/// *parallel* code paths actually engage — the 2D-tiled `gemm_into` inside
/// the WY trailing update needs ≥ 2²² flops, and the deferred-rotation
/// back-transformation of the SVD switches to banded parallel replay once
/// `rows · ops ≥ 2¹⁴`. Proptest-sized inputs stay on the serial fast paths,
/// so this case is pinned explicitly.
#[test]
fn parallel_paths_bitwise_across_pools() {
    // 48 × 6000: the QR trailing block is ~6000 columns wide, so the
    // rank-nb gemm_par fans out over its fixed 256-column panels (n > 256,
    // flops > 2²²); the LQ of the same matrix is the serial flat tree.
    let a64 = seeded::<f64>(48, 6000, 99);
    check_bitwise_across_pools(&a64, 16);
    let a32 = seeded::<f32>(48, 6000, 101);
    check_bitwise_across_pools(&a32, 16);
    // 400 × 400: the blocked bidiagonalization's A₂₂ update is wide enough
    // for gemm_par, and the U/V back-transformations cross the
    // rows · ops ≥ 2¹⁴ threshold into the banded parallel rotation replay.
    let sq = seeded::<f64>(400, 400, 103);
    check_bitwise_across_pools(&sq, 16);
}

/// Rotate-multiply hash over the bit patterns of `l` (`to_f64` is exact for
/// both precisions), the form the parent's `L`s are pinned in below.
fn l_hash<T: Scalar>(l: &Matrix<T>) -> u64 {
    l.data().iter().fold(0u64, |h, x| {
        (h.rotate_left(5) ^ x.to_f64().to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// `L` hashes of the parent commit's `lq_factor_blocked(a, DEFAULT_BLOCK)`
/// for `a = seeded(rows, cols, rows·10⁴ + cols)`, every table shape below
/// with `min(rows, cols) > 64`: `(rows, cols, f64, f32)`.
const PARENT_L_HASHES: [(usize, usize, u64, u64); 11] = [
    (65, 65, 0x0a23af541bb67baa, 0x7e7aacc31b210d6a),
    (65, 1023, 0x3130ead5f3e4eeef, 0xd86ac85173057bfc),
    (65, 1024, 0x22341640a157e061, 0xf4fd986402ec06e3),
    (65, 1025, 0x78dbaf58d08626cf, 0x7ea6cc25aa159177),
    (65, 2055, 0x124ef7e2b841d928, 0xf139439674214902),
    (130, 129, 0x0b70c4e5959af3f0, 0x40616ed4326e2e7e),
    (130, 130, 0xae067436c9ac59a8, 0x26feb5de49e732c1),
    (130, 1023, 0x0966909296e6b7f9, 0xbf2e19c3f11b7a81),
    (130, 1024, 0xc8e4e5fb1d9af56c, 0xb1e78af64d17f269),
    (130, 1025, 0xb056ed6fa7441562, 0xd576342ea57947e5),
    (130, 2055, 0x23739a7853966fbd, 0x093dbd0b550a4ada),
];

fn check_lq_factor_table<T: Scalar>(pick: fn(&(usize, usize, u64, u64)) -> u64) {
    for rows in [1usize, 33, 64, 65, 130] {
        for cols in [rows - 1, rows, 1023, 1024, 1025, 2 * 1024 + 7] {
            let what = format!("{rows}x{cols} {}", T::PRECISION_NAME);
            let a = seeded::<T>(rows, cols, (rows * 10_000 + cols) as u64);
            let l = lq_factor(a.as_ref());

            assert_eq!(l.shape(), (rows, rows), "{what}");
            for j in 0..rows {
                for i in 0..j {
                    assert!(l[(i, j)] == T::ZERO, "{what}: L not lower triangular");
                }
            }
            let (l64, a64) = (widened(&l), widened(&a));
            let llt = gemm_into(l64.as_ref(), Trans::No, l64.as_ref(), Trans::Yes);
            let aat = gemm_into(a64.as_ref(), Trans::No, a64.as_ref(), Trans::Yes);
            let tol = 64.0 * T::EPSILON.to_f64() * aat.frob_norm();
            assert!(llt.max_abs_diff(&aat) <= tol, "{what}: L Lᵀ != A Aᵀ");

            // Layout is not an input: the row-major copy and a strided
            // window of a larger parent give the column-major bits.
            let row_major: Vec<T> =
                (0..rows * cols).map(|k| a[(k / cols.max(1), k % cols.max(1))]).collect();
            assert_eq!(lq_factor(MatRef::row_major(&row_major, rows, cols)), l, "{what}: row-major");
            let parent = Matrix::from_fn(rows + 3, cols + 5, |i, j| {
                if (2..2 + rows).contains(&i) && (3..3 + cols).contains(&j) {
                    a[(i - 2, j - 3)]
                } else {
                    T::ONE
                }
            });
            let window = parent.as_ref().submatrix(2, 3, rows, cols);
            assert_eq!(lq_factor(window), l, "{what}: strided submatrix");

            for tasks in TASK_COUNTS {
                let got = with_tasks(tasks, || lq_factor(a.as_ref()));
                assert_eq!(got, l, "{what}: bits moved under a {tasks}-task budget");
            }
            if rows.min(cols) > 64 {
                let golden = PARENT_L_HASHES
                    .iter()
                    .find(|g| (g.0, g.1) == (rows, cols))
                    .unwrap_or_else(|| panic!("{what}: no golden"));
                assert_eq!(l_hash(&l), pick(golden), "{what}: bits above the line moved");
            }
        }
    }
}

/// `lq_factor` on both sides of every line it draws: the kernel switch at
/// `DEFAULT_BLOCK` = 64 rows, the flat tree's 1024-column panel boundary,
/// and the `cols < rows` padding.
#[test]
fn lq_factor_on_both_sides_of_every_line() {
    check_lq_factor_table::<f64>(|g| g.2);
    check_lq_factor_table::<f32>(|g| g.3);
}

// ---- PR23: the blocked `tplqt` on every edge it has — the 16-row block
// ---- boundary, the dot/axpy lane boundaries, one body for every layout.

fn widened<T: Scalar>(x: &Matrix<T>) -> Matrix<f64> {
    Matrix::from_fn(x.rows(), x.cols(), |i, j| x[(i, j)].to_f64())
}

/// `L·Lᵀ + B·Bᵀ` in `f64`.
fn gram_of_pair<T: Scalar>(l: &Matrix<T>, b: &Matrix<T>) -> Matrix<f64> {
    let (l, b) = (widened(l), widened(b));
    let mut g = gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
    let bbt = gemm_into(b.as_ref(), Trans::No, b.as_ref(), Trans::Yes);
    for (x, y) in g.data_mut().iter_mut().zip(bbt.data()) {
        *x += *y;
    }
    g
}

/// `[L B]` folded by `tplqt` with `B` presented column-major.
fn folded<T: Scalar>(l0: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut l = l0.clone();
    tplqt(&mut l, &mut b.clone().as_mut());
    l
}

fn seeded_lower<T: Scalar>(m: usize, seed: u64) -> Matrix<T> {
    let full = seeded::<T>(m, m, seed);
    Matrix::from_fn(m, m, |i, j| if j <= i { full[(i, j)] } else { T::ZERO })
}

fn assert_lower_and_gram<T: Scalar>(l: &Matrix<T>, want: &Matrix<f64>, slack: f64, what: &str) {
    for j in 0..l.cols() {
        for i in 0..j {
            assert!(l[(i, j)] == T::ZERO, "{what}: fill-in above the diagonal");
        }
    }
    assert!(l.data().iter().all(|x| x.is_finite()), "{what}: non-finite L");
    let l64 = widened(l);
    let got = gemm_into(l64.as_ref(), Trans::No, l64.as_ref(), Trans::Yes);
    let tol = slack * T::EPSILON.to_f64() * want.frob_norm();
    assert!(got.max_abs_diff(want) <= tol, "{what}: L'L'ᵀ != LLᵀ + BBᵀ");
}

fn check_tplqt_table<T: Scalar>() {
    for m in [1usize, 15, 16, 17, 33, 48, 64, 65, 130] {
        for k in [1usize, 7, 16, 1023, 1024, 1025] {
            let what = format!("tplqt {m}x{k} {}", T::PRECISION_NAME);
            let l0 = seeded_lower::<T>(m, (m * 10_000 + k) as u64);
            let b = seeded::<T>(m, k, (k * 10_000 + m) as u64);
            let l = folded(&l0, &b);
            assert_lower_and_gram(&l, &gram_of_pair(&l0, &b), 64.0, &what);

            // One body: row-major, and a column-major and a row-major
            // window (a leading dimension of its own) of a larger parent,
            // give the column-major bits. A transposed column-major matrix
            // *is* the row-major storage of the original.
            let mut got = l0.clone();
            tplqt(&mut got, &mut MatMut::row_major(b.transposed().data_mut(), m, k));
            assert_eq!(got, l, "{what}: row-major");

            let mut parent = Matrix::from_fn(m + 3, k + 5, |i, j| {
                let inside = (2..2 + m).contains(&i) && (3..3 + k).contains(&j);
                if inside { b[(i - 2, j - 3)] } else { T::ONE }
            });
            let mut rows = parent.transposed();
            let mut got = l0.clone();
            tplqt(&mut got, &mut parent.as_mut().submatrix_mut(2, 3, m, k));
            assert_eq!(got, l, "{what}: column-major window");
            let mut got = l0.clone();
            let mut parent = MatMut::row_major(rows.data_mut(), m + 3, k + 5);
            tplqt(&mut got, &mut parent.submatrix_mut(2, 3, m, k));
            assert_eq!(got, l, "{what}: row-major window");

            for tasks in TASK_COUNTS {
                let got = with_tasks(tasks, || folded(&l0, &b));
                assert_eq!(got, l, "{what}: bits moved under a {tasks}-task budget");
            }
        }
    }
}

#[test]
fn tplqt_on_both_sides_of_every_block_and_lane_boundary() {
    check_tplqt_table::<f64>();
    check_tplqt_table::<f32>();
}

/// `τ = 0` inside a block (a zero row of `B`) leaves `T`'s column zero, and
/// an all-zero `B` leaves `L` as it was.
fn check_tplqt_zero_rows<T: Scalar>() {
    let (m, k) = (33, 40);
    let l0 = seeded_lower::<T>(m, 5);
    let mut b = seeded::<T>(m, k, 6);
    for i in [0, 5, 20, 32] {
        for j in 0..k {
            b[(i, j)] = T::ZERO;
        }
    }
    assert_lower_and_gram(&folded(&l0, &b), &gram_of_pair(&l0, &b), 64.0, "zero rows");
    assert_eq!(folded(&l0, &Matrix::zeros(m, k)), l0, "an all-zero B moved L");
}

#[test]
fn tplqt_zero_rows_and_zero_b() {
    check_tplqt_zero_rows::<f64>();
    check_tplqt_zero_rows::<f32>();
}

/// Rows of `[L B]` scaled by `2^±big` (≈ 1e±150 in `f64`, 1e±18 in `f32`;
/// one row past the point where the sum of squares overflows, one below
/// `safmin`): `L` stays finite and, with the row scaling undone, is the
/// factor of the unscaled pair — Householder LQ commutes with row scaling.
fn check_tplqt_row_scaling<T: Scalar>(big: i32, over: i32, under: i32) {
    let (m, k) = (33, 40);
    let l0 = seeded_lower::<T>(m, 7);
    let b0 = seeded::<T>(m, k, 8);
    let scale = |i: usize| {
        let e = match i {
            3 => over,
            7 => under,
            _ if i.is_multiple_of(2) => big,
            _ => -big,
        };
        T::from_f64(2f64.powi(e))
    };
    let l = Matrix::from_fn(m, m, |i, j| l0[(i, j)] * scale(i));
    let b = Matrix::from_fn(m, k, |i, j| b0[(i, j)] * scale(i));
    let out = folded(&l, &b);
    assert!(out.data().iter().all(|x| x.is_finite()), "{}: non-finite L", T::PRECISION_NAME);
    let unscaled = Matrix::from_fn(m, m, |i, j| out[(i, j)] / scale(i));
    assert_lower_and_gram(&unscaled, &gram_of_pair(&l0, &b0), 256.0, "row scaling");
}

#[test]
fn tplqt_survives_extreme_row_scaling() {
    check_tplqt_row_scaling::<f64>(498, 511, -1000);
    check_tplqt_row_scaling::<f32>(60, 63, -120);
}
