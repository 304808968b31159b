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
use tucker_linalg::gram_svd::gram_svd_from_gram;
use tucker_linalg::{perf, syrk_lower_f64_acc, syrk_lower_panels, MatMut, MatRef, Matrix, Scalar};
use tucker_tensor::{ttm, Tensor};

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
    fn gram_svd_from_gram_on_indefinite(a in matrix_strategy(10)) {
        // A symmetric, indefinite S: σ_k² = |λ_k| and u_k its eigenvector.
        let n = a.rows().min(a.cols());
        let s = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let (u, sigma) = gram_svd_from_gram(&s).unwrap();
        prop_assert!(u.orthonormality_error() < 1e-11);
        let su = matmul(&s, &u);
        for (k, sk) in sigma.iter().enumerate() {
            let rayleigh: f64 = u.col(k).iter().zip(su.col(k)).map(|(x, y)| x * y).sum();
            prop_assert!((rayleigh.abs() - sk * sk).abs() < 1e-10 * s.max_abs().max(1.0));
        }
    }

    #[test]
    fn tslq_matches_dense_lq(
        a in matrix_strategy(8),
        block in 1usize..6,
    ) {
        let l_tree = tslq_blocks(a.rows(), a.as_ref().col_panels(block), TslqOptions);
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

/// Naive triple-loop `C + alpha·A·B` — independently coded oracle.
fn naive_gemm<T: Scalar>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, c0: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(c0.rows(), c0.cols(), |i, j| {
        let mut acc = T::ZERO;
        for l in 0..a.cols() {
            acc += a[(i, l)] * b[(l, j)];
        }
        alpha * acc + c0[(i, j)]
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

/// Alphas covering the plain add of the write-back (`1`), the fused
/// scaling (`-0.5`, `2`) and the untouched `C` (`0`).
const ALPHAS: [f64; 4] = [1.0, 0.0, -0.5, 2.0];

#[allow(clippy::too_many_arguments)]
fn check_gemm<T: Scalar>(m: usize, k: usize, n: usize, seed: u64, ak: u8, bk: u8, alpha: usize, tol: f64) {
    let a = seeded::<T>(m, k, seed);
    let b = seeded::<T>(k, n, seed ^ 0x5555_5555);
    let c0 = seeded::<T>(m, n, seed ^ 0xaaaa_aaaa);
    let alpha = T::from_f64(ALPHAS[alpha % ALPHAS.len()]);
    let (av, bv) = (Viewed::new(&a, ak), Viewed::new(&b, bk));

    let mut c = c0.clone();
    gemm(alpha, av.view(), bv.view(), &mut c.as_mut());
    let want = naive_gemm(alpha, &a, &b, &c0);
    let scale = (k as f64) * want.max_abs().to_f64().max(1.0);
    prop_assert!(
        c.max_abs_diff(&want).to_f64() <= tol * scale,
        "gemm({m}x{k}x{n}, views {ak}/{bk}, alpha {alpha}) diverged from the naive oracle"
    );

    // Packing reads logical elements in a layout-independent order, so the
    // result must be bit-identical to the dense-view call, not just close.
    let mut dense = c0.clone();
    gemm(alpha, a.as_ref(), b.as_ref(), &mut dense.as_mut());
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
        seed in any::<u64>(), ak in 0u8..3, bk in 0u8..3, alpha in 0usize..4,
    ) {
        check_gemm::<f64>(m, k, n, seed, ak, bk, alpha, 1e-14);
    }

    #[test]
    fn gemm_matches_naive_f32(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        seed in any::<u64>(), ak in 0u8..3, bk in 0u8..3, alpha in 0usize..4,
    ) {
        check_gemm::<f32>(m, k, n, seed, ak, bk, alpha, 1e-5);
    }

    #[test]
    fn gemm_microkernel_edge_shapes(
        // Straddle the MR/NR/KC tile boundaries of each precision, where
        // partial tiles and zero-padding kick in.
        mi in 0usize..5, ki in 0usize..4, ni in 0usize..5, seed in any::<u64>(),
    ) {
        let k = [1usize, 255, 256, 257][ki];
        let edge = |tile: usize, at: usize| [1, tile - 1, tile, tile + 1, 2 * tile + 1][at];
        check_gemm::<f64>(edge(f64::MR, mi), k, edge(f64::NR, ni), seed, 0, 0, 0, 1e-14);
        check_gemm::<f32>(edge(f32::MR, mi), k, edge(f32::NR, ni), seed, 0, 0, 0, 1e-5);
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

// ---- PR6: QR/LQ and the bidiagonal SVD — bitwise determinism across
// ---- rayon task counts, plus orthonormality and backward-error bounds on
// ---- random and rank-deficient inputs.

use tucker_linalg::qr::{form_q, geqrf, qr_r};

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
fn factorization_bits<T: Scalar>(a: &Matrix<T>) -> (Vec<T>, Vec<T>, Vec<T>, Vec<T>, Vec<T>, Vec<T>, Vec<T>) {
    let mut wq = a.clone();
    let tq = geqrf(&mut wq.as_mut());
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

fn check_bitwise_across_pools<T: Scalar>(a: &Matrix<T>) {
    // Reference: whatever worker budget the test harness itself runs under.
    let want = factorization_bits(a);
    for tasks in TASK_COUNTS {
        let got = with_tasks(tasks, || factorization_bits(a));
        assert_eq!(
            got, want,
            "QR/LQ/SVD changed bits under a {tasks}-task budget ({}x{})",
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

fn check_qr_backward_error<T: Scalar>(a: &Matrix<T>, tol: f64) {
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let mut w = a.clone();
    let taus = geqrf(&mut w.as_mut());
    let q = form_q(w.as_ref(), &taus, k);
    assert!(q.orthonormality_error().to_f64() < tol, "Q lost orthonormality ({m}x{n})");
    let r = qr_r(w.as_ref());
    let prod = gemm_into(q.as_ref(), Trans::No, r.as_ref(), Trans::No);
    let scale = a.max_abs().to_f64().max(1.0) * (k as f64).max(1.0);
    assert!(
        prod.max_abs_diff(a).to_f64() < tol * scale,
        "A != QR backward error ({m}x{n})"
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
        m in 1usize..20, n in 1usize..20, seed in any::<u64>(),
    ) {
        // Up to 19 rows: the LQ's `tplqt` fold runs one 16-row block or
        // crosses into a second.
        check_bitwise_across_pools(&seeded::<f64>(m, n, seed));
        check_bitwise_across_pools(&seeded::<f32>(m, n, seed));
    }

    #[test]
    fn blocked_qr_lq_backward_error(
        m in 1usize..20, n in 1usize..20, seed in any::<u64>(), deficient in any::<bool>(),
    ) {
        let r = (m.min(n) / 2).max(1);
        let a64: Matrix<f64> =
            if deficient { rank_deficient(m, n, r, seed) } else { seeded(m, n, seed) };
        let a32: Matrix<f32> =
            if deficient { rank_deficient(m, n, r, seed) } else { seeded(m, n, seed) };
        check_qr_backward_error(&a64, 1e-12);
        check_qr_backward_error(&a32, 1e-4);
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
/// *parallel* code paths actually engage — `gemm`'s pool split inside the `tplqt`
/// fold needs more than 256 rows below a block and ≥ 2²² flops.
/// Proptest-sized inputs stay on the serial fast paths, so this case is
/// pinned explicitly.
#[test]
fn parallel_paths_bitwise_across_pools() {
    // 48 × 6000: the HCCI-like short-fat shape, whose LQ folds six panels
    // with serial products.
    let a64 = seeded::<f64>(48, 6000, 99);
    check_bitwise_across_pools(&a64);
    let a32 = seeded::<f32>(48, 6000, 101);
    check_bitwise_across_pools(&a32);
    // 400 × 400: the fold's rank-16 products over up to 384 rows below the
    // block fan out over `gemm`'s 256-column panels. The QR and SVD of
    // the same matrix are serial; they ride along as a determinism check.
    let sq = seeded::<f64>(400, 400, 103);
    check_bitwise_across_pools(&sq);
    // Middle-mode TTMs, whose blocks the streaming kernel cuts into pieces
    // on the pool, and the serve tier's TTMs: an element query's one-row
    // factor over its [1, 24, 24] partial (the column orientation), a
    // slab's 96 rows over [32, 24, 24] (24 blocks of 96 × 32), and a last
    // mode (one block, its rows split between the pool's threads).
    check_ttm_across_pools::<f64>();
    check_ttm_across_pools::<f32>();
}

fn check_ttm_across_pools<T: Scalar>() {
    // Middle modes whose blocks are 1, 3, 19 and 513 columns wide: each
    // block must have the bits of its own `gemm`, whatever piece it falls in.
    let middle = [([1, 24, 40], 1, 5), ([3, 20, 700], 1, 7), ([19, 48, 60], 1, 20), ([513, 9, 4], 1, 6)];
    let serve = [([1, 24, 24], 1, 1), ([32, 24, 24], 1, 96), ([128, 32, 24], 2, 32)];
    for (dims, mode, rows) in middle.into_iter().chain(serve) {
        let len = dims.iter().product();
        let x = Tensor::from_data(&dims, seeded::<T>(len, 1, len as u64).into_data());
        let u = seeded::<T>(rows, dims[mode], 7 + rows as u64);
        let want = ttm(&x, mode, u.as_ref(), false);
        if mode == 1 {
            let (before, i_n) = (dims[0], dims[1]);
            let mut blocks = vec![T::ZERO; rows * before * dims[2]];
            for (yb, xb) in blocks.chunks_mut(rows * before).zip(x.data().chunks(i_n * before)) {
                let mut y = MatMut::row_major(yb, rows, before);
                gemm(T::ONE, u.as_ref(), MatRef::row_major(xb, i_n, before), &mut y);
            }
            assert!(want.data() == &blocks[..], "ttm of {dims:?} ×1 differs from its per-block gemms");
        }
        for tasks in TASK_COUNTS {
            let got = with_tasks(tasks, || ttm(&x, mode, u.as_ref(), false));
            assert!(
                got.data() == want.data(),
                "ttm of {dims:?} ×{mode} {rows} rows changed bits under a {tasks}-task budget ({})",
                T::PRECISION_NAME
            );
        }
    }
}

/// Items a call drains on its own thread run inside the call's outermost
/// perf frame, and the pool's workers never collect: each logical kernel
/// records once, whichever thread ran which item. A general-mode `ttm`
/// (one `ttm` frame over pieces of blocks on the pool), a `gemm_into` (one
/// `gemm` frame), a column-panel `syrk`, and a
/// multi-leaf `syrk_lower_panels` over row-major blocks (leaves run the
/// uninstrumented driver, one of them on a worker at two threads), a
/// multi-leaf `tslq_blocks` over the same blocks and `lq_factor` over a
/// whole view (leaves are nested folds, one of them folded on a worker at
/// two threads) must leave the same totals at one and at two threads.
#[test]
fn kernel_counters_equal_across_pools() {
    let x = Tensor::from_data(&[32, 24, 24], seeded::<f64>(32 * 24 * 24, 1, 5).into_data());
    let u = seeded::<f64>(96, 24, 6);
    let (a, b) = (seeded::<f64>(64, 600, 7), seeded::<f64>(600, 64, 8));
    let s = seeded::<f64>(130, 256, 9);
    // 420 row-major 8 × 40 blocks: 17 groups (26 blocks each for the LQ,
    // 1024 columns for the Gram), two leaves.
    let (rows, width, count) = (8, 40, 420);
    let unfolding = seeded::<f64>(rows * width * count, 1, 10).into_data();
    let blocks = || unfolding.chunks_exact(rows * width).map(|blk| MatRef::row_major(blk, rows, width));
    let wide = seeded::<f64>(rows, 16 * 1024 + 8, 11);
    let totals = |tasks| {
        with_tasks(tasks, || {
            perf::enable();
            let _ = ttm(&x, 1, u.as_ref(), false);
            let _ = gemm_into(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
            let _ = syrk_lower(s.as_ref());
            let _: Matrix<f64> = syrk_lower_panels(rows, &blocks().collect::<Vec<_>>());
            let _ = tslq_blocks(rows, blocks(), TslqOptions);
            let _ = lq_factor(wide.as_ref());
            perf::drain().expect("enabled")
        })
    };
    let one = totals(1);
    assert_eq!((one["gemm"].calls, one["syrk"].calls, one["lq"].calls, one["ttm"].calls), (1, 2, 2, 1));
    assert_eq!(one["ttm"].flops, 2 * 96 * 24 * 32 * 24, "the ttm frame carries 2·R·I_n·cols");
    let syrk = 130 * 130 * 256 + rows * rows * width * count;
    assert_eq!(one["syrk"].flops, syrk as u64, "the syrk frames carry the model count");
    let lq = perf::lq_flops(rows as f64, (width * count) as f64) as u64
        + perf::lq_flops(rows as f64, wide.cols() as f64) as u64;
    assert_eq!(one["lq"].flops, lq, "the LQ frames carry the model count");
    assert_eq!(one.len(), 4, "four sites: {one:?}");
    assert_eq!(totals(2), one);
}

fn check_lq_factor_table<T: Scalar>() {
    let lines = [1usize, 33, 64, 65, 130]
        .into_iter()
        .flat_map(|rows| [rows - 1, rows, 1023, 1024, 1025, 2 * 1024 + 7].map(|cols| (rows, cols)));
    for (rows, cols) in lines.chain([(300, 600)]) {
        let what = format!("{rows}x{cols} {}", T::PRECISION_NAME);
        let a = seeded::<T>(rows, cols, (rows * 10_000 + cols) as u64);
        let l = lq_factor(a.as_ref());

        assert_eq!(l.shape(), (rows, rows), "{what}");
        for j in 0..rows {
            for i in 0..j {
                assert!(l[(i, j)] == T::ZERO, "{what}: L not lower triangular");
            }
        }
        for j in cols..rows {
            assert!(l.col(j).iter().all(|x| *x == T::ZERO), "{what}: column {j} not padded");
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
    }
}

/// `lq_factor` on both sides of every line it draws: the fold's 16-row
/// block boundary (64 and 65 rows), the flat tree's 1024-column panel
/// boundary, the `cols < rows` padding, and at 300 rows the parallel branch
/// of the fold's `gemm` products.
#[test]
fn lq_factor_on_both_sides_of_every_line() {
    check_lq_factor_table::<f64>();
    check_lq_factor_table::<f32>();
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

// ---- The fixed tree of flat-tree leaves: a whole view and a block
// ---- sequence cut into the same leaves, on both sides of every leaf-count
// ---- step, at one, two and seven tasks.

/// Columns that make `groups` flat-tree groups: `groups − 1` full
/// 1024-column panels and a short last one.
fn cols_for_groups(groups: usize) -> usize {
    groups * 1024 - 7
}

/// FNV-1a over the bits of every element, column-major.
fn bits_hash<T: Scalar>(l: &Matrix<T>) -> u64 {
    l.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_f64().to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `L` of `m × cols_for_groups(groups)` through the three layouts and the
/// three task budgets: one set of bits, lower triangular, and `LLᵀ = AAᵀ` to
/// `rel` of `max|AAᵀ|` (in `f64`, from the widened factors).
fn check_leaf_line<T: Scalar>(m: usize, groups: usize, rel: f64) {
    let cols = cols_for_groups(groups);
    let what = format!("{m}x{cols} ({groups} groups) {}", T::PRECISION_NAME);
    let a = seeded::<T>(m, cols, (m * 100 + groups) as u64);
    let l = with_tasks(1, || lq_factor(a.as_ref()));

    for j in 0..m {
        for i in 0..j {
            assert!(l[(i, j)] == T::ZERO, "{what}: L not lower triangular");
        }
    }
    let (l64, a64) = (widened(&l), widened(&a));
    let llt = gemm_into(l64.as_ref(), Trans::No, l64.as_ref(), Trans::Yes);
    let aat = syrk_lower(a64.as_ref());
    let mut worst = 0.0f64;
    for j in 0..m {
        for i in j..m {
            worst = worst.max((llt[(i, j)] - aat[(i, j)]).abs());
        }
    }
    let got = worst / aat.max_abs();
    assert!(got <= rel, "{what}: max|LLᵀ − AAᵀ| / max|AAᵀ| = {got:e}");

    // Row-major whole view, and 1024-column row-major blocks laid end to
    // end as in an unfolding.
    let row_major = a.transposed();
    let got = with_tasks(1, || lq_factor(MatRef::row_major(row_major.data(), m, cols)));
    assert_eq!(got, l, "{what}: row-major whole view");
    let mut buf = Vec::with_capacity(m * cols);
    for j0 in (0..cols).step_by(1024) {
        let w = 1024.min(cols - j0);
        buf.extend((0..m * w).map(|k| a[(k / w, j0 + k % w)]));
    }
    let blocks = (0..cols).step_by(1024).map(|j0| {
        let w = 1024.min(cols - j0);
        MatRef::row_major(&buf[m * j0..m * (j0 + w)], m, w)
    });
    let got = with_tasks(1, || tslq_blocks(m, blocks, TslqOptions));
    assert_eq!(got, l, "{what}: 1024-column blocks");

    for tasks in [2, 7] {
        let got = with_tasks(tasks, || lq_factor(a.as_ref()));
        assert_eq!(got, l, "{what}: bits moved under a {tasks}-task budget");
    }
}

/// The leaf count steps at 16, 32 and 64 groups (one, two, four, eight
/// leaves) and stays at eight above: every step from both sides at one row,
/// where the tree is cheap, and the first two at the HCCI heights (33 and
/// 48 rows) and past the fold's 16-row block edge (65 rows).
fn check_leaf_lines<T: Scalar>(rel: f64) {
    for groups in [15, 16, 17, 31, 32, 33, 64, 65, 73] {
        check_leaf_line::<T>(1, groups, rel);
    }
    for (m, groups) in [(33, 15), (33, 16), (33, 33), (48, 17), (65, 16)] {
        check_leaf_line::<T>(m, groups, rel);
    }
}

#[test]
fn tslq_leaf_lines_bitwise_across_layouts_and_pools() {
    // The bound of `lq::tests::residual_is_at_rounding_level_on_tall_triangles`.
    check_leaf_lines::<f64>(2e-15);
    check_leaf_lines::<f32>(2e-6);
}

/// Below 16 groups the tree is one leaf: the flat tree it was, bit for bit.
/// HCCI mode 3's shape (48 × 8 360, nine groups) pinned to the `L` it had
/// before the leaves, at any budget.
#[test]
fn one_leaf_shape_keeps_the_flat_tree_bits() {
    let a64 = seeded::<f64>(48, 8360, 8360);
    let a32 = seeded::<f32>(48, 8360, 8360);
    for tasks in TASK_COUNTS {
        let (l64, l32) = with_tasks(tasks, || (lq_factor(a64.as_ref()), lq_factor(a32.as_ref())));
        assert_eq!(bits_hash(&l64), 0x74f1_5d79_0ba7_db62, "f64 L is not the flat tree's at {tasks} tasks");
        assert_eq!(bits_hash(&l32), 0x9e99_1f48_e0f8_5725, "f32 L is not the flat tree's at {tasks} tasks");
    }
}

// ---- The Gram on the same tree: `syrk_lower_panels` cuts its columns into
// ---- the LQ's leaves up to 128 rows, on both sides of every leaf-count
// ---- step, in every layout, at one, two and seven tasks.

/// The lower triangle of `Σ_leaves gemm(A_leaf, A_leafᵀ)` in `f64`: each
/// leaf of `leaves` consecutive runs of 1024-column groups multiplied by the
/// serial `gemm` from zero, the leaves added left to right — the bits a
/// one-leaf Gram had before the tree (the driver on the whole operand).
fn leaf_sum(a: &Matrix<f64>, groups: usize, leaves: usize) -> Matrix<f64> {
    let (m, n) = (a.rows(), a.cols());
    let mut want = Matrix::<f64>::zeros(m, m);
    for i in 0..leaves {
        let j0 = i * groups / leaves * 1024;
        let w = ((i + 1) * groups / leaves * 1024).min(n) - j0;
        let leaf = a.as_ref().submatrix(0, j0, m, w);
        let mut part = Matrix::<f64>::zeros(m, m);
        gemm(1.0, leaf, leaf.t(), &mut part.as_mut());
        for j in 0..m {
            for r in j..m {
                want[(r, j)] = if i == 0 { part[(r, j)] } else { want[(r, j)] + part[(r, j)] };
            }
        }
    }
    want
}

/// The Gram of `m × cols_for_groups(groups)` in accumulator precision
/// `f64` from `S` data: the left-to-right leaf sum, bit for bit, from a
/// column-major view, from 40-column row-major blocks laid end to end as in
/// an unfolding (the leaf lines fall inside blocks), and from the view cut
/// at an odd column, under one, two and seven tasks; mirrored exactly.
fn check_syrk_leaf_line<S: Scalar>(m: usize, groups: usize, leaves: usize) {
    let cols = cols_for_groups(groups);
    let what = format!("{m}x{cols} ({groups} groups, {leaves} leaves) {} -> double", S::PRECISION_NAME);
    let a = seeded::<S>(m, cols, (m * 1000 + groups) as u64);
    let want = leaf_sum(&widened(&a), groups, leaves);

    let width = |j0: usize| 40.min(cols - j0);
    let mut buf = Vec::with_capacity(m * cols);
    for j0 in (0..cols).step_by(40) {
        let w = width(j0);
        buf.extend((0..m * w).map(|k| a[(k / w, j0 + k % w)]));
    }
    let blocks: Vec<MatRef<'_, S>> =
        (0..cols).step_by(40).map(|j0| MatRef::row_major(&buf[m * j0..m * (j0 + width(j0))], m, width(j0))).collect();
    let cut = (cols / 2) | 1;
    let halves = [a.as_ref().submatrix(0, 0, m, cut), a.as_ref().submatrix(0, cut, m, cols - cut)];
    let whole = [a.as_ref()];

    for tasks in TASK_COUNTS {
        for (layout, panels) in [("column-major", &whole[..]), ("row-major blocks", &blocks[..]), ("odd cut", &halves[..])] {
            let got: Matrix<f64> = with_tasks(tasks, || syrk_lower_panels(m, panels));
            for j in 0..m {
                for i in j..m {
                    assert!(
                        got[(i, j)].to_bits() == want[(i, j)].to_bits(),
                        "{what}, {layout}, {tasks} tasks: ({i},{j}) is not the leaf sum"
                    );
                    assert!(got[(j, i)] == got[(i, j)], "{what}, {layout}: mirror of ({i},{j})");
                }
            }
        }
    }
}

/// The leaf count steps at 16, 32 and 64 groups at every height up to 128
/// rows: every step from both sides at one row, the first at the HCCI
/// heights (33 and 48 rows) and at the tree's last height (128 rows).
fn check_syrk_leaf_lines<S: Scalar>() {
    for (groups, leaves) in [(15, 1), (16, 2), (31, 2), (32, 4), (63, 4), (64, 8), (73, 8)] {
        check_syrk_leaf_line::<S>(1, groups, leaves);
    }
    for (m, groups, leaves) in [(33, 15, 1), (33, 16, 2), (48, 17, 2), (48, 32, 4), (128, 15, 1), (128, 16, 2)] {
        check_syrk_leaf_line::<S>(m, groups, leaves);
    }
}

#[test]
fn syrk_leaf_lines_bitwise_across_layouts_and_pools() {
    check_syrk_leaf_lines::<f64>();
    check_syrk_leaf_lines::<f32>();
    // Below 16 groups the Gram is one leaf: the driver on the whole operand,
    // as it was before the tree. HCCI mode 3's shape (48 × 8 360, nine
    // groups) pinned to the Gram it had then, at any budget.
    let a64 = seeded::<f64>(48, 8360, 8360);
    let a32 = seeded::<f32>(48, 8360, 8360);
    for tasks in TASK_COUNTS {
        let (g64, g32) = with_tasks(tasks, || (syrk_lower(a64.as_ref()), syrk_lower_f64_acc(a32.as_ref())));
        assert_eq!(bits_hash(&g64), 0x2e07_ab5d_0348_55c3, "f64 Gram is not the one-leaf driver's at {tasks} tasks");
        assert_eq!(bits_hash(&g32), 0x67da_e876_4293_8541, "f32 -> f64 Gram is not the one-leaf driver's at {tasks} tasks");
    }
}
