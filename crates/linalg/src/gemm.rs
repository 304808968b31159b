//! General matrix-matrix multiply over strided views.
//!
//! [`gemm`] is the one GEMM: `C += α·A·B` through the register-tiled engine
//! in [`crate::kernel`] (packed A/B slabs in thread-local scratch feeding an
//! `MR×NR` outer-product microkernel, with C written through contiguous
//! column slices). It also owns the only pool split, the role MKL threading
//! plays inside one TuckerMPI rank: a large product with column-contiguous
//! `C` is cut into fixed 256-column panels that run as pool items. Each
//! panel runs the serial engine over the full inner dimension, so by the
//! determinism contract in `kernel.rs` the result has the serial bits for
//! any thread count. [`gemm_into`] is a zeroed `C` plus that call.
//!
//! The pre-engine dot-product kernel is kept as [`gemm_reference`], an
//! independent oracle for the property tests.

use crate::kernel;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};
use rayon::prelude::*;

/// Transposition marker for the convenience wrappers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    /// Apply the marker to a view (transposition is free on strided views).
    pub fn apply<'a, T: Scalar>(self, a: MatRef<'a, T>) -> MatRef<'a, T> {
        match self {
            Trans::No => a,
            Trans::Yes => a.t(),
        }
    }
}

/// Products below this many flops stay on the calling thread.
const PAR_FLOP_THRESHOLD: u64 = 1 << 22;

/// Column-panel width of the pool split. A constant (never derived from the
/// pool size) so that panel boundaries — and therefore the bits of the
/// result — are identical for every thread count.
const PAR_COL_CHUNK: usize = 256;

/// `C += alpha · A · B`, register-tiled, split over the pool in
/// [`PAR_COL_CHUNK`]-column panels of `C` when the product passes
/// [`PAR_FLOP_THRESHOLD`], `C` has more columns than one panel and its
/// columns are contiguous; serial otherwise. Either way every element has
/// the bits of the serial engine. One `"gemm"` perf frame per call.
///
/// Shapes: `A` is `m x k`, `B` is `k x n`, `C` is `m x n`. Panics on mismatch.
pub fn gemm<T: Scalar>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm: inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm: output shape mismatch");
    let flops = 2u64
        .saturating_mul(m as u64)
        .saturating_mul(k as u64)
        .saturating_mul(n as u64);
    crate::perf::with_kernel("gemm", flops, crate::perf::gemm_pack_bytes::<T>(m, k, n), || {
        // The flop test goes first: a small product never asks the pool
        // its size.
        if flops < PAR_FLOP_THRESHOLD
            || n <= PAR_COL_CHUNK
            || m == 0
            || !c.col_contiguous()
            || rayon::current_num_threads() <= 1
        {
            return kernel::gemm_blocked(alpha, a, b, c);
        }
        let ld = c.col_stride();
        // A column panel [j0, j0+w) of a column-contiguous view occupies the
        // contiguous buffer range [j0·ld, (j0+w−1)·ld + m): whole panels are
        // disjoint `&mut` chunks the pool can own. The buffer may extend past
        // the last viewed element (views sliced out of a larger parent), so
        // chunks beyond column n are left untouched. The items call the
        // uninstrumented engine: this frame records the logical product once.
        c.data_mut().par_chunks_mut(PAR_COL_CHUNK * ld).enumerate().for_each(|(p, chunk)| {
            let j0 = p * PAR_COL_CHUNK;
            if j0 >= n {
                return;
            }
            let nb = PAR_COL_CHUNK.min(n - j0);
            let len = (nb - 1) * ld + m;
            let mut csub = MatMut::strided(&mut chunk[..len], m, nb, 1, ld);
            kernel::gemm_blocked(alpha, a, b.submatrix(0, j0, k, nb), &mut csub);
        });
    });
}

/// Cache block sizes of the reference kernel.
const REF_MC: usize = 128;
const REF_KC: usize = 256;
const REF_NC: usize = 1024;

/// The cache-blocked dot-product GEMM that preceded the tiled engine, kept
/// as an independently-coded oracle for the property tests (the engine's
/// last recorded margin over it is in EXPERIMENTS.md). Same contract as
/// [`gemm`]: `C += alpha · A · B`.
pub fn gemm_reference<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm_reference: inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm_reference: output shape mismatch");

    if m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        return;
    }

    let mut bpack = vec![T::ZERO; REF_KC * REF_NC.min(n.max(1))];
    let mut apack = vec![T::ZERO; REF_MC.min(m.max(1)) * REF_KC];

    let mut jc = 0;
    while jc < n {
        let nb = REF_NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = REF_KC.min(k - pc);
            // Pack B(pc..pc+kb, jc..jc+nb) column-major: column j contiguous.
            for j in 0..nb {
                for l in 0..kb {
                    bpack[j * kb + l] = b.get(pc + l, jc + j);
                }
            }
            let mut ic = 0;
            while ic < m {
                let mb = REF_MC.min(m - ic);
                // Pack A(ic..ic+mb, pc..pc+kb) row-major: row i contiguous.
                for i in 0..mb {
                    for l in 0..kb {
                        apack[i * kb + l] = a.get(ic + i, pc + l);
                    }
                }
                for j in 0..nb {
                    let bcol = &bpack[j * kb..(j + 1) * kb];
                    for i in 0..mb {
                        let arow = &apack[i * kb..(i + 1) * kb];
                        let dot = dot_unrolled(arow, bcol);
                        c.update(ic + i, jc + j, |v| v + alpha * dot);
                    }
                }
                ic += mb;
            }
            pc += kb;
        }
        jc += nb;
    }
}

/// Dot product of two equal-length slices with four accumulators (the
/// reference kernel's inner loop).
#[inline]
fn dot_unrolled<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let chunks = x.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
    for c in 0..chunks {
        let i = 4 * c;
        s0 = x[i].mul_add(y[i], s0);
        s1 = x[i + 1].mul_add(y[i + 1], s1);
        s2 = x[i + 2].mul_add(y[i + 2], s2);
        s3 = x[i + 3].mul_add(y[i + 3], s3);
    }
    let mut tail = T::ZERO;
    for i in 4 * chunks..x.len() {
        tail = x[i].mul_add(y[i], tail);
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// `C = op_a(A) * op_b(B)` into a fresh matrix: [`gemm`], pool split and
/// all, onto zeros.
pub fn gemm_into<T: Scalar>(a: MatRef<'_, T>, ta: Trans, b: MatRef<'_, T>, tb: Trans) -> Matrix<T> {
    let a = ta.apply(a);
    let b = tb.apply(b);
    assert_eq!(b.rows(), a.cols(), "gemm_into: inner dimension mismatch");
    let mut c = Matrix::<T>::zeros(a.rows(), b.cols());
    gemm(T::ONE, a, b, &mut c.as_mut());
    c
}

/// Convenience: `A * B` for owned matrices.
pub fn matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    gemm_into(a.as_ref(), Trans::No, b.as_ref(), Trans::No)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> Matrix<T> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = T::ZERO;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn matches_naive_small() {
        let a = pseudo_matrix(7, 5, 1);
        let b = pseudo_matrix(5, 9, 2);
        let c = matmul(&a, &b);
        let r = naive(a.as_ref(), b.as_ref());
        assert!(c.max_abs_diff(&r) < 1e-13);
    }

    #[test]
    fn matches_naive_blocked_sizes() {
        // Exercise multiple cache blocks in every dimension.
        let a = pseudo_matrix(150, 300, 3);
        let b = pseudo_matrix(300, 130, 4);
        let c = matmul(&a, &b);
        let r = naive(a.as_ref(), b.as_ref());
        assert!(c.max_abs_diff(&r) < 1e-11);
    }

    #[test]
    fn matches_reference_kernel() {
        let a = pseudo_matrix(90, 310, 21);
        let b = pseudo_matrix(310, 70, 22);
        let mut c_new = pseudo_matrix(90, 70, 23);
        let mut c_ref = c_new.clone();
        gemm(1.5, a.as_ref(), b.as_ref(), &mut c_new.as_mut());
        gemm_reference(1.5, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert!(c_new.max_abs_diff(&c_ref) < 1e-11);
    }

    fn seeded<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            T::from_f64(((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0)
        })
    }

    /// `gemm` onto zeros under a task budget of 1, 2 and 7, into a view
    /// whose leading dimension exceeds its rows: the pool split (a partial
    /// last panel at 257 and 513 columns) has the bits of one serial engine
    /// call and leaves the rows past the view alone.
    fn check_pool_split<T: Scalar>() {
        const PAD: f64 = 7.0;
        let (m, k) = (97, 130);
        let a = seeded::<T>(m, k, 1);
        for n in [257, 400, 513, 600] {
            let b = seeded::<T>(k, n, n as u64);
            let mut want = Matrix::<T>::zeros(m, n);
            kernel::gemm_blocked(T::ONE, a.as_ref(), b.as_ref(), &mut want.as_mut());
            let ld = m + 5;
            for tasks in [1, 2, 7] {
                let mut buf = vec![T::from_f64(PAD); ld * n];
                let mut c = MatMut::strided(&mut buf, m, n, 1, ld);
                c.fill(T::ZERO);
                let prev = rayon::current_thread_limit();
                rayon::set_current_thread_limit(Some(tasks));
                gemm(T::ONE, a.as_ref(), b.as_ref(), &mut c);
                rayon::set_current_thread_limit(prev);
                for j in 0..n {
                    let col = &buf[j * ld..(j + 1) * ld];
                    assert!(
                        col[..m] == *want.col(j) && col[m..].iter().all(|&v| v == T::from_f64(PAD)),
                        "{} n={n} tasks={tasks} column {j}",
                        T::PRECISION_NAME
                    );
                }
            }
        }
    }

    #[test]
    fn pool_split_has_the_serial_bits() {
        check_pool_split::<f64>();
        check_pool_split::<f32>();
    }

    /// `gemm` onto zeros under a thread cap of `tasks`.
    fn gemm_capped<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>, tasks: usize) {
        let prev = rayon::current_thread_limit();
        rayon::set_current_thread_limit(Some(tasks));
        gemm(T::ONE, a, b, c);
        rayon::set_current_thread_limit(prev);
    }

    #[test]
    fn parallel_path_matches_serial_bitwise() {
        // 16 Mflop over 400 columns: past the threshold, so `gemm_into`
        // takes the pool split whenever more than one thread is allowed.
        let a = pseudo_matrix(100, 200, 5);
        let b = pseudo_matrix(200, 400, 6);
        let mut ser = Matrix::zeros(100, 400);
        kernel::gemm_blocked(1.0, a.as_ref(), b.as_ref(), &mut ser.as_mut());
        let prev = rayon::current_thread_limit();
        rayon::set_current_thread_limit(Some(4));
        let par = gemm_into(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        rayon::set_current_thread_limit(prev);
        assert_eq!(par.data(), ser.data());
    }

    #[test]
    fn two_d_tiling_matches_serial_bitwise() {
        // A narrow C past the flop threshold (one panel, so no split) and a
        // wide one (split into panels): every thread cap has the serial bits.
        for (m, k, n) in [(301, 157, 9), (301, 157, 300)] {
            let a = pseudo_matrix(m, k, 15);
            let b = pseudo_matrix(k, n, 16);
            let mut ser = Matrix::zeros(m, n);
            kernel::gemm_blocked(1.0, a.as_ref(), b.as_ref(), &mut ser.as_mut());
            for tasks in [2, 3, 7, 16] {
                let mut c = Matrix::zeros(m, n);
                gemm_capped(a.as_ref(), b.as_ref(), &mut c.as_mut(), tasks);
                assert_eq!(c.data(), ser.data(), "n={n} tasks={tasks}");
            }
        }
    }

    mod tiling_props {
        use super::*;
        use proptest::prelude::*;

        fn check_tiling<T: Scalar>(
            (m, k, n): (usize, usize, usize),
            pad: usize,
            tasks: usize,
            seed: u64,
        ) {
            let a = seeded::<T>(m, k, seed);
            let b = seeded::<T>(k, n, seed ^ 0x1234_5678);
            let mut ser = Matrix::<T>::zeros(m, n);
            kernel::gemm_blocked(T::ONE, a.as_ref(), b.as_ref(), &mut ser.as_mut());
            let ld = m + pad;
            let mut buf = vec![T::ZERO; ld * n];
            gemm_capped(a.as_ref(), b.as_ref(), &mut MatMut::strided(&mut buf, m, n, 1, ld), tasks);
            for j in 0..n {
                prop_assert_eq!(&buf[j * ld..j * ld + m], ser.col(j), "tasks={} column {}", tasks, j);
                prop_assert!(buf[j * ld + m..(j + 1) * ld].iter().all(|&v| v == T::ZERO));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            // Every shape past the flop threshold with more than one panel
            // of columns is split over the pool; any thread cap and leading
            // dimension must reproduce the serial result bit for bit — the
            // invariant that makes results thread-count independent.
            #[test]
            fn any_tiling_is_bitwise_serial(
                m in 64usize..100, k in 128usize..160, n in 257usize..600,
                pad in 0usize..4, tasks in 2usize..17, seed in any::<u64>(),
            ) {
                check_tiling::<f64>((m, k, n), pad, tasks, seed);
                check_tiling::<f32>((m, k, n), pad, tasks, seed);
            }
        }
    }

    #[test]
    fn transposed_operands() {
        let a = pseudo_matrix(5, 7, 7);
        let b = pseudo_matrix(5, 6, 8);
        // C = Aᵀ B : 7x6
        let c = gemm_into(a.as_ref(), Trans::Yes, b.as_ref(), Trans::No);
        let r = naive(a.as_ref().t(), b.as_ref());
        assert!(c.max_abs_diff(&r) < 1e-13);
    }

    /// `gemm` accumulates: `C ← C + α·A·B` (BLAS's `β = 1`).
    #[test]
    fn alpha_beta_accumulate() {
        let a = pseudo_matrix(4, 4, 9);
        let b = pseudo_matrix(4, 4, 10);
        let mut c = pseudo_matrix(4, 4, 11);
        let c0 = c.clone();
        let mut cm = c.as_mut();
        gemm(2.0, a.as_ref(), b.as_ref(), &mut cm);
        let r = naive(a.as_ref(), b.as_ref());
        for i in 0..4 {
            for j in 0..4 {
                let expect = 2.0 * r[(i, j)] + c0[(i, j)];
                assert!((c[(i, j)] - expect).abs() < 1e-13);
            }
        }
    }

    /// The `β = 1` accumulate through a row-major (not column-contiguous)
    /// `C`, which the write-back walks by row slices.
    #[test]
    fn beta_scaling_on_strided_output() {
        let a = pseudo_matrix(3, 4, 30);
        let b = pseudo_matrix(4, 5, 31);
        let mut data = vec![2.0f64; 15];
        let mut c = MatMut::row_major(&mut data, 3, 5);
        gemm(1.0, a.as_ref(), b.as_ref(), &mut c);
        let r = naive(a.as_ref(), b.as_ref());
        for i in 0..3 {
            for j in 0..5 {
                assert!((c.get(i, j) - (r[(i, j)] + 2.0)).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn row_major_views_work() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let a = MatRef::row_major(&data, 3, 4);
        let b = MatRef::row_major(&data, 4, 3);
        let c = gemm_into(a, Trans::No, b, Trans::No);
        let r = naive(a, b);
        assert!(c.max_abs_diff(&r) < 1e-13);
    }

    #[test]
    fn single_precision_works() {
        let a = Matrix::<f32>::from_fn(8, 8, |i, j| (i + j) as f32 / 8.0);
        let b = Matrix::<f32>::identity(8);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn empty_dims_are_ok() {
        let a = Matrix::<f64>::zeros(0, 3);
        let b = Matrix::<f64>::zeros(3, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (0, 2));
    }
}
