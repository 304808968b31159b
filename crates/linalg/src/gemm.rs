//! General matrix-matrix multiply over strided views.
//!
//! Since PR 3 the serial path is the register-tiled engine in
//! [`crate::kernel`]: packed A/B slabs in thread-local scratch feeding an
//! `MR×NR` outer-product microkernel, with C written through contiguous
//! column slices. The pre-existing dot-product kernel is preserved verbatim
//! as [`gemm_reference`] — it is the perf baseline the bench binary compares
//! against and an independent oracle for the property tests.
//!
//! Intra-process parallelism (the role MKL threading plays inside one
//! TuckerMPI rank) is provided by [`gemm_into`], which shards C over a 2D
//! grid of (row-block × column-panel) tiles. Each tile runs the same serial
//! engine over the full inner dimension, so the parallel result is
//! bit-identical to the serial one for any thread count (see the
//! determinism contract in `kernel.rs`).

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

/// Problems larger than this many flops use the parallel path in [`gemm_into`].
const PAR_FLOP_THRESHOLD: usize = 1 << 22;

/// Fixed column-panel width of [`gemm_par`]. A constant (never derived from
/// the pool size) so that panel boundaries — and therefore the bits of the
/// result — are identical for every thread count.
const PAR_COL_CHUNK: usize = 256;

/// `C = beta * C`, walking contiguous column slices when C's columns are
/// contiguous (the common case) instead of per-element strided index math.
fn scale_c<T: Scalar>(beta: T, c: &mut MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    if c.col_contiguous() {
        for j in 0..c.cols() {
            let col = c.col_slice_mut(j);
            if beta == T::ZERO {
                col.fill(T::ZERO);
            } else {
                for v in col.iter_mut() {
                    *v *= beta;
                }
            }
        }
    } else if beta == T::ZERO {
        c.fill(T::ZERO);
    } else {
        for j in 0..c.cols() {
            for i in 0..c.rows() {
                c.update(i, j, |v| v * beta);
            }
        }
    }
}

/// `C = alpha * A * B + beta * C` (serial, register-tiled).
///
/// Shapes: `A` is `m x k`, `B` is `k x n`, `C` is `m x n`. Panics on mismatch.
pub fn gemm<T: Scalar>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, beta: T, c: &mut MatMut<'_, T>) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm: inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm: output shape mismatch");
    let flops = 2u64
        .saturating_mul(m as u64)
        .saturating_mul(k as u64)
        .saturating_mul(n as u64);
    crate::perf::with_kernel("gemm", flops, crate::perf::gemm_pack_bytes::<T>(m, k, n), || {
        scale_c(beta, c);
        kernel::gemm_blocked(alpha, a, b, c);
    });
}

/// `C ← C + alpha·A·B`, parallelized over fixed-width column panels of `C`
/// when the problem is large enough (and `C`'s columns are contiguous).
///
/// This is the accumulate counterpart of [`gemm_into`] for callers that
/// update a submatrix in place — the two trailing products of the blocked
/// `tplqt` fold, the flat-tree LQ's kernel.
/// Each panel is produced by the serial register-tiled [`gemm`] over the
/// full inner dimension, and the panel boundaries are a fixed constant
/// ([`PAR_COL_CHUNK`]) independent of the pool size, so the result is
/// bit-identical to the serial `gemm(alpha, a, b, ONE, c)` for any thread
/// count — the same determinism contract `gemm_into` satisfies.
pub fn gemm_par<T: Scalar>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm_par: inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm_par: output shape mismatch");
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    if flops < PAR_FLOP_THRESHOLD
        || rayon::current_num_threads() <= 1
        || n <= PAR_COL_CHUNK
        || !c.col_contiguous()
        || m == 0
    {
        return gemm(alpha, a, b, T::ONE, c);
    }
    let ld = c.col_stride();
    // A column panel [j0, j0+w) of a column-contiguous view occupies the
    // contiguous buffer range [j0·ld, (j0+w−1)·ld + m): whole panels are
    // disjoint `&mut` chunks rayon can own. The buffer may extend past the
    // last viewed element (views sliced out of a larger parent), so chunks
    // beyond column n are left untouched.
    crate::perf::with_kernel("gemm", flops as u64, crate::perf::gemm_pack_bytes::<T>(m, k, n), || {
        c.data_mut().par_chunks_mut(PAR_COL_CHUNK * ld).enumerate().for_each(|(p, chunk)| {
            let j0 = p * PAR_COL_CHUNK;
            if j0 >= n {
                return;
            }
            let nb = PAR_COL_CHUNK.min(n - j0);
            let len = (nb - 1) * ld + m;
            let mut csub = MatMut::strided(&mut chunk[..len], m, nb, 1, ld);
            // The nested serial gemm frames are depth-guarded: this function
            // records the logical accumulate exactly once.
            gemm(alpha, a, b.submatrix(0, j0, k, nb), T::ONE, &mut csub);
        });
    });
}

/// Cache block sizes of the reference kernel.
const REF_MC: usize = 128;
const REF_KC: usize = 256;
const REF_NC: usize = 1024;

/// The pre-PR3 cache-blocked dot-product GEMM, kept as an
/// independently-coded oracle for the property tests (the tiled engine's
/// last recorded margin over it is in EXPERIMENTS.md). Same contract as
/// [`gemm`].
pub fn gemm_reference<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm_reference: inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm_reference: output shape mismatch");

    // Scale or clear C once up front.
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else if beta != T::ONE {
        for j in 0..n {
            for i in 0..m {
                c.update(i, j, |v| v * beta);
            }
        }
    }
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

/// Split `total` into `parts` contiguous ranges with lengths rounded up to
/// `granule` (the last range takes the remainder).
fn split_ranges(total: usize, parts: usize, granule: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let chunk = total.div_ceil(parts).div_ceil(granule) * granule;
    let mut out = Vec::new();
    let mut start = 0;
    while start < total {
        let len = chunk.min(total - start);
        out.push((start, len));
        start += len;
    }
    if out.is_empty() {
        out.push((0, 0));
    }
    out
}

/// `C = op_a(A) * op_b(B)` into a fresh matrix, parallel over a 2D grid of
/// C tiles when the problem is large enough. Bit-identical to the serial
/// [`gemm`] for any thread count.
pub fn gemm_into<T: Scalar>(a: MatRef<'_, T>, ta: Trans, b: MatRef<'_, T>, tb: Trans) -> Matrix<T> {
    let a = ta.apply(a);
    let b = tb.apply(b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "gemm_into: inner dimension mismatch");
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    // The serial path's nested `gemm` and the tile calls this thread drains
    // are guarded, pool workers never collect: this outermost frame records
    // the logical multiply once.
    crate::perf::with_kernel("gemm", flops as u64, crate::perf::gemm_pack_bytes::<T>(m, k, n), || {
        // `C` starts as zeros, so every product below accumulates onto it
        // (`beta = 1`): `+0 + v` has the bits of a cleared `C` plus `v`,
        // without a second pass over the output.
        let mut c = Matrix::<T>::zeros(m, n);
        let threads = rayon::current_num_threads();
        if flops < PAR_FLOP_THRESHOLD || threads <= 1 || m == 0 || n == 0 || k == 0 {
            let mut cm = c.as_mut();
            gemm(T::ONE, a, b, T::ONE, &mut cm);
            return c;
        }
        gemm_into_tiled(a, b, &mut c, threads * 2);
        c
    })
}

/// Compute `C = A·B`, `C` all zeros on entry (as [`gemm_into`] hands it),
/// over a 2D tile grid with roughly `tasks` tiles.
/// Each tile is produced by the serial engine over the full inner dimension
/// and then copied into C, so results do not depend on the tiling.
/// Exposed to the crate for the bit-pattern agreement tests.
pub(crate) fn gemm_into_tiled<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut Matrix<T>,
    tasks: usize,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // Prefer column panels (they are plentiful in the short-fat shapes the
    // solver produces); add row splits only when columns alone cannot feed
    // the requested task count.
    let col_tiles = n.div_ceil(T::NR).min(tasks).max(1);
    let row_tiles = (tasks / col_tiles).min(m.div_ceil(T::MR)).max(1);
    let col_ranges = split_ranges(n, col_tiles, T::NR);

    if row_tiles <= 1 {
        // Pure column panels: disjoint contiguous chunks of the col-major
        // buffer, written in place with no copy step.
        let chunk_len = col_ranges[0].1 * m;
        c.data_mut().par_chunks_mut(chunk_len.max(1)).enumerate().for_each(|(p, chunk)| {
            let (j0, nb) = (p * col_ranges[0].1, (chunk.len() / m.max(1)).min(n));
            if nb == 0 {
                return;
            }
            let bsub = b.submatrix(0, j0, k, nb);
            let mut csub = MatMut::col_major(chunk, m, nb);
            gemm(T::ONE, a, bsub, T::ONE, &mut csub);
        });
        return;
    }

    // 2D grid: compute every (row-block × column-panel) tile into its own
    // buffer in parallel, then copy the tiles into C serially (the copy is
    // O(m·n), negligible against the O(m·n·k) compute).
    let row_ranges = split_ranges(m, row_tiles, T::MR);
    let tiles: Vec<(usize, usize, usize, usize)> = row_ranges
        .iter()
        .flat_map(|&(r0, mb)| col_ranges.iter().map(move |&(c0, nb)| (r0, c0, mb, nb)))
        .collect();
    let mut slots: Vec<Option<Matrix<T>>> = tiles.iter().map(|_| None).collect();
    slots.par_chunks_mut(1).zip(tiles.par_chunks(1)).for_each(|(slot, t)| {
        let (r0, c0, mb, nb) = t[0];
        let mut tile = Matrix::zeros(mb, nb);
        let mut tm = tile.as_mut();
        gemm(T::ONE, a.submatrix(r0, 0, mb, k), b.submatrix(0, c0, k, nb), T::ONE, &mut tm);
        slot[0] = Some(tile);
    });
    for ((r0, c0, mb, nb), slot) in tiles.into_iter().zip(slots) {
        let tile = slot.expect("every tile was computed");
        for j in 0..nb {
            c.col_mut(c0 + j)[r0..r0 + mb].copy_from_slice(tile.col(j));
        }
    }
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
        gemm(1.5, a.as_ref(), b.as_ref(), 0.25, &mut c_new.as_mut());
        gemm_reference(1.5, a.as_ref(), b.as_ref(), 0.25, &mut c_ref.as_mut());
        assert!(c_new.max_abs_diff(&c_ref) < 1e-11);
    }

    #[test]
    fn parallel_path_matches_serial_bitwise() {
        let a = pseudo_matrix(100, 200, 5);
        let b = pseudo_matrix(200, 400, 6);
        let par = gemm_into(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        let mut ser = Matrix::zeros(100, 400);
        let mut sm = ser.as_mut();
        gemm(1.0, a.as_ref(), b.as_ref(), 0.0, &mut sm);
        assert_eq!(par.data(), ser.data());
    }

    #[test]
    fn two_d_tiling_matches_serial_bitwise() {
        // Narrow C forces row splits; every tiling must agree bit for bit.
        let a = pseudo_matrix(301, 157, 15);
        let b = pseudo_matrix(157, 9, 16);
        let mut ser = Matrix::zeros(301, 9);
        gemm(1.0, a.as_ref(), b.as_ref(), 0.0, &mut ser.as_mut());
        for tasks in [2, 3, 7, 16] {
            let mut c = Matrix::zeros(301, 9);
            gemm_into_tiled(a.as_ref(), b.as_ref(), &mut c, tasks);
            assert_eq!(c.data(), ser.data(), "tasks={tasks}");
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

    #[test]
    fn alpha_beta_accumulate() {
        let a = pseudo_matrix(4, 4, 9);
        let b = pseudo_matrix(4, 4, 10);
        let mut c = pseudo_matrix(4, 4, 11);
        let c0 = c.clone();
        let mut cm = c.as_mut();
        gemm(2.0, a.as_ref(), b.as_ref(), 0.5, &mut cm);
        let r = naive(a.as_ref(), b.as_ref());
        for i in 0..4 {
            for j in 0..4 {
                let expect = 2.0 * r[(i, j)] + 0.5 * c0[(i, j)];
                assert!((c[(i, j)] - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn beta_scaling_on_strided_output() {
        // Row-major (non col-contiguous) C exercises the strided beta path.
        let a = pseudo_matrix(3, 4, 30);
        let b = pseudo_matrix(4, 5, 31);
        let mut data = vec![1.0f64; 15];
        let mut c = MatMut::row_major(&mut data, 3, 5);
        gemm(1.0, a.as_ref(), b.as_ref(), 2.0, &mut c);
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

    mod tiling_props {
        use super::*;
        use proptest::prelude::*;

        fn seeded<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
            let mut state = seed | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                T::from_f64(((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0)
            })
        }

        fn check_tiling<T: Scalar>(m: usize, k: usize, n: usize, tasks: usize, seed: u64) {
            let a = seeded::<T>(m, k, seed);
            let b = seeded::<T>(k, n, seed ^ 0x1234_5678);
            let mut ser = Matrix::<T>::zeros(m, n);
            gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, &mut ser.as_mut());
            let mut par = Matrix::<T>::zeros(m, n);
            gemm_into_tiled(a.as_ref(), b.as_ref(), &mut par, tasks);
            prop_assert_eq!(par.data(), ser.data(), "tasks={}", tasks);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            // Any 2D task grid must reproduce the serial result bit for bit
            // (each tile runs the same engine over the full inner dimension)
            // — the invariant that makes results thread-count independent.
            #[test]
            fn any_tiling_is_bitwise_serial(
                m in 1usize..70, k in 1usize..40, n in 1usize..70,
                tasks in 2usize..17, seed in any::<u64>(),
            ) {
                check_tiling::<f64>(m, k, n, tasks, seed);
                check_tiling::<f32>(m, k, n, tasks, seed);
            }
        }
    }
}
