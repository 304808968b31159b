//! Tensor-times-matrix (TTM): `Y = X ×_n U`, defined by `Y_(n) = U · X_(n)`.
//!
//! This is the truncation kernel of ST-HOSVD (Alg. 1 line 7, with `U = U_nᵀ`)
//! and reuses the unfolding block structure: `X_(n)` is `after` row-major
//! `I_n × before` blocks, and the same block of `Y_(n)` is `op(U)` times it
//! (the role of [6, Alg. 3] in TuckerMPI). `op(U)` is a few dozen rows, `X`
//! millions of entries, so the product is one streaming kernel of its own
//! rather than the GEMM engine (which would copy all of `X` into packed
//! slabs to feed a square tile): `op(U)` is packed once into the pack
//! scratch, where it stays in L1, and `X` is read where it lies, once, by
//! tiles that are tall in whichever direction is long ([`Scalar::ttm_tile`]:
//! up to three registers by 8 broadcasts). With `before == 1` (mode 0, or
//! any mode whose preceding extents are 1) the unfolding is one column-major
//! matrix, and the vectors run down `op(U)`'s packed columns, 8 columns of
//! `X` broadcast per tile (`cols`); otherwise they run along a block's
//! rows, 8 entries of `op(U)` broadcast (`rows`). Either way every entry
//! has the bits of `gemm` on its block, for any pool size.

use crate::dense::Tensor;
use crate::dims::{prod_after, prod_before};
use rayon::prelude::*;
use tucker_linalg::scalar::{TtmTile, TTM_TILE};
use tucker_linalg::{perf, MatRef, Scalar};

/// Products below this many flops run on the calling thread.
const PAR_FLOPS: usize = 1 << 22;

/// `Y = X ×_n op(U)` with `op(U) = Uᵀ` when `transpose` is set.
///
/// Shapes: `op(U)` must be `R x I_n`; the result has mode-`n` dimension `R`.
/// The ST-HOSVD truncation `Y = X ×_n U_nᵀ` passes the `I_n x R_n` factor with
/// `transpose = true`.
pub fn ttm<T: Scalar>(x: &Tensor<T>, n: usize, u: MatRef<'_, T>, transpose: bool) -> Tensor<T> {
    assert!(n < x.ndims(), "ttm: mode out of range");
    let op = if transpose { u.t() } else { u };
    let i_n = x.dims()[n];
    assert_eq!(op.cols(), i_n, "ttm: op(U) columns must match mode-{n} dimension");
    let r = op.rows();
    let before = prod_before(x.dims(), n);
    let after = prod_after(x.dims(), n);

    let mut ydims = x.dims().to_vec();
    ydims[n] = r;
    let mut y = vec![T::ZERO; r * before * after];
    // Degenerate shapes (some mode has zero extent, e.g. an empty block of a
    // distributed tensor whose truncation rank is below the grid size) are
    // the zeros above.
    if y.is_empty() || i_n == 0 {
        return Tensor::from_data(&ydims, y);
    }
    let flops = 2usize.saturating_mul(r).saturating_mul(i_n).saturating_mul(before * after);
    let threads = if flops < PAR_FLOPS { 1 } else { rayon::current_num_threads() };
    // Four pieces per thread: enough for the queue to even out a slow one.
    let pieces = 4 * threads;
    // Whole registers per packed column, so each starts on a cache line.
    let rp = r.next_multiple_of(T::MR);
    perf::with_kernel("ttm", flops as u64, 0, || {
        T::with_pack_scratch(0, rp * i_n, |_, pack| {
            for (l, col) in pack.chunks_exact_mut(rp).enumerate() {
                for (i, v) in col.iter_mut().enumerate() {
                    *v = if i < r { op.get(i, l) } else { T::ZERO };
                }
            }
            let (pack, x) = (&*pack, x.data());
            if threads == 1 {
                // Without a pool call: its set-up alone can cost more than a
                // serve query's TTM.
                if before == 1 {
                    cols(pack, rp, r, x, i_n, &mut y)
                } else {
                    rows(pack, rp, r, x, i_n, before, &mut y)
                }
            } else if before == 1 {
                // Pieces of whole column tiles.
                let width = after.div_ceil(pieces).next_multiple_of(TTM_TILE);
                y.par_chunks_mut(r * width)
                    .zip(x.par_chunks(i_n * width))
                    .for_each(|(y, x)| cols(pack, rp, r, x, i_n, y));
            } else if after > 1 {
                let blocks = after.div_ceil(pieces);
                y.par_chunks_mut(r * before * blocks)
                    .zip(x.par_chunks(i_n * before * blocks))
                    .for_each(|(y, x)| rows(pack, rp, r, x, i_n, before, y));
            } else {
                // One block (the last mode): one piece of `op(U)`'s rows per
                // thread, each reading all of `X`.
                let height = r.div_ceil(threads.min(r));
                y.par_chunks_mut(height * before).enumerate().for_each(|(p, y)| {
                    rows(&pack[p * height..], rp, y.len() / before, x, i_n, before, y)
                });
            }
        })
    });
    Tensor::from_data(&ydims, y)
}

/// `y = op(U) · x` for the column-major `k`-row `x` and `r`-row `y`, `op(U)`
/// packed column by column `rp` apart: tiles of up to three registers of
/// `op(U)`'s rows by `TTM_TILE` columns, each column tile read from memory
/// once.
fn cols<T: Scalar>(pack: &[T], rp: usize, r: usize, x: &[T], k: usize, y: &mut [T]) {
    let (n, w) = (x.len() / k, 3 * T::MR);
    for c0 in (0..n).step_by(TTM_TILE) {
        for i0 in (0..r).step_by(w) {
            let tile = TtmTile { k, n: TTM_TILE.min(n - c0), lanes: w.min(r - i0), vs: rp, bj: k, bl: 1, yj: r };
            T::ttm_tile(tile, &pack[i0..], &x[c0 * k..], &mut y[c0 * r + i0..]);
        }
    }
}

/// `y_b = op(U) · x_b` for each row-major `k × m` block of `x` and `r × m`
/// block of `y`, `op(U)` packed as for `cols`: tiles of up to three
/// registers of a block's row by `TTM_TILE` rows of `op(U)`, each stretch of
/// a row read from memory once.
fn rows<T: Scalar>(pack: &[T], rp: usize, r: usize, x: &[T], k: usize, m: usize, y: &mut [T]) {
    let w = 3 * T::MR;
    for (yb, xb) in y.chunks_exact_mut(r * m).zip(x.chunks_exact(k * m)) {
        for c0 in (0..m).step_by(w) {
            for i0 in (0..r).step_by(TTM_TILE) {
                let tile = TtmTile { k, n: TTM_TILE.min(r - i0), lanes: w.min(m - c0), vs: m, bj: 1, bl: rp, yj: m };
                T::ttm_tile(tile, &xb[c0..], &pack[i0..], &mut yb[i0 * m + c0..]);
            }
        }
    }
}

/// Chain of TTMs `X ×_0 op(U_0) ×_1 op(U_1) ··· ×_{N-1} op(U_{N-1})`
/// (skipping `None` entries) — used for Tucker reconstruction.
pub fn ttm_chain<T: Scalar>(
    x: &Tensor<T>,
    factors: &[Option<MatRef<'_, T>>],
    transpose: bool,
) -> Tensor<T> {
    assert_eq!(factors.len(), x.ndims(), "ttm_chain: one entry per mode");
    let mut y: Option<Tensor<T>> = None;
    for (n, f) in factors.iter().enumerate() {
        if let Some(u) = f {
            let src = y.as_ref().unwrap_or(x);
            y = Some(ttm(src, n, *u, transpose));
        }
    }
    y.unwrap_or_else(|| x.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::prod_after;
    use crate::unfold::Unfolding;
    use tucker_linalg::Matrix;

    fn test_tensor(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            let mut v = 1.0;
            for (k, &x) in i.iter().enumerate() {
                v += (x * (k + 2)) as f64;
            }
            (v * 0.7).sin()
        })
    }

    /// Reference TTM via explicit unfolding matrices.
    fn ttm_reference(x: &Tensor<f64>, n: usize, op: &Matrix<f64>) -> Tensor<f64> {
        let u = Unfolding::new(x, n);
        let xm = u.to_matrix();
        let ym = tucker_linalg::gemm::matmul(op, &xm);
        // Fold back: Y_(n)[i, c] -> Y(multi-index).
        let mut ydims = x.dims().to_vec();
        ydims[n] = op.rows();
        let mut y = Tensor::zeros(&ydims);
        let before = prod_before(&ydims, n);
        for c in 0..ym.cols() {
            let within = c % before;
            let blk = c / before;
            for i in 0..op.rows() {
                let lin = blk * op.rows() * before + i * before + within;
                y.data_mut()[lin] = ym[(i, c)];
            }
        }
        y
    }

    #[test]
    fn matches_reference_every_mode() {
        let x = test_tensor(&[4, 5, 3, 6]);
        for n in 0..4 {
            let r = 2 + n;
            let op = Matrix::from_fn(r, x.dims()[n], |i, j| ((i * 7 + j * 3) as f64).cos());
            let y = ttm(&x, n, op.as_ref(), false);
            let want = ttm_reference(&x, n, &op);
            assert_eq!(y.dims(), want.dims());
            assert!(y.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn transpose_flag() {
        let x = test_tensor(&[4, 5, 3]);
        let u = Matrix::from_fn(5, 2, |i, j| ((i + 4 * j) as f64).sin());
        let y1 = ttm(&x, 1, u.as_ref(), true);
        let y2 = ttm(&x, 1, u.transposed().as_ref(), false);
        assert!(y1.max_abs_diff(&y2) < 1e-14);
    }

    #[test]
    fn identity_is_noop() {
        let x = test_tensor(&[3, 4, 5]);
        for n in 0..3 {
            let id = Matrix::<f64>::identity(x.dims()[n]);
            let y = ttm(&x, n, id.as_ref(), false);
            assert!(y.max_abs_diff(&x) < 1e-15, "mode {n}");
        }
    }

    #[test]
    fn two_mode_tensor_is_matrix_product() {
        // For a matrix X (2-mode tensor), X ×_0 A = A·X and X ×_1 B = X·Bᵀ.
        let x = test_tensor(&[3, 4]);
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let y = ttm(&x, 0, a.as_ref(), false);
        let xm = Matrix::from_fn(3, 4, |i, j| x.get(&[i, j]));
        let want = tucker_linalg::gemm::matmul(&a, &xm);
        for i in 0..2 {
            for j in 0..4 {
                assert!((y.get(&[i, j]) - want[(i, j)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn norm_preserved_by_orthogonal_ttm() {
        let x = test_tensor(&[4, 4, 4]);
        // Orthonormal square factor: permutation.
        let mut p = Matrix::<f64>::zeros(4, 4);
        p[(0, 2)] = 1.0;
        p[(1, 0)] = 1.0;
        p[(2, 3)] = 1.0;
        p[(3, 1)] = 1.0;
        for n in 0..3 {
            let y = ttm(&x, n, p.as_ref(), false);
            assert!((y.norm() - x.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn chain_matches_sequential_application() {
        let x = test_tensor(&[3, 4, 5]);
        let u0 = Matrix::from_fn(3, 2, |i, j| ((i + j) as f64).sin());
        let u2 = Matrix::from_fn(5, 3, |i, j| ((2 * i + j) as f64).cos());
        let y = ttm_chain(&x, &[Some(u0.as_ref()), None, Some(u2.as_ref())], true);
        let step1 = ttm(&x, 0, u0.as_ref(), true);
        let step2 = ttm(&step1, 2, u2.as_ref(), true);
        assert!(y.max_abs_diff(&step2) < 1e-14);
    }

    #[test]
    fn chain_with_all_none_clones() {
        let x = test_tensor(&[2, 3]);
        let y = ttm_chain(&x, &[None, None], false);
        assert_eq!(y, x);
    }

    /// The GEMM engine's sum, element by element: per `KC`-deep slab of `l`
    /// one fused chain in ascending `l` from `+0`, each slab's sum added in
    /// order onto `+0`.
    fn oracle<T: Scalar>(x: &Tensor<T>, n: usize, op: MatRef<'_, T>, fma: fn(T, T, T) -> T) -> Vec<T> {
        let (i_n, r) = (x.dims()[n], op.rows());
        let (before, after) = (prod_before(x.dims(), n), prod_after(x.dims(), n));
        let mut y = vec![T::ZERO; r * before * after];
        for a in 0..after {
            for i in 0..r {
                for c in 0..before {
                    let y = &mut y[(a * r + i) * before + c];
                    for p0 in (0..i_n).step_by(tucker_linalg::kernel::KC) {
                        let slab = (p0..i_n.min(p0 + tucker_linalg::kernel::KC))
                            .fold(T::ZERO, |s, l| fma(op.get(i, l), x.data()[(a * i_n + l) * before + c], s));
                        *y += slab;
                    }
                }
            }
        }
        y
    }

    /// `ttm` of a `[before, I_n, after]` tensor against [`oracle`], bit for
    /// bit, at {1, 2, 7} tasks, with `op(U)` `R × I_n` as the truncation
    /// passes it (an `I_n × R` factor, transposed), row-major, or stepped
    /// through a larger factor as the serve tier's `factor_rows` makes it.
    fn check_oracle<T: Scalar>(dims: [usize; 3], n: usize, r: usize, variant: usize, fma: fn(T, T, T) -> T) {
        let draw = |i: usize, salt: f64| T::from_f64(((i as f64 + salt) * 0.7391).sin());
        let x = Tensor::from_data(&dims, (0..dims.iter().product()).map(|i| draw(i, 0.25)).collect());
        let i_n = dims[n];
        let (step, rows) = (3, 3 * r + 2);
        let u: Vec<T> = (0..rows.max(i_n) * r.max(i_n)).map(|i| draw(i, 40.5)).collect();
        let (u, transpose) = match variant % 3 {
            0 => (MatRef::col_major(&u[..i_n * r], i_n, r), true),
            1 => (MatRef::row_major(&u[..r * i_n], r, i_n), false),
            _ => (MatRef::strided(&u[1..], r, i_n, step, rows), false),
        };
        let op = if transpose { u.t() } else { u };
        let want: Vec<u64> = oracle(&x, n, op, fma).iter().map(|v| v.to_f64().to_bits()).collect();
        for tasks in [1, 2, 7] {
            let prev = rayon::current_thread_limit();
            rayon::set_current_thread_limit(Some(tasks));
            let y = ttm(&x, n, u, transpose);
            rayon::set_current_thread_limit(prev);
            let got: Vec<u64> = y.data().iter().map(|v| v.to_f64().to_bits()).collect();
            assert!(
                got == want,
                "{} ttm of {dims:?} ×{n}, R = {r}, op(U) variant {}, {tasks} tasks: not the engine's bits",
                T::PRECISION_NAME,
                variant % 3
            );
        }
    }

    fn check_oracle_shapes<T: Scalar>(fma: fn(T, T, T) -> T) {
        let befores = [1usize, 2, 7, 8, 9, 19, 33, 513];
        let ranks = [1usize, 3, 8, 19, 24, 25, 33, 96];
        let inner = [1usize, 5, 48, 255, 256, 257, 300, 513];
        let mut case = 0;
        let mut check = |dims: [usize; 3], n: usize, r: usize| {
            check_oracle::<T>(dims, n, r, case, fma);
            case += 1;
        };
        // Middle modes: every `before` (each mask width at the row's end in
        // both precisions) against every `R` (each tile height).
        for &before in &befores {
            for &r in &ranks {
                check([before, 5, 2], 1, r);
            }
        }
        // Every inner dimension, one and two `KC` slabs, in both
        // orientations.
        for &i_n in &inner {
            for (before, r) in [(1, 19), (1, 96), (9, 25), (33, 8)] {
                check([before, i_n, 3], 1, r);
            }
        }
        // Mode 0 over column counts around the broadcast tile, and last
        // modes (one block).
        for &r in &ranks {
            for cols in [1, 7, 8, 9, 17] {
                check([48, cols, 1], 0, r);
            }
            check([19, 48, 1], 1, r);
        }
        // Shapes large enough for the pool: mode 0, a middle mode, and a
        // last mode whose rows the threads split.
        check([48, 20_000, 1], 0, 19);
        check([19, 48, 600], 1, 20);
        check([513, 300, 1], 1, 33);
    }

    #[test]
    fn every_shape_has_the_engines_bits() {
        check_oracle_shapes::<f64>(f64::mul_add);
        check_oracle_shapes::<f32>(f32::mul_add);
    }

    /// Products that round to `−0` leave a slab's chain at `−0`; the engine
    /// adds it onto `+0`, so the entry is `+0`, in one slab and in two.
    #[test]
    fn a_negative_zero_chain_lands_as_positive_zero() {
        fn check<T: Scalar>(tiny: f64) {
            for (dims, n) in [([1, 40, 9], 1), ([20, 40, 3], 1), ([300, 9, 1], 0), ([7, 300, 2], 1)] {
                let x = Tensor::<T>::from_data(&dims, vec![T::from_f64(-tiny); dims.iter().product()]);
                let u = Matrix::<T>::from_fn(dims[n], 5, |_, _| T::from_f64(tiny));
                let y = ttm(&x, n, u.as_ref(), true);
                assert!(y.data().iter().all(|v| v.to_f64().to_bits() == 0), "{} {dims:?} ×{n}", T::PRECISION_NAME);
            }
        }
        check::<f64>(1e-200);
        check::<f32>(1e-30);
    }

    #[test]
    fn single_precision() {
        let x64 = test_tensor(&[4, 5, 3]);
        let x32: Tensor<f32> = x64.cast();
        let u = Matrix::<f32>::from_fn(2, 5, |i, j| ((i * 5 + j) as f32).sin());
        let y = ttm(&x32, 1, u.as_ref(), false);
        let u64m = Matrix::<f64>::from_fn(2, 5, |i, j| u[(i, j)] as f64);
        let want = ttm(&x64, 1, u64m.as_ref(), false);
        let got: Tensor<f64> = y.cast();
        assert!(got.max_abs_diff(&want) < 1e-5);
    }
}
