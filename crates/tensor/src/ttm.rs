//! Tensor-times-matrix (TTM): `Y = X ×_n U`, defined by `Y_(n) = U · X_(n)`.
//!
//! This is the truncation kernel of ST-HOSVD (Alg. 1 line 7, with `U = U_nᵀ`)
//! and reuses the unfolding block structure: every row-major column block of
//! `Y_(n)` is the product `U · X_(n)[j]` (the role of [6, Alg. 3] in
//! TuckerMPI). Mode 0 is one GEMM over the column-major unfolding, the last
//! mode one GEMM on its transpose; a middle mode packs `U` once and hands
//! consecutive blocks to the engine as runs of about `NC` columns (at most
//! 64 blocks), one packed GEMM per run, the runs on the rayon pool. A
//! block's entries have the bits of its own GEMM whatever run it falls in.

use crate::dense::Tensor;
use crate::dims::{prod_after, prod_before};
use rayon::prelude::*;
use tucker_linalg::kernel::NC;
use tucker_linalg::{gemm_into, gemm_prepacked, MatMut, MatRef, PackedA, Scalar, Trans};

/// Most blocks of a general-mode TTM in one packed GEMM: a run of `NC`
/// columns only when blocks are at least `NC / MAX_RUN` = 8 wide. Every
/// run keeps its views in two arrays of this length on the stack, which
/// are filled anew per run, so the bound keeps that cheap beside the run's
/// arithmetic.
const MAX_RUN: usize = 64;

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

    if n == 0 {
        // Mode 0: the whole unfolding is one column-major matrix; a single
        // (possibly rayon-parallel) GEMM covers it, and the column-major
        // result is exactly the output tensor layout.
        let xm = MatRef::col_major(x.data(), i_n, after);
        let y = gemm_into(op, Trans::No, xm, Trans::No);
        return Tensor::from_data(&ydims, y.into_data());
    }
    if after == 1 {
        // Last mode: one row-major block. Compute Yᵀ = X_(n)ᵀ · op(U)ᵀ as a
        // column-major GEMM; its buffer is the row-major Y (= output layout).
        let xm = MatRef::row_major(x.data(), i_n, before);
        let yt = gemm_into(xm, Trans::Yes, op, Trans::Yes);
        return Tensor::from_data(&ydims, yt.into_data());
    }

    // General mode: independent GEMM per row-major block.
    let in_blk = i_n * before;
    let out_blk = r * before;
    if out_blk == 0 || after == 0 || in_blk == 0 {
        // Degenerate (some mode has zero extent, e.g. an empty block of a
        // distributed tensor whose truncation rank is below the grid size).
        return Tensor::zeros(&ydims);
    }
    // The same small factor multiplies every one of the `after` blocks: pack
    // it once and reuse the packed panels across all of them (and across
    // rayon tasks — the pack is read-only after construction). Consecutive
    // blocks go to the engine as one run of about `NC` columns (at most
    // `MAX_RUN` blocks) or one block, a function of the shape alone, one
    // call per run on the pool. Each block has the bits of its own `gemm`,
    // whatever run it falls in.
    //
    // A run's views live on the stack. On the heap — a pair of `Vec`s per
    // run, or one pair for the whole call — they moved where later tensors
    // land, and the benchmark's peak RSS rose by up to 9% (two ranks) or
    // 45% (`hcci_qr_f32`).
    let packed = PackedA::new(op);
    let run = (NC / before).clamp(1, MAX_RUN);
    let mut ydata = vec![T::ZERO; out_blk * after];
    ydata
        .par_chunks_mut(out_blk * run)
        .zip(x.data().par_chunks(in_blk * run))
        .for_each(|(ys, xs)| {
            let mut xv = [MatRef::row_major(&[], 0, 0); MAX_RUN];
            let mut yv: [MatMut<'_, T>; MAX_RUN] = std::array::from_fn(|_| MatMut::row_major(&mut [], 0, 0));
            let blocks = xs.chunks(in_blk).zip(ys.chunks_mut(out_blk));
            for ((xb, yb), (xview, yview)) in blocks.zip(xv.iter_mut().zip(yv.iter_mut())) {
                *xview = MatRef::row_major(xb, i_n, before);
                *yview = MatMut::row_major(yb, r, before);
            }
            let count = xs.len() / in_blk;
            gemm_prepacked(T::ONE, &packed, &xv[..count], &mut yv[..count]);
        });
    Tensor::from_data(&ydims, ydata)
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
