//! Symmetric rank-k update `C = A·Aᵀ` — the Gram-matrix kernel.
//!
//! This is the computational heart of TuckerMPI's Gram-SVD path ([6, Alg. 2]):
//! for a short-fat unfolding `A` (`m x n`, `m ≪ n`) nearly all of ST-HOSVD's
//! flops in that path are spent here, at a cost of `n·m²` flops — half of what
//! the QR-SVD path's LQ factorization costs (`2·n·m²`), which is exactly the
//! trade the paper quantifies in §3.5.
//!
//! The kernel is the lower-triangle driver of the register-tiled engine
//! ([`crate::kernel::syrk_blocked`], DESIGN.md §10): per `KC`-deep slab the
//! operand is packed once as row panels and once as column panels of its
//! transpose, only the micro-tiles that touch the lower triangle are
//! computed, and the strict upper triangle is mirrored afterwards. Every
//! entry is summed over the same ascending slabs whatever the layout, the
//! panel boundaries or the task count, and `C[i,j] == C[j,i]` exactly.

use crate::kernel;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};
use rayon::prelude::*;

/// Width of the column panels of `C` the parallel schedule hands out, and
/// the row count above which it is used.
const SB: usize = 128;

/// Flop count above which the parallel schedule is used.
const PAR_FLOP_THRESHOLD: usize = 1 << 22;

/// `A·Aᵀ`, symmetric. `A` is `m x n`; the result is `m x m`. Works on any
/// strided view.
pub fn syrk_lower<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    syrk_lower_panels(a.rows(), &[a])
}

/// `A·Aᵀ` in accumulator precision `T`, where `A` is the `m`-row column
/// panels `panels` laid side by side — one view, or the row-major blocks of
/// a tensor unfolding in order. One zeroed `C`, one `"syrk"` perf frame; the
/// driver's `KC`-deep slabs run across panel boundaries, so the bits are
/// those of `gemm(A, Aᵀ)` over the concatenated columns and do not depend on
/// how the columns are cut into panels.
pub fn syrk_lower_panels<S: Scalar, T: Scalar>(m: usize, panels: &[MatRef<'_, S>]) -> Matrix<T> {
    assert!(panels.iter().all(|p| p.rows() == m), "syrk: panel row count mismatch");
    let n: usize = panels.iter().map(|p| p.cols()).sum();
    let flops = m.saturating_mul(m).saturating_mul(n);
    crate::perf::with_kernel("syrk", flops as u64, crate::perf::syrk_pack_bytes::<T>(m, n), || {
        let mut c = Matrix::zeros(m, m);
        if flops >= PAR_FLOP_THRESHOLD && rayon::current_num_threads() > 1 && m > SB {
            // Column panels of `C` are disjoint chunks of its buffer; each
            // runs the same driver below its own stretch of the diagonal.
            c.data_mut().par_chunks_mut(SB * m).enumerate().for_each(|(p, chunk)| {
                let (j0, w) = (p * SB, chunk.len() / m);
                let mut cols = MatMut::col_major(chunk, m, w);
                kernel::syrk_blocked(panels, j0, &mut cols.submatrix_mut(j0, 0, m - j0, w));
            });
        } else {
            kernel::syrk_blocked(panels, 0, &mut c.as_mut());
        }
        mirror_lower(&mut c);
        c
    })
}

/// Copy the strict lower triangle into the strict upper one.
fn mirror_lower<T: Scalar>(c: &mut Matrix<T>) {
    let m = c.rows();
    for j in 0..m {
        for i in j + 1..m {
            c[(j, i)] = c[(i, j)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, Trans};

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn matches_gemm_a_at() {
        let a = pseudo_matrix(6, 40, 1);
        let g = syrk_lower(a.as_ref());
        let r = gemm_into(a.as_ref(), Trans::No, a.as_ref(), Trans::Yes);
        assert!(g.max_abs_diff(&r) < 1e-12);
    }

    #[test]
    fn result_is_symmetric() {
        let a = pseudo_matrix(9, 17, 2);
        let g = syrk_lower(a.as_ref());
        let d = g.max_abs_diff(&g.transposed());
        assert_eq!(d, 0.0);
    }

    #[test]
    fn parallel_path_matches_serial_bitwise() {
        // m > SB with enough flops to trigger the column-panel schedule.
        let a = pseudo_matrix(200, 2000, 3);
        rayon::set_current_thread_limit(Some(4));
        let par = syrk_lower(a.as_ref());
        rayon::set_current_thread_limit(Some(1));
        let ser = syrk_lower(a.as_ref());
        rayon::set_current_thread_limit(None);
        assert_eq!(par.data(), ser.data());
    }

    /// The driver's contract on one `m × n` matrix: from a column-major, a
    /// row-major and a doubly-strided view, and cut into two panels at an
    /// odd column, the lower triangle carries the bits of the square
    /// `gemm(A, Aᵀ)` it replaced, the mirror is exact, and accumulating in
    /// `f64` is the driver on the widened matrix.
    fn check_driver<T: Scalar>(m: usize, n: usize) {
        let a = Matrix::<T>::from_fn(m, n, |i, j| T::from_f64(((i * 37 + j * 11) as f64 * 0.071).sin()));
        let mut want = Matrix::zeros(m, m);
        kernel::gemm_blocked(T::ONE, a.as_ref(), a.as_ref().t(), &mut want.as_mut());
        let wide = Matrix::<f64>::from_fn(m, n, |i, j| a[(i, j)].to_f64());
        let want64 = syrk_lower(wide.as_ref());

        let rows_first = a.transposed();
        let spaced = Matrix::<T>::from_fn(2 * m + 1, n, |i, j| a[(i.min(2 * m - 1) / 2, j)]);
        let window = MatRef::strided(spaced.data(), m, n, 2, 2 * m + 1);
        for (name, view) in [("column-major", a.as_ref()), ("row-major", rows_first.as_ref().t()), ("strided", window)] {
            let what = format!("{} {m}x{n} {name}", T::PRECISION_NAME);
            let cut = n / 3;
            let halves = [view.submatrix(0, 0, m, cut), view.submatrix(0, cut, m, n - cut)];
            for got in [syrk_lower(view), syrk_lower_panels(m, &halves)] {
                for j in 0..m {
                    for i in j..m {
                        assert_eq!(got[(i, j)], want[(i, j)], "{what}: ({i},{j}) vs gemm");
                        assert_eq!(got[(j, i)], got[(i, j)], "{what}: mirror of ({i},{j})");
                    }
                }
            }
            assert_eq!(crate::syrk_lower_f64_acc(view).data(), want64.data(), "{what}: f64 accumulation");
        }
    }

    #[test]
    fn lower_triangle_has_the_bits_of_the_square_gemm() {
        // Both sides of MR, NR, MC, SB and of one, two and many KC slabs
        // (the twenty-slab case only below SB: this is a debug build).
        for m in [1, 7, 8, 33, 48, 64, 65, 130, 200] {
            for n in [1, 255, 256, 257, 5000] {
                if n > 257 && m > SB {
                    continue;
                }
                check_driver::<f64>(m, n);
                check_driver::<f32>(m, n);
            }
        }
    }

    #[test]
    fn parallel_path_matches_gemm() {
        let a = pseudo_matrix(8, 5000, 3);
        let g = syrk_lower(a.as_ref());
        let r = gemm_into(a.as_ref(), Trans::No, a.as_ref(), Trans::Yes);
        assert!(g.max_abs_diff(&r) < 1e-9);
    }

    #[test]
    fn row_major_input() {
        let data: Vec<f64> = (0..24).map(|x| (x as f64).sin()).collect();
        let a = MatRef::row_major(&data, 4, 6);
        let g = syrk_lower(a);
        let r = gemm_into(a, Trans::No, a, Trans::Yes);
        assert!(g.max_abs_diff(&r) < 1e-14);
    }

    #[test]
    fn gram_of_orthogonal_rows_is_identity() {
        // Rows of a scaled identity block are orthogonal.
        let mut a = Matrix::<f64>::zeros(3, 10);
        a[(0, 0)] = 1.0;
        a[(1, 4)] = 1.0;
        a[(2, 7)] = 1.0;
        let g = syrk_lower(a.as_ref());
        assert!(g.max_abs_diff(&Matrix::identity(3)) < 1e-15);
    }

    #[test]
    fn single_precision() {
        let a = Matrix::<f32>::from_fn(5, 12, |i, j| ((i * 12 + j) as f32).cos());
        let g = syrk_lower(a.as_ref());
        let r = gemm_into(a.as_ref(), Trans::No, a.as_ref(), Trans::Yes);
        assert!(g.max_abs_diff(&r) < 1e-4);
    }
}
