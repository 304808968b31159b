//! Zero-copy unfolding views.
//!
//! The mode-`n` unfolding of a first-mode-fastest tensor is an
//! `I_n x I_n^< I_n^>` matrix stored as `I_n^>` contiguous row-major column
//! blocks of shape `I_n x I_n^<` (paper §3.3). Mode 0 degenerates to one
//! column-major matrix, mode N-1 to one row-major matrix — the two cases the
//! paper's Alg. 2 fast-paths with direct `gelq`/`geqr` calls.
//!
//! Which kernel fits which layout is decided here and nowhere else:
//! [`Unfolding::gram`] and [`Unfolding::lq`] are the local Gram and LQ of
//! both the sequential driver and the distributed driver's `P_n = 1` phase.

use crate::dense::Tensor;
use crate::dims::{prod_after, prod_before};
use tucker_linalg::lq::lq_factor;
use tucker_linalg::tslq::{tslq_blocks, TslqOptions};
use tucker_linalg::{syrk_lower_panels, MatRef, Matrix, Scalar};

/// View of the mode-`n` unfolding of a tensor.
#[derive(Clone, Copy)]
pub struct Unfolding<'a, T> {
    data: &'a [T],
    rows: usize,
    before: usize,
    after: usize,
}

impl<'a, T: Scalar> Unfolding<'a, T> {
    /// Unfold `x` along mode `n`.
    pub fn new(x: &'a Tensor<T>, n: usize) -> Self {
        assert!(n < x.ndims(), "unfold: mode out of range");
        Unfolding {
            data: x.data(),
            rows: x.dims()[n],
            before: prod_before(x.dims(), n),
            after: prod_after(x.dims(), n),
        }
    }

    /// Rows of the unfolding (`I_n`).
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Total columns (`I_n^< · I_n^>`).
    pub fn cols(&self) -> usize {
        self.before * self.after
    }
    /// Number of row-major column blocks (`I_n^>`).
    pub fn num_blocks(&self) -> usize {
        self.after
    }
    /// Columns per block (`I_n^<`).
    pub fn block_cols(&self) -> usize {
        self.before
    }

    /// Block `j` as a row-major `I_n x I_n^<` view.
    pub fn block(&self, j: usize) -> MatRef<'a, T> {
        assert!(j < self.after, "unfold: block out of range");
        let blk = self.rows * self.before;
        MatRef::row_major(&self.data[j * blk..(j + 1) * blk], self.rows, self.before)
    }

    /// Iterator over all blocks.
    pub fn blocks(&self) -> impl Iterator<Item = MatRef<'a, T>> + '_ {
        (0..self.after).map(move |j| self.block(j))
    }

    /// The whole unfolding as a single strided view, when one exists:
    /// mode 0 (column-major) or a single-block mode (row-major).
    pub fn whole(&self) -> Option<MatRef<'a, T>> {
        if self.before == 1 {
            // Mode 0: column-major I_n x I_n^>.
            Some(MatRef::col_major(self.data, self.rows, self.after))
        } else if self.after == 1 {
            // Last (or only) block: row-major I_n x I_n^<.
            Some(MatRef::row_major(self.data, self.rows, self.before))
        } else {
            None
        }
    }

    /// Gram matrix `X_(n) X_(n)ᵀ` in accumulator precision `A`
    /// (TuckerMPI [6, Alg. 2]): one `syrk` over the unfolding's column
    /// panels — the whole view, or the row-major blocks in order, which the
    /// kernel reads as one matrix (its inner-dimension slabs run across
    /// block boundaries).
    pub fn gram<A: Scalar>(&self) -> Matrix<A> {
        match self.whole() {
            Some(whole) => syrk_lower_panels(self.rows, &[whole]),
            None => syrk_lower_panels(self.rows, &self.blocks().collect::<Vec<_>>()),
        }
    }

    /// LQ factor `L` (`I_n x I_n`, lower triangular) of the unfolding (paper
    /// Alg. 2): `lq_factor`, which picks its kernel by the row count, when
    /// the unfolding is one contiguous matrix (first/last mode); flat-tree
    /// TSLQ over the row-major blocks otherwise.
    pub fn lq(&self, opts: TslqOptions) -> Matrix<T> {
        match self.whole() {
            Some(whole) => lq_factor(whole),
            None => tslq_blocks(self.rows, self.blocks(), opts),
        }
    }

    /// Element `(i, c)` of the unfolding (test/reference use).
    pub fn get(&self, i: usize, c: usize) -> T {
        let within = c % self.before;
        let blk = c / self.before;
        self.data[blk * self.rows * self.before + i * self.before + within]
    }

    /// Copy the unfolding into an owned column-major matrix (reference use).
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows(), self.cols(), |i, c| self.get(i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::unfold_col_index;
    use tucker_linalg::{gemm_into, syrk_lower, syrk_lower_f64_acc, Trans};

    fn test_tensor() -> Tensor<f64> {
        Tensor::from_fn(&[3, 4, 5], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64)
    }

    #[test]
    fn unfold_matches_definition_all_modes() {
        // X_(n)[i_n, c] must equal X(i_0, ..., i_{N-1}) for the column c that
        // encodes the remaining indices.
        let x = test_tensor();
        for n in 0..3 {
            let u = Unfolding::new(&x, n);
            assert_eq!(u.rows(), x.dims()[n]);
            assert_eq!(u.cols(), 60 / x.dims()[n]);
            for a in 0..3 {
                for b in 0..4 {
                    for c in 0..5 {
                        let idx = [a, b, c];
                        let col = unfold_col_index(x.dims(), n, &idx);
                        assert_eq!(u.get(idx[n], col), x.get(&idx), "mode {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_are_row_major_views() {
        let x = test_tensor();
        let u = Unfolding::new(&x, 1);
        assert_eq!(u.num_blocks(), 5);
        assert_eq!(u.block_cols(), 3);
        for j in 0..5 {
            let b = u.block(j);
            assert_eq!(b.rows(), 4);
            assert_eq!(b.cols(), 3);
            assert!(b.row_contiguous());
            for i in 0..4 {
                for w in 0..3 {
                    assert_eq!(b.get(i, w), u.get(i, j * 3 + w));
                }
            }
        }
    }

    #[test]
    fn mode0_is_column_major_whole() {
        let x = test_tensor();
        let u = Unfolding::new(&x, 0);
        let w = u.whole().expect("mode 0 has a whole view");
        assert!(w.col_contiguous());
        assert_eq!(w.rows(), 3);
        assert_eq!(w.cols(), 20);
        for i in 0..3 {
            for c in 0..20 {
                assert_eq!(w.get(i, c), u.get(i, c));
            }
        }
    }

    #[test]
    fn last_mode_is_row_major_whole() {
        let x = test_tensor();
        let u = Unfolding::new(&x, 2);
        let w = u.whole().expect("last mode has a whole view");
        assert!(w.row_contiguous());
        assert_eq!(w.rows(), 5);
        assert_eq!(w.cols(), 12);
        for i in 0..5 {
            for c in 0..12 {
                assert_eq!(w.get(i, c), u.get(i, c));
            }
        }
    }

    #[test]
    fn middle_mode_has_no_whole_view() {
        let x = test_tensor();
        assert!(Unfolding::new(&x, 1).whole().is_none());
    }

    /// `gram` and `lq` in every mode of `x` against references on the
    /// materialized unfolding, whichever layout route the mode takes — and
    /// against the plain block walk, which must agree wherever a whole view
    /// exists too.
    fn check_gram_and_lq<T: Scalar>(x: &Tensor<T>) {
        let llt = |l: &Matrix<T>| gemm_into(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        for n in 0..x.ndims() {
            let u = Unfolding::new(x, n);
            let what = format!("dims {:?} mode {n}", x.dims());
            let want = syrk_lower(u.to_matrix().as_ref());
            let tol = T::from_f64(64.0) * T::EPSILON * want.max_abs().max(T::ONE);
            assert!(u.gram::<T>().max_abs_diff(&want) <= tol, "{what}: gram");
            let g64 = u.gram::<f64>();
            let g64 = Matrix::from_fn(u.rows(), u.rows(), |i, j| T::from_f64(g64[(i, j)]));
            assert!(g64.max_abs_diff(&want) <= tol, "{what}: f64-accumulated gram");

            let l = u.lq(TslqOptions::default());
            assert_eq!(l.shape(), (u.rows(), u.rows()), "{what}");
            for j in 0..l.cols() {
                for i in 0..j {
                    assert_eq!(l[(i, j)], T::ZERO, "{what}: L not lower triangular");
                }
            }
            assert!(llt(&l).max_abs_diff(&want) <= tol, "{what}: L Lᵀ");
            let walked = tslq_blocks(u.rows(), u.blocks(), TslqOptions::default());
            assert!(llt(&walked).max_abs_diff(&llt(&l)) <= tol, "{what}: whole view vs blocks");
        }
    }

    #[test]
    fn gram_and_lq_match_the_materialized_unfolding_in_every_layout() {
        let wave = |i: &[usize]| {
            let phase: usize = i.iter().enumerate().map(|(k, &x)| (x + 1) * (2 * k + 3)).sum();
            (phase as f64 * 0.17).sin()
        };
        // Three modes (column-major, blocked, row-major), two modes (both
        // whole), extent-1 modes in each position, rows above the columns.
        for dims in [&[4usize, 5, 3][..], &[5, 7], &[1, 4, 5], &[4, 1, 5], &[4, 5, 1], &[9, 2, 2]] {
            let x = Tensor::from_fn(dims, wave);
            check_gram_and_lq(&x);
            check_gram_and_lq(&x.cast::<f32>());
        }
    }

    /// Run `f` under a thread-local rayon task budget.
    fn with_tasks<R>(tasks: usize, f: impl FnOnce() -> R) -> R {
        let prev = rayon::current_thread_limit();
        rayon::set_current_thread_limit(Some(tasks));
        let out = f();
        rayon::set_current_thread_limit(prev);
        out
    }

    /// A middle-mode Gram is one `syrk` whose `KC`-deep slabs run across
    /// the row-major blocks: whatever the block width — slab boundaries
    /// inside a block, on a block boundary, spanning several blocks — and
    /// whatever the task budget, it carries the bits of `syrk` on the
    /// materialized unfolding, in both accumulator precisions.
    fn check_block_sequence<T: Scalar>(dims: &[usize]) {
        let x = Tensor::<T>::from_fn(dims, |i| {
            T::from_f64(((i[0] * 7 + i[1] * 131 + i[2] * 17) as f64 * 0.029).sin())
        });
        let u = Unfolding::new(&x, 1);
        assert_eq!((u.block_cols(), u.whole().is_none()), (dims[0], dims[0] > 1 && dims[2] > 1));
        let dense = u.to_matrix();
        let (want, want64) = (syrk_lower(dense.as_ref()), syrk_lower_f64_acc(dense.as_ref()));
        for tasks in [1, 2, 7] {
            let (got, got64) = with_tasks(tasks, || (u.gram::<T>(), u.gram::<f64>()));
            assert_eq!(got.data(), want.data(), "dims {dims:?}, {tasks} tasks");
            assert_eq!(got64.data(), want64.data(), "dims {dims:?}, {tasks} tasks, f64 accumulation");
        }
    }

    #[test]
    fn gram_slabs_span_block_boundaries_bit_for_bit() {
        // `before` = 1 (one column-major view), 19 and 33 (slab boundaries
        // inside blocks), 20 (no boundary on a block edge until column
        // 1280), 400 (blocks wider than a slab) — and 130 rows, above the
        // row count where the column-panel schedule starts.
        for dims in [[1, 12, 300], [19, 12, 30], [20, 48, 70], [33, 9, 17], [400, 5, 3], [20, 130, 13]] {
            check_block_sequence::<f64>(&dims);
            check_block_sequence::<f32>(&dims);
        }
    }

    #[test]
    fn to_matrix_is_consistent() {
        let x = test_tensor();
        let u = Unfolding::new(&x, 1);
        let m = u.to_matrix();
        for i in 0..4 {
            for c in 0..15 {
                assert_eq!(m[(i, c)], u.get(i, c));
            }
        }
    }
}
