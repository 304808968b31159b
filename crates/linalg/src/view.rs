//! Strided matrix views.
//!
//! Tensor unfoldings in the TuckerMPI data layout are sequences of
//! *row-major* column blocks embedded in a larger buffer (see the paper,
//! §3.3 "Data Layout"), while LAPACK-style kernels want *column-major*
//! operands. [`MatRef`]/[`MatMut`] abstract over both with explicit row and
//! column strides, so every kernel in this crate can run directly on tensor
//! memory without packing.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Immutable view of a strided matrix.
#[derive(Clone, Copy)]
pub struct MatRef<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

/// Mutable view of a strided matrix.
pub struct MatMut<'a, T> {
    data: &'a mut [T],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

fn required_len(rows: usize, cols: usize, rs: usize, cs: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * rs + (cols - 1) * cs + 1
    }
}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// View over a column-major buffer (`rows` contiguous per column).
    pub fn col_major(data: &'a [T], rows: usize, cols: usize) -> Self {
        Self::strided(data, rows, cols, 1, rows.max(1))
    }

    /// View over a row-major buffer (`cols` contiguous per row).
    pub fn row_major(data: &'a [T], rows: usize, cols: usize) -> Self {
        Self::strided(data, rows, cols, cols.max(1), 1)
    }

    /// View with explicit strides. Panics if the buffer is too short.
    pub fn strided(data: &'a [T], rows: usize, cols: usize, rs: usize, cs: usize) -> Self {
        assert!(
            data.len() >= required_len(rows, cols, rs, cs),
            "MatRef: buffer of len {} too short for {}x{} with strides ({}, {})",
            data.len(),
            rows,
            cols,
            rs,
            cs
        );
        MatRef { data, rows, cols, rs, cs }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Row stride.
    #[inline(always)]
    pub fn row_stride(&self) -> usize {
        self.rs
    }
    /// Column stride.
    #[inline(always)]
    pub fn col_stride(&self) -> usize {
        self.cs
    }
    /// Underlying buffer.
    #[inline(always)]
    pub fn data(&self) -> &'a [T] {
        self.data
    }

    /// Element at `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.rs + j * self.cs]
    }

    /// True if columns are contiguous (`rs == 1`).
    #[inline(always)]
    pub fn col_contiguous(&self) -> bool {
        self.rs == 1
    }
    /// True if rows are contiguous (`cs == 1`).
    #[inline(always)]
    pub fn row_contiguous(&self) -> bool {
        self.cs == 1
    }

    /// Column `j` as a slice, when columns are contiguous.
    pub fn col_slice(&self, j: usize) -> &'a [T] {
        assert!(self.col_contiguous() && j < self.cols);
        if self.rows == 0 {
            return &[];
        }
        &self.data[j * self.cs..j * self.cs + self.rows]
    }

    /// Row `i` as a slice, when rows are contiguous.
    pub fn row_slice(&self, i: usize) -> &'a [T] {
        assert!(self.row_contiguous() && i < self.rows);
        if self.cols == 0 {
            return &[];
        }
        &self.data[i * self.rs..i * self.rs + self.cols]
    }

    /// Sub-view of `nr x nc` starting at `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'a, T> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols);
        MatRef::strided(&self.data[r0 * self.rs + c0 * self.cs..], nr, nc, self.rs, self.cs)
    }

    /// The view cut into column panels of `width` columns, left to right
    /// (the last one narrower when `width` does not divide `cols`).
    pub fn col_panels(self, width: usize) -> impl Iterator<Item = MatRef<'a, T>> {
        assert!(width > 0, "col_panels: zero width");
        (0..self.cols)
            .step_by(width)
            .map(move |j| self.submatrix(0, j, self.rows, width.min(self.cols - j)))
    }

    /// Transposed view (swaps dimensions and strides; no data movement).
    pub fn t(&self) -> MatRef<'a, T> {
        MatRef { data: self.data, rows: self.cols, cols: self.rows, rs: self.cs, cs: self.rs }
    }

    /// Copy into an owned column-major [`Matrix`].
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }

    /// Frobenius norm of the viewed matrix.
    pub fn frob_norm(&self) -> T {
        let mut scale = T::ZERO;
        let mut ssq = T::ONE;
        for j in 0..self.cols {
            for i in 0..self.rows {
                let v = self.get(i, j).abs();
                if v > T::ZERO {
                    if scale < v {
                        let r = scale / v;
                        ssq = T::ONE + ssq * r * r;
                        scale = v;
                    } else {
                        let r = v / scale;
                        ssq += r * r;
                    }
                }
            }
        }
        scale * ssq.sqrt()
    }
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Mutable view over a column-major buffer.
    pub fn col_major(data: &'a mut [T], rows: usize, cols: usize) -> Self {
        Self::strided(data, rows, cols, 1, rows.max(1))
    }

    /// Mutable view over a row-major buffer.
    pub fn row_major(data: &'a mut [T], rows: usize, cols: usize) -> Self {
        Self::strided(data, rows, cols, cols.max(1), 1)
    }

    /// Mutable view with explicit strides. Panics if the buffer is too short.
    pub fn strided(data: &'a mut [T], rows: usize, cols: usize, rs: usize, cs: usize) -> Self {
        assert!(
            data.len() >= required_len(rows, cols, rs, cs),
            "MatMut: buffer of len {} too short for {}x{} with strides ({}, {})",
            data.len(),
            rows,
            cols,
            rs,
            cs
        );
        MatMut { data, rows, cols, rs, cs }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Row stride.
    #[inline(always)]
    pub fn row_stride(&self) -> usize {
        self.rs
    }
    /// Column stride.
    #[inline(always)]
    pub fn col_stride(&self) -> usize {
        self.cs
    }
    /// Underlying buffer.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data
    }

    /// Element at `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.rs + j * self.cs]
    }

    /// Set element at `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.rs + j * self.cs] = v;
    }

    /// True if columns are contiguous (`rs == 1`).
    #[inline(always)]
    pub fn col_contiguous(&self) -> bool {
        self.rs == 1
    }
    /// True if rows are contiguous (`cs == 1`).
    #[inline(always)]
    pub fn row_contiguous(&self) -> bool {
        self.cs == 1
    }

    /// In-place update of element at `(i, j)`.
    #[inline(always)]
    pub fn update(&mut self, i: usize, j: usize, f: impl FnOnce(T) -> T) {
        let idx = i * self.rs + j * self.cs;
        self.data[idx] = f(self.data[idx]);
    }

    /// Column `j` as a mutable slice, when columns are contiguous. This is
    /// the kernel write path: accumulator tiles land in C through these
    /// slices instead of per-element strided `update()` calls.
    pub fn col_slice_mut(&mut self, j: usize) -> &mut [T] {
        assert!(self.col_contiguous() && j < self.cols);
        if self.rows == 0 {
            return &mut [];
        }
        let start = j * self.cs;
        &mut self.data[start..start + self.rows]
    }

    /// Row `i` as a mutable slice, when rows are contiguous: the write path
    /// into a row-major C (a TTM output block).
    pub fn row_slice_mut(&mut self, i: usize) -> &mut [T] {
        assert!(self.row_contiguous() && i < self.rows);
        if self.cols == 0 {
            return &mut [];
        }
        let start = i * self.rs;
        &mut self.data[start..start + self.cols]
    }

    /// Immutable reborrow.
    pub fn rb(&self) -> MatRef<'_, T> {
        MatRef { data: self.data, rows: self.rows, cols: self.cols, rs: self.rs, cs: self.cs }
    }

    /// Mutable sub-view of `nr x nc` starting at `(r0, c0)` (reborrows `self`).
    pub fn submatrix_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'_, T> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols);
        MatMut::strided(&mut self.data[r0 * self.rs + c0 * self.cs..], nr, nc, self.rs, self.cs)
    }

    /// Transposed mutable view.
    pub fn t_mut(&mut self) -> MatMut<'_, T> {
        MatMut { data: self.data, rows: self.cols, cols: self.rows, rs: self.cs, cs: self.rs }
    }

    /// Fill the viewed matrix with a constant.
    pub fn fill(&mut self, v: T) {
        for j in 0..self.cols {
            for i in 0..self.rows {
                self.set(i, j, v);
            }
        }
    }

    /// Copy element-wise from a view of identical shape.
    pub fn copy_from(&mut self, src: MatRef<'_, T>) {
        assert_eq!((self.rows, self.cols), (src.rows(), src.cols()), "copy_from: shape mismatch");
        for j in 0..self.cols {
            for i in 0..self.rows {
                self.set(i, j, src.get(i, j));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_major_layout() {
        // 2x3 matrix [[1,3,5],[2,4,6]] stored column-major.
        let data = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatRef::col_major(&data, 2, 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 2), 5.0);
        assert!(m.col_contiguous());
        assert_eq!(m.col_slice(1), &[3.0, 4.0]);
    }

    #[test]
    fn row_major_layout() {
        // 2x3 matrix [[1,2,3],[4,5,6]] stored row-major.
        let data = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatRef::row_major(&data, 2, 3);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row_slice(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_view_swaps_indices() {
        let data = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatRef::col_major(&data, 2, 3);
        let t = m.t();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn submatrix_indexing() {
        let data: Vec<f64> = (0..20).map(|x| x as f64).collect();
        let m = MatRef::col_major(&data, 4, 5);
        let s = m.submatrix(1, 2, 2, 3);
        assert_eq!(s.get(0, 0), m.get(1, 2));
        assert_eq!(s.get(1, 2), m.get(2, 4));
    }

    #[test]
    fn mutable_ops_roundtrip() {
        let mut data = vec![0.0f32; 6];
        let mut m = MatMut::row_major(&mut data, 2, 3);
        m.set(1, 2, 7.0);
        m.update(1, 2, |v| v + 1.0);
        assert_eq!(m.get(1, 2), 8.0);
        assert_eq!(data[5], 8.0);
    }

    #[test]
    fn copy_from_across_layouts() {
        let src_data = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let src = MatRef::row_major(&src_data, 2, 3);
        let mut dst_data = vec![0.0f64; 6];
        let mut dst = MatMut::col_major(&mut dst_data, 2, 3);
        dst.copy_from(src);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(dst.get(i, j), src.get(i, j));
            }
        }
    }

    #[test]
    fn frob_norm_is_scale_safe() {
        let data = [3.0e20f32, 4.0e20];
        let m = MatRef::col_major(&data, 2, 1);
        let n = m.frob_norm();
        assert!((n - 5.0e20).abs() / 5.0e20 < 1e-5);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_buffer_panics() {
        let data = [1.0f64; 3];
        let _ = MatRef::col_major(&data, 2, 3);
    }
}
