//! Owned dense tensor with first-mode-fastest layout.

use crate::dims::{linear_index, product};
use rayon::prelude::*;
use tucker_linalg::Scalar;

/// Dense N-mode tensor. Mode 0 varies fastest in memory.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor<T> {
    dims: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> Tensor<T> {
    /// Zero tensor of the given dimensions.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor { dims: dims.to_vec(), data: vec![T::ZERO; product(dims)] }
    }

    /// Build from a generator over multi-indices.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let n = product(dims);
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; dims.len()];
        for _ in 0..n {
            data.push(f(&idx));
            // Odometer increment, mode 0 fastest.
            for (i, d) in idx.iter_mut().zip(dims) {
                *i += 1;
                if *i < *d {
                    break;
                }
                *i = 0;
            }
        }
        Tensor { dims: dims.to_vec(), data }
    }

    /// Wrap an existing buffer in first-mode-fastest order.
    pub fn from_data(dims: &[usize], data: Vec<T>) -> Self {
        assert_eq!(data.len(), product(dims), "from_data: buffer length mismatch");
        Tensor { dims: dims.to_vec(), data }
    }

    /// Number of modes.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }
    /// Dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }
    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
    /// Raw data in layout order.
    pub fn data(&self) -> &[T] {
        &self.data
    }
    /// Raw data, mutable.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
    /// Consume into the raw buffer.
    pub fn into_data(self) -> Vec<T> {
        self.data
    }

    /// Element at a multi-index.
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[linear_index(&self.dims, idx)]
    }

    /// Set element at a multi-index.
    pub fn set(&mut self, idx: &[usize], v: T) {
        let lin = linear_index(&self.dims, idx);
        self.data[lin] = v;
    }

    /// Frobenius norm, scale-safe, computed in the working precision
    /// (as TuckerMPI does — the norm enters the ST-HOSVD truncation
    /// threshold `ε²‖X‖²/N`).
    pub fn norm(&self) -> T {
        let (scale, ssq) = self
            .data
            .par_chunks(NORM_CHUNK)
            .map(sumsq_scaled)
            .reduce(|| (T::ZERO, T::ONE), combine_scaled);
        scale * ssq.sqrt()
    }

    /// Squared Frobenius norm.
    pub fn norm_squared(&self) -> T {
        let n = self.norm();
        n * n
    }

    /// `max |X - Y|` over all entries.
    pub fn max_abs_diff(&self, other: &Tensor<T>) -> T {
        assert_eq!(self.dims, other.dims, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(T::ZERO, |acc, (&a, &b)| acc.max((a - b).abs()))
    }

    /// `‖X - Y‖ / ‖X‖` (this tensor is the reference).
    pub fn relative_error_to(&self, other: &Tensor<T>) -> T {
        assert_eq!(self.dims, other.dims, "relative_error_to: shape mismatch");
        // `norm` of the difference, chunk for chunk, through one chunk-sized
        // buffer: the difference itself (a third tensor) is never held.
        let mut diff = vec![T::ZERO; NORM_CHUNK.min(self.len())];
        let (scale, ssq) = self
            .data
            .chunks(NORM_CHUNK)
            .zip(other.data.chunks(NORM_CHUNK))
            .map(|(x, y)| {
                let d = &mut diff[..x.len()];
                for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                    *d = x - y;
                }
                sumsq_scaled(d)
            })
            .fold((T::ZERO, T::ONE), combine_scaled);
        scale * ssq.sqrt() / self.norm()
    }

    /// Round every entry to another precision.
    pub fn cast<U: Scalar>(&self) -> Tensor<U> {
        Tensor {
            dims: self.dims.clone(),
            data: self.data.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

/// Elements per partial sum of [`Tensor::norm`].
const NORM_CHUNK: usize = 1 << 16;

/// Sum of squares of `chunk` as a `(scale, ssq)` pair, `Σv² = scale²·ssq`.
///
/// One pass of eight independent lanes (`lanes[i mod 8] += v·v`, unfused,
/// then a fixed pairwise sum — the order is a function of the length alone,
/// so the bits are the same on every host and wherever the chunk sits) is
/// the answer, as `(1, s)`, whenever `s` lands safely inside the normal
/// range. An `s` that underflowed or overflowed is recomputed by LAPACK's
/// scaled `lassq` loop (a compare, a division and a dependent add per
/// element); a NaN `s` means a NaN element and is returned as it is.
pub(crate) fn sumsq_scaled<T: Scalar>(chunk: &[T]) -> (T, T) {
    let mut lanes = [T::ZERO; 8];
    let mut octets = chunk.chunks_exact(8);
    for octet in &mut octets {
        for (lane, &v) in lanes.iter_mut().zip(octet) {
            *lane += v * v;
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(octets.remainder()) {
        *lane += v * v;
    }
    let s = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    let nan = s.partial_cmp(&s).is_none();
    if s.sumsq_is_safe() || nan {
        return (T::ONE, s);
    }
    let mut scale = T::ZERO;
    let mut ssq = T::ONE;
    for &v in chunk {
        let av = v.abs();
        if av > T::ZERO {
            if scale < av {
                let r = scale / av;
                ssq = T::ONE + ssq * r * r;
                scale = av;
            } else {
                let r = av / scale;
                ssq += r * r;
            }
        }
    }
    (scale, ssq)
}

pub(crate) fn combine_scaled<T: Scalar>(a: (T, T), b: (T, T)) -> (T, T) {
    let ((s1, q1), (s2, q2)) = (a, b);
    if s1 == T::ZERO {
        return (s2, q2);
    }
    if s2 == T::ZERO {
        return (s1, q1);
    }
    if s1 >= s2 {
        let r = s2 / s1;
        (s1, q1 + q2 * r * r)
    } else {
        let r = s1 / s2;
        (s2, q2 + q1 * r * r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_first_mode_fastest() {
        let t = Tensor::<f64>::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        // data order: (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
        assert_eq!(t.data(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    #[allow(clippy::identity_op)] // spelled-out stride arithmetic
    fn get_set_roundtrip() {
        let mut t = Tensor::<f32>::zeros(&[3, 4, 5]);
        t.set(&[2, 1, 3], 9.0);
        assert_eq!(t.get(&[2, 1, 3]), 9.0);
        assert_eq!(t.data()[2 + 1 * 3 + 3 * 12], 9.0);
    }

    #[test]
    fn from_fn_matches_get() {
        let t = Tensor::<f64>::from_fn(&[2, 2, 2], |i| (i[0] + 2 * i[1] + 4 * i[2]) as f64);
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    assert_eq!(t.get(&[a, b, c]), (a + 2 * b + 4 * c) as f64);
                }
            }
        }
    }

    #[test]
    fn norm_matches_reference() {
        let t = Tensor::<f64>::from_fn(&[4, 5, 6], |i| ((i[0] + i[1] + i[2]) as f64).sin());
        let direct: f64 = t.data().iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((t.norm() - direct).abs() < 1e-12);
    }

    #[test]
    fn norm_is_scale_safe() {
        let t = Tensor::<f32>::from_fn(&[10, 10], |_| 1.0e20);
        assert!(t.norm().is_finite());
        assert!((t.norm() / 1.0e21 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn norm_keeps_tiny_zero_and_non_finite_values() {
        // Squares that underflow fall back to the scaled loop, not to 0.
        let tiny32 = Tensor::<f32>::from_fn(&[10, 10], |_| 1.0e-25);
        assert!((tiny32.norm() / 1.0e-24 - 1.0).abs() < 1e-5, "{}", tiny32.norm());
        let tiny64 = Tensor::<f64>::from_fn(&[10, 10], |_| 1.0e-170);
        assert!((tiny64.norm() / 1.0e-169 - 1.0).abs() < 1e-12, "{}", tiny64.norm());
        assert_eq!(Tensor::<f64>::zeros(&[4, 5]).norm(), 0.0);
        assert_eq!(Tensor::<f32>::zeros(&[4, 5]).norm(), 0.0);
        // One bad value anywhere — first lane, remainder, a later chunk.
        for at in [0, 13, (1 << 16) + 5] {
            for (bad, nan) in [(f64::NAN, true), (f64::INFINITY, false), (f64::NEG_INFINITY, false)] {
                let mut x = Tensor::<f64>::from_fn(&[70, 1000], |i| (i[0] + i[1]) as f64 * 1e-3);
                x.data_mut()[at] = bad;
                let n = x.norm();
                assert!(if nan { n.is_nan() } else { n == f64::INFINITY }, "{bad} at {at}: {n}");
            }
        }
    }

    #[test]
    fn chunk_sum_depends_on_the_chunk_alone() {
        // The same 1003 values at four offsets of a longer buffer (so at
        // four alignments, with different neighbours): one bit pattern.
        let vals: Vec<f32> = (0..1003).map(|i| (i as f32 * 0.37).sin()).collect();
        let want = sumsq_scaled(&vals);
        assert_eq!(want.0, 1.0);
        for offset in [0usize, 1, 5, 64] {
            let mut buf = vec![9.5f32; offset];
            buf.extend_from_slice(&vals);
            buf.extend_from_slice(&[-3.25; 7]);
            assert_eq!(sumsq_scaled(&buf[offset..offset + vals.len()]), want, "offset {offset}");
        }
        // Lane `i mod 8`, then the fixed pairwise sum.
        let eight: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        assert_eq!(sumsq_scaled(&eight), (1.0, 506.0));
    }

    #[test]
    fn relative_error_of_identical_is_zero() {
        let t = Tensor::<f64>::from_fn(&[3, 3], |i| (i[0] * 3 + i[1]) as f64);
        assert_eq!(t.relative_error_to(&t.clone()), 0.0);
    }

    #[test]
    fn cast_roundtrip_within_precision() {
        let t = Tensor::<f64>::from_fn(&[2, 3], |i| (i[0] as f64) + 0.5 * i[1] as f64);
        let t32: Tensor<f32> = t.cast();
        let back: Tensor<f64> = t32.cast();
        assert!(t.max_abs_diff(&back) < 1e-6);
    }

    #[test]
    fn scalar_tensor() {
        let t = Tensor::<f64>::from_fn(&[], |_| 7.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.norm(), 7.0);
    }
}
