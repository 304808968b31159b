//! Streaming Frobenius-norm accumulation over tensor chunks.
//!
//! `tucker error` and the CI serve smoke compare tensors far larger than we
//! want resident: instead of materializing both operands, feed matching
//! chunks through a [`FrobAccumulator`] pair (one for `‖X‖`, one for
//! `‖X − Y‖`) and read the norms at the end. Uses the same scale-safe
//! (LAPACK `dnrm2`-style) running `(scale, sumsq)` representation as
//! [`Tensor::norm`](crate::Tensor::norm), so overflow/underflow behavior
//! matches the in-memory path.

use crate::dense::{combine_scaled, sumsq_scaled};
use tucker_linalg::Scalar;

/// Scale-safe running sum of squares; `norm()` yields `sqrt(Σ v²)`.
#[derive(Clone, Debug)]
pub struct FrobAccumulator<T> {
    scale: T,
    ssq: T,
}

impl<T: Scalar> Default for FrobAccumulator<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> FrobAccumulator<T> {
    /// Empty accumulator (norm 0).
    pub fn new() -> Self {
        FrobAccumulator { scale: T::ZERO, ssq: T::ONE }
    }

    /// Absorb a chunk of values.
    pub fn push(&mut self, chunk: &[T]) {
        let part = sumsq_scaled(chunk);
        let (scale, ssq) = combine_scaled((self.scale, self.ssq), part);
        self.scale = scale;
        self.ssq = ssq;
    }

    /// Absorb the elementwise difference `a[i] − b[i]` of two equal-length
    /// chunks without allocating the difference.
    pub fn push_diff(&mut self, a: &[T], b: &[T]) {
        assert_eq!(a.len(), b.len(), "push_diff: chunk length mismatch");
        // Reuse the scale-safe kernel on small stack batches of differences.
        let mut buf = [T::ZERO; 256];
        for (ca, cb) in a.chunks(256).zip(b.chunks(256)) {
            for ((d, &x), &y) in buf.iter_mut().zip(ca).zip(cb) {
                *d = x - y;
            }
            self.push(&buf[..ca.len()]);
        }
    }

    /// Norm of everything absorbed so far.
    pub fn norm(&self) -> T {
        self.scale * self.ssq.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Tensor;

    #[test]
    fn chunked_matches_tensor_norm() {
        let x = Tensor::<f64>::from_fn(&[7, 11, 5], |i| ((i[0] * 55 + i[1] * 5 + i[2]) as f64).cos());
        let mut acc = FrobAccumulator::new();
        for chunk in x.data().chunks(37) {
            acc.push(chunk);
        }
        let direct: f64 = x.data().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((acc.norm() - direct).abs() < 1e-12);
    }

    #[test]
    fn diff_matches_materialized_difference() {
        let x = Tensor::<f64>::from_fn(&[9, 9], |i| (i[0] + 2 * i[1]) as f64 * 0.5);
        let y = Tensor::<f64>::from_fn(&[9, 9], |i| (i[0] as f64).sin());
        let mut acc = FrobAccumulator::new();
        for (a, b) in x.data().chunks(13).zip(y.data().chunks(13)) {
            acc.push_diff(a, b);
        }
        let direct: f64 = x
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!((acc.norm() - direct).abs() < 1e-12);
    }

    #[test]
    fn scale_safe_under_overflow() {
        let mut acc = FrobAccumulator::<f32>::new();
        for _ in 0..100 {
            acc.push(&[1.0e20f32; 16]);
        }
        assert!(acc.norm().is_finite());
        assert!((acc.norm() / (1.0e20f32 * (1600f32).sqrt()) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pieces_agree_with_one_norm_to_rounding() {
        fn check<T: Scalar>() {
            let x = Tensor::<T>::from_fn(&[70, 41, 50], |i| {
                T::from_f64(((i[0] * 3 + i[1] * 17 + i[2] * 101) as f64 * 0.013).sin())
            });
            let whole = x.norm();
            // The blocks `tucker error` reads (the cut `Tensor::norm` makes
            // itself, so the bits agree), and two cuts that share no boundary
            // with it: each lane of a chunk is a running sum of up to 8192
            // squares, good to a few ε, so two cuts differ by that much.
            for piece in [1usize << 16, 50_000, 100_000] {
                let mut acc = FrobAccumulator::new();
                x.data().chunks(piece).for_each(|c| acc.push(c));
                let err = ((acc.norm() - whole) / whole).abs();
                assert!(err <= T::from_f64(16.0) * T::EPSILON, "{} pieces of {piece}: {err}", T::PRECISION_NAME);
            }
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(FrobAccumulator::<f64>::new().norm(), 0.0);
    }
}
