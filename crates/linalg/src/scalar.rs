//! The [`Scalar`] trait: the Rust analogue of the paper's C++ precision templates.
//!
//! The ICPP'21 paper generalizes TuckerMPI over `float`/`double` so that the
//! numerically stable QR-SVD can trade working precision for speed. Here the
//! same genericity is expressed as a trait bound: every kernel in this
//! workspace is written once over `T: Scalar` and machine epsilon enters only
//! through `T::EPSILON`.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar usable by all kernels (implemented for `f32`, `f64`).
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Sum
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The constant 2.
    const TWO: Self;
    /// Machine epsilon (`2^-23` for `f32`, `2^-52` for `f64`).
    const EPSILON: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Largest finite value.
    const MAX: Self;
    /// Short human-readable precision name ("single" / "double").
    const PRECISION_NAME: &'static str;
    /// Bytes per scalar, used by the communication cost model.
    const BYTES: usize;

    /// Lossy conversion from `f64` (the only way constants enter generic code).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` for reporting.
    fn to_f64(self) -> f64;
    /// Conversion from a usize (exact for the sizes used here).
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `sqrt(self^2 + other^2)` without undue overflow/underflow.
    fn hypot(self, other: Self) -> Self;
    /// Fused (or contracted) multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Maximum of two values (NaN-free inputs assumed).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values (NaN-free inputs assumed).
    fn min(self, other: Self) -> Self;
    /// `±1` with the sign of `self` (`+1` for zero).
    fn sign(self) -> Self {
        if self < Self::ZERO {
            -Self::ONE
        } else {
            Self::ONE
        }
    }
    /// Transfer of sign: `|self| * sign(other)` (LAPACK's `SIGN`).
    fn copysign(self, other: Self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// True if the value is finite.
    fn is_finite(self) -> bool;
    /// Flip bit `bit % (BYTES*8)` of the IEEE-754 representation. Used by
    /// fault injection to model in-transit corruption: an exponent-bit flip
    /// of a normal value yields a non-finite one the numerical guards catch.
    fn flip_bit(self, bit: u32) -> Self;

    /// Whether `self`, a plain sum of squares `Σx²`, can be used as computed
    /// instead of a scaled (one division per element) sum: above
    /// `MIN_POSITIVE/ε²` the squares that underflowed cost less than `ε²` of
    /// it, and below `MAX·ε` neither it nor a further sum of up to `1/ε` such
    /// partial sums has overflowed. False for NaN.
    fn sumsq_is_safe(self) -> bool {
        self > Self::MIN_POSITIVE / (Self::EPSILON * Self::EPSILON) && self < Self::MAX * Self::EPSILON
    }

    /// Microkernel register-tile rows. Together with [`Scalar::NR`] this
    /// sizes the accumulator block of the GEMM microkernel: `MR·NR` live
    /// accumulators plus one packed A column must fit the vector register
    /// file, so `f32` (twice the lanes per register) gets twice the rows —
    /// the ~2× single-precision tile throughput the paper's machine model
    /// assumes.
    const MR: usize;
    /// Microkernel register-tile columns.
    const NR: usize;

    /// The register-tiled outer-product microkernel:
    /// `acc[j*MR + i] += Σ_l apanel[l*MR + i] · bpanel[l*NR + j]`
    /// for a full `MR×NR` tile over `kb` packed rank-1 updates. `apanel`
    /// holds an `MR`-row slab of packed A (column `l` contiguous), `bpanel`
    /// an `NR`-column slab of packed B (row `l` contiguous). Monomorphized
    /// per type so the `i`/`j` loops unroll over literal tile sizes.
    fn gemm_microkernel(kb: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]);

    /// `Σ x[c]·y[c]` over two equal-length slices: the `k`-long stream of
    /// [`crate::tplqt::tplqt`]'s in-block reflector applies, which is its
    /// only caller. Element `c` accumulates into lane `c mod L` (`L` = four
    /// vector registers of the precision) and the lanes are summed by
    /// halving, so the order is a function of the length alone.
    fn dot(x: &[Self], y: &[Self]) -> Self;

    /// `y[c] += alpha·x[c]` over two equal-length slices, [`Scalar::dot`]'s
    /// companion.
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]);

    /// Run `f` with two zero-initialized pack buffers of at least the given
    /// lengths, reusing a thread-local allocation across calls (the pack
    /// scratch of the blocked GEMM — per-call `vec!`s would dominate small
    /// multiplies). Falls back to fresh buffers on re-entrant use.
    fn with_pack_scratch<R>(
        a_len: usize,
        b_len: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R;
}

macro_rules! impl_scalar {
    ($t:ty, $name:expr, $mr:expr, $nr:expr, $ukr:ident, $dot:ident, $axpy:ident) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const MAX: Self = <$t>::MAX;
            const PRECISION_NAME: &'static str = $name;
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                // Plain expression: lets LLVM contract when profitable without
                // forcing a libm fma call on targets lacking the instruction.
                self * a + b
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn copysign(self, other: Self) -> Self {
                <$t>::copysign(self, other)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn flip_bit(self, bit: u32) -> Self {
                let width = (Self::BYTES * 8) as u32;
                <$t>::from_bits(self.to_bits() ^ (1 << (bit % width)))
            }

            const MR: usize = $mr;
            const NR: usize = $nr;

            fn gemm_microkernel(kb: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]) {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx2_fma() {
                    // SAFETY: the required target features were just
                    // verified at runtime; slice lengths are asserted
                    // inside the kernel before any raw-pointer access.
                    unsafe { simd::$ukr(kb, apanel, bpanel, acc) };
                    return;
                }
                const MR: usize = $mr;
                const NR: usize = $nr;
                assert!(apanel.len() >= kb * MR && bpanel.len() >= kb * NR);
                let acc: &mut [$t; MR * NR] = (&mut acc[..MR * NR]).try_into().unwrap();
                // Portable fallback: same tile, plain mul_adds. Each k step
                // is MR·NR independent updates fed by MR + NR loads.
                let mut t = [[0.0 as $t; MR]; NR];
                for (j, tj) in t.iter_mut().enumerate() {
                    for (i, v) in tj.iter_mut().enumerate() {
                        *v = acc[j * MR + i];
                    }
                }
                for l in 0..kb {
                    let a: &[$t; MR] = apanel[l * MR..l * MR + MR].try_into().unwrap();
                    let b: &[$t; NR] = bpanel[l * NR..l * NR + NR].try_into().unwrap();
                    for (tj, &bj) in t.iter_mut().zip(b.iter()) {
                        for (v, &ai) in tj.iter_mut().zip(a.iter()) {
                            *v = ai.mul_add(bj, *v);
                        }
                    }
                }
                for (j, tj) in t.iter().enumerate() {
                    for (i, &v) in tj.iter().enumerate() {
                        acc[j * MR + i] = v;
                    }
                }
            }

            fn dot(x: &[Self], y: &[Self]) -> Self {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx2_fma() {
                    // SAFETY: the required target features were just
                    // verified at runtime.
                    return unsafe { simd::$dot(x, y) };
                }
                dot_portable::<$t, { 128 / std::mem::size_of::<$t>() }>(x, y)
            }

            fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx2_fma() {
                    // SAFETY: as in `dot`.
                    unsafe { simd::$axpy(alpha, x, y) };
                    return;
                }
                axpy_portable(alpha, x, y)
            }

            fn with_pack_scratch<R>(
                a_len: usize,
                b_len: usize,
                f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
            ) -> R {
                use std::cell::RefCell;
                thread_local! {
                    static SCRATCH: RefCell<(Vec<$t>, Vec<$t>)> =
                        const { RefCell::new((Vec::new(), Vec::new())) };
                }
                SCRATCH.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut s) => {
                        let (a, b) = &mut *s;
                        if a.len() < a_len {
                            a.resize(a_len, 0.0);
                        }
                        if b.len() < b_len {
                            b.resize(b_len, 0.0);
                        }
                        f(&mut a[..a_len], &mut b[..b_len])
                    }
                    // Re-entrant call (a kernel invoked from inside another
                    // kernel's pack closure): fall back to fresh buffers.
                    Err(_) => {
                        let mut a = vec![0.0 as $t; a_len];
                        let mut b = vec![0.0 as $t; b_len];
                        f(&mut a, &mut b)
                    }
                })
            }
        }
    };
}

// Tile shapes sized for the 16-register AVX2 file: the f64 tile holds
// 8×4 = 32 accumulators (8 ymm), the f32 tile 16×4 = 64 (also 8 ymm) —
// same register budget, twice the flops per load, which is where single
// precision's ~2× tile throughput comes from. On non-x86_64 targets the
// portable fallback uses the same shapes so results are layout-identical.
impl_scalar!(f32, "single", 16, 4, ukr_f32, dot_f32, axpy_f32);
impl_scalar!(f64, "double", 8, 4, ukr_f64, dot_f64, axpy_f64);

/// Sum `L` dot-product lanes by halving: `lanes[i] += lanes[i + h]` for
/// `h = L/2, L/4, …, 1`. The one reduction order of [`Scalar::dot`].
#[inline(always)]
fn sum_lanes<T: Scalar, const L: usize>(mut lanes: [T; L]) -> T {
    let mut h = L / 2;
    while h > 0 {
        for i in 0..h {
            lanes[i] += lanes[i + h];
        }
        h /= 2;
    }
    lanes[0]
}

/// Portable body of [`Scalar::dot`]: `L` scalar lanes in the AVX2 kernel's
/// order, `mul_add` unfused.
fn dot_portable<T: Scalar, const L: usize>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut lanes = [T::ZERO; L];
    for (xs, ys) in x.chunks(L).zip(y.chunks(L)) {
        for ((lane, &a), &b) in lanes.iter_mut().zip(xs).zip(ys) {
            *lane = a.mul_add(b, *lane);
        }
    }
    sum_lanes(lanes)
}

/// Portable body of [`Scalar::axpy`].
fn axpy_portable<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yc, &xc) in y.iter_mut().zip(x) {
        *yc = alpha.mul_add(xc, *yc);
    }
}

/// Explicit-SIMD microkernels. The portable loop in `impl_scalar!` is the
/// semantic reference; these compute the same tile with packed FMA ops
/// (fused, so the low bits differ from the unfused fallback — callers never
/// mix the two paths within a run because feature detection is constant).
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// True when the AVX2+FMA microkernels may be used. `std` caches the
    /// CPUID results, so this costs an atomic load per call.
    #[inline]
    pub(super) fn have_avx2_fma() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// 8×4 `f64` tile: two ymm accumulators per B column, one broadcast
    /// per B element, two packed FMAs per broadcast.
    ///
    /// # Safety
    /// Caller must verify AVX2+FMA support (see [`have_avx2_fma`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ukr_f64(kb: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64]) {
        const MR: usize = 8;
        const NR: usize = 4;
        assert!(apanel.len() >= kb * MR && bpanel.len() >= kb * NR && acc.len() >= MR * NR);
        unsafe {
            let mut t = [_mm256_setzero_pd(); 2 * NR];
            for j in 0..NR {
                t[2 * j] = _mm256_loadu_pd(acc.as_ptr().add(j * MR));
                t[2 * j + 1] = _mm256_loadu_pd(acc.as_ptr().add(j * MR + 4));
            }
            let mut ap = apanel.as_ptr();
            let mut bp = bpanel.as_ptr();
            for _ in 0..kb {
                let a0 = _mm256_loadu_pd(ap);
                let a1 = _mm256_loadu_pd(ap.add(4));
                let b0 = _mm256_set1_pd(*bp);
                t[0] = _mm256_fmadd_pd(a0, b0, t[0]);
                t[1] = _mm256_fmadd_pd(a1, b0, t[1]);
                let b1 = _mm256_set1_pd(*bp.add(1));
                t[2] = _mm256_fmadd_pd(a0, b1, t[2]);
                t[3] = _mm256_fmadd_pd(a1, b1, t[3]);
                let b2 = _mm256_set1_pd(*bp.add(2));
                t[4] = _mm256_fmadd_pd(a0, b2, t[4]);
                t[5] = _mm256_fmadd_pd(a1, b2, t[5]);
                let b3 = _mm256_set1_pd(*bp.add(3));
                t[6] = _mm256_fmadd_pd(a0, b3, t[6]);
                t[7] = _mm256_fmadd_pd(a1, b3, t[7]);
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            for j in 0..NR {
                _mm256_storeu_pd(acc.as_mut_ptr().add(j * MR), t[2 * j]);
                _mm256_storeu_pd(acc.as_mut_ptr().add(j * MR + 4), t[2 * j + 1]);
            }
        }
    }

    /// 16×4 `f32` tile: identical structure to [`ukr_f64`] with twice the
    /// lanes per register.
    ///
    /// # Safety
    /// Caller must verify AVX2+FMA support (see [`have_avx2_fma`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ukr_f32(kb: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [f32]) {
        const MR: usize = 16;
        const NR: usize = 4;
        assert!(apanel.len() >= kb * MR && bpanel.len() >= kb * NR && acc.len() >= MR * NR);
        unsafe {
            let mut t = [_mm256_setzero_ps(); 2 * NR];
            for j in 0..NR {
                t[2 * j] = _mm256_loadu_ps(acc.as_ptr().add(j * MR));
                t[2 * j + 1] = _mm256_loadu_ps(acc.as_ptr().add(j * MR + 8));
            }
            let mut ap = apanel.as_ptr();
            let mut bp = bpanel.as_ptr();
            for _ in 0..kb {
                let a0 = _mm256_loadu_ps(ap);
                let a1 = _mm256_loadu_ps(ap.add(8));
                let b0 = _mm256_set1_ps(*bp);
                t[0] = _mm256_fmadd_ps(a0, b0, t[0]);
                t[1] = _mm256_fmadd_ps(a1, b0, t[1]);
                let b1 = _mm256_set1_ps(*bp.add(1));
                t[2] = _mm256_fmadd_ps(a0, b1, t[2]);
                t[3] = _mm256_fmadd_ps(a1, b1, t[3]);
                let b2 = _mm256_set1_ps(*bp.add(2));
                t[4] = _mm256_fmadd_ps(a0, b2, t[4]);
                t[5] = _mm256_fmadd_ps(a1, b2, t[5]);
                let b3 = _mm256_set1_ps(*bp.add(3));
                t[6] = _mm256_fmadd_ps(a0, b3, t[6]);
                t[7] = _mm256_fmadd_ps(a1, b3, t[7]);
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            for j in 0..NR {
                _mm256_storeu_ps(acc.as_mut_ptr().add(j * MR), t[2 * j]);
                _mm256_storeu_ps(acc.as_mut_ptr().add(j * MR + 8), t[2 * j + 1]);
            }
        }
    }

    /// The AVX2+FMA bodies of `Scalar::dot` / `Scalar::axpy` for one
    /// precision: four accumulator registers of `$w` lanes each, so element
    /// `c` lands in lane `c mod 4·$w` as in `dot_portable`; the remainder
    /// past the last full `4·$w` chunk goes through the spilled lanes with
    /// scalar FMAs (fused here, unfused in the portable body — the two
    /// agree to rounding, not to the bit).
    macro_rules! streams {
        ($t:ty, $w:expr, $dot:ident, $axpy:ident,
         $load:ident, $store:ident, $zero:ident, $set1:ident, $fma:ident) => {
            /// # Safety
            /// Caller must verify AVX2+FMA support (see [`have_avx2_fma`]).
            #[target_feature(enable = "avx2", enable = "fma")]
            pub(super) unsafe fn $dot(x: &[$t], y: &[$t]) -> $t {
                const W: usize = $w;
                assert_eq!(x.len(), y.len(), "dot: length mismatch");
                let full = x.len() / (4 * W) * (4 * W);
                let mut lanes = [0.0 as $t; 4 * W];
                // SAFETY: every vector load reads `W` elements at an offset
                // `c + r·W` with `c + 4·W <= full <= len` of both slices;
                // the stores fill `lanes`, which holds exactly `4·W`.
                unsafe {
                    let (xp, yp) = (x.as_ptr(), y.as_ptr());
                    let mut acc = [$zero(); 4];
                    let mut c = 0;
                    while c < full {
                        for (r, a) in acc.iter_mut().enumerate() {
                            *a = $fma($load(xp.add(c + r * W)), $load(yp.add(c + r * W)), *a);
                        }
                        c += 4 * W;
                    }
                    for (r, a) in acc.iter().enumerate() {
                        $store(lanes.as_mut_ptr().add(r * W), *a);
                    }
                }
                for ((lane, &a), &b) in lanes.iter_mut().zip(&x[full..]).zip(&y[full..]) {
                    *lane = a.mul_add(b, *lane);
                }
                super::sum_lanes(lanes)
            }

            /// # Safety
            /// Caller must verify AVX2+FMA support (see [`have_avx2_fma`]).
            #[target_feature(enable = "avx2", enable = "fma")]
            pub(super) unsafe fn $axpy(alpha: $t, x: &[$t], y: &mut [$t]) {
                const W: usize = $w;
                assert_eq!(x.len(), y.len(), "axpy: length mismatch");
                let full = x.len() / W * W;
                // SAFETY: every load and store covers `W` elements at an
                // offset `c` with `c + W <= full <= len` of both slices.
                unsafe {
                    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
                    let av = $set1(alpha);
                    let mut c = 0;
                    while c < full {
                        $store(yp.add(c), $fma(av, $load(xp.add(c)), $load(yp.add(c))));
                        c += W;
                    }
                }
                for (yc, &xc) in y[full..].iter_mut().zip(&x[full..]) {
                    *yc = alpha.mul_add(xc, *yc);
                }
            }
        };
    }
    streams!(f64, 4, dot_f64, axpy_f64,
             _mm256_loadu_pd, _mm256_storeu_pd, _mm256_setzero_pd, _mm256_set1_pd, _mm256_fmadd_pd);
    streams!(f32, 8, dot_f32, axpy_f32,
             _mm256_loadu_ps, _mm256_storeu_ps, _mm256_setzero_ps, _mm256_set1_ps, _mm256_fmadd_ps);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps_matches<T: Scalar>(expect: f64) {
        assert_eq!(T::EPSILON.to_f64(), expect);
    }

    #[test]
    fn machine_epsilons() {
        // The paper's ε_s = 2^-23 and ε_d = 2^-52.
        eps_matches::<f32>((2.0f64).powi(-23));
        eps_matches::<f64>((2.0f64).powi(-52));
    }

    #[test]
    fn precision_names_and_bytes() {
        assert_eq!(f32::PRECISION_NAME, "single");
        assert_eq!(f64::PRECISION_NAME, "double");
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(<f64 as Scalar>::BYTES, 8);
    }

    #[test]
    fn sign_and_copysign() {
        assert_eq!(Scalar::sign(-3.0f64), -1.0);
        assert_eq!(Scalar::sign(3.0f64), 1.0);
        assert_eq!(Scalar::sign(0.0f64), 1.0);
        assert_eq!(Scalar::copysign(3.0f64, -1.0), -3.0);
    }

    #[test]
    fn hypot_avoids_overflow() {
        let big = 1.0e30f32;
        assert!(Scalar::hypot(big, big).is_finite());
    }

    #[test]
    fn from_usize_roundtrip() {
        assert_eq!(<f64 as Scalar>::from_usize(12345).to_f64(), 12345.0);
    }

    #[test]
    fn flip_bit_is_involutive_and_hits_the_exponent() {
        // Flipping the top exponent bit of a value in [1, 2) (biased exponent
        // 0x3FF / 0x7F) saturates the exponent: the result is non-finite.
        assert!(!Scalar::flip_bit(1.5f64, 62).is_finite());
        assert!(!Scalar::flip_bit(1.5f32, 30).is_finite());
        // Involution: flipping the same bit twice restores the exact value.
        assert_eq!(Scalar::flip_bit(Scalar::flip_bit(1.5f64, 62), 62), 1.5);
        // A low mantissa flip is a tiny, still-finite perturbation.
        let v = Scalar::flip_bit(1.5f64, 0);
        assert!(v.is_finite() && v != 1.5);
        // Bit index wraps modulo the scalar width.
        assert_eq!(Scalar::flip_bit(1.5f64, 64), Scalar::flip_bit(1.5f64, 0));
    }

    /// Products summed without rounding error to speak of: each `x·y` split
    /// into its rounded value and the exact remainder by a fused
    /// multiply-add, both accumulated with Neumaier's compensation.
    fn exact_dot(x: &[f64], y: &[f64]) -> (f64, f64) {
        let (mut sum, mut comp, mut abs) = (0.0f64, 0.0f64, 0.0f64);
        let mut add = |sum: &mut f64, v: f64| {
            let t = *sum + v;
            comp += if sum.abs() >= v.abs() { (*sum - t) + v } else { (v - t) + *sum };
            *sum = t;
        };
        for (&a, &b) in x.iter().zip(y) {
            let p = a * b;
            add(&mut sum, p);
            add(&mut sum, f64::mul_add(a, b, -p));
            abs += p.abs();
        }
        (sum + comp, abs)
    }

    /// The portable and the AVX2 bodies of `dot`/`axpy`, called directly —
    /// the dispatch only ever reaches one of them on a given host — on both
    /// sides of every lane boundary.
    #[cfg(target_arch = "x86_64")]
    fn check_streams<T: Scalar, const L: usize>(
        dot_simd: unsafe fn(&[T], &[T]) -> T,
        axpy_simd: unsafe fn(T, &[T], &mut [T]),
    ) {
        if !simd::have_avx2_fma() {
            return;
        }
        let eps = T::EPSILON.to_f64();
        for n in [0usize, 1, 7, 8, 31, 32, 33, 1024, 1027] {
            let draw = |i: usize, salt: f64| T::from_f64(((i as f64 + salt) * 0.7391).sin() * 2.0);
            let x: Vec<T> = (0..n).map(|i| draw(i, 0.25)).collect();
            let y: Vec<T> = (0..n).map(|i| draw(i, 100.5)).collect();
            let wide = |v: &[T]| v.iter().map(|e| e.to_f64()).collect::<Vec<f64>>();
            let (exact, abs) = exact_dot(&wide(&x), &wide(&y));
            // Each lane is a chain of ⌈n/L⌉ roundings, the halving adds log₂L.
            let bound = 2.0 * eps * (n.div_ceil(L) + L.ilog2() as usize + 1) as f64 * abs;
            let portable = dot_portable::<T, L>(&x, &y).to_f64();
            // SAFETY: AVX2+FMA support was checked above.
            let vector = unsafe { dot_simd(&x, &y) }.to_f64();
            assert!((portable - exact).abs() <= bound, "portable dot, n = {n}");
            assert!((vector - exact).abs() <= bound, "AVX2 dot, n = {n}");
            assert_eq!(T::dot(&x, &y).to_f64(), vector, "dispatch, n = {n}");

            // One fused, one not: they agree to a rounding of the product.
            let alpha = T::from_f64(-0.37);
            let (mut yp, mut yv) = (y.clone(), y.clone());
            axpy_portable(alpha, &x, &mut yp);
            // SAFETY: as above.
            unsafe { axpy_simd(alpha, &x, &mut yv) };
            for i in 0..n {
                let want = alpha.to_f64() * x[i].to_f64() + y[i].to_f64();
                let slack = 2.0 * eps * ((alpha * x[i]).abs().to_f64() + want.abs());
                assert!((yp[i].to_f64() - want).abs() <= slack, "portable axpy, n = {n}, i = {i}");
                assert!((yv[i].to_f64() - want).abs() <= slack, "AVX2 axpy, n = {n}, i = {i}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn portable_and_avx2_streams_agree() {
        check_streams::<f64, 16>(simd::dot_f64, simd::axpy_f64);
        check_streams::<f32, 32>(simd::dot_f32, simd::axpy_f32);
    }
}
