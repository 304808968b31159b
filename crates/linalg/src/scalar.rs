//! The [`Scalar`] trait: the Rust analogue of the paper's C++ precision templates.
//!
//! The ICPP'21 paper generalizes TuckerMPI over `float`/`double` so that the
//! numerically stable QR-SVD can trade working precision for speed. Here the
//! same genericity is expressed as a trait bound: every kernel in this
//! workspace is written once over `T: Scalar` and machine epsilon enters only
//! through `T::EPSILON`.

use crate::kernel::KC;
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

    /// Microkernel register-tile rows: one 512-bit register of the
    /// precision. The tile is square ([`Scalar::NR`] `== MR`), so its `MR`
    /// accumulator columns plus one packed A column fit the AVX-512
    /// register file, and `f32` (twice the lanes per register) gets four
    /// times the tile — the ~2× single-precision throughput per load the
    /// paper's machine model assumes. A square tile also lets the SYRK
    /// driver use one packed slab as both operands.
    const MR: usize;
    /// Microkernel register-tile columns (equal to [`Scalar::MR`]).
    const NR: usize;

    /// The register-tiled outer-product microkernel:
    /// `acc[j*MR + i] = Σ_l apanel[l*MR + i] · bpanel[l*NR + j]`
    /// over `kb` packed rank-1 updates, for every row of the tile and at
    /// least its first `cols` columns (`1 ≤ cols ≤ NR`, the live columns
    /// of an edge tile; the rest of `acc` is unspecified). The tile is
    /// written, not accumulated into: each element is one fused
    /// multiply-add chain in ascending `l` that starts from `+0.0`, and
    /// the previous contents of `acc` are never read. `apanel` holds an
    /// `MR`-row slab of packed A (column `l` contiguous), `bpanel` an
    /// `NR`-column slab of packed B (row `l` contiguous).
    fn gemm_microkernel(kb: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self], cols: usize);

    /// `Σ x[c]·y[c]` over two equal-length slices: the `k`-long stream of
    /// [`crate::tplqt::tplqt`]'s reflector generation, and the bits every
    /// output of [`Scalar::dot_rows`] and [`Scalar::axpy_dot_rows`] has.
    /// Element `c` accumulates into lane `c mod L` (`L` = four ymm registers
    /// of the precision: 16 `f64`, 32 `f32`) by one fused multiply-add,
    /// and the lanes are summed by halving, so the order is a function of
    /// the length alone.
    fn dot(x: &[Self], y: &[Self]) -> Self;

    /// `y[c] += alpha·x[c]` over two equal-length slices, one fused
    /// multiply-add per element: [`Scalar::dot`]'s companion.
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]);

    /// `x[c] *= alpha`: the reflector's scale passes in
    /// [`crate::tplqt::tplqt`].
    fn scale(alpha: Self, x: &mut [Self]);

    /// `out[r] = dot(row_r, v)` for the rows `row_r = rows[r·ld..][..v.len()]`,
    /// `r < out.len()`, each with the bits of [`Scalar::dot`]. Groups of up to
    /// [`STREAM_ROWS`] rows run side by side in one pass over `v`.
    fn dot_rows(v: &[Self], rows: &[Self], ld: usize, out: &mut [Self]);

    /// `row_r += alpha[r]·x`, then `out[r] = row_r·y` — `row_r·row_r` when `y`
    /// is `None` — for the rows `row_r = rows[r·ld..][..x.len()]`,
    /// `r < out.len() = alpha.len()`: each update with the bits of
    /// [`Scalar::axpy`], each output with those of [`Scalar::dot`] on the
    /// updated row. Groups of up to [`STREAM_ROWS`] rows run side by side,
    /// each row read and written once.
    fn axpy_dot_rows(alpha: &[Self], x: &[Self], y: Option<&[Self]>, rows: &mut [Self], ld: usize, out: &mut [Self]);

    /// Transpose one `MR × MR` tile: `dst[j·ds + i] = src[i·ss + j]` for
    /// `i, j < MR`. A pure move in registers — every body stores the
    /// source's bits. The row-contiguous arm of the GEMM packers and the
    /// column-to-column transpose (the flat-tree LQ's gather) run on it.
    /// Panics if either slice is too short for its tile.
    fn transpose_tile(src: &[Self], ss: usize, dst: &mut [Self], ds: usize);

    /// One tile of a TTM ([`TtmTile`] has its shape): every entry `(j, c)`
    /// of the tile, `y[j·yj + c]`, is written as the GEMM engine's sum of
    /// `v[l·vs + c] · b[j·bj + l·bl]` over `l < k`: per `KC`-deep slab one
    /// fused multiply-add chain in ascending `l` from `+0`, each slab's sum
    /// added in order onto `+0`. So no body, tile or orientation shows in
    /// the bits, and `y` is written, never read, in the first slab. The
    /// `lanes` run in up to three registers, the last one masked; the `n`
    /// entries of `b` are broadcast. Panics if an operand is too short for
    /// the tile.
    fn ttm_tile(tile: TtmTile, v: &[Self], b: &[Self], y: &mut [Self]);

    /// Run `f` with two initialized pack buffers of the given lengths, each
    /// starting on a cache line, reusing a thread-local allocation across
    /// calls (the pack scratch of the blocked GEMM — per-call `vec!`s would
    /// dominate small multiplies). Each buffer is allocated once per thread, on first use,
    /// with room for a full `KC × NC` slab ([`crate::kernel`]), and again
    /// only for a request above that: a scratch reallocated request by
    /// request moves mid-run and can split the hole a tensor-sized
    /// allocation later needs. Only the prefix requests have reached is
    /// initialized, so pages no request touched cost no memory. Falls back
    /// to fresh buffers on re-entrant use.
    fn with_pack_scratch<R>(
        a_len: usize,
        b_len: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R;
}

/// Rows one pass of [`Scalar::dot_rows`] / [`Scalar::axpy_dot_rows`]
/// carries: two accumulator registers each, 16 of the 32 zmm.
pub const STREAM_ROWS: usize = 8;

/// Most entries a TTM tile broadcasts per step ([`Scalar::ttm_tile`]): with
/// three vectors, 24 accumulators of the 32 zmm, so a step is 24 fused
/// multiply-adds for 11 loads.
pub const TTM_TILE: usize = 8;

/// The shape of one TTM tile ([`Scalar::ttm_tile`]): `n ≤ TTM_TILE`
/// broadcast entries by `lanes ≤ 3·MR` vector lanes, `k` deep, and the
/// strides of its operands — `v` steps `vs` per `l`, `b` steps `bj` per
/// broadcast and `bl` per `l`, `y` steps `yj` per broadcast.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct TtmTile {
    pub k: usize,
    pub n: usize,
    pub lanes: usize,
    pub vs: usize,
    pub bj: usize,
    pub bl: usize,
    pub yj: usize,
}

macro_rules! impl_scalar {
    ($t:ty, $name:expr, $mr:expr, $ukr512:ident, $ukr:ident, $dot:ident, $axpy:ident,
     $tr512:ident, $tr:ident, $axpy512:ident, $scale512:ident, $dot_rows512:ident,
     $axpy_dot_rows512:ident, $ttm512:ident) => {
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
            const NR: usize = $mr;

            fn gemm_microkernel(kb: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self], cols: usize) {
                #[cfg(target_arch = "x86_64")]
                {
                    if simd::have_avx512f() {
                        // SAFETY: the required target feature was just
                        // verified at runtime; slice lengths are asserted
                        // inside the kernel before any raw-pointer access.
                        return unsafe { simd::$ukr512(kb, apanel, bpanel, acc, cols) };
                    }
                    if simd::have_avx2_fma() {
                        // SAFETY: as above, for AVX2+FMA.
                        return unsafe { simd::$ukr(kb, apanel, bpanel, acc, cols) };
                    }
                }
                ukr_portable::<$t, $mr>(kb, apanel, bpanel, acc, cols, <$t>::mul_add)
            }

            fn dot(x: &[Self], y: &[Self]) -> Self {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx2_fma() {
                    // SAFETY: the required target features were just
                    // verified at runtime.
                    return unsafe { simd::$dot(x, y) };
                }
                dot_portable::<$t, { 128 / std::mem::size_of::<$t>() }>(x, y, <$t>::mul_add)
            }

            fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
                #[cfg(target_arch = "x86_64")]
                {
                    if simd::have_avx512f() {
                        // SAFETY: as in `dot`, for AVX-512F.
                        return unsafe { simd::$axpy512(alpha, x, y) };
                    }
                    if simd::have_avx2_fma() {
                        // SAFETY: as in `dot`.
                        return unsafe { simd::$axpy(alpha, x, y) };
                    }
                }
                axpy_portable(alpha, x, y, <$t>::mul_add)
            }

            fn scale(alpha: Self, x: &mut [Self]) {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx512f() {
                    // SAFETY: the required target feature was just verified
                    // at runtime.
                    return unsafe { simd::$scale512(alpha, x) };
                }
                for v in x.iter_mut() {
                    *v *= alpha;
                }
            }

            fn dot_rows(v: &[Self], rows: &[Self], ld: usize, out: &mut [Self]) {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx512f() {
                    // SAFETY: the required target feature was just verified
                    // at runtime; the body asserts the row extents before
                    // any raw-pointer access.
                    return unsafe { simd::$dot_rows512(v, rows, ld, out) };
                }
                dot_rows_each(v, rows, ld, out)
            }

            fn axpy_dot_rows(
                alpha: &[Self],
                x: &[Self],
                y: Option<&[Self]>,
                rows: &mut [Self],
                ld: usize,
                out: &mut [Self],
            ) {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx512f() {
                    // SAFETY: as in `dot_rows`.
                    return unsafe { simd::$axpy_dot_rows512(alpha, x, y, rows, ld, out) };
                }
                axpy_dot_rows_each(alpha, x, y, rows, ld, out)
            }

            fn transpose_tile(src: &[Self], ss: usize, dst: &mut [Self], ds: usize) {
                #[cfg(target_arch = "x86_64")]
                {
                    if simd::have_avx512f() {
                        // SAFETY: the required target feature was just
                        // verified at runtime; slice lengths are asserted
                        // inside the body before any raw-pointer access.
                        return unsafe { simd::$tr512(src, ss, dst, ds) };
                    }
                    if simd::have_avx2_fma() {
                        // SAFETY: as above, for AVX2.
                        return unsafe { simd::$tr(src, ss, dst, ds) };
                    }
                }
                transpose_portable::<$t, $mr>(src, ss, dst, ds)
            }

            fn ttm_tile(tile: TtmTile, v: &[Self], b: &[Self], y: &mut [Self]) {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx512f() {
                    // SAFETY: the required target feature was just verified
                    // at runtime; the body asserts the operands' extents
                    // before any raw-pointer access.
                    return unsafe { simd::$ttm512(tile, v, b, y) };
                }
                ttm_tile_portable(tile, v, b, y, <$t>::mul_add)
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
                use crate::kernel::{cache_aligned, round_up, KC, NC};
                let fit = |buf: &mut Vec<$t>, len: usize| {
                    if len == 0 {
                        // An unused buffer (SYRK packs one operand) is not
                        // allocated.
                        return;
                    }
                    let len = len + CACHE_LINE_SLACK;
                    if buf.capacity() < len {
                        *buf = Vec::with_capacity(len.max(KC * round_up(NC, $mr) + CACHE_LINE_SLACK));
                    }
                    if buf.len() < len {
                        buf.resize(len, 0.0);
                    }
                };
                const CACHE_LINE_SLACK: usize = crate::kernel::CACHE_LINE / std::mem::size_of::<$t>();
                SCRATCH.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut s) => {
                        let (a, b) = &mut *s;
                        fit(a, a_len);
                        fit(b, b_len);
                        f(cache_aligned(a, a_len), cache_aligned(b, b_len))
                    }
                    // Re-entrant call (a kernel invoked from inside another
                    // kernel's pack closure): fall back to fresh buffers.
                    Err(_) => {
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        fit(&mut a, a_len);
                        fit(&mut b, b_len);
                        f(cache_aligned(&mut a, a_len), cache_aligned(&mut b, b_len))
                    }
                })
            }
        }
    };
}

// One square tile per precision, one zmm per accumulator column: f64 8×8
// (8 zmm, the eight independent FMA chains two FMA ports with a 4-cycle
// latency need), f32 16×16 (16 zmm). The SIMD bodies skip the 4-column
// groups of an edge tile that hold no live column (a one-column B pays for
// four columns, not the whole tile), the portable body every dead column.
// Every body returns the same bits.
impl_scalar!(f32, "single", 16, ukr512_f32, ukr_f32, dot_f32, axpy_f32, transpose512_f32, transpose_f32,
             axpy512_f32, scale512_f32, dot_rows512_f32, axpy_dot_rows512_f32, ttm512_f32);
impl_scalar!(f64, "double", 8, ukr512_f64, ukr_f64, dot_f64, axpy_f64, transpose512_f64, transpose_f64,
             axpy512_f64, scale512_f64, dot_rows512_f64, axpy_dot_rows512_f64, ttm512_f64);

/// `s` seen as a slice of `T` when `S` and `T` are the same type: lets a
/// kernel generic over a source and a destination precision take a
/// same-precision fast path (the packers' register-tile transpose).
pub(crate) fn same_precision<S: Scalar, T: Scalar>(s: &[S]) -> Option<&[T]> {
    use std::any::TypeId;
    // SAFETY: `S` and `T` are the same type, so the cast is the identity.
    (TypeId::of::<S>() == TypeId::of::<T>())
        .then(|| unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<T>(), s.len()) })
}

/// Asserts that `src` and `dst` hold the `n × n` tiles `transpose_tile`
/// reads and writes at row strides `ss` and `ds`.
#[inline(always)]
fn assert_tile<T>(n: usize, src: &[T], ss: usize, dst: &[T], ds: usize) {
    assert!(
        src.len() >= (n - 1) * ss + n && dst.len() >= (n - 1) * ds + n,
        "transpose_tile: slice too short for its tile"
    );
}

/// Asserts that `rows` (length `len`) holds `n` rows of `k` elements at
/// stride `ld`, none overlapping the next.
#[inline(always)]
fn assert_rows(k: usize, len: usize, ld: usize, n: usize) {
    assert!(n == 0 || ((n == 1 || ld >= k) && len >= (n - 1) * ld + k), "row stream: rows out of range");
}

/// [`Scalar::dot_rows`] as one [`Scalar::dot`] per row: its body on hosts
/// without AVX-512F.
fn dot_rows_each<T: Scalar>(v: &[T], rows: &[T], ld: usize, out: &mut [T]) {
    assert_rows(v.len(), rows.len(), ld, out.len());
    for (r, o) in out.iter_mut().enumerate() {
        *o = T::dot(&rows[r * ld..][..v.len()], v);
    }
}

/// [`Scalar::axpy_dot_rows`] as one [`Scalar::axpy`] and one
/// [`Scalar::dot`] per row: its body on hosts without AVX-512F.
fn axpy_dot_rows_each<T: Scalar>(alpha: &[T], x: &[T], y: Option<&[T]>, rows: &mut [T], ld: usize, out: &mut [T]) {
    assert_eq!(alpha.len(), out.len(), "axpy_dot_rows: one alpha per row");
    assert_rows(x.len(), rows.len(), ld, out.len());
    for (r, (o, &a)) in out.iter_mut().zip(alpha).enumerate() {
        let row = &mut rows[r * ld..][..x.len()];
        T::axpy(a, x, row);
        *o = T::dot(row, y.unwrap_or(row));
    }
}

/// Portable body of [`Scalar::transpose_tile`] on an `N × N` tile.
#[inline(always)]
fn transpose_portable<T: Scalar, const N: usize>(src: &[T], ss: usize, dst: &mut [T], ds: usize) {
    assert_tile(N, src, ss, dst, ds);
    for j in 0..N {
        for (i, d) in dst[j * ds..][..N].iter_mut().enumerate() {
            *d = src[i * ss + j];
        }
    }
}

/// Portable body of [`Scalar::gemm_microkernel`] on the first `cols`
/// columns of the `N × N` tile. `fma` is the precision's inherent, fused
/// `mul_add` (not [`Scalar::mul_add`], which is unfused), so this body has
/// the bits of the SIMD ones. Each `l` step is `N·cols` independent updates
/// fed by `N + cols` loads.
#[inline(always)]
fn ukr_portable<T: Scalar, const N: usize>(
    kb: usize,
    apanel: &[T],
    bpanel: &[T],
    acc: &mut [T],
    cols: usize,
    fma: fn(T, T, T) -> T,
) {
    assert!(apanel.len() >= kb * N && bpanel.len() >= kb * N && acc.len() >= N * N);
    let mut t = [[T::ZERO; N]; N];
    for (a, b) in apanel.chunks_exact(N).zip(bpanel.chunks_exact(N)).take(kb) {
        for (tj, &bj) in t.iter_mut().zip(b).take(cols) {
            for (v, &ai) in tj.iter_mut().zip(a) {
                *v = fma(ai, bj, *v);
            }
        }
    }
    for (dst, tj) in acc.chunks_exact_mut(N).zip(&t) {
        dst.copy_from_slice(tj);
    }
}

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
/// order, each a chain of the precision's inherent, fused `mul_add` (`fma`,
/// as in [`ukr_portable`]), so this body has the bits of the AVX2 one.
fn dot_portable<T: Scalar, const L: usize>(x: &[T], y: &[T], fma: fn(T, T, T) -> T) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut lanes = [T::ZERO; L];
    for (xs, ys) in x.chunks(L).zip(y.chunks(L)) {
        for ((lane, &a), &b) in lanes.iter_mut().zip(xs).zip(ys) {
            *lane = fma(a, b, *lane);
        }
    }
    sum_lanes(lanes)
}

/// Portable body of [`Scalar::axpy`]: one fused `fma` per element, the AVX2
/// body's bits.
fn axpy_portable<T: Scalar>(alpha: T, x: &[T], y: &mut [T], fma: fn(T, T, T) -> T) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yc, &xc) in y.iter_mut().zip(x) {
        *yc = fma(alpha, xc, *yc);
    }
}

/// Asserts that `v`, `b` and `y` (of these lengths) hold every entry the
/// TTM `tile` reads or writes.
#[inline(always)]
fn assert_ttm_tile<T: Scalar>(t: TtmTile, v: usize, b: usize, y: usize) {
    // One past the last index at `first + Σ count·stride`, if it fits.
    let end = |first: usize, steps: [(usize, usize); 2]| {
        steps.iter().try_fold(first, |e, &(count, stride)| count.checked_mul(stride)?.checked_add(e))
    };
    let fits = |len: usize, first, steps| end(first, steps).is_some_and(|e| e <= len);
    assert!(
        t.k > 0
            && (1..=TTM_TILE).contains(&t.n)
            && (1..=3 * T::MR).contains(&t.lanes)
            && fits(v, t.lanes, [(t.k - 1, t.vs), (0, 0)])
            && fits(b, 1, [(t.n - 1, t.bj), (t.k - 1, t.bl)])
            && fits(y, t.lanes, [(t.n - 1, t.yj), (0, 0)]),
        "ttm_tile: operands too short for {t:?}"
    );
}

/// Portable body of [`Scalar::ttm_tile`], entry by entry; `fma` as in
/// [`ukr_portable`].
fn ttm_tile_portable<T: Scalar>(t: TtmTile, v: &[T], b: &[T], y: &mut [T], fma: fn(T, T, T) -> T) {
    assert_ttm_tile::<T>(t, v.len(), b.len(), y.len());
    for j in 0..t.n {
        for c in 0..t.lanes {
            let mut sum = T::ZERO;
            for p0 in (0..t.k).step_by(KC) {
                sum += (p0..t.k.min(p0 + KC)).fold(T::ZERO, |s, l| fma(v[l * t.vs + c], b[j * t.bj + l * t.bl], s));
            }
            y[j * t.yj + c] = sum;
        }
    }
}

/// Explicit-SIMD microkernels and streams. The tile bodies compute what
/// [`ukr_portable`] computes, to the bit: the same fused chain per element.
#[cfg(target_arch = "x86_64")]
mod simd {
    use crate::kernel::KC;
    use std::arch::x86_64::*;

    /// True when the AVX2+FMA microkernels may be used. `std` caches the
    /// CPUID results, so this costs an atomic load per call.
    #[inline]
    pub(super) fn have_avx2_fma() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// True when the AVX-512F microkernels may be used.
    #[inline]
    pub(super) fn have_avx512f() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// The two SIMD bodies of `Scalar::gemm_microkernel` on the `$n × $n`
    /// tile of one precision (`$n` lanes per zmm, `$n / 2` per ymm). Both
    /// work in groups of four tile columns and stop after the group that
    /// holds column `cols − 1`; both start every accumulator from a zeroed
    /// register, add the products in ascending `l` with one fused rounding
    /// each and store the tile once.
    macro_rules! tiles {
        ($t:ty, $n:expr, $ukr512:ident, $ukr:ident, $cols512:ident, [$($groups:literal => $c:literal),*],
         $load512:ident, $store512:ident, $zero512:ident, $set512:ident, $fma512:ident,
         $load:ident, $store:ident, $zero:ident, $set1:ident, $fma:ident) => {
            /// AVX-512F body: one zmm accumulator per computed tile column,
            /// one A load and a broadcast of B per column per `l`, all
            /// columns of the computed groups in one pass.
            ///
            /// # Safety
            /// Caller must verify AVX-512F support (see [`have_avx512f`]).
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn $ukr512(
                kb: usize,
                apanel: &[$t],
                bpanel: &[$t],
                acc: &mut [$t],
                cols: usize,
            ) {
                const N: usize = $n;
                assert!(apanel.len() >= kb * N && bpanel.len() >= kb * N && acc.len() >= N * N);
                // SAFETY: `C <= N` in every arm, and the asserted lengths
                // are what `$cols512` requires.
                unsafe {
                    match cols.div_ceil(4) {
                        $($groups => $cols512::<$c>(kb, apanel.as_ptr(), bpanel.as_ptr(), acc.as_mut_ptr()),)*
                        _ => $cols512::<N>(kb, apanel.as_ptr(), bpanel.as_ptr(), acc.as_mut_ptr()),
                    }
                }
            }

            /// Columns `0..C` of the AVX-512F tile.
            ///
            /// # Safety
            /// AVX-512F is available, `C <= N`, `ap` and `bp` point at `kb·N`
            /// readable elements and `acc` at `C·N` writable ones.
            #[target_feature(enable = "avx512f")]
            #[inline]
            unsafe fn $cols512<const C: usize>(
                kb: usize,
                mut ap: *const $t,
                mut bp: *const $t,
                acc: *mut $t,
            ) {
                const N: usize = $n;
                // SAFETY: step `l < kb` reads `ap[l·N..][..N]` and
                // `bp[l·N..][..C]`, the stores cover `acc[..C·N]`; all
                // inside the ranges the caller guarantees.
                unsafe {
                    let mut t = [$zero512(); C];
                    for _ in 0..kb {
                        let a = $load512(ap);
                        for (j, tj) in t.iter_mut().enumerate() {
                            *tj = $fma512(a, $set512(*bp.add(j)), *tj);
                        }
                        ap = ap.add(N);
                        bp = bp.add(N);
                    }
                    for (j, tj) in t.iter().enumerate() {
                        $store512(acc.add(j * N), *tj);
                    }
                }
            }

            /// AVX2+FMA body: one pass per group of four columns, each two
            /// ymm accumulators per column (8 of the 16 registers) over the
            /// whole A panel, which stays in L1 between groups.
            ///
            /// # Safety
            /// Caller must verify AVX2+FMA support (see [`have_avx2_fma`]).
            #[target_feature(enable = "avx2", enable = "fma")]
            pub(super) unsafe fn $ukr(
                kb: usize,
                apanel: &[$t],
                bpanel: &[$t],
                acc: &mut [$t],
                cols: usize,
            ) {
                const N: usize = $n;
                const W: usize = N / 2;
                assert!(apanel.len() >= kb * N && bpanel.len() >= kb * N && acc.len() >= N * N);
                // SAFETY: step `l < kb` of group `g` reads `apanel[l·N..][..N]`
                // and `bpanel[l·N + g..][..4]`, inside the asserted lengths
                // (`g + 4 <= N`); the stores cover tile columns `g..g + 4`.
                unsafe {
                    for g in (0..cols.min(N)).step_by(4) {
                        let mut t = [$zero(); 8];
                        let (mut ap, mut bp) = (apanel.as_ptr(), bpanel.as_ptr().add(g));
                        for _ in 0..kb {
                            let (a0, a1) = ($load(ap), $load(ap.add(W)));
                            for (j, tj) in t.chunks_exact_mut(2).enumerate() {
                                let b = $set1(*bp.add(j));
                                tj[0] = $fma(a0, b, tj[0]);
                                tj[1] = $fma(a1, b, tj[1]);
                            }
                            ap = ap.add(N);
                            bp = bp.add(N);
                        }
                        for (j, tj) in t.chunks_exact(2).enumerate() {
                            $store(acc.as_mut_ptr().add((g + j) * N), tj[0]);
                            $store(acc.as_mut_ptr().add((g + j) * N + W), tj[1]);
                        }
                    }
                }
            }
        };
    }
    tiles!(f64, 8, ukr512_f64, ukr_f64, cols512_f64, [1 => 4],
           _mm512_loadu_pd, _mm512_storeu_pd, _mm512_setzero_pd, _mm512_set1_pd, _mm512_fmadd_pd,
           _mm256_loadu_pd, _mm256_storeu_pd, _mm256_setzero_pd, _mm256_set1_pd, _mm256_fmadd_pd);
    tiles!(f32, 16, ukr512_f32, ukr_f32, cols512_f32, [1 => 4, 2 => 8, 3 => 12],
           _mm512_loadu_ps, _mm512_storeu_ps, _mm512_setzero_ps, _mm512_set1_ps, _mm512_fmadd_ps,
           _mm256_loadu_ps, _mm256_storeu_ps, _mm256_setzero_ps, _mm256_set1_ps, _mm256_fmadd_ps);

    /// AVX-512F body of `Scalar::transpose_tile` on the `f64` 8×8 tile:
    /// unpack row pairs, gather each column's four-row quarters with
    /// two-source permutes, join the quarters by 128-bit lanes.
    ///
    /// # Safety
    /// Caller must verify AVX-512F support (see [`have_avx512f`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn transpose512_f64(src: &[f64], ss: usize, dst: &mut [f64], ds: usize) {
        super::assert_tile(8, src, ss, dst, ds);
        // SAFETY: row `i < 8` is read at `src[i·ss..][..8]` and column `j`
        // written at `dst[j·ds..][..8]`, inside the asserted lengths.
        unsafe {
            let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
            let mut r = [_mm512_setzero_pd(); 8];
            for (i, ri) in r.iter_mut().enumerate() {
                *ri = _mm512_loadu_pd(s.add(i * ss));
            }
            // `pairs[2k]` holds (row 2k, row 2k + 1) of every even column,
            // `pairs[2k + 1]` of every odd one.
            let mut pairs = [_mm512_setzero_pd(); 8];
            for k in 0..4 {
                pairs[2 * k] = _mm512_unpacklo_pd(r[2 * k], r[2 * k + 1]);
                pairs[2 * k + 1] = _mm512_unpackhi_pd(r[2 * k], r[2 * k + 1]);
            }
            // Rows 0..4 (`q = 0`) or 4..8 (`q = 1`) of columns c and c + 4:
            // c = 0, 2 from the even pairs, c = 1, 3 from the odd ones.
            let pick = [_mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0), _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2)];
            let mut quarters = [[_mm512_setzero_pd(); 4]; 2];
            for (q, half) in quarters.iter_mut().enumerate() {
                for (c, v) in half.iter_mut().enumerate() {
                    let (a, b) = (pairs[4 * q + c % 2], pairs[4 * q + 2 + c % 2]);
                    *v = _mm512_permutex2var_pd(a, pick[c / 2], b);
                }
            }
            for c in 0..4 {
                let (top, bottom) = (quarters[0][c], quarters[1][c]);
                _mm512_storeu_pd(d.add(c * ds), _mm512_shuffle_f64x2::<0x44>(top, bottom));
                _mm512_storeu_pd(d.add((c + 4) * ds), _mm512_shuffle_f64x2::<0xEE>(top, bottom));
            }
        }
    }

    /// AVX-512F body of `Scalar::transpose_tile` on the `f32` 16×16 tile:
    /// two unpack stages build, per group of four rows, each column's four
    /// values in one 128-bit lane; two lane-shuffle stages then join a
    /// column's four lanes.
    ///
    /// # Safety
    /// Caller must verify AVX-512F support (see [`have_avx512f`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn transpose512_f32(src: &[f32], ss: usize, dst: &mut [f32], ds: usize) {
        super::assert_tile(16, src, ss, dst, ds);
        // SAFETY: row `i < 16` is read at `src[i·ss..][..16]` and column
        // `j` written at `dst[j·ds..][..16]`, inside the asserted lengths.
        unsafe {
            let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
            let mut r = [_mm512_setzero_ps(); 16];
            for (i, ri) in r.iter_mut().enumerate() {
                *ri = _mm512_loadu_ps(s.add(i * ss));
            }
            let mut t = [_mm512_setzero_ps(); 16];
            for k in 0..8 {
                t[2 * k] = _mm512_unpacklo_ps(r[2 * k], r[2 * k + 1]);
                t[2 * k + 1] = _mm512_unpackhi_ps(r[2 * k], r[2 * k + 1]);
            }
            // `v[4g + c]`, lane `q`: rows 4g..4g + 4 of column 4q + c.
            let mut v = [_mm512_setzero_ps(); 16];
            for g in 0..4 {
                let (a, e) = (_mm512_castps_pd(t[4 * g]), _mm512_castps_pd(t[4 * g + 1]));
                let (b, f) = (_mm512_castps_pd(t[4 * g + 2]), _mm512_castps_pd(t[4 * g + 3]));
                v[4 * g] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, b));
                v[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, b));
                v[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(e, f));
                v[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(e, f));
            }
            for c in 0..4 {
                let w0 = _mm512_shuffle_f32x4::<0x44>(v[c], v[4 + c]);
                let w1 = _mm512_shuffle_f32x4::<0xEE>(v[c], v[4 + c]);
                let w2 = _mm512_shuffle_f32x4::<0x44>(v[8 + c], v[12 + c]);
                let w3 = _mm512_shuffle_f32x4::<0xEE>(v[8 + c], v[12 + c]);
                _mm512_storeu_ps(d.add(c * ds), _mm512_shuffle_f32x4::<0x88>(w0, w2));
                _mm512_storeu_ps(d.add((4 + c) * ds), _mm512_shuffle_f32x4::<0xDD>(w0, w2));
                _mm512_storeu_ps(d.add((8 + c) * ds), _mm512_shuffle_f32x4::<0x88>(w1, w3));
                _mm512_storeu_ps(d.add((12 + c) * ds), _mm512_shuffle_f32x4::<0xDD>(w1, w3));
            }
        }
    }

    /// AVX2 body of `Scalar::transpose_tile` on the `f64` 8×8 tile: four
    /// 4×4 transposes in ymm registers, one per quadrant.
    ///
    /// # Safety
    /// Caller must verify AVX2 support (see [`have_avx2_fma`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_f64(src: &[f64], ss: usize, dst: &mut [f64], ds: usize) {
        super::assert_tile(8, src, ss, dst, ds);
        // SAFETY: quadrant `(qi, qj)` reads `src[(4qi + i)·ss + 4qj..][..4]`
        // and writes `dst[(4qj + j)·ds + 4qi..][..4]`, `i, j < 4`: inside
        // the asserted lengths.
        unsafe {
            for qi in 0..2 {
                for qj in 0..2 {
                    let (s, d) = (src.as_ptr().add(4 * qi * ss + 4 * qj), dst.as_mut_ptr().add(4 * qj * ds + 4 * qi));
                    let r = [
                        _mm256_loadu_pd(s),
                        _mm256_loadu_pd(s.add(ss)),
                        _mm256_loadu_pd(s.add(2 * ss)),
                        _mm256_loadu_pd(s.add(3 * ss)),
                    ];
                    let (t0, t1) = (_mm256_unpacklo_pd(r[0], r[1]), _mm256_unpackhi_pd(r[0], r[1]));
                    let (t2, t3) = (_mm256_unpacklo_pd(r[2], r[3]), _mm256_unpackhi_pd(r[2], r[3]));
                    _mm256_storeu_pd(d, _mm256_permute2f128_pd::<0x20>(t0, t2));
                    _mm256_storeu_pd(d.add(ds), _mm256_permute2f128_pd::<0x20>(t1, t3));
                    _mm256_storeu_pd(d.add(2 * ds), _mm256_permute2f128_pd::<0x31>(t0, t2));
                    _mm256_storeu_pd(d.add(3 * ds), _mm256_permute2f128_pd::<0x31>(t1, t3));
                }
            }
        }
    }

    /// AVX2 body of `Scalar::transpose_tile` on the `f32` 16×16 tile: four
    /// 8×8 transposes in ymm registers, one per quadrant.
    ///
    /// # Safety
    /// Caller must verify AVX2 support (see [`have_avx2_fma`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_f32(src: &[f32], ss: usize, dst: &mut [f32], ds: usize) {
        super::assert_tile(16, src, ss, dst, ds);
        // SAFETY: quadrant `(qi, qj)` reads `src[(8qi + i)·ss + 8qj..][..8]`
        // and writes `dst[(8qj + j)·ds + 8qi..][..8]`, `i, j < 8`: inside
        // the asserted lengths.
        unsafe {
            for qi in 0..2 {
                for qj in 0..2 {
                    let (s, d) = (src.as_ptr().add(8 * qi * ss + 8 * qj), dst.as_mut_ptr().add(8 * qj * ds + 8 * qi));
                    let mut t = [_mm256_setzero_ps(); 8];
                    for k in 0..4 {
                        let (a, b) = (_mm256_loadu_ps(s.add(2 * k * ss)), _mm256_loadu_ps(s.add((2 * k + 1) * ss)));
                        t[2 * k] = _mm256_unpacklo_ps(a, b);
                        t[2 * k + 1] = _mm256_unpackhi_ps(a, b);
                    }
                    // `u[h][c]`, lane `l`: rows 4h..4h + 4 of column 4l + c.
                    let mut u = [[_mm256_setzero_ps(); 4]; 2];
                    for (h, uh) in u.iter_mut().enumerate() {
                        let (a, e) = (_mm256_castps_pd(t[4 * h]), _mm256_castps_pd(t[4 * h + 1]));
                        let (b, f) = (_mm256_castps_pd(t[4 * h + 2]), _mm256_castps_pd(t[4 * h + 3]));
                        uh[0] = _mm256_castpd_ps(_mm256_unpacklo_pd(a, b));
                        uh[1] = _mm256_castpd_ps(_mm256_unpackhi_pd(a, b));
                        uh[2] = _mm256_castpd_ps(_mm256_unpacklo_pd(e, f));
                        uh[3] = _mm256_castpd_ps(_mm256_unpackhi_pd(e, f));
                    }
                    for c in 0..4 {
                        _mm256_storeu_ps(d.add(c * ds), _mm256_permute2f128_ps::<0x20>(u[0][c], u[1][c]));
                        _mm256_storeu_ps(d.add((4 + c) * ds), _mm256_permute2f128_ps::<0x31>(u[0][c], u[1][c]));
                    }
                }
            }
        }
    }

    /// The AVX2+FMA bodies of `Scalar::dot` / `Scalar::axpy` for one
    /// precision: four accumulator registers of `$w` lanes each, so element
    /// `c` lands in lane `c mod 4·$w` as in `dot_portable`; the remainder
    /// past the last full `4·$w` chunk goes through the spilled lanes with
    /// scalar FMAs. Every product is fused, as in the portable bodies, so
    /// the two have the same bits.
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

    /// `$body::<N $(, $flag)?>(args)` with `N` the row count `$n` of one
    /// pass (`1..=STREAM_ROWS`), so the accumulators live in registers.
    macro_rules! by_rows {
        ($n:expr, $body:ident, [$($flag:tt)*], ($($arg:expr),*)) => {
            match $n {
                1 => $body::<1 $($flag)*>($($arg),*),
                2 => $body::<2 $($flag)*>($($arg),*),
                3 => $body::<3 $($flag)*>($($arg),*),
                4 => $body::<4 $($flag)*>($($arg),*),
                5 => $body::<5 $($flag)*>($($arg),*),
                6 => $body::<6 $($flag)*>($($arg),*),
                7 => $body::<7 $($flag)*>($($arg),*),
                _ => $body::<8 $($flag)*>($($arg),*),
            }
        };
    }

    /// The AVX-512F stream bodies of one precision (`$w` lanes per zmm).
    /// `axpy` and `scale` work element by element, a zmm at a time with a
    /// scalar tail, so they have the portable bodies' bits. The row
    /// streams keep `dot`'s lane map with two zmm accumulators per row —
    /// element `c` in lane `c mod 2·$w`, the `4·` ymm width of the AVX2
    /// body — the same scalar tail through the spilled lanes and the same
    /// halving sum, so every output has `dot`'s bits.
    macro_rules! streams512 {
        ($t:ty, $w:expr, $axpy512:ident, $scale512:ident, $dot_rows512:ident, $axpy_dot_rows512:ident,
         $dot_pass:ident, $axpy_dot_pass:ident,
         $load:ident, $store:ident, $zero:ident, $set1:ident, $fma:ident, $mul:ident) => {
            /// # Safety
            /// Caller must verify AVX-512F support (see [`have_avx512f`]).
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn $axpy512(alpha: $t, x: &[$t], y: &mut [$t]) {
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

            /// # Safety
            /// Caller must verify AVX-512F support (see [`have_avx512f`]).
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn $scale512(alpha: $t, x: &mut [$t]) {
                const W: usize = $w;
                let full = x.len() / W * W;
                // SAFETY: as in the `axpy` body.
                unsafe {
                    let xp = x.as_mut_ptr();
                    let av = $set1(alpha);
                    let mut c = 0;
                    while c < full {
                        $store(xp.add(c), $mul($load(xp.add(c)), av));
                        c += W;
                    }
                }
                for v in &mut x[full..] {
                    *v *= alpha;
                }
            }

            /// # Safety
            /// Caller must verify AVX-512F support (see [`have_avx512f`]).
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn $dot_rows512(v: &[$t], rows: &[$t], ld: usize, out: &mut [$t]) {
                super::assert_rows(v.len(), rows.len(), ld, out.len());
                for (g, o) in out.chunks_mut(super::STREAM_ROWS).enumerate() {
                    let rp = rows[g * super::STREAM_ROWS * ld..].as_ptr();
                    // SAFETY: the pass's `o.len()` rows lie inside the
                    // asserted extent of `rows`.
                    unsafe { by_rows!(o.len(), $dot_pass, [], (v, rp, ld, o)) }
                }
            }

            /// `N` rows of `dot_rows`.
            ///
            /// # Safety
            /// AVX-512F is available, `N == out.len()`, and `rp` points at
            /// `N` rows of `v.len()` readable elements at stride `ld`.
            #[target_feature(enable = "avx512f")]
            #[inline]
            unsafe fn $dot_pass<const N: usize>(v: &[$t], rp: *const $t, ld: usize, out: &mut [$t]) {
                const W: usize = $w;
                let k = v.len();
                let full = k / (2 * W) * (2 * W);
                let mut lanes = [[0.0 as $t; 2 * W]; N];
                // SAFETY: step `c` reads `[c, c + 2·W)` of `v` and of each
                // row, `c + 2·W <= full <= k`; the tail reads the rows
                // below `k`.
                unsafe {
                    let vp = v.as_ptr();
                    let mut acc = [[$zero(); 2]; N];
                    let mut c = 0;
                    while c < full {
                        let (v0, v1) = ($load(vp.add(c)), $load(vp.add(c + W)));
                        for (r, a) in acc.iter_mut().enumerate() {
                            let p = rp.add(r * ld + c);
                            a[0] = $fma($load(p), v0, a[0]);
                            a[1] = $fma($load(p.add(W)), v1, a[1]);
                        }
                        c += 2 * W;
                    }
                    for (l, a) in lanes.iter_mut().zip(&acc) {
                        $store(l.as_mut_ptr(), a[0]);
                        $store(l.as_mut_ptr().add(W), a[1]);
                    }
                    for (r, (l, o)) in lanes.iter_mut().zip(out).enumerate() {
                        let row = std::slice::from_raw_parts(rp.add(r * ld), k);
                        for ((lane, &a), &b) in l.iter_mut().zip(&row[full..]).zip(&v[full..]) {
                            *lane = a.mul_add(b, *lane);
                        }
                        *o = super::sum_lanes(*l);
                    }
                }
            }

            /// # Safety
            /// Caller must verify AVX-512F support (see [`have_avx512f`]).
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn $axpy_dot_rows512(
                alpha: &[$t],
                x: &[$t],
                y: Option<&[$t]>,
                rows: &mut [$t],
                ld: usize,
                out: &mut [$t],
            ) {
                assert_eq!(alpha.len(), out.len(), "axpy_dot_rows: one alpha per row");
                assert!(y.is_none_or(|y| y.len() == x.len()), "axpy_dot_rows: length mismatch");
                super::assert_rows(x.len(), rows.len(), ld, out.len());
                let yp = y.map_or(std::ptr::null(), |y| y.as_ptr());
                let passes = out.chunks_mut(super::STREAM_ROWS).zip(alpha.chunks(super::STREAM_ROWS));
                for (g, (o, a)) in passes.enumerate() {
                    let rp = rows[g * super::STREAM_ROWS * ld..].as_mut_ptr();
                    // SAFETY: the pass's `o.len()` rows lie inside the
                    // asserted extent of `rows`, which borrows none of `x`
                    // and `y`; `yp` is read only when `y` is `Some`.
                    unsafe {
                        if y.is_some() {
                            by_rows!(o.len(), $axpy_dot_pass, [, false], (a, x, yp, rp, ld, o))
                        } else {
                            by_rows!(o.len(), $axpy_dot_pass, [, true], (a, x, yp, rp, ld, o))
                        }
                    }
                }
            }

            /// `N` rows of `axpy_dot_rows`; `SQ`: each row with itself.
            ///
            /// # Safety
            /// AVX-512F is available, `N == out.len() == alpha.len()`, `rp`
            /// points at `N` rows of `x.len()` writable elements at stride
            /// `ld` that alias neither `x` nor `yp`, and unless `SQ`, `yp`
            /// at `x.len()` readable ones.
            #[target_feature(enable = "avx512f")]
            #[inline]
            unsafe fn $axpy_dot_pass<const N: usize, const SQ: bool>(
                alpha: &[$t],
                x: &[$t],
                yp: *const $t,
                rp: *mut $t,
                ld: usize,
                out: &mut [$t],
            ) {
                const W: usize = $w;
                let k = x.len();
                let full = k / (2 * W) * (2 * W);
                let mut lanes = [[0.0 as $t; 2 * W]; N];
                // SAFETY: step `c` reads `[c, c + 2·W)` of `x`, `y` and each
                // row and writes the rows there, `c + 2·W <= full <= k`;
                // the tail stays below `k`.
                unsafe {
                    let xp = x.as_ptr();
                    let mut av = [$zero(); N];
                    for (v, &a) in av.iter_mut().zip(alpha) {
                        *v = $set1(a);
                    }
                    let mut acc = [[$zero(); 2]; N];
                    let mut c = 0;
                    while c < full {
                        let (x0, x1) = ($load(xp.add(c)), $load(xp.add(c + W)));
                        let (y0, y1) = if SQ { (x0, x1) } else { ($load(yp.add(c)), $load(yp.add(c + W))) };
                        for (r, (a, v)) in acc.iter_mut().zip(&av).enumerate() {
                            let p = rp.add(r * ld + c);
                            let n0 = $fma(*v, x0, $load(p));
                            let n1 = $fma(*v, x1, $load(p.add(W)));
                            $store(p, n0);
                            $store(p.add(W), n1);
                            let (m0, m1) = if SQ { (n0, n1) } else { (y0, y1) };
                            a[0] = $fma(n0, m0, a[0]);
                            a[1] = $fma(n1, m1, a[1]);
                        }
                        c += 2 * W;
                    }
                    for (l, a) in lanes.iter_mut().zip(&acc) {
                        $store(l.as_mut_ptr(), a[0]);
                        $store(l.as_mut_ptr().add(W), a[1]);
                    }
                    for (r, ((l, o), &a)) in lanes.iter_mut().zip(out).zip(alpha).enumerate() {
                        let row = std::slice::from_raw_parts_mut(rp.add(r * ld), k);
                        for (c, lane) in (full..k).zip(l.iter_mut()) {
                            row[c] = a.mul_add(x[c], row[c]);
                            let m = if SQ { row[c] } else { *yp.add(c) };
                            *lane = row[c].mul_add(m, *lane);
                        }
                        *o = super::sum_lanes(*l);
                    }
                }
            }
        };
    }
    streams512!(f64, 8, axpy512_f64, scale512_f64, dot_rows512_f64, axpy_dot_rows512_f64,
                dot_pass_f64, axpy_dot_pass_f64,
                _mm512_loadu_pd, _mm512_storeu_pd, _mm512_setzero_pd, _mm512_set1_pd, _mm512_fmadd_pd,
                _mm512_mul_pd);
    streams512!(f32, 16, axpy512_f32, scale512_f32, dot_rows512_f32, axpy_dot_rows512_f32,
                dot_pass_f32, axpy_dot_pass_f32,
                _mm512_loadu_ps, _mm512_storeu_ps, _mm512_setzero_ps, _mm512_set1_ps, _mm512_fmadd_ps,
                _mm512_mul_ps);

    /// The AVX-512F body of `Scalar::ttm_tile` for one precision (`$w`
    /// lanes of mask type `$mask` per zmm): `$tile::<N, V>` keeps the tile's
    /// `N·V` accumulators in registers across a `KC` slab, chosen by the
    /// broadcast count and the vector count so an edge tile computes no
    /// dead broadcast or vector. The last vector loads and stores under a
    /// lane mask. Each lane is the portable body's fused chain.
    macro_rules! ttm512 {
        ($t:ty, $w:expr, $mask:ty, $ttm512:ident, $tile:ident,
         $zero:ident, $set1:ident, $fma:ident, $add:ident, $loadm:ident, $storem:ident) => {
            /// # Safety
            /// Caller must verify AVX-512F support (see [`have_avx512f`]).
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn $ttm512(t: super::TtmTile, v: &[$t], b: &[$t], y: &mut [$t]) {
                super::assert_ttm_tile::<$t>(t, v.len(), b.len(), y.len());
                let m = lane_masks(t.lanes, $w).map(|bits| bits as $mask);
                let (vp, bp, yp) = (v.as_ptr(), b.as_ptr(), y.as_mut_ptr());
                // SAFETY: the tile reads and writes the live lanes of the
                // entries the assertion covers.
                unsafe {
                    match t.lanes.div_ceil($w) {
                        1 => by_rows!(t.n, $tile, [, 1], (t, vp, bp, yp, m)),
                        2 => by_rows!(t.n, $tile, [, 2], (t, vp, bp, yp, m)),
                        _ => by_rows!(t.n, $tile, [, 3], (t, vp, bp, yp, m)),
                    }
                }
            }

            /// `N` broadcasts by `V` vectors of `$ttm512`.
            ///
            /// # Safety
            /// AVX-512F is available, `N == t.n`, `V` vectors hold
            /// `t.lanes` (the last one under `m`), and the pointers address
            /// operands `$ttm512` checked.
            #[target_feature(enable = "avx512f")]
            #[inline]
            unsafe fn $tile<const N: usize, const V: usize>(
                t: super::TtmTile,
                vp: *const $t,
                bp: *const $t,
                yp: *mut $t,
                m: [$mask; 3],
            ) {
                let super::TtmTile { k, vs, bj, bl, yj, .. } = t;
                // SAFETY: the caller's.
                unsafe {
                    for p0 in (0..k).step_by(KC) {
                        let mut acc = [[$zero(); V]; N];
                        for l in p0..k.min(p0 + KC) {
                            let mut x = [$zero(); V];
                            for (c, xc) in x.iter_mut().enumerate() {
                                *xc = $loadm(m[c], vp.add(l * vs + c * $w));
                            }
                            for (j, aj) in acc.iter_mut().enumerate() {
                                let b = $set1(*bp.add(j * bj + l * bl));
                                for (a, &xc) in aj.iter_mut().zip(&x) {
                                    *a = $fma(xc, b, *a);
                                }
                            }
                        }
                        // The first slab lands as `a + 0`, the rest onto
                        // what the slabs before them left.
                        for (j, aj) in acc.iter().enumerate() {
                            for (c, &a) in aj.iter().enumerate() {
                                let dst = yp.add(j * yj + c * $w);
                                let prev = if p0 == 0 { $zero() } else { $loadm(m[c], dst) };
                                $storem(dst, m[c], $add(prev, a));
                            }
                        }
                    }
                }
            }
        };
    }
    ttm512!(f64, 8, __mmask8, ttm512_f64, ttm_tile_f64, _mm512_setzero_pd, _mm512_set1_pd, _mm512_fmadd_pd,
            _mm512_add_pd, _mm512_maskz_loadu_pd, _mm512_mask_storeu_pd);
    ttm512!(f32, 16, __mmask16, ttm512_f32, ttm_tile_f32, _mm512_setzero_ps, _mm512_set1_ps, _mm512_fmadd_ps,
            _mm512_add_ps, _mm512_maskz_loadu_ps, _mm512_mask_storeu_ps);

    /// The masks of a TTM tile's three `w`-lane vectors over its first
    /// `live` lanes.
    fn lane_masks(live: usize, w: usize) -> [u32; 3] {
        [0, 1, 2].map(|v| (1u32 << live.saturating_sub(v * w).min(w)) - 1)
    }
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

    #[cfg(target_arch = "x86_64")]
    type AxpyBody<T> = unsafe fn(T, &[T], &mut [T]);
    #[cfg(target_arch = "x86_64")]
    type AxpyDotRowsBody<T> = unsafe fn(&[T], &[T], Option<&[T]>, &mut [T], usize, &mut [T]);

    /// The SIMD bodies of the streams for one precision.
    #[cfg(target_arch = "x86_64")]
    struct StreamBodies<T> {
        dot: unsafe fn(&[T], &[T]) -> T,
        axpy: AxpyBody<T>,
        axpy512: AxpyBody<T>,
        scale512: unsafe fn(T, &mut [T]),
        dot_rows512: unsafe fn(&[T], &[T], usize, &mut [T]),
        axpy_dot_rows512: AxpyDotRowsBody<T>,
    }

    /// Every body of the streams the host can run, called directly — the
    /// dispatch only ever reaches one of them on a given host — on both
    /// sides of every lane boundary (the ymm and zmm widths and the
    /// four-ymm dot chunk): `dot` within its rounding bound of the exact
    /// sum; every `dot` and row-stream output with the portable `dot`'s
    /// bits, every `axpy` and row update with the fused element's, every
    /// `scale` with the product's. The row streams run 1–9 rows (one pass
    /// and one more) at `ld = k` and `ld > k`, and leave the gaps between
    /// the rows alone.
    #[cfg(target_arch = "x86_64")]
    fn check_streams<T: Scalar, const L: usize>(fma: fn(T, T, T) -> T, bodies: StreamBodies<T>) {
        if !simd::have_avx2_fma() {
            return;
        }
        let avx512 = simd::have_avx512f();
        let eps = T::EPSILON.to_f64();
        let bits = |v: &[T]| v.iter().map(|e| e.to_f64().to_bits()).collect::<Vec<u64>>();
        let draw = |i: usize, salt: f64| T::from_f64(((i as f64 + salt) * 0.7391).sin() * 2.0);
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1024, 1027] {
            let x: Vec<T> = (0..n).map(|i| draw(i, 0.25)).collect();
            let y: Vec<T> = (0..n).map(|i| draw(i, 100.5)).collect();
            let wide = |v: &[T]| v.iter().map(|e| e.to_f64()).collect::<Vec<f64>>();
            let (exact, abs) = exact_dot(&wide(&x), &wide(&y));
            // Each lane is a chain of ⌈n/L⌉ roundings, the halving adds log₂L.
            let bound = 2.0 * eps * (n.div_ceil(L) + L.ilog2() as usize + 1) as f64 * abs;
            let portable = dot_portable::<T, L>(&x, &y, fma);
            // SAFETY: AVX2+FMA support was checked above.
            let vector = unsafe { (bodies.dot)(&x, &y) };
            assert!((vector.to_f64() - exact).abs() <= bound, "AVX2 dot, n = {n}");
            assert_eq!(bits(&[portable]), bits(&[vector]), "portable dot, n = {n}");
            assert_eq!(bits(&[T::dot(&x, &y)]), bits(&[vector]), "dispatch, n = {n}");

            let alpha = T::from_f64(-0.37);
            let want: Vec<T> = x.iter().zip(&y).map(|(&xc, &yc)| fma(alpha, xc, yc)).collect();
            let mut axpys: Vec<(&str, AxpyBody<T>)> = vec![("AVX2", bodies.axpy)];
            if avx512 {
                axpys.push(("AVX-512F", bodies.axpy512));
            }
            let mut got = y.clone();
            axpy_portable(alpha, &x, &mut got, fma);
            assert_eq!(bits(&got), bits(&want), "portable axpy, n = {n}");
            let mut got = y.clone();
            T::axpy(alpha, &x, &mut got);
            assert_eq!(bits(&got), bits(&want), "dispatch axpy, n = {n}");
            for (name, body) in axpys {
                let mut got = y.clone();
                // SAFETY: only bodies whose features the host has.
                unsafe { body(alpha, &x, &mut got) };
                assert_eq!(bits(&got), bits(&want), "{name} axpy, n = {n}");
            }

            let want: Vec<T> = x.iter().map(|&xc| xc * alpha).collect();
            let mut got = x.clone();
            T::scale(alpha, &mut got);
            assert_eq!(bits(&got), bits(&want), "dispatch scale, n = {n}");
            if avx512 {
                let mut got = x.clone();
                // SAFETY: AVX-512F support was checked.
                unsafe { (bodies.scale512)(alpha, &mut got) };
                assert_eq!(bits(&got), bits(&want), "AVX-512F scale, n = {n}");
            }

            for ld in [n, n + 3] {
                for count in 1..=STREAM_ROWS + 1 {
                    let what = format!("n = {n}, ld = {ld}, {count} rows");
                    let data: Vec<T> = (0..(count - 1) * ld + n).map(|i| draw(i, 7.5)).collect();
                    let want: Vec<T> =
                        (0..count).map(|r| dot_portable::<T, L>(&data[r * ld..][..n], &x, fma)).collect();
                    let mut got = vec![T::ZERO; count];
                    dot_rows_each(&x, &data, ld, &mut got);
                    assert_eq!(bits(&got), bits(&want), "dot_rows per row, {what}");
                    T::dot_rows(&x, &data, ld, &mut got);
                    assert_eq!(bits(&got), bits(&want), "dispatch dot_rows, {what}");
                    if avx512 {
                        // SAFETY: AVX-512F support was checked.
                        unsafe { (bodies.dot_rows512)(&x, &data, ld, &mut got) };
                        assert_eq!(bits(&got), bits(&want), "AVX-512F dot_rows, {what}");
                    }

                    let alphas: Vec<T> = (0..count).map(|r| T::from_f64(0.1 * r as f64 - 0.45)).collect();
                    for other in [Some(&y[..]), None] {
                        let (mut rows, mut out) = (data.clone(), vec![T::ZERO; count]);
                        for (r, (o, &a)) in out.iter_mut().zip(&alphas).enumerate() {
                            let row = &mut rows[r * ld..][..n];
                            axpy_portable(a, &x, row, fma);
                            *o = dot_portable::<T, L>(row, other.unwrap_or(row), fma);
                        }
                        let what = format!("{what}, y = {}", other.is_some());
                        let check = |name: &str, body: &dyn Fn(&mut [T], &mut [T])| {
                            let (mut got_rows, mut got) = (data.clone(), vec![T::ZERO; count]);
                            body(&mut got_rows, &mut got);
                            assert_eq!(bits(&got_rows), bits(&rows), "{name} axpy_dot_rows rows, {what}");
                            assert_eq!(bits(&got), bits(&out), "{name} axpy_dot_rows, {what}");
                        };
                        check("per row", &|r, o| axpy_dot_rows_each(&alphas, &x, other, r, ld, o));
                        check("dispatch", &|r, o| T::axpy_dot_rows(&alphas, &x, other, r, ld, o));
                        if avx512 {
                            let body = bodies.axpy_dot_rows512;
                            // SAFETY: AVX-512F support was checked.
                            check("AVX-512F", &|r, o| unsafe { body(&alphas, &x, other, r, ld, o) });
                        }
                    }
                }
            }
        }
    }

    /// The scratch a thread packs into is allocated once: a first, small
    /// request already reserves a full `KC × NC` slab, so the largest
    /// request of a full-size `gemm_blocked` lands in the same two buffers.
    /// Both start on a cache line.
    fn check_scratch_allocated_once<T: Scalar>() {
        use crate::kernel::{CACHE_LINE, KC, NC};
        let at = |a_len, b_len| T::with_pack_scratch(a_len, b_len, |a, b| (a.as_ptr(), b.as_ptr()));
        let small = at(8, 8);
        assert_eq!(at(KC * NC, KC * NC), small, "{}", T::PRECISION_NAME);
        assert_eq!(at(0, 1), small, "{}", T::PRECISION_NAME);
        assert_eq!((small.0 as usize % CACHE_LINE, small.1 as usize % CACHE_LINE), (0, 0), "{}", T::PRECISION_NAME);
    }

    #[test]
    fn pack_scratch_is_allocated_once_per_thread() {
        check_scratch_allocated_once::<f64>();
        check_scratch_allocated_once::<f32>();
    }

    type TileBody<T> = unsafe fn(usize, &[T], &[T], &mut [T], usize);

    /// Every body of the microkernel the host can run, called directly —
    /// the dispatch only ever reaches one of them — on the same packed
    /// panels, into a tile of NaNs, for every live column count: each must
    /// write the fused chain `Σ_l a·b` from `+0.0` in ascending `l` into
    /// every live column, bit for bit.
    fn check_tile_bodies<T: Scalar, const N: usize>(fma: fn(T, T, T) -> T, bodies: &[(&str, TileBody<T>)]) {
        for kb in [1usize, 2, 17, 256] {
            let ap: Vec<T> = (0..N * kb).map(|i| T::from_f64((i as f64 * 0.37).sin())).collect();
            let bp: Vec<T> = (0..N * kb).map(|i| T::from_f64((i as f64 * 0.73).cos())).collect();
            let mut want = vec![T::ZERO; N * N];
            for (j, col) in want.chunks_exact_mut(N).enumerate() {
                for (i, w) in col.iter_mut().enumerate() {
                    *w = (0..kb).fold(T::ZERO, |s, l| fma(ap[l * N + i], bp[l * N + j], s));
                }
            }
            let bits = |tile: &[T]| tile.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<u64>>();
            let nans = || vec![T::from_f64(f64::NAN); N * N];
            for cols in 1..=N {
                let live = ..cols * N;
                let mut got = nans();
                ukr_portable::<T, N>(kb, &ap, &bp, &mut got, cols, fma);
                let what = format!("{} kb = {kb}, cols = {cols}", T::PRECISION_NAME);
                assert_eq!(bits(&got[live]), bits(&want[live]), "portable {what}");
                for &(name, body) in bodies {
                    let mut got = nans();
                    // SAFETY: the caller lists only bodies whose features
                    // the host has.
                    unsafe { body(kb, &ap, &bp, &mut got, cols) };
                    assert_eq!(bits(&got[live]), bits(&want[live]), "{name} {what}");
                }
            }
        }
    }

    #[test]
    fn every_tile_body_writes_the_fused_chain() {
        #[cfg(target_arch = "x86_64")]
        fn host<T>(avx512: TileBody<T>, avx2: TileBody<T>) -> Vec<(&'static str, TileBody<T>)> {
            let all = [("AVX-512F", avx512, simd::have_avx512f()), ("AVX2", avx2, simd::have_avx2_fma())];
            all.into_iter().filter_map(|(name, body, has)| has.then_some((name, body))).collect()
        }
        #[cfg(target_arch = "x86_64")]
        let (bodies64, bodies32) =
            (host(simd::ukr512_f64, simd::ukr_f64), host(simd::ukr512_f32, simd::ukr_f32));
        #[cfg(not(target_arch = "x86_64"))]
        let (bodies64, bodies32) = (Vec::new(), Vec::new());
        check_tile_bodies::<f64, 8>(f64::mul_add, &bodies64);
        check_tile_bodies::<f32, 16>(f32::mul_add, &bodies32);
    }

    type TransposeBody<T> = unsafe fn(&[T], usize, &mut [T], usize);

    /// Every body of the tile transpose the host can run, called directly,
    /// on tiles of arbitrary bit patterns (NaN payloads included) at row
    /// strides either side of a power of two: each must store exactly
    /// `dst[j·ds + i] = src[i·ss + j]`, bit for bit, and touch nothing else.
    fn check_transpose_bodies<T: Scalar, const N: usize>(
        from_bits: fn(u64) -> T,
        to_bits: fn(T) -> u64,
        bodies: &[(&str, TransposeBody<T>)],
    ) {
        let bits = |v: &[T]| v.iter().map(|&e| to_bits(e)).collect::<Vec<u64>>();
        for (ss, ds) in [(N, N), (N + 3, N), (1024, N), (1056, 2 * N + 1), (N, 1024)] {
            let src: Vec<T> = (0..(N - 1) * ss + N)
                .map(|i| from_bits((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)))
                .collect();
            let fill = T::from_f64(-0.5);
            let mut want = vec![fill; (N - 1) * ds + N + 5];
            for i in 0..N {
                for j in 0..N {
                    want[j * ds + i] = src[i * ss + j];
                }
            }
            let what = format!("{} ss = {ss}, ds = {ds}", T::PRECISION_NAME);
            let mut got = vec![fill; want.len()];
            transpose_portable::<T, N>(&src, ss, &mut got, ds);
            assert_eq!(bits(&got), bits(&want), "portable {what}");
            let mut got = vec![fill; want.len()];
            T::transpose_tile(&src, ss, &mut got, ds);
            assert_eq!(bits(&got), bits(&want), "dispatch {what}");
            for &(name, body) in bodies {
                let mut got = vec![fill; want.len()];
                // SAFETY: the caller lists only bodies whose features the
                // host has.
                unsafe { body(&src, ss, &mut got, ds) };
                assert_eq!(bits(&got), bits(&want), "{name} {what}");
            }
        }
    }

    #[test]
    fn every_transpose_body_moves_the_bits() {
        #[cfg(target_arch = "x86_64")]
        fn host<T>(avx512: TransposeBody<T>, avx2: TransposeBody<T>) -> Vec<(&'static str, TransposeBody<T>)> {
            let all = [("AVX-512F", avx512, simd::have_avx512f()), ("AVX2", avx2, simd::have_avx2_fma())];
            all.into_iter().filter_map(|(name, body, has)| has.then_some((name, body))).collect()
        }
        #[cfg(target_arch = "x86_64")]
        let (bodies64, bodies32) = (
            host(simd::transpose512_f64, simd::transpose_f64),
            host(simd::transpose512_f32, simd::transpose_f32),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (bodies64, bodies32) = (Vec::new(), Vec::new());
        check_transpose_bodies::<f64, 8>(f64::from_bits, f64::to_bits, &bodies64);
        check_transpose_bodies::<f32, 16>(|b| f32::from_bits(b as u32), |v| v.to_bits().into(), &bodies32);
    }

    type TtmBody<T> = unsafe fn(TtmTile, &[T], &[T], &mut [T]);

    /// The AVX-512F TTM body against the portable one, called directly, at
    /// every lane count of its three vectors (so every mask width) and every
    /// broadcast count, and one slab, two slabs and a slab edge deep, with the
    /// strides of both orientations (`ttm`'s mode 0: vectors down a packed
    /// `op(U)`, broadcasts down columns of `x`; its row-major blocks:
    /// vectors along a row of `x`, broadcasts down a packed column): the
    /// same bits in every entry of the tile, and every entry outside it —
    /// the gaps between its rows and the slice's tail, NaN — untouched.
    fn check_ttm_bodies<T: Scalar>(fma: fn(T, T, T) -> T, avx512: Option<TtmBody<T>>) {
        let draw = |i: usize, salt: f64| T::from_f64(((i as f64 + salt) * 0.7391).sin());
        let bits = |v: &[T]| v.iter().map(|e| e.to_f64().to_bits()).collect::<Vec<u64>>();
        let w = T::MR;
        // Every lane and broadcast count shallow; the slab edges at the
        // edges of one vector and of all three.
        let shallow = [1usize, 3].into_iter().flat_map(|k| (1..=3 * w).map(move |lanes| (k, lanes, 1..=TTM_TILE)));
        let deep = [KC, KC + 1, 2 * KC + 5]
            .into_iter()
            .flat_map(|k| [1, w - 1, w, w + 1, 3 * w].map(|lanes| (k, lanes, TTM_TILE - 1..=TTM_TILE)));
        for (k, lanes, counts) in shallow.chain(deep) {
            for n in counts {
                let (rp, m) = (3 * w + 5, 3 * w + 2);
                for (vs, bj, bl) in [(rp, k, 1), (m, 1, rp)] {
                    let t = TtmTile { k, n, lanes, vs, bj, bl, yj: lanes + 3 };
                    let v: Vec<T> = (0..(k - 1) * vs + lanes).map(|i| draw(i, 0.5)).collect();
                    let b: Vec<T> = (0..(n - 1) * bj + (k - 1) * bl + 1).map(|i| draw(i, 9.25)).collect();
                    let run = |body: &dyn Fn(&mut [T])| {
                        let mut y = vec![T::from_f64(f64::NAN); n * t.yj + 2];
                        body(&mut y);
                        y
                    };
                    let want = run(&|y| ttm_tile_portable(t, &v, &b, y, fma));
                    for (at, w) in want.iter().enumerate() {
                        let inside = at % t.yj < lanes && at / t.yj < n;
                        assert_eq!(w.is_finite(), inside, "portable {t:?}, entry {at}");
                    }
                    let what = format!("{} {t:?}", T::PRECISION_NAME);
                    assert_eq!(bits(&run(&|y| T::ttm_tile(t, &v, &b, y))), bits(&want), "dispatch {what}");
                    if let Some(body) = avx512 {
                        // SAFETY: the caller passes only a body the host runs.
                        let got = run(&|y| unsafe { body(t, &v, &b, y) });
                        assert_eq!(bits(&got), bits(&want), "AVX-512F {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_ttm_body_has_the_portable_bits() {
        #[cfg(target_arch = "x86_64")]
        let (body64, body32) = if simd::have_avx512f() {
            (Some(simd::ttm512_f64 as TtmBody<f64>), Some(simd::ttm512_f32 as TtmBody<f32>))
        } else {
            (None, None)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (body64, body32) = (None, None);
        check_ttm_bodies::<f64>(f64::mul_add, body64);
        check_ttm_bodies::<f32>(f32::mul_add, body32);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn portable_and_avx2_streams_agree() {
        check_streams::<f64, 16>(
            f64::mul_add,
            StreamBodies {
                dot: simd::dot_f64,
                axpy: simd::axpy_f64,
                axpy512: simd::axpy512_f64,
                scale512: simd::scale512_f64,
                dot_rows512: simd::dot_rows512_f64,
                axpy_dot_rows512: simd::axpy_dot_rows512_f64,
            },
        );
        check_streams::<f32, 32>(
            f32::mul_add,
            StreamBodies {
                dot: simd::dot_f32,
                axpy: simd::axpy_f32,
                axpy512: simd::axpy512_f32,
                scale512: simd::scale512_f32,
                dot_rows512: simd::dot_rows512_f32,
                axpy_dot_rows512: simd::axpy_dot_rows512_f32,
            },
        );
    }
}
