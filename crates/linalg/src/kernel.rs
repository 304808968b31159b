//! The register-tiled GEMM engine shared by every dense kernel in this
//! crate (`gemm`, the lower-triangle driver under `syrk_lower` and
//! `mixed::syrk_lower_f64_acc`, and the TTM call sites in the tensor crates).
//!
//! Layout is the classic Goto/BLIS loop nest: a `jc` loop over `NC`-wide
//! column blocks of C, a `pc` loop over `KC`-deep slabs of the inner
//! dimension (B packed once per `(jc, pc)`), an `ic` loop over `MC`-tall row
//! blocks (A packed once per `(pc, ic)` and reused across every column panel
//! of the block), and finally `jr`/`ir` micro loops that feed the
//! per-precision `MR×NR` register tile ([`Scalar::gemm_microkernel`]).
//! The packed operands live in thread-local scratch
//! ([`Scalar::with_pack_scratch`]) rather than per-call allocations, and the
//! packers and the write-back of the accumulator tile walk slices of
//! whichever direction of their operand is contiguous.
//!
//! Determinism contract: for a given output element `(i, j)` the
//! floating-point accumulation order depends only on the `pc` blocking of
//! the inner dimension (fixed: ascending `KC` blocks from 0) and on the
//! microkernel's per-element loop (a single accumulator updated in ascending
//! `l`). It does *not* depend on where the element sits inside a tile, nor
//! on which row/column block of a larger matrix the call covers. Computing
//! any sub-rectangle of C with the same full inner dimension therefore
//! produces bit-identical values to computing all of C at once — which is
//! what makes the 2D-parallel drivers in `gemm.rs`/`syrk.rs` bit-identical
//! to their serial paths, for any thread count.

use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

/// Rows per packed A block (multiple of every [`Scalar::MR`]).
pub const MC: usize = 64;
/// Inner-dimension depth per packed slab.
pub const KC: usize = 256;
/// Columns per packed B block (multiple of every [`Scalar::NR`]).
pub const NC: usize = 512;

/// Upper bound on `MR·NR` across implemented precisions (stack accumulator).
const MAX_TILE: usize = 64;

pub(crate) fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// `dst[i] = src[i]` across precisions. With `S == T` the round trip through
/// `f64` folds away and this is the slice copy it looks like — staged
/// through a register-sized buffer, loads before stores, because once this is
/// inlined the optimizer no longer knows that `dst` and `src` cannot overlap
/// and would move one element at a time.
#[inline(always)]
fn convert<S: Scalar, T: Scalar>(dst: &mut [T], src: &[S]) {
    let mut staged = [T::ZERO; 16];
    for (d, s) in dst.chunks_mut(16).zip(src.chunks(16)) {
        for (t, &v) in staged.iter_mut().zip(s) {
            *t = T::from_f64(v.to_f64());
        }
        d.copy_from_slice(&staged[..d.len()]);
    }
}

/// Pack all of `a` (`mb × kb`) into `w`-row panels `depth ≥ l0 + kb` columns
/// deep, filling columns `l0..l0 + kb` of each: panel `ip` holds rows
/// `ip·w ..`, stored column by column, so the microkernel reads
/// `buf[ip·w·depth + l·w + i]`. Rows past `mb` in the last panel are zeroed
/// (the microkernel always processes full tiles; zero rows add exact zeros).
/// A source contiguous in either direction is walked through its slices;
/// only a doubly-strided view pays `get` per element. Every arm stores the
/// same values, so the layout a caller happens to hold never shows in a
/// result. Elements are widened (or rounded) to `T` as they are copied.
#[inline(always)]
fn pack_panels<S: Scalar, T: Scalar>(
    a: MatRef<'_, S>,
    w: usize,
    buf: &mut [T],
    depth: usize,
    l0: usize,
) {
    let (mb, kb) = (a.rows(), a.cols());
    let panels = mb.div_ceil(w);
    debug_assert!(l0 + kb <= depth && buf.len() >= panels * w * depth);
    for (ip, panel) in buf.chunks_exact_mut(w * depth).take(panels).enumerate() {
        let rows = w.min(mb - ip * w);
        let panel = &mut panel[l0 * w..(l0 + kb) * w];
        if a.col_contiguous() {
            // Each packed column is a contiguous copy; column `l` of the
            // view starts `l` strides into its buffer.
            let (data, cs) = (a.data(), a.col_stride());
            for (l, dst) in panel.chunks_exact_mut(w).enumerate() {
                let src = &data[l * cs + ip * w..][..rows];
                if rows == w {
                    // A full panel: `w` is a constant at every call site, so
                    // this is straight-line moves, not a `memcpy` call (the
                    // mode-0 SYRK reads 16 ms without this arm, 11 with it).
                    convert(dst, &src[..w]);
                } else {
                    convert(&mut dst[..rows], src);
                    dst[rows..].fill(T::ZERO);
                }
            }
        } else if a.row_contiguous() {
            // Each source row is read once, front to back, and scattered
            // down its lane of the panel.
            if rows < w {
                panel.fill(T::ZERO);
            }
            for i in 0..rows {
                for (dst, &s) in panel.chunks_exact_mut(w).zip(a.row_slice(ip * w + i)) {
                    dst[i] = T::from_f64(s.to_f64());
                }
            }
        } else {
            for (l, dst) in panel.chunks_exact_mut(w).enumerate() {
                for (i, v) in dst.iter_mut().enumerate() {
                    *v = if i < rows { T::from_f64(a.get(ip * w + i, l).to_f64()) } else { T::ZERO };
                }
            }
        }
    }
}

/// Pack the A-side block `a` into `MR`-row panels ([`pack_panels`]).
pub(crate) fn pack_a<S: Scalar, T: Scalar>(a: MatRef<'_, S>, buf: &mut [T], depth: usize, l0: usize) {
    pack_panels(a, T::MR, buf, depth, l0);
}

/// Pack the B-side block `b` (`kb × nb`) into `NR`-column panels stored row
/// by row, so the microkernel reads `buf[jp·NR·depth + l·NR + j]`: the
/// `NR`-row panels of `bᵀ`. Columns past `nb` are zeroed.
pub(crate) fn pack_b<S: Scalar, T: Scalar>(b: MatRef<'_, S>, buf: &mut [T], depth: usize, l0: usize) {
    pack_panels(b.t(), T::NR, buf, depth, l0);
}

/// Run the microkernel over every `MR×NR` tile of an `mb×nb` block and
/// accumulate `alpha ·` (packed A · packed B) into `c[r0.., c0..]`. Edge
/// tiles compute a full padded register tile and store only the live part.
/// With `lower`, tiles that lie strictly above the diagonal of `c` are
/// skipped (the symmetric driver mirrors them in afterwards). The tile lands
/// through slices of whichever direction of `c` is contiguous.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: Scalar>(
    alpha: T,
    apack: &[T],
    bpack: &[T],
    mb: usize,
    nb: usize,
    kb: usize,
    c: &mut MatMut<'_, T>,
    r0: usize,
    c0: usize,
    lower: bool,
) {
    let (mr, nr) = (T::MR, T::NR);
    debug_assert!(mr * nr <= MAX_TILE);
    let add = |dst: &mut T, v: T| {
        if alpha == T::ONE {
            *dst += v;
        } else {
            *dst = v.mul_add(alpha, *dst);
        }
    };
    for jp in 0..nb.div_ceil(nr) {
        let cols = nr.min(nb - jp * nr);
        let bpanel = &bpack[jp * nr * kb..(jp * nr * kb) + nr * kb];
        for ip in 0..mb.div_ceil(mr) {
            let rows = mr.min(mb - ip * mr);
            let (ri, ci) = (r0 + ip * mr, c0 + jp * nr);
            if lower && ri + rows <= ci {
                continue;
            }
            let apanel = &apack[ip * mr * kb..(ip * mr * kb) + mr * kb];
            let mut acc = [T::ZERO; MAX_TILE];
            T::gemm_microkernel(kb, apanel, bpanel, &mut acc[..mr * nr]);
            if c.col_contiguous() {
                for j in 0..cols {
                    let col = &mut c.col_slice_mut(ci + j)[ri..ri + rows];
                    for (dst, &v) in col.iter_mut().zip(&acc[j * mr..j * mr + rows]) {
                        add(dst, v);
                    }
                }
            } else if c.row_contiguous() {
                for i in 0..rows {
                    let row = &mut c.row_slice_mut(ri + i)[ci..ci + cols];
                    for (dst, &v) in row.iter_mut().zip(acc[i..].iter().step_by(mr)) {
                        add(dst, v);
                    }
                }
            } else {
                for j in 0..cols {
                    for i in 0..rows {
                        c.update(ri + i, ci + j, |old| acc[j * mr + i].mul_add(alpha, old));
                    }
                }
            }
        }
    }
}

/// Serial blocked driver: `C += alpha · A · B`. Assumes the caller already
/// applied `beta` to C and that no dimension is zero.
pub(crate) fn gemm_blocked<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!((c.rows(), c.cols()), (m, n));
    if m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        return;
    }
    let a_len = round_up(MC.min(m), T::MR) * KC.min(k);
    let b_len = KC.min(k) * round_up(NC.min(n), T::NR);
    T::with_pack_scratch(a_len, b_len, |apack, bpack| {
        let mut jc = 0;
        while jc < n {
            let nb = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kb = KC.min(k - pc);
                pack_b(b.submatrix(pc, jc, kb, nb), bpack, kb, 0);
                let mut ic = 0;
                while ic < m {
                    let mb = MC.min(m - ic);
                    pack_a(a.submatrix(ic, pc, mb, kb), apack, kb, 0);
                    macro_kernel(alpha, apack, bpack, mb, nb, kb, c, ic, jc, false);
                    ic += mb;
                }
                pc += kb;
            }
            jc += nb;
        }
    });
}

/// The lower triangle of `C += A·Aᵀ`, restricted to the columns `c` covers:
/// `A` is the column panels `panels` laid side by side (one view, or the
/// row-major blocks of an unfolding in order), each `m` rows tall, and `c`
/// is rows `j0..m` of columns `j0..j0 + c.cols()` of the `m × m` result
/// (`j0 = 0` and all `m` columns for the whole triangle). Tiles strictly
/// above the diagonal are not computed; the caller mirrors.
///
/// Per `KC`-deep slab of `A`'s columns — filled from as many consecutive
/// panels as it takes, straight from their rows — the slab is packed once
/// as `MR`-row panels and once as `NR`-column panels of `Aᵀ`, widened from
/// `S` to the accumulator precision `T` on the way, and the macro-kernel
/// runs over the blocks that touch the triangle. The slabs start at column
/// 0 of the first panel and the tile sums are [`gemm_blocked`]'s, so each
/// entry carries the bits of `gemm(A, Aᵀ)` over the concatenated columns —
/// whatever the panel boundaries, the layout of each panel, or `j0`.
pub(crate) fn syrk_blocked<S: Scalar, T: Scalar>(
    panels: &[MatRef<'_, S>],
    j0: usize,
    c: &mut MatMut<'_, T>,
) {
    let (mb, nb) = (c.rows(), c.cols());
    let n: usize = panels.iter().map(|p| p.cols()).sum();
    debug_assert!(nb <= mb && panels.iter().all(|p| p.rows() == j0 + mb));
    if nb == 0 || n == 0 {
        return;
    }
    let depth = KC.min(n);
    T::with_pack_scratch(round_up(mb, T::MR) * depth, depth * round_up(nb, T::NR), |apack, bpack| {
        // The next unread column: `off` within `panels[next]`.
        let (mut next, mut off) = (0, 0);
        let mut pc = 0;
        while pc < n {
            let kb = KC.min(n - pc);
            let mut l = 0;
            while l < kb {
                let take = (kb - l).min(panels[next].cols() - off);
                if take > 0 {
                    let piece = panels[next].submatrix(j0, off, mb, take);
                    pack_a(piece, apack, kb, l);
                    pack_b(piece.submatrix(0, 0, nb, take).t(), bpack, kb, l);
                    l += take;
                    off += take;
                }
                if off == panels[next].cols() {
                    (next, off) = (next + 1, 0);
                }
            }
            for jc in (0..nb).step_by(NC) {
                // Row blocks that end at or above column `jc` hold no entry
                // of the triangle.
                for ic in (jc / MC * MC..mb).step_by(MC) {
                    let (h, w) = (MC.min(mb - ic), NC.min(nb - jc));
                    macro_kernel(T::ONE, &apack[ic * kb..], &bpack[jc * kb..], h, w, kb, c, ic, jc, true);
                }
            }
            pc += kb;
        }
    });
}

/// A fully packed copy of an A operand, reusable across many GEMM calls
/// against different B/C (the TTM pattern: one small factor matrix applied
/// to every row-major block of a tensor unfolding).
pub struct PackedA<T: Scalar> {
    rows: usize,
    cols: usize,
    /// Packed `(pc, ic)` blocks in driver walk order.
    buf: Vec<T>,
    /// `offsets[pc_idx * ic_blocks + ic_idx]` into `buf`.
    offsets: Vec<usize>,
}

impl<T: Scalar> PackedA<T> {
    /// Pack the whole of `a` once, in the exact layout [`gemm_blocked`]
    /// produces block by block (so results are bit-identical to unpacked
    /// calls).
    pub fn new(a: MatRef<'_, T>) -> Self {
        let (m, k) = (a.rows(), a.cols());
        let pc_blocks = k.div_ceil(KC).max(1);
        let ic_blocks = m.div_ceil(MC).max(1);
        let mut buf = Vec::new();
        let mut offsets = Vec::with_capacity(pc_blocks * ic_blocks);
        if m > 0 && k > 0 {
            let mut pc = 0;
            while pc < k {
                let kb = KC.min(k - pc);
                let mut ic = 0;
                while ic < m {
                    let mb = MC.min(m - ic);
                    let len = round_up(mb, T::MR) * kb;
                    let off = buf.len();
                    offsets.push(off);
                    buf.resize(off + len, T::ZERO);
                    pack_a(a.submatrix(ic, pc, mb, kb), &mut buf[off..], kb, 0);
                    ic += mb;
                }
                pc += kb;
            }
        }
        PackedA { rows: m, cols: k, buf, offsets }
    }

    /// Rows of the packed operand.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (inner dimension) of the packed operand.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn block(&self, pc_idx: usize, ic_idx: usize) -> &[T] {
        let ic_blocks = self.rows.div_ceil(MC).max(1);
        let i = pc_idx * ic_blocks + ic_idx;
        let start = self.offsets[i];
        let end = self.offsets.get(i + 1).copied().unwrap_or(self.buf.len());
        &self.buf[start..end]
    }
}

/// `C += alpha · A · B` with A pre-packed. Bit-identical to
/// [`gemm_blocked`] on the same operands.
pub fn gemm_prepacked<T: Scalar>(
    alpha: T,
    a: &PackedA<T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
) {
    let (m, k) = (a.rows, a.cols);
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm_prepacked: inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm_prepacked: output shape mismatch");
    if m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        return;
    }
    let b_len = KC.min(k) * round_up(NC.min(n), T::NR);
    T::with_pack_scratch(0, b_len, |_, bpack| {
        let mut jc = 0;
        while jc < n {
            let nb = NC.min(n - jc);
            let mut pc_idx = 0;
            let mut pc = 0;
            while pc < k {
                let kb = KC.min(k - pc);
                pack_b(b.submatrix(pc, jc, kb, nb), bpack, kb, 0);
                let mut ic_idx = 0;
                let mut ic = 0;
                while ic < m {
                    let mb = MC.min(m - ic);
                    macro_kernel(alpha, a.block(pc_idx, ic_idx), bpack, mb, nb, kb, c, ic, jc, false);
                    ic += mb;
                    ic_idx += 1;
                }
                pc += kb;
                pc_idx += 1;
            }
            jc += nb;
        }
    });
}

/// Batched `C_i += alpha · A · B_i` with one shared pre-packed A — the
/// partial-TTM entry point for the serving layer: many concurrent queries
/// select different factor-row blocks (different B/C pairs) but contract
/// against the same packed core operand. Jobs run in parallel on the rayon
/// pool; each job individually is bit-identical to a solo
/// [`gemm_prepacked`] call on the same operands, since jobs share no output.
pub fn gemm_prepacked_batch<T: Scalar>(
    alpha: T,
    a: &PackedA<T>,
    jobs: &mut [(MatRef<'_, T>, MatMut<'_, T>)],
) {
    use rayon::prelude::*;
    jobs.par_chunks_mut(1).for_each(|job| {
        let (b, c) = &mut job[0];
        gemm_prepacked(alpha, a, *b, c);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn microkernel_matches_scalar_tile() {
        let (mr, nr) = (<f64 as Scalar>::MR, <f64 as Scalar>::NR);
        let kb = 17;
        let ap: Vec<f64> = (0..mr * kb).map(|i| (i as f64 * 0.37).sin()).collect();
        let bp: Vec<f64> = (0..nr * kb).map(|i| (i as f64 * 0.73).cos()).collect();
        let mut acc = vec![0.25f64; mr * nr];
        f64::gemm_microkernel(kb, &ap, &bp, &mut acc);
        for j in 0..nr {
            for i in 0..mr {
                let mut want = 0.25;
                for l in 0..kb {
                    want = ap[l * mr + i].mul_add(bp[l * nr + j], want);
                }
                assert_eq!(acc[j * mr + i], want, "tile ({i},{j})");
            }
        }
    }

    #[test]
    fn block_results_match_full_results_bitwise() {
        // The determinism contract: computing a sub-rectangle of C yields
        // the same bits as the corresponding part of the full product.
        let a = pseudo_matrix(70, 300, 1);
        let b = pseudo_matrix(300, 90, 2);
        let mut full = Matrix::zeros(70, 90);
        gemm_blocked(1.0, a.as_ref(), b.as_ref(), &mut full.as_mut());
        let (r0, c0, mb, nb) = (20, 30, 40, 50);
        let mut part = Matrix::zeros(mb, nb);
        gemm_blocked(
            1.0,
            a.as_ref().submatrix(r0, 0, mb, 300),
            b.as_ref().submatrix(0, c0, 300, nb),
            &mut part.as_mut(),
        );
        for j in 0..nb {
            for i in 0..mb {
                assert_eq!(part[(i, j)], full[(r0 + i, c0 + j)]);
            }
        }
    }

    #[test]
    fn prepacked_matches_blocked_bitwise() {
        let a = pseudo_matrix(130, 270, 3);
        let b = pseudo_matrix(270, 60, 4);
        let mut plain = Matrix::zeros(130, 60);
        gemm_blocked(1.5, a.as_ref(), b.as_ref(), &mut plain.as_mut());
        let packed = PackedA::new(a.as_ref());
        let mut pre = Matrix::zeros(130, 60);
        gemm_prepacked(1.5, &packed, b.as_ref(), &mut pre.as_mut());
        assert_eq!(plain.data(), pre.data());
    }

    /// Both packers on one `rows × cols` block seen through a
    /// column-contiguous, a row-contiguous and a doubly-strided view, into
    /// panels `depth` deep at offset `l0`: every arm must store exactly what
    /// `get` reads, zero the padding, and leave the rest of the buffer alone.
    fn check_packers<S: Scalar, T: Scalar>() {
        const UNTOUCHED: f64 = 7.0;
        fn check<S: Scalar, T: Scalar>(a: MatRef<'_, S>, w: usize, pack: fn(MatRef<'_, S>, &mut [T], usize, usize)) {
            let (mb, kb) = (a.rows(), a.cols());
            for (depth, l0) in [(kb, 0), (kb + 5, 3)] {
                let mut buf = vec![T::from_f64(UNTOUCHED); mb.div_ceil(w) * w * depth + 9];
                pack(a, &mut buf, depth, l0);
                for (at, &got) in buf.iter().enumerate() {
                    let (ip, l, i) = (at / (w * depth), at % (w * depth) / w, at % w);
                    let want = if ip >= mb.div_ceil(w) || l < l0 || l >= l0 + kb {
                        T::from_f64(UNTOUCHED)
                    } else if ip * w + i < mb {
                        T::from_f64(a.get(ip * w + i, l - l0).to_f64())
                    } else {
                        T::ZERO
                    };
                    assert_eq!(got.to_f64().to_bits(), want.to_f64().to_bits(), "{mb}x{kb} w={w} at {at}");
                }
            }
        }
        for kb in [1usize, 20, 256] {
            for rows in [1, T::MR - 1, T::MR, 2 * T::MR + 3, T::NR + 1, 3 * T::NR] {
                let draw = |i: usize, j: usize| S::from_f64(((i * 31 + j * 7) as f64 * 0.113).sin());
                let cm = Matrix::<S>::from_fn(rows, kb, draw);
                let rm = Matrix::<S>::from_fn(kb, rows, |j, i| draw(i, j));
                let wide = Matrix::<S>::from_fn(2 * rows + 1, 3 * kb, |i, j| draw(i / 2, j / 3));
                let window = MatRef::strided(wide.data(), rows, kb, 2, 3 * wide.rows());
                for a in [cm.as_ref(), rm.as_ref().t(), window] {
                    // The same block as an A operand and, transposed, as a B operand.
                    check::<S, T>(a, T::MR, pack_a);
                    check::<S, T>(a, T::NR, |b, buf, depth, l0| pack_b(b.t(), buf, depth, l0));
                }
            }
        }
    }

    #[test]
    fn every_packer_arm_stores_what_get_reads() {
        check_packers::<f64, f64>();
        check_packers::<f32, f32>();
        check_packers::<f32, f64>();
    }

    #[test]
    fn packing_handles_transposed_and_strided_views() {
        let a = pseudo_matrix(33, 21, 5);
        let at = a.as_ref().t(); // 21x33, row-contiguous
        let b = pseudo_matrix(21, 13, 6);
        let bt_src = pseudo_matrix(13, 21, 7);
        let bt = bt_src.as_ref().t(); // 21x13, col stride 1 per row
        let mut c1 = Matrix::zeros(33, 13);
        gemm_blocked(1.0, a.as_ref(), b.as_ref(), &mut c1.as_mut());
        let mut c2 = Matrix::zeros(33, 13);
        gemm_blocked(1.0, at.t(), bt, &mut c2.as_mut());
        // Same A either way; different B values — just check shapes and that
        // the strided-B path produced finite, nonzero output.
        assert!(c2.data().iter().all(|v| v.is_finite()));
        assert!(c1.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn batch_matches_solo_calls_bitwise() {
        let a = pseudo_matrix(90, 140, 8);
        let packed = PackedA::new(a.as_ref());
        let bs: Vec<Matrix<f64>> = (0..7).map(|s| pseudo_matrix(140, 10 + s, 20 + s as u64)).collect();
        let mut solo: Vec<Matrix<f64>> = bs.iter().map(|b| Matrix::zeros(90, b.cols())).collect();
        for (b, c) in bs.iter().zip(&mut solo) {
            gemm_prepacked(1.0, &packed, b.as_ref(), &mut c.as_mut());
        }
        let mut batched: Vec<Matrix<f64>> = bs.iter().map(|b| Matrix::zeros(90, b.cols())).collect();
        {
            let mut jobs: Vec<_> =
                bs.iter().zip(&mut batched).map(|(b, c)| (b.as_ref(), c.as_mut())).collect();
            gemm_prepacked_batch(1.0, &packed, &mut jobs);
        }
        for (s, b) in solo.iter().zip(&batched) {
            assert_eq!(s.data(), b.data());
        }
    }

    #[test]
    fn empty_operands_are_noops() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(5, 3);
        let mut c = Matrix::<f64>::zeros(0, 3);
        gemm_blocked(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
        let packed = PackedA::<f64>::new(a.as_ref());
        gemm_prepacked(1.0, &packed, b.as_ref(), &mut c.as_mut());
    }
}
