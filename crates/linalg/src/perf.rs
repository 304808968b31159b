//! Thread-local kernel performance collector (DESIGN.md §11).
//!
//! The simulated MPI runtime cannot observe what happens inside the linalg
//! kernels (and this crate must not depend on `tucker-mpisim`), so the
//! instrumentation is inverted: each top-level kernel entry point
//! ([`crate::gemm::gemm`], and so [`crate::gemm::gemm_into`],
//! [`crate::syrk::syrk_lower`], [`crate::qr::geqrf`],
//! [`crate::tslq::tslq_blocks`] — and so [`crate::lq::lq_factor`] —
//! [`crate::tplqt::tplqt`], and the tensor crate's `ttm`, one `"ttm"` frame
//! of `2·R·I_n·cols` flops per call, every mode) reports into a
//! *thread-local* collector, and the caller that owns a rank thread (e.g.
//! `tucker-core`'s ST-HOSVD driver) calls [`enable`] before the computation
//! and [`drain`] after, folding the totals into its own metrics registry.
//!
//! Attribution rules:
//!
//! * **Depth guard** — nested kernel calls (`tslq_blocks` → `tplqt` →
//!   `gemm`) record only at the outermost instrumented frame, so one
//!   logical kernel invocation is one record.
//! * **Thread locality** — a parallel call's items run on the calling thread
//!   and on pool workers. The items the caller drains itself run inside its
//!   outermost frame, so the depth guard drops their nested records; the
//!   workers never enable a collector, so theirs go nowhere. Either way the
//!   outermost frame records the full logical call once, whichever thread
//!   ran which item — which holds because every item body that reaches an
//!   instrumented kernel does so under such a frame (the leaves of
//!   `tslq_blocks`); the column panels of a `gemm`, the pieces of a TTM and
//!   the items of a column-panel SYRK call uninstrumented bodies.
//! * **Zero cost when disabled** — the fast path is a single thread-local
//!   `Option` check; no map is touched.
//!
//! Every total is a deterministic model count — no clock is read here.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Accumulated totals for one kernel call site.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelStat {
    /// Outermost invocations recorded.
    pub calls: u64,
    /// Useful floating-point operations (model counts, not hardware ops).
    pub flops: u64,
    /// Bytes of packed-slab scratch traffic (zero for kernels that do not
    /// pack).
    pub pack_bytes: u64,
}

struct Collector {
    stats: BTreeMap<&'static str, KernelStat>,
    depth: u32,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Start collecting on the current thread, discarding any previous totals.
pub fn enable() {
    COLLECTOR
        .with(|c| *c.borrow_mut() = Some(Collector { stats: BTreeMap::new(), depth: 0 }));
}

/// Whether the current thread is collecting.
pub fn is_enabled() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Stop collecting on the current thread and return the per-site totals
/// (`None` if [`enable`] was never called).
pub fn drain() -> Option<BTreeMap<&'static str, KernelStat>> {
    COLLECTOR.with(|c| c.borrow_mut().take().map(|col| col.stats))
}

/// Run `f`, attributing `flops` and `pack_bytes` to `site` when this is the
/// outermost instrumented frame on a collecting thread. See the module docs
/// for the attribution rules. Public for the kernels of the crates above
/// this one (the TTM).
pub fn with_kernel<R>(
    site: &'static str,
    flops: u64,
    pack_bytes: u64,
    f: impl FnOnce() -> R,
) -> R {
    let outermost = COLLECTOR.with(|c| {
        c.borrow_mut().as_mut().map(|col| {
            col.depth += 1;
            col.depth == 1
        })
    });
    let Some(outermost) = outermost else { return f() };
    let out = f();
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.depth -= 1;
            if outermost {
                let e = col.stats.entry(site).or_default();
                e.calls += 1;
                e.flops += flops;
                e.pack_bytes += pack_bytes;
            }
        }
    });
    out
}

/// Packed-slab scratch footprint of one serial GEMM call with the blocking
/// parameters of [`crate::kernel`]: one A slab (`MC×KC`, rows rounded to
/// `MR`) plus one B slab (`KC×NC`, columns rounded to `NR`), clamped to the
/// actual problem size.
pub(crate) fn gemm_pack_bytes<T: crate::scalar::Scalar>(m: usize, k: usize, n: usize) -> u64 {
    let ru = |x: usize, g: usize| x.div_ceil(g.max(1)) * g.max(1);
    let kc = crate::kernel::KC.min(k);
    let a_slab = ru(crate::kernel::MC.min(m), T::MR) * kc;
    let b_slab = kc * ru(crate::kernel::NC.min(n), T::NR);
    ((a_slab + b_slab) * std::mem::size_of::<T>()) as u64
}

/// Packed-slab scratch footprint of one [`crate::syrk::syrk_lower_panels`]
/// call on `m` rows and `n` columns: one `KC`-deep slab packed once as
/// `MR`-row panels, which the square tile reads as both operands.
pub(crate) fn syrk_pack_bytes<T: crate::scalar::Scalar>(m: usize, n: usize) -> u64 {
    use crate::kernel::{round_up, KC};
    (round_up(m, T::MR) * KC.min(n) * std::mem::size_of::<T>()) as u64
}

/// Householder LQ flop count for an `m x n` factorization (LAPACK-style
/// leading terms: `2nm² − ⅔m³` short-fat, `2mn² − ⅔n³` tall). The one copy
/// of the formula: the perf frames here, `tucker-dtensor`'s cost-model
/// charge and `tucker-core`'s `--model-check` all count with it.
pub fn lq_flops(m: f64, n: f64) -> f64 {
    if n >= m {
        2.0 * m * m * n - 2.0 / 3.0 * m * m * m
    } else {
        2.0 * n * n * m - 2.0 / 3.0 * n * n * n
    }
}

/// Heuristic flop count of the redundant SVD of an `m x m` matrix — QR-SVD's
/// triangle, Gram-SVD's Gram matrix, the randomized driver's projected `k x k`
/// Gram (bidiagonalization + accumulation + QR sweeps ≈ 12·m³). The one copy:
/// `tucker-core`'s charges, model and `--model-check` and `tucker-dtensor`'s
/// sketch charge all count with it.
pub fn svd_flops(m: usize) -> f64 {
    thin_svd_flops(m, m)
}

/// Heuristic flop count of the SVD of a tall `m x n` (`m ≥ n`) matrix with
/// its `m x n` left singular vectors — QR-SVD's thin path on a tall
/// unfolding: `12·m·n²`, the square count scaled by the rows. The one copy:
/// the dense and distributed charges, the model and `--model-check` count
/// with it.
pub fn thin_svd_flops(m: usize, n: usize) -> f64 {
    12.0 * m as f64 * (n as f64).powi(2)
}

/// Householder QR flop count for an `m x n` factorization: the LQ count of
/// its transpose.
pub(crate) fn qr_flops(m: usize, n: usize) -> u64 {
    lq_flops(n as f64, m as f64) as u64
}

/// Golub–Kahan bidiagonalization flop count for an `m x n` (`m ≥ n`)
/// reduction (leading terms: `4mn² − 4n³/3`, the `gebrd` model).
pub(crate) fn bidiag_flops(m: usize, n: usize) -> u64 {
    let (m, n) = (m as f64, n as f64);
    (4.0 * m * n * n - 4.0 / 3.0 * n * n * n).max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, matmul, Trans};
    use crate::lq::lq_factor;
    use crate::matrix::Matrix;
    use crate::syrk::syrk_lower;
    use crate::tslq::{tslq_blocks, TslqOptions, PANEL_COLS};

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn disabled_records_nothing() {
        assert!(!is_enabled());
        let _ = matmul(&pseudo(4, 4, 1), &pseudo(4, 4, 2));
        assert!(drain().is_none());
    }

    #[test]
    fn gemm_records_once_with_model_flops() {
        enable();
        let _ = matmul(&pseudo(7, 5, 1), &pseudo(5, 9, 2));
        let stats = drain().expect("enabled");
        let g = stats["gemm"];
        assert_eq!(g.calls, 1, "gemm_into is one gemm frame");
        assert_eq!(g.flops, 2 * 7 * 5 * 9);
        assert!(g.pack_bytes > 0);
        assert!(drain().is_none(), "drain disables the collector");
    }

    #[test]
    fn lq_shadows_its_inner_qr() {
        enable();
        // One logical LQ is one frame: the flat tree's `tplqt` steps (6 x
        // 3000 is three panels) nest under it, and so do the fold's
        // `gemm` products (300 rows cross their pool split's line).
        let _ = lq_factor(pseudo(6, 3000, 3).as_ref());
        let _ = lq_factor(pseudo(300, 1024, 4).as_ref());
        let stats = drain().expect("enabled");
        assert_eq!(stats["lq"].calls, 2);
        assert_eq!(stats["lq"].flops, qr_flops(3000, 6) + qr_flops(1024, 300));
        assert_eq!(stats.len(), 1, "nested frames attributed elsewhere: {stats:?}");
    }

    #[test]
    fn flat_tree_lq_counts_its_tplqt_steps() {
        enable();
        // A block sequence is one logical LQ whatever its tree: three
        // groups of `PANEL_COLS` columns (256 blocks each) and a short one
        // are one leaf, seventeen groups are two leaves and a pair merge.
        // Either way the `tplqt` steps nest under one frame that carries
        // the model count of the whole matrix — the same count at any pool
        // size, since the leaves a worker folds record nothing.
        let (one, two) = (8 + 3 * PANEL_COLS, 8 + 16 * PANEL_COLS);
        for cols in [one, two] {
            let a = pseudo(8, cols, 9);
            let _ = tslq_blocks(8, a.as_ref().col_panels(4), TslqOptions);
        }
        let stats = drain().expect("enabled");
        assert_eq!(stats["lq"].calls, 2);
        assert_eq!(stats["lq"].flops, qr_flops(one, 8) + qr_flops(two, 8));
        assert_eq!(stats.len(), 1, "nested frames attributed elsewhere: {stats:?}");
    }

    #[test]
    fn syrk_and_parallel_gemm_count_the_logical_call() {
        enable();
        let a = pseudo(8, 600, 4);
        let _ = syrk_lower(a.as_ref());
        // Large enough for gemm's pool split: the panels run the
        // uninstrumented engine on this thread and the workers, and the
        // top-level call records exactly once.
        let b = pseudo(600, 2000, 5);
        let big = pseudo(200, 600, 6);
        let _ = gemm_into(big.as_ref(), Trans::No, b.as_ref(), Trans::No);
        let stats = drain().expect("enabled");
        assert_eq!(stats["syrk"].calls, 1);
        assert_eq!(stats["syrk"].flops, 8 * 8 * 600);
        assert_eq!(stats["gemm"].calls, 1);
        assert_eq!(stats["gemm"].flops, 2 * 200 * 600 * 2000);
    }

    #[test]
    fn enable_resets_totals() {
        enable();
        let _ = matmul(&pseudo(3, 3, 7), &pseudo(3, 3, 8));
        enable();
        let _ = matmul(&pseudo(3, 3, 7), &pseudo(3, 3, 8));
        let stats = drain().expect("enabled");
        assert_eq!(stats["gemm"].calls, 1);
    }
}
