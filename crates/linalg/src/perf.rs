//! Thread-local kernel performance collector (DESIGN.md §11).
//!
//! The simulated MPI runtime cannot observe what happens inside the linalg
//! kernels (and this crate must not depend on `tucker-mpisim`), so the
//! instrumentation is inverted: each top-level kernel entry point
//! ([`crate::gemm::gemm`], [`crate::gemm::gemm_into`],
//! [`crate::syrk::syrk_lower`], [`crate::qr::geqrf`], [`crate::lq::lq_factor`],
//! [`crate::tplqt::tplqt`] and the blocked QR driver) reports into a
//! *thread-local* collector, and the caller that owns a rank thread (e.g.
//! `tucker-core`'s ST-HOSVD driver) calls [`enable`] before the computation
//! and [`drain`] after, folding the totals into its own metrics registry.
//!
//! Attribution rules:
//!
//! * **Depth guard** — nested kernel calls (`lq_factor` → `tplqt`,
//!   `gemm_into` → `gemm`, blocked QR panels) record only at the outermost
//!   instrumented frame, so one logical kernel invocation is one record.
//! * **Thread locality** — work dispatched to rayon workers is invisible to
//!   the collector (the workers' thread-locals are disabled); the outermost
//!   frame on the owning thread still records the full logical call, so
//!   nothing is double-counted.
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
/// for the attribution rules.
pub(crate) fn with_kernel<R>(
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
/// call on `m` rows and `n` columns: one `KC`-deep slab held twice, as
/// `MR`-row panels and as `NR`-column panels of the transpose.
pub(crate) fn syrk_pack_bytes<T: crate::scalar::Scalar>(m: usize, n: usize) -> u64 {
    use crate::kernel::{round_up, KC};
    ((round_up(m, T::MR) + round_up(m, T::NR)) * KC.min(n) * std::mem::size_of::<T>()) as u64
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
        assert_eq!(g.calls, 1, "gemm_into's nested serial gemm must not double-count");
        assert_eq!(g.flops, 2 * 7 * 5 * 9);
        assert!(g.pack_bytes > 0);
        assert!(drain().is_none(), "drain disables the collector");
    }

    #[test]
    fn lq_shadows_its_inner_qr() {
        enable();
        // One logical LQ is one frame on either kernel: the flat tree's
        // head and `tplqt` steps (6 x 3000 is three panels) nest under it,
        // and so does compact-WY's inner QR (70 rows).
        let _ = lq_factor(pseudo(6, 3000, 3).as_ref());
        let _ = lq_factor(pseudo(70, 90, 4).as_ref());
        let stats = drain().expect("enabled");
        assert_eq!(stats["lq"].calls, 2);
        assert_eq!(stats["lq"].flops, qr_flops(3000, 6) + qr_flops(90, 70));
        assert!(!stats.contains_key("qr"), "nested geqrf attributed to the lq site");
    }

    #[test]
    fn flat_tree_lq_counts_its_tplqt_steps() {
        enable();
        let cols = 8 + 3 * PANEL_COLS;
        let a = pseudo(8, cols, 9);
        let _ = tslq_blocks(8, a.as_ref().col_panels(4), TslqOptions::default());
        let stats = drain().expect("enabled");
        // The 8-column head, then one `tplqt` per group of `PANEL_COLS`
        // columns (256 blocks each): together the model count of one LQ of
        // the whole matrix.
        assert_eq!(stats["lq"].calls, 1 + 3);
        let (got, want) = (stats["lq"].flops as f64, qr_flops(cols, 8) as f64);
        assert!((got - want).abs() <= 0.05 * want, "lq flops {got} vs model {want}");
    }

    #[test]
    fn syrk_and_parallel_gemm_count_the_logical_call() {
        enable();
        let a = pseudo(8, 600, 4);
        let _ = syrk_lower(a.as_ref());
        // Large enough for gemm_into's parallel path: the rayon workers are
        // invisible, the top-level call still records exactly once.
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
