//! Stand-alone phase timer: what each pass of one ST-HOSVD costs on its own.
//!
//! ```sh
//! cargo run --release --example phase_probe
//! ```
//!
//! On the benchmark's HCCI surrogate (48×48×33×48, tolerance 1e-4) and its
//! successive truncations: the input norm, a copy of the tensor, and per
//! mode the Gram, the LQ and the truncating TTM through the public entry
//! points the drivers call — `f64` and `f32`, best of 7, milliseconds. This
//! is the command behind the phase table in EXPERIMENTS.md ("Thin operands
//! at the engine's rate"); the model flop counts beside the times are
//! `I_n²·cols` (Gram), `2·I_n²·cols` (LQ) and `2·R_n·I_n·cols` (TTM).
//!
//! The Gram, the LQ and the TTM are timed twice: at one task and at the
//! pool's size, with their ratio. A mode of 16 or more 1024-column groups is
//! cut into leaves on the pool by the Gram and the LQ, and the TTM splits
//! its output over the pool, so the ratio shows what each mode gains from
//! the second task — and, on a host whose second core comes and goes,
//! whether it was there. The TTM line ends with its one-task time over the
//! Gram's: both stream the same operand once, at `2·R_n` flops per entry
//! against the Gram's `I_n` — no more on these modes — so the ratio reads
//! at most 1 when the TTM runs at the SYRK's rate. The
//! Gram (at the pool) and the TTM (at one task)
//! also print the rate at which they read their operand, to hold against
//! the memory roof of the first line: `f64` sum,
//! copy and triad streams over four times the last-level cache (read from
//! sysfs, 32 MiB if that fails), at one task and at the pool's size.
//!
//! The next lines time `lq_factor` on the tall `f64` triangles of
//! `stream_append`'s full refresh under forward order, 456 × 4096 and
//! 512 × 4096 column-major, at one task and at the pool's size. The last
//! two time that refresh's compress itself — `sthosvd` on [456, 64, 64],
//! ranks 12³, QR — under `ModeOrder::Forward` and under the cost-model
//! order (`ModeOrder::Auto`, the fixed-rank default), which processes the
//! time mode last and factors its 456 × 144 unfolding thin.

use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use tucker_rs::core::svd_driver::{gram_of_unfolding, lq_of_unfolding};
use tucker_rs::core::{sthosvd, ModeOrder, SthosvdConfig, SvdMethod};
use tucker_rs::data::hcci_surrogate;
use tucker_rs::linalg::lq::lq_factor;
use tucker_rs::linalg::{Matrix, Scalar};
use tucker_rs::tensor::{ttm, Tensor};

/// Best of 7 runs of `f`, in milliseconds.
fn best_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..7)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// `f` with this thread's pool budget capped at `tasks`.
fn at_tasks<R>(tasks: usize, f: impl FnOnce() -> R) -> R {
    let prev = rayon::current_thread_limit();
    rayon::set_current_thread_limit(Some(tasks));
    let out = f();
    rayon::set_current_thread_limit(prev);
    out
}

/// Bytes of the largest CPU cache sysfs lists, or 32 MiB.
fn last_level_cache_bytes() -> usize {
    let size = |dir: std::fs::DirEntry| -> Option<usize> {
        let text = std::fs::read_to_string(dir.path().join("size")).ok()?;
        let text = text.trim();
        let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len()));
        let shift = match unit {
            "K" => 10,
            "M" => 20,
            "" => 0,
            _ => return None,
        };
        Some(digits.parse::<usize>().ok()? << shift)
    };
    std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache")
        .ok()
        .and_then(|dirs| dirs.flatten().filter_map(size).max())
        .unwrap_or(32 << 20)
}

/// `Σ x` in 32 lanes, so the adds are four vectors of independent chains
/// and the loop is bound by the loads, not by the add latency.
fn lane_sum(x: &[f64]) -> f64 {
    let mut lanes = [0.0; 32];
    let chunks = x.chunks_exact(32);
    let tail: f64 = chunks.remainder().iter().sum();
    for chunk in chunks {
        for (l, v) in lanes.iter_mut().zip(chunk) {
            *l += v;
        }
    }
    lanes.iter().sum::<f64>() + tail
}

/// Sum, copy and triad over `f64` arrays of four times the last-level
/// cache each, in one contiguous piece per task, best of 7, as GB/s of the
/// bytes each stream reads and writes.
fn memory_roof() {
    let len = 4 * last_level_cache_bytes() / 8;
    let (mut a, b, c) = (vec![1.0f64; len], vec![2.0f64; len], vec![0.5f64; len]);
    let pool = rayon::current_num_threads();
    let piece = len.div_ceil(pool);
    let mut line = format!("memory roof ({} MiB arrays):", (len * 8) >> 20);
    for tasks in [1, pool] {
        let gbs = |bytes: usize, ms: f64| bytes as f64 / ms * 1e-6;
        let mut partial = vec![0.0; pool];
        let sum = at_tasks(tasks, || {
            best_ms(|| {
                partial.par_chunks_mut(1).zip(b.par_chunks(piece)).for_each(|(s, x)| s[0] = lane_sum(x));
            })
        });
        let copy = at_tasks(tasks, || {
            best_ms(|| a.par_chunks_mut(piece).zip(b.par_chunks(piece)).for_each(|(dst, src)| dst.copy_from_slice(src)))
        });
        let triad = at_tasks(tasks, || {
            best_ms(|| {
                a.par_chunks_mut(piece).zip(b.par_chunks(piece).zip(c.par_chunks(piece))).for_each(|(dst, (x, y))| {
                    for ((d, &x), &y) in dst.iter_mut().zip(x).zip(y) {
                        *d = x + 0.25 * y;
                    }
                })
            })
        });
        line += &format!(
            "  at {tasks}: sum {:.1} / copy {:.1} / triad {:.1} GB/s",
            gbs(8 * len, sum),
            gbs(16 * len, copy),
            gbs(24 * len, triad)
        );
    }
    println!("{line}");
}

fn probe<T: Scalar>(x64: &Tensor<f64>) {
    let x: Tensor<T> = x64.cast();
    let cfg = SthosvdConfig::with_tolerance(1e-4).method(SvdMethod::Qr);
    let tk = sthosvd(&x, &cfg).expect("ST-HOSVD failed");
    println!("{} precision, dims {:?} -> ranks {:?}", T::PRECISION_NAME, x.dims(), tk.core.dims());
    println!("  {:<8} {:>9.2} ms", "norm", best_ms(|| x.norm()));
    println!("  {:<8} {:>9.2} ms", "clone", best_ms(|| x.clone()));
    let pool = rayon::current_num_threads();
    let mut y = x;
    for (n, u) in tk.factors.iter().enumerate() {
        let (rows, cols) = (y.dims()[n], y.len() / y.dims()[n]);
        let gflop = |per_col: usize, ms: f64| (per_col * cols) as f64 / ms * 1e-6;
        let gram_one = at_tasks(1, || best_ms(|| gram_of_unfolding(&y, n)));
        let gram = best_ms(|| gram_of_unfolding(&y, n));
        let lq_one = at_tasks(1, || best_ms(|| lq_of_unfolding(&y, n, cfg.tslq)));
        let lq = best_ms(|| lq_of_unfolding(&y, n, cfg.tslq));
        let apply_one = at_tasks(1, || best_ms(|| ttm(&y, n, u.as_ref(), true)));
        let apply = best_ms(|| ttm(&y, n, u.as_ref(), true));
        let reads = |ms: f64| (rows * cols * T::BYTES) as f64 / ms * 1e-6;
        println!(
            "  mode {n} ({rows:>2} x {cols:>6} -> {:>2}): Gram {gram_one:>6.2} ms at 1 / {gram:>6.2} ms at {pool} \
             ({:>4.2}x, {:>4.1} GF/s, reads {:>4.1} GB/s)",
            u.cols(),
            gram_one / gram,
            gflop(rows * rows, gram),
            reads(gram),
        );
        println!(
            "  {:>26}  LQ   {lq_one:>6.2} ms at 1 / {lq:>6.2} ms at {pool} ({:>4.2}x, {:>4.1} GF/s)",
            "",
            lq_one / lq,
            gflop(2 * rows * rows, lq),
        );
        println!(
            "  {:>26}  TTM  {apply_one:>6.2} ms at 1 / {apply:>6.2} ms at {pool} \
             ({:>4.2}x, {:>4.1} GF/s, reads {:>4.1} GB/s at 1; TTM / Gram at 1: {:>4.2})",
            "",
            apply_one / apply,
            gflop(2 * u.cols() * rows, apply),
            reads(apply_one),
            apply_one / gram_one,
        );
        y = ttm(&y, n, u.as_ref(), true);
    }
}

/// `lq_factor` of a column-major `m × 4096` `f64` matrix, the shape of
/// the tall triangles `stream_append`'s full refresh factors.
fn tall_lq() {
    let pool = rayon::current_num_threads();
    for m in [456, 512] {
        let a = Matrix::<f64>::from_fn(m, 4096, |i, j| ((i * 4096 + j) as f64 * 0.618).sin());
        let one = at_tasks(1, || best_ms(|| lq_factor(a.as_ref())));
        let all = best_ms(|| lq_factor(a.as_ref()));
        println!("double LQ {m} x 4096: {one:>7.2} ms at 1 / {all:>7.2} ms at {pool} ({:>4.2}x)", one / all);
    }
}

/// `stream_append`'s Full recompute — [456, 64, 64] to ranks 12³, QR,
/// `f64` — under forward order and under the cost-model order.
fn stream_full() {
    let x = Tensor::<f64>::from_fn(&[456, 64, 64], |i| {
        ((i[0] * 4096 + i[1] * 64 + i[2]) as f64 * 0.618).sin()
    });
    for order in [ModeOrder::Forward, ModeOrder::Auto] {
        let cfg = SthosvdConfig::with_ranks(vec![12; 3]).order(order);
        let resolved = cfg.resolved_order(x.dims(), 8).expect("valid config");
        let ms = best_ms(|| sthosvd(&x, &cfg).expect("compress"));
        println!("double compress [456, 64, 64] -> 12^3, order {resolved:?}: {ms:>7.2} ms");
    }
}

fn main() {
    memory_roof();
    let x = hcci_surrogate::<f64>(&[48, 48, 33, 48], 7);
    probe::<f64>(&x);
    probe::<f32>(&x);
    tall_lq();
    stream_full();
}
