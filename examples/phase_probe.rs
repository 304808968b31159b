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

use std::hint::black_box;
use std::time::Instant;
use tucker_rs::core::svd_driver::{gram_of_unfolding, lq_of_unfolding};
use tucker_rs::core::{sthosvd, SthosvdConfig, SvdMethod};
use tucker_rs::data::hcci_surrogate;
use tucker_rs::linalg::Scalar;
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

fn probe<T: Scalar>(x64: &Tensor<f64>) {
    let x: Tensor<T> = x64.cast();
    let cfg = SthosvdConfig::with_tolerance(1e-4).method(SvdMethod::Qr);
    let tk = sthosvd(&x, &cfg).expect("ST-HOSVD failed");
    println!("{} precision, dims {:?} -> ranks {:?}", T::PRECISION_NAME, x.dims(), tk.core.dims());
    println!("  {:<8} {:>9.2} ms", "norm", best_ms(|| x.norm()));
    println!("  {:<8} {:>9.2} ms", "clone", best_ms(|| x.clone()));
    let mut y = x;
    for (n, u) in tk.factors.iter().enumerate() {
        let (rows, cols) = (y.dims()[n], y.len() / y.dims()[n]);
        let gflop = |per_col: usize, ms: f64| (per_col * cols) as f64 / ms * 1e-6;
        let gram = best_ms(|| gram_of_unfolding(&y, n));
        let lq = best_ms(|| lq_of_unfolding(&y, n, cfg.tslq));
        let apply = best_ms(|| ttm(&y, n, u.as_ref(), true));
        println!(
            "  mode {n} ({rows:>2} x {cols:>6} -> {:>2}): Gram {gram:>6.2} ms ({:>4.1} GF/s)  \
             LQ {lq:>6.2} ms ({:>4.1} GF/s)  TTM {apply:>6.2} ms ({:>4.1} GF/s)",
            u.cols(),
            gflop(rows * rows, gram),
            gflop(2 * rows * rows, lq),
            gflop(2 * u.cols() * rows, apply),
        );
        y = ttm(&y, n, u.as_ref(), true);
    }
}

fn main() {
    let x = hcci_surrogate::<f64>(&[48, 48, 33, 48], 7);
    probe::<f64>(&x);
    probe::<f32>(&x);
}
