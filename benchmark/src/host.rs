//! What the benchmark measures about the machine it runs on: core count,
//! CPU model, peak resident memory, a scalar spin loop that shows when the
//! host itself got slower during a run, and an FMA-throughput probe that
//! gives the kernels' rates something to be a fraction of.

use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Threads every workload runs its kernels on (`RAYON_NUM_THREADS`).
pub const THREADS: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of `program --version`-style output, or "unknown".
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Milliseconds one thread takes for `iters` rounds of a dependent integer
/// chain. It touches no memory and cannot be parallelised, so it moves only
/// when the host's clock or scheduling does.
fn spin_ms(iters: u32) -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The noise guard's reading: a long spin, best of three.
pub fn calib_ms() -> f64 {
    (0..3)
        .map(|_| spin_ms(12_000_000))
        .fold(f64::INFINITY, f64::min)
}

/// Rounds of one pace sample (about 2 ms), and what they take on the
/// reference host (the 2-vCPU Xeon of README.md) at its usual speed.
const PACE_ITERS: u32 = 1_000_000;
const PACE_REFERENCE_MS: f64 = 2.05;

static PACE_SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Take one sample of the host's pace. Workloads call this between timed
/// operations, never inside one.
pub fn pace_sample() {
    let ms = spin_ms(PACE_ITERS);
    PACE_SAMPLES
        .lock()
        .expect("no thread panics while sampling")
        .push(ms);
}

/// The host's pace over this process's life: the median sample over the
/// reference, with the number of samples. Above 1 the host ran slower than
/// the reference and every wall time measured here is longer by about that
/// factor: a virtual machine's clock wanders by 10 to 15% over tens of
/// seconds, which is more than most bounds allow, and this is how the
/// benchmark takes that out again.
pub fn pace() -> (f64, usize) {
    let samples = PACE_SAMPLES
        .lock()
        .expect("no thread panics while sampling");
    if samples.is_empty() {
        return (1.0, 0);
    }
    (
        crate::stats::median(&samples) / PACE_REFERENCE_MS,
        samples.len(),
    )
}

/// Result of the FMA probe.
#[derive(Clone, Debug)]
pub struct Peak {
    pub isa: &'static str,
    pub gflops_f64: f64,
    pub gflops_f32: f64,
}

impl Peak {
    pub fn gflops(&self, scalar_bytes: usize) -> f64 {
        if scalar_bytes == 4 {
            self.gflops_f32
        } else {
            self.gflops_f64
        }
    }
}

/// Independent accumulators per thread: enough to cover FMA latency (4 to 5
/// cycles) on two ports, few enough to stay in registers on AVX2.
const ACCS: usize = 12;

#[cfg(target_arch = "x86_64")]
macro_rules! fma_kernel {
    ($name:ident, $feature:literal, $lanes:expr, $scalar:ty, $set1:ident, $fmadd:ident, $storeu:ident) => {
        /// Returns the flops done and a value that depends on all of them.
        ///
        /// # Safety
        /// The CPU must support the target feature this is compiled for.
        #[target_feature(enable = $feature)]
        unsafe fn $name(iters: u64) -> (f64, f64) {
            use std::arch::x86_64::*;
            // acc ← acc·a + b converges to b/(1−a) = 1: no overflow, no denormals.
            let a = $set1(0.75);
            let b = $set1(0.25);
            let mut acc = [$set1(0.5); ACCS];
            for _ in 0..iters {
                for v in acc.iter_mut() {
                    *v = $fmadd(*v, a, b);
                }
            }
            let mut sum = 0.0f64;
            for v in acc {
                let mut out = [0.0 as $scalar; $lanes];
                // SAFETY: `out` holds exactly one vector of `$lanes` scalars
                // and the store is the unaligned one.
                unsafe { $storeu(out.as_mut_ptr(), v) };
                sum += out.iter().map(|&x| x as f64).sum::<f64>();
            }
            ((iters as usize * ACCS * $lanes * 2) as f64, sum)
        }
    };
}

#[cfg(target_arch = "x86_64")]
fma_kernel!(
    fma_avx512_f64,
    "avx512f",
    8,
    f64,
    _mm512_set1_pd,
    _mm512_fmadd_pd,
    _mm512_storeu_pd
);
#[cfg(target_arch = "x86_64")]
fma_kernel!(
    fma_avx512_f32,
    "avx512f",
    16,
    f32,
    _mm512_set1_ps,
    _mm512_fmadd_ps,
    _mm512_storeu_ps
);
#[cfg(target_arch = "x86_64")]
fma_kernel!(
    fma_avx2_f64,
    "avx2,fma",
    4,
    f64,
    _mm256_set1_pd,
    _mm256_fmadd_pd,
    _mm256_storeu_pd
);
#[cfg(target_arch = "x86_64")]
fma_kernel!(
    fma_avx2_f32,
    "avx2,fma",
    8,
    f32,
    _mm256_set1_ps,
    _mm256_fmadd_ps,
    _mm256_storeu_ps
);

macro_rules! fma_scalar {
    ($name:ident, $scalar:ty) => {
        fn $name(iters: u64) -> (f64, f64) {
            let (a, b): ($scalar, $scalar) = (black_box(0.75), black_box(0.25));
            let mut acc = [0.5 as $scalar; ACCS];
            for _ in 0..iters {
                for v in acc.iter_mut() {
                    *v = *v * a + b;
                }
            }
            (
                (iters as usize * ACCS * 2) as f64,
                acc.iter().map(|&x| x as f64).sum(),
            )
        }
    };
}
fma_scalar!(fma_scalar_f64, f64);
fma_scalar!(fma_scalar_f32, f32);

type Kernel = fn(u64) -> (f64, f64);

/// The widest FMA kernels this CPU can run, with the ISA's name.
fn widest_kernels() -> (&'static str, Kernel, Kernel) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was detected on this CPU just above.
            return (
                "avx512f",
                |n| unsafe { fma_avx512_f64(n) },
                |n| unsafe { fma_avx512_f32(n) },
            );
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: avx2 and fma were detected on this CPU just above.
            return (
                "avx2+fma",
                |n| unsafe { fma_avx2_f64(n) },
                |n| unsafe { fma_avx2_f32(n) },
            );
        }
    }
    ("scalar", fma_scalar_f64, fma_scalar_f32)
}

/// GFLOP/s of `kernel` on [`THREADS`] threads started together: all flops
/// over the slowest thread's time. Best of five rounds of about 40 ms: the
/// first ones also bring the vector units up to their clock.
fn measure(kernel: Kernel) -> f64 {
    const ITERS: u64 = 16_000_000;
    (0..5)
        .map(|_| {
            let gate = Barrier::new(THREADS);
            let per_thread: Vec<(f64, f64)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            gate.wait();
                            let t = Instant::now();
                            let (flops, keep) = kernel(black_box(ITERS));
                            black_box(keep);
                            (flops, t.elapsed().as_secs_f64())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            });
            let flops: f64 = per_thread.iter().map(|p| p.0).sum();
            let secs = per_thread.iter().map(|p| p.1).fold(0.0, f64::max);
            flops / secs / 1e9
        })
        .fold(0.0, f64::max)
}

/// Measure the FMA peak of this host, in this process.
pub fn fma_peak() -> Peak {
    let (isa, k64, k32) = widest_kernels();
    Peak {
        isa,
        gflops_f64: measure(k64),
        gflops_f32: measure(k32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_a_plausible_peak() {
        let p = fma_peak();
        assert!(p.gflops_f64 > 0.1 && p.gflops_f64 < 1e4, "{p:?}");
        assert!(p.gflops_f32 >= 0.5 * p.gflops_f64, "{p:?}");
        assert_eq!(p.gflops(4), p.gflops_f32);
    }

    #[test]
    fn fma_kernels_count_their_flops_and_converge() {
        let (isa, k64, k32) = widest_kernels();
        for k in [k64, k32, fma_scalar_f64 as Kernel] {
            let (f1, keep) = k(1000);
            let (f2, _) = k(2000);
            assert_eq!(f2, 2.0 * f1, "{isa}");
            // Every accumulator has converged to the fixed point 1.
            let lanes = f1 / (1000.0 * ACCS as f64 * 2.0);
            assert!((keep - ACCS as f64 * lanes).abs() < 1e-3, "{isa}: {keep}");
        }
    }

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().unwrap() > 1.0);
        assert!(calib_ms() > 0.0);
        assert_eq!(command_line("definitely-not-a-program", &[]), "unknown");
    }
}
