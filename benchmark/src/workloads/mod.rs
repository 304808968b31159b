//! The seven workloads and what they share: run options, and the
//! repeated-set-up and timed-loop helpers.

pub mod compress;
pub mod grid;
pub mod serve;
pub mod stream;

use crate::gen::Bits;
use crate::report::Outcome;
use crate::stats::median_or_zero;
use crate::trace::{self, Span};
use std::path::PathBuf;
use std::time::Instant;
use tucker_core::{write_tucker, TuckerTensor};
use tucker_serve::{ModeSel, Query};
use tucker_tensor::io::IoScalar;

/// How one run was asked for.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// Seconds the timed section measures for.
    pub seconds: f64,
    /// Per-layer run with the span recorder, instead of the end-to-end run.
    pub trace: bool,
    /// Quarter shapes and three repetitions: checks that every metric comes
    /// out, not what it is.
    pub smoke: bool,
    /// Where files the run needs (stores, tensors, traces) are written.
    pub out_dir: PathBuf,
    /// Child mode of the thread-speedup probe: only time this many
    /// compresses and print their median.
    pub probe_reps: Option<usize>,
}

impl RunOpts {
    /// Full size, or a quarter of it for the smoke run (at least `floor`).
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 4).max(floor)
        } else {
            full
        }
    }

    /// Repetitions of a fixed-count step: `full`, or 2 in the smoke run.
    pub fn reps(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else {
            full
        }
    }

    pub fn file(&self, suffix: &str) -> PathBuf {
        self.out_dir.join(format!("{}.{suffix}", self.workload))
    }

    /// Smoke-sized options for a unit test, writing under the crate's
    /// `out/<dir>_<pid>` so that parallel tests share no file.
    #[cfg(test)]
    pub fn for_test(workload: &str, dir: &str) -> RunOpts {
        RunOpts {
            workload: workload.into(),
            seed: 7,
            seconds: 0.0,
            trace: false,
            smoke: true,
            out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{dir}_{}", std::process::id())),
            probe_reps: None,
        }
    }
}

/// Run one workload by name.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    match opts.workload.as_str() {
        "hcci_qr_f64" => compress::run::<f64>(opts, tucker_core::SvdMethod::Qr),
        "hcci_gram_f64" => compress::run::<f64>(opts, tucker_core::SvdMethod::Gram),
        "hcci_qr_f32" => compress::run::<f32>(opts, tucker_core::SvdMethod::Qr),
        "grid2_qr_f64" => grid::run(opts),
        "serve_zipf" => serve::run(opts, true),
        "serve_cold" => serve::run(opts, false),
        "stream_append" => stream::run(opts),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Set-ups per end-to-end run; `setup_s` is their median. The first one
/// pays for touching its memory for the first time and runs a third longer
/// than the rest; with five, the median is one of the others.
const SETUP_REPS: usize = 5;

/// Build the workload's inputs [`SETUP_REPS`] times (once when tracing,
/// which does not report set-up), dropping each product before the next is
/// built so peak memory is that of one. Returns the last product and the
/// median seconds of one set-up.
pub fn timed_setup<S>(
    opts: &RunOpts,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let reps = if opts.trace || opts.probe_reps.is_some() {
        1
    } else {
        SETUP_REPS
    };
    let mut secs = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps {
        drop(product.take());
        crate::host::pace_sample();
        let t = Instant::now();
        product = Some(build()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((
        product.expect("at least one set-up"),
        crate::stats::median(&secs),
    ))
}

/// Call `op` until the run's seconds have passed and it ran at least
/// `min_reps` times (exactly 3 times in the smoke run). `op` returns the
/// seconds its timed call took.
pub fn timed_loop(
    opts: &RunOpts,
    min_reps: usize,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let (seconds, min_reps) = if opts.smoke {
        (0.0, 3)
    } else {
        (opts.seconds, min_reps)
    };
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        crate::host::pace_sample();
        samples.push(op()?);
    }
    Ok(samples)
}

/// Time `f` `reps` times and return the samples in seconds.
pub fn time_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            crate::host::pace_sample();
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// An `error_over_tol` that fails its operation: above 1, or not a number.
pub fn over_budget(error_over_tol: f64) -> bool {
    error_over_tol.is_nan() || error_over_tol > 1.0
}

/// One fixed query where a run needs one (after a swap, for the `tucker
/// query` command): the middle mode-1 fiber.
pub fn probe_query(dims: &[usize]) -> Query {
    Query {
        sel: dims
            .iter()
            .enumerate()
            .map(|(n, &d)| {
                if n == 1 {
                    ModeSel::All
                } else {
                    ModeSel::Index(d / 2)
                }
            })
            .collect(),
    }
}

/// Write `tk` the way `tucker compress` does and record the size-derived
/// `compression_ratio`: input bytes over store bytes.
pub fn store_and_measure<T: IoScalar>(
    opts: &RunOpts,
    out: &mut Outcome,
    tk: &TuckerTensor<T>,
    input_bytes: usize,
) -> Result<(), String> {
    let path = opts.file("tkr");
    write_tucker(&path, tk).map_err(|e| format!("write {}: {e}", path.display()))?;
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat store: {e}"))?
        .len();
    out.set("compression_ratio", input_bytes as f64 / file_bytes as f64);
    Ok(())
}

/// Bitwise digest of a whole decomposition (core and factors).
pub fn tucker_digest<T: IoScalar + Bits>(tk: &TuckerTensor<T>) -> u64 {
    let mut f = crate::gen::Fingerprint::default();
    f.add(tk.core.data());
    for u in &tk.factors {
        f.add(u.data());
    }
    f.value()
}

/// Names of the per-mode spans of the replayed mode loops (span names are
/// static).
pub const MODE_SPANS: [&str; 4] = ["core.mode0", "core.mode1", "core.mode2", "core.mode3"];

/// For each `(metric, span name)`: the median over the operations of the
/// time spent in spans of that name (the slowest lane's, see `trace::per_op`).
pub fn set_span_medians(out: &mut Outcome, spans: &[Span], pairs: &[(&'static str, &str)]) {
    for &(metric, span) in pairs {
        out.set(metric, median_or_zero(&trace::per_op_secs(spans, span)));
    }
}

/// `core.mode0_s` … `core.mode3_s` and mode 0's share of their sum.
pub fn set_mode_metrics(out: &mut Outcome, spans: &[Span]) {
    const METRICS: [&str; 4] = [
        "core.mode0_s",
        "core.mode1_s",
        "core.mode2_s",
        "core.mode3_s",
    ];
    let pairs: Vec<(&'static str, &str)> = METRICS.into_iter().zip(MODE_SPANS).collect();
    set_span_medians(out, spans, &pairs);
    let total: f64 = METRICS.iter().map(|m| out.metrics[m]).sum();
    out.set("core.mode0_share", out.metrics[METRICS[0]] / total);
}

/// Write the trace file and self-time table, and check that the self times
/// add up to the root spans (every nanosecond is attributed once).
pub fn write_trace(
    opts: &RunOpts,
    out: &mut Outcome,
    spans: &[Span],
    root: &str,
) -> Result<(), String> {
    let path = opts.file("trace.json");
    std::fs::write(&path, trace::chrome_json(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let table = trace::self_time_table(spans);
    std::fs::write(opts.file("selftime.txt"), &table)
        .map_err(|e| format!("write self-time table: {e}"))?;
    out.notes.push(format!(
        "trace: {} ({} spans)\n{table}",
        path.display(),
        spans.len()
    ));
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let selfs: u64 = trace::self_times_ns(spans).iter().sum();
    let named_root = spans.iter().any(|s| s.parent.is_none() && s.name == root);
    out.check(
        1,
        u64::from(roots != selfs || !named_root),
        "span self times sum to the root spans",
    );
    Ok(())
}
