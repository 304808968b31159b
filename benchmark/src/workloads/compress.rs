//! `hcci_qr_f64`, `hcci_gram_f64`, `hcci_qr_f32`: sequential ST-HOSVD of the
//! HCCI surrogate to a stated tolerance.
//!
//! The end-to-end run calls only `sthosvd_with_info`. The traced run replays
//! the same mode loop through the public functions it is made of, with a
//! span at each call, and checks that the replay produces the same bits.

use super::{
    over_budget, set_mode_metrics, set_span_medians, store_and_measure, time_reps, timed_loop,
    timed_setup, tucker_digest, write_trace, RunOpts, MODE_SPANS,
};
use crate::gen::{Bits, Fingerprint};
use crate::host;
use crate::report::Outcome;
use crate::stats::{median, median_or_zero};
use crate::trace::{self, Recorder};
use std::process::Command;
use std::time::Instant;
use tucker_core::svd_driver::{gram_of_unfolding, lq_of_unfolding};
use tucker_core::truncate::mode_threshold;
use tucker_core::{
    choose_rank, read_tucker, sthosvd_with_info, write_tucker, SthosvdConfig, SvdMethod,
    TuckerTensor,
};
use tucker_linalg::gram_svd::gram_svd_from_gram;
use tucker_linalg::{svd_left, Scalar};
use tucker_tensor::io::{read_tensor, write_tensor, IoScalar};
use tucker_tensor::{ttm, Tensor, Unfolding};

/// Relative tolerance every compress workload is asked for.
pub const TOL: f64 = 1e-4;

/// The one HCCI shape the compress and grid workloads share. The issue's
/// 64×64×33×64 was shrunk by two steps of 8 so that 20 QR-f64 compresses
/// fit the run.
pub fn hcci_dims(opts: &RunOpts) -> [usize; 4] {
    let d = opts.scaled(48, 12);
    [d, d, opts.scaled(33, 8), d]
}

/// Generate the shared input and fold it into `fp`.
pub fn hcci_input<T: Scalar + Bits>(opts: &RunOpts, fp: &mut Fingerprint) -> Tensor<T> {
    let x: Tensor<T> = tucker_data::hcci_surrogate(&hcci_dims(opts), opts.seed);
    fp.add(x.data());
    x
}

pub fn config(method: SvdMethod) -> SthosvdConfig {
    SthosvdConfig::with_tolerance(TOL).method(method)
}

/// Flops of the kernels of one compress, computed from the shapes.
#[derive(Default, Clone, Copy)]
pub struct Flops {
    pub lq: f64,
    pub syrk: f64,
    pub ttm: f64,
}

pub fn lq_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * m * m * (n - m / 3.0)
}

/// `sthosvd_with_info`'s mode loop, call for call, through public
/// functions, with a span around each. The root span's self time is the
/// norm and the clone; a mode span's self time is the rank choice and
/// `truncate_cols`.
pub fn replay<T: Scalar>(
    x: &Tensor<T>,
    cfg: &SthosvdConfig,
    rec: &mut Recorder,
    flops: &mut Flops,
) -> Result<TuckerTensor<T>, String> {
    rec.span("core.compress", |rec| {
        let nmodes = x.ndims();
        let threshold = mode_threshold(TOL, x.norm(), nmodes);
        let mut y = x.clone();
        let mut factors = Vec::with_capacity(nmodes);
        *flops = Flops::default();
        #[allow(clippy::needless_range_loop)] // n is the tensor mode
        for n in 0..nmodes {
            rec.span(MODE_SPANS[n], |rec| -> Result<(), String> {
                let unf = Unfolding::new(&y, n);
                let (m, cols, whole) = (unf.rows(), unf.cols(), unf.whole().is_some());
                let (u, sigma) = match cfg.method {
                    SvdMethod::Qr => {
                        flops.lq += lq_flops(m, cols);
                        let name = if whole {
                            "linalg.lq_whole"
                        } else {
                            "linalg.tslq"
                        };
                        let l = rec.span(name, |_| lq_of_unfolding(&y, n, cfg.tslq));
                        rec.span("linalg.svd", |_| svd_left(l.as_ref()))
                    }
                    SvdMethod::Gram => {
                        flops.syrk += (m * m * cols) as f64;
                        let g = rec.span("linalg.syrk", |_| gram_of_unfolding(&y, n));
                        rec.span("linalg.evd", |_| gram_svd_from_gram(&g))
                    }
                    other => return Err(format!("replay does not cover {other:?}")),
                }
                .map_err(|e| format!("mode {n} SVD: {e}"))?;
                let r_n = choose_rank(&sigma, threshold).min(u.cols());
                let u_n = u.truncate_cols(r_n);
                flops.ttm += 2.0 * (r_n * m * cols) as f64;
                y = rec.span("tensor.ttm", |_| ttm(&y, n, u_n.as_ref(), true));
                factors.push(u_n);
                Ok(())
            })?;
        }
        Ok(TuckerTensor { core: y, factors })
    })
}

pub fn run<T: Scalar + IoScalar + Bits>(
    opts: &RunOpts,
    method: SvdMethod,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = config(method);
    let mut fp = Fingerprint::default();
    let (x, setup_s) = timed_setup(opts, || {
        fp = Fingerprint::default();
        Ok(hcci_input::<T>(opts, &mut fp))
    })?;
    out.set("setup_s", setup_s);
    out.exact
        .insert("fingerprint".into(), format!("{:016x}", fp.value()));
    let compress = || -> Result<(f64, TuckerTensor<T>), String> {
        let t = Instant::now();
        let r = sthosvd_with_info(&x, &cfg).map_err(|e| format!("sthosvd: {e}"))?;
        Ok((t.elapsed().as_secs_f64(), r.tucker))
    };

    if let Some(reps) = opts.probe_reps {
        // Child of the thread-speedup probe: the parent reads this line.
        compress()?;
        let secs: Result<Vec<f64>, String> = (0..reps).map(|_| compress().map(|r| r.0)).collect();
        println!("probe_median_s {}", median(&secs?));
        return Ok(out);
    }

    // Warm-up: 2 untimed compresses; the second is the reference result.
    compress()?;
    let (warm_s, reference) = compress()?;
    let want = tucker_digest(&reference);
    out.exact
        .insert("ranks".into(), format!("{:?}", reference.ranks()));

    if opts.trace {
        return traced(opts, out, &x, &cfg, warm_s, &reference, want);
    }

    let mut wrong = 0;
    let secs = timed_loop(opts, 20, || {
        let (s, tk) = compress()?;
        wrong += u64::from(tucker_digest(&tk) != want);
        Ok(s)
    })?;
    out.check(
        secs.len() as u64,
        wrong,
        "every repetition has the bits of the first",
    );
    let s = out.timing("compress (sthosvd_with_info)", &secs, 1.0, "s");
    out.set("op_p50_ms", s.median * 1e3);
    // A percentile is reported only with ten samples beyond it, and a run
    // fits as few as 30 compresses: the tail of a compress is its median.
    out.set("op_tail_ms", s.median * 1e3);
    out.set("ops_per_s", secs.len() as f64 / secs.iter().sum::<f64>());

    let err = reference.relative_error(&x).to_f64() / TOL;
    out.set("error_over_tol", err);
    out.check(
        1,
        u64::from(over_budget(err)),
        "relative error within the requested tolerance",
    );
    store_and_measure(opts, &mut out, &reference, x.len() * T::BYTES)?;
    out.set("peak_rss_mb", host::peak_rss_mb()?);
    Ok(out)
}

fn traced<T: Scalar + IoScalar + Bits>(
    opts: &RunOpts,
    mut out: Outcome,
    x: &Tensor<T>,
    cfg: &SthosvdConfig,
    warm_s: f64,
    reference: &TuckerTensor<T>,
    want: u64,
) -> Result<Outcome, String> {
    // Entry point, replay with the recorder off, replay with it on, taken in
    // turns so that drift of the host hits all three alike. Half the run's
    // seconds go here; the rest is left for the probes below.
    let rounds = if opts.smoke {
        2
    } else {
        ((0.5 * opts.seconds / (3.0 * warm_s)) as usize).clamp(3, 12)
    };
    let epoch = Instant::now();
    let mut on = Recorder::new(true, epoch, 0);
    let mut off = Recorder::new(false, epoch, 0);
    let (mut entry_s, mut off_s, mut on_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut flops = Flops::default();
    let mut wrong = 0;
    for round in 0..rounds {
        host::pace_sample();
        let t = Instant::now();
        let r = sthosvd_with_info(x, cfg).map_err(|e| format!("sthosvd: {e}"))?;
        entry_s.push(t.elapsed().as_secs_f64());
        wrong += u64::from(tucker_digest(&r.tucker) != want);

        let t = Instant::now();
        let tk = replay(x, cfg, &mut off, &mut flops)?;
        off_s.push(t.elapsed().as_secs_f64());
        wrong += u64::from(tucker_digest(&tk) != want);

        on.set_op(round as u64);
        let t = Instant::now();
        let tk = replay(x, cfg, &mut on, &mut flops)?;
        on_s.push(t.elapsed().as_secs_f64());
        wrong += u64::from(tucker_digest(&tk) != want);
    }
    out.check(
        3 * rounds as u64,
        wrong,
        "entry point and replays produce the bits of the first compress",
    );
    out.set("bench.replay_bit_identical", f64::from(wrong == 0));
    let e2e = out
        .timing("compress (entry point)", &entry_s, 1.0, "s")
        .median;
    out.timing("compress (replay, recorder off)", &off_s, 1.0, "s");
    out.timing("compress (replay, recorder on)", &on_s, 1.0, "s");
    out.set("bench.replay_over_e2e", median(&on_s) / e2e);
    out.set(
        "bench.trace_overhead_frac",
        (median(&on_s) - median(&off_s)) / median(&off_s),
    );

    let spans = on.into_spans();
    let peak = host::fma_peak();
    out.notes.push(format!(
        "host.fma_peak: {} {:.1} GF/s f64, {:.1} GF/s f32 on {} threads",
        peak.isa,
        peak.gflops_f64,
        peak.gflops_f32,
        host::THREADS
    ));
    let peak = peak.gflops(T::BYTES);
    set_span_medians(
        &mut out,
        &spans,
        &[
            ("linalg.lq_whole_s", "linalg.lq_whole"),
            ("linalg.tslq_s", "linalg.tslq"),
            ("linalg.syrk_s", "linalg.syrk"),
            ("linalg.svd_s", "linalg.svd"),
            ("linalg.evd_s", "linalg.evd"),
            ("tensor.ttm_s", "tensor.ttm"),
        ],
    );
    set_mode_metrics(&mut out, &spans);
    // A mode is factored by one LQ path or the other; the LQ of a compress
    // is the two medians added.
    let lq_s = out.metrics["linalg.lq_whole_s"] + out.metrics["linalg.tslq_s"];
    out.set("linalg.lq_s", lq_s);
    for (secs, flops, rate, frac) in [
        (lq_s, flops.lq, "linalg.lq_gflops", "linalg.lq_frac_peak"),
        (
            out.metrics["linalg.syrk_s"],
            flops.syrk,
            "linalg.syrk_gflops",
            "linalg.syrk_frac_peak",
        ),
        (
            out.metrics["tensor.ttm_s"],
            flops.ttm,
            "tensor.ttm_gflops",
            "tensor.ttm_frac_peak",
        ),
    ] {
        if secs > 0.0 {
            out.set(rate, flops / secs / 1e9);
            out.set(frac, flops / secs / 1e9 / peak);
        }
    }
    let selfs = trace::self_times_ns(&spans);
    let own = |name: &str| trace::per_op(&spans, name, |i, _| selfs[i] as f64 * 1e-9);
    let mut loop_self = own("core.compress");
    for name in MODE_SPANS {
        for (acc, s) in loop_self.iter_mut().zip(own(name)) {
            *acc += s;
        }
    }
    out.set("core.loop_self_s", median_or_zero(&loop_self));
    write_trace(opts, &mut out, &spans, "core.compress")?;

    // Files: the same tensor and store the command-line tool works on.
    let tns = opts.file("tns");
    let tkr = opts.file("tkr");
    write_tensor(&tns, x).map_err(|e| format!("write {}: {e}", tns.display()))?;
    let n = opts.reps(3);
    out.set(
        "tensor.read_s",
        median(&time_reps(n, || {
            read_tensor::<T>(&tns).expect("tensor written above")
        })),
    );
    out.set(
        "core.write_tucker_s",
        median(&time_reps(n, || {
            write_tucker(&tkr, reference).expect("store is writable")
        })),
    );
    out.set(
        "core.read_tucker_s",
        median(&time_reps(n, || {
            read_tucker::<T>(&tkr).expect("store written above")
        })),
    );
    out.set(
        "core.reconstruct_s",
        median(&time_reps(n, || reference.reconstruct())),
    );
    out.set(
        "core.store_bytes",
        std::fs::metadata(&tkr).map_err(|e| e.to_string())?.len() as f64,
    );

    // One thread against two: a child process, since the thread count is
    // read once per process.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(&exe);
    child
        .args([
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
            "--probe",
            &opts.reps(5).to_string(),
        ])
        .args(if opts.smoke { &["--smoke"][..] } else { &[] })
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .env("RAYON_NUM_THREADS", "1");
    let probe = child
        .output()
        .map_err(|e| format!("spawn thread probe: {e}"))?;
    let one_thread = String::from_utf8_lossy(&probe.stdout)
        .lines()
        .find_map(|l| {
            l.strip_prefix("probe_median_s ")
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .ok_or_else(|| {
            format!(
                "thread probe printed no median: {}",
                String::from_utf8_lossy(&probe.stderr)
            )
        })?;
    out.set("linalg.thread_speedup", one_thread / e2e);

    // The command: must equal compress + read + write, or the in-process
    // number does not stand for it.
    let tucker = exe.with_file_name("tucker");
    if !tucker.exists() {
        return Err(format!(
            "{} not built; run benchmark/run.sh, which builds it",
            tucker.display()
        ));
    }
    let cli_tkr = opts.file("cli.tkr");
    let svd = if cfg.method == SvdMethod::Gram {
        "gram"
    } else {
        "qr"
    };
    let spawn = |args: &[&std::ffi::OsStr]| -> Result<f64, String> {
        let t = Instant::now();
        let o = Command::new(&tucker)
            .args(args)
            .output()
            .map_err(|e| format!("spawn tucker: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        if !o.status.success() {
            return Err(format!(
                "tucker {args:?} failed: {}",
                String::from_utf8_lossy(&o.stderr)
            ));
        }
        Ok(secs)
    };
    let tol = TOL.to_string();
    let compress_args: Vec<&std::ffi::OsStr> = vec![
        "compress".as_ref(),
        tns.as_ref(),
        cli_tkr.as_ref(),
        "--tol".as_ref(),
        tol.as_ref(),
        "--svd".as_ref(),
        svd.as_ref(),
    ];
    let cli_compress: Result<Vec<f64>, String> =
        (0..opts.reps(5)).map(|_| spawn(&compress_args)).collect();
    out.set("cli.compress_s", median(&cli_compress?));
    let same = read_tucker::<T>(&cli_tkr)
        .map(|tk| tucker_digest(&tk) == want)
        .unwrap_or(false);
    out.check(
        1,
        u64::from(!same),
        "the command's store has the bits of the in-process result",
    );
    let slab = super::probe_query(x.dims())
        .sel
        .iter()
        .map(|s| match s {
            tucker_serve::ModeSel::Index(i) => i.to_string(),
            _ => "*".into(),
        })
        .collect::<Vec<_>>()
        .join(",");
    let query_args: Vec<&std::ffi::OsStr> = vec![
        "query".as_ref(),
        cli_tkr.as_ref(),
        "--slab".as_ref(),
        slab.as_ref(),
    ];
    let cli_query: Result<Vec<f64>, String> =
        (0..opts.reps(5)).map(|_| spawn(&query_args)).collect();
    out.set("cli.query_ms", median(&cli_query?) * 1e3);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> RunOpts {
        RunOpts::for_test("hcci_qr_f64", "unused")
    }

    #[test]
    fn replay_has_the_bits_of_the_entry_point_for_both_methods_and_precisions() {
        fn check<T: Scalar + IoScalar + Bits>(method: SvdMethod) {
            let x = hcci_input::<T>(&smoke_opts(), &mut Fingerprint::default());
            let cfg = config(method);
            let want = tucker_digest(&sthosvd_with_info(&x, &cfg).unwrap().tucker);
            let mut rec = Recorder::new(true, Instant::now(), 0);
            let mut flops = Flops::default();
            let tk = replay(&x, &cfg, &mut rec, &mut flops).unwrap();
            assert_eq!(tucker_digest(&tk), want, "{method:?} {}", T::PRECISION_NAME);
            assert!(flops.ttm > 0.0 && (flops.lq > 0.0) != (flops.syrk > 0.0));
            let spans = rec.into_spans();
            assert_eq!(spans.len(), 1 + 4 * 4);
            assert_eq!(
                trace::self_times_ns(&spans).iter().sum::<u64>(),
                spans[0].end_ns - spans[0].start_ns
            );
        }
        check::<f64>(SvdMethod::Qr);
        check::<f64>(SvdMethod::Gram);
        check::<f32>(SvdMethod::Qr);
    }

    #[test]
    fn repetition_oracle_catches_a_result_that_differs_in_one_bit() {
        let x = hcci_input::<f64>(&smoke_opts(), &mut Fingerprint::default());
        let first = sthosvd_with_info(&x, &config(SvdMethod::Qr))
            .unwrap()
            .tucker;
        let mut again = sthosvd_with_info(&x, &config(SvdMethod::Qr))
            .unwrap()
            .tucker;
        assert_eq!(
            tucker_digest(&again),
            tucker_digest(&first),
            "a repetition has the bits of the first"
        );
        let v = &mut again.core.data_mut()[5];
        *v = f64::from_bits(v.to_bits() ^ 1);
        assert_ne!(
            tucker_digest(&again),
            tucker_digest(&first),
            "one flipped bit of the core is caught"
        );
        // A different method gives a different (equally valid) result: also caught.
        let gram = sthosvd_with_info(&x, &config(SvdMethod::Gram))
            .unwrap()
            .tucker;
        assert_ne!(tucker_digest(&gram), tucker_digest(&first));
    }

    #[test]
    fn flop_counts_are_the_textbook_ones() {
        assert_eq!(lq_flops(3, 10), 2.0 * 9.0 * 9.0);
    }
}
