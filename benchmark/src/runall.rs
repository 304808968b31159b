//! Running workloads: one in this process (`run_one`, what the driver
//! calls), or all of them one after another, each in a process of its own
//! (`run_all`, what `benchmark/run.sh` without `--workload` does).

use crate::compare::{compare, Side};
use crate::json::{object, parse, Value};
use crate::report::{metric_defs, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::workloads::{self, RunOpts};
use crate::{host, Args};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Host slowdown between the start and the end of a run above which its
/// numbers are not trusted.
const NOISE_LIMIT: f64 = 0.10;

fn detail_path(opts: &RunOpts) -> std::path::PathBuf {
    opts.file(if opts.trace {
        "traced.json"
    } else {
        "e2e.json"
    })
}

/// Run one workload here, print everything it measured, and end with the
/// result line.
pub fn run_one(opts: &RunOpts) -> Result<ExitCode, String> {
    if opts.probe_reps.is_some() {
        workloads::run(opts)?;
        return Ok(ExitCode::SUCCESS);
    }
    let calib_before = host::calib_ms();
    let mut out = workloads::run(opts)?;
    let calib_after = host::calib_ms();
    let noisy = (calib_after - calib_before).abs() / calib_before > NOISE_LIMIT;
    let defs = metric_defs(opts.trace);
    // Wall times and rates are reported at the host's reference pace.
    let (pace, pace_samples) = host::pace();
    for d in defs {
        if let Some(v) = out.metrics.get_mut(d.name) {
            *v = d.at_reference_pace(*v, pace);
        }
    }

    println!(
        "== {} seed {} ({}, {} s{})",
        opts.workload,
        opts.seed,
        if opts.trace {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        opts.seconds,
        if opts.smoke { ", smoke shapes" } else { "" },
    );
    for (k, v) in &out.exact {
        println!("exact {k}: {v}");
    }
    println!("host.pace {pace:.4} (median of {pace_samples} spin samples over the reference; timings below are as measured, metrics are at pace 1)");
    for (name, s, scale, unit) in &out.timings {
        println!("timing {}", s.line(name, *scale, unit));
    }
    // Layers the workload does not exercise report 0; they are in the
    // result line below but not worth 60 lines here.
    let value = |d: &MetricDef| out.metrics.get(d.name).copied().unwrap_or(0.0);
    for d in defs.iter().filter(|d| !opts.trace || value(d) != 0.0) {
        println!("metric {} = {} {}", d.name, value(d), d.unit);
    }
    if opts.trace {
        println!(
            "({} per-layer metrics of layers not exercised here are 0)",
            defs.iter().filter(|d| value(d) == 0.0).count()
        );
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "host.calib_ms {calib_before:.3} before, {calib_after:.3} after{}",
        if noisy {
            ": NOISY, the host slowed down or sped up by more than 10% during this run"
        } else {
            ""
        }
    );
    println!(
        "operations: {} attempted, {} failed",
        out.attempted, out.failed
    );

    let timings = out.timings.iter().map(|(name, s, scale, unit)| {
        object([
            ("name", Value::Str(name.clone())),
            ("unit", Value::Str((*unit).into())),
            ("n", Value::Num(s.n as f64)),
            ("q1", Value::Num(s.q1 * scale)),
            ("median", Value::Num(s.median * scale)),
            ("q3", Value::Num(s.q3 * scale)),
            ("tail_percentile", Value::Num(s.tail_p * 100.0)),
            ("tail", Value::Num(s.tail * scale)),
        ])
    });
    let detail = object([
        ("workload", Value::Str(opts.workload.clone())),
        ("seed", Value::Num(opts.seed as f64)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("noisy", Value::Bool(noisy)),
        (
            "calib_ms",
            Value::Array(vec![Value::Num(calib_before), Value::Num(calib_after)]),
        ),
        ("pace", Value::Num(pace)),
        (
            if opts.trace {
                "per_layer"
            } else {
                "end_to_end"
            },
            out.metrics_value(defs),
        ),
        ("timings", Value::Array(timings.collect())),
        (
            "exact",
            object(
                out.exact
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone()))),
            ),
        ),
    ]);
    let path = detail_path(opts);
    std::fs::write(&path, detail.to_json() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", out.result_line(defs));
    Ok(ExitCode::SUCCESS)
}

/// Run `opts` in a child process and read back what it wrote.
fn run_child(opts: &RunOpts) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args([
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args([
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if opts.trace { "1" } else { "0" },
        ])
        .args(if opts.smoke { &["--smoke"][..] } else { &[] })
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .status()
        .map_err(|e| format!("spawn {}: {e}", opts.workload))?;
    if !status.success() {
        return Err(format!("workload {} exited with {status}", opts.workload));
    }
    let path = detail_path(opts);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A run whose host moved under it is run once more and marked, never
/// silently reported.
fn run_child_guarded(opts: &RunOpts) -> Result<Value, String> {
    let first = run_child(opts)?;
    if first.get("noisy").and_then(|n| n.as_bool()) != Some(true) {
        return Ok(first);
    }
    println!("-- {} was noisy; running it once more", opts.workload);
    let Value::Object(mut again) = run_child(opts)? else {
        return Err("detail file is not an object".into());
    };
    again.insert("noisy".into(), Value::Bool(true));
    Ok(Value::Object(again))
}

/// Per-layer metrics that must be non-zero on `workload`: those of the
/// layers it exercises. Everything else may be 0 but must be finite.
fn must_be_nonzero(workload: &str, metric: &str) -> bool {
    let compress = workload.starts_with("hcci_");
    let qr = workload.contains("_qr_");
    let serve = workload.starts_with("serve_");
    match metric {
        "bench.replay_bit_identical" | "bench.replay_over_e2e" => true,
        "bench.trace_overhead_frac" => false,
        "linalg.svd_stacked_ms" => workload == "stream_append",
        "linalg.thread_speedup" | "tensor.read_s" => compress,
        "linalg.svd_s" => qr,
        "linalg.lq_whole_s" | "linalg.tslq_s" => compress && qr,
        "linalg.evd_s" => compress && !qr,
        "serve.cache_hit_rate" | "serve.hit_p50_us" => workload == "serve_zipf",
        "core.p1_over_seq" | "core.p2_speedup" | "core.step_imbalance_s" => {
            workload == "grid2_qr_f64"
        }
        m if m.starts_with("linalg.lq_") => compress && qr,
        m if m.starts_with("linalg.syrk_") => compress && !qr,
        m if m.starts_with("tensor.") || m.starts_with("cli.") => compress,
        m if m.starts_with("core.mode") => compress || workload == "grid2_qr_f64",
        m if m.starts_with("core.") => compress,
        m if m.starts_with("dtensor.") || m.starts_with("mpisim.") => workload == "grid2_qr_f64",
        m if m.starts_with("serve.") => serve,
        m if m.starts_with("stream.") => workload == "stream_append",
        _ => false,
    }
}

/// The smoke run's assertion: every named metric present and finite, and
/// non-zero where it must be.
fn check_metrics(workload: &str, run: &Value, key: &str, defs: &[MetricDef]) -> Vec<String> {
    let mut problems = Vec::new();
    for d in defs {
        match run
            .get(key)
            .and_then(|m| m.get(d.name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
        {
            None => problems.push(format!(
                "{workload}: {} is missing or not a finite number",
                d.name
            )),
            Some(v) if v == 0.0 && (key == "end_to_end" || must_be_nonzero(workload, d.name)) => {
                problems.push(format!("{workload}: {} is 0", d.name))
            }
            Some(_) => {}
        }
    }
    problems
}

/// Every workload, each in its own process, one after another; writes
/// `results.json`. With two or more sets, compares the first half of the
/// sets with the second.
pub fn run_all(args: &Args, out_dir: &Path) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let traced = args.flag("--traced") || smoke;
    let sets: usize = args.parsed("--sets", 1)?;
    let seed: u64 = args.parsed("--seed", crate::DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let peak = host::fma_peak();
    let host_block = object([
        ("cpu", Value::Str(host::cpu_model())),
        ("nproc", Value::Num(host::nproc() as f64)),
        ("threads", Value::Num(host::THREADS as f64)),
        (
            "rustc",
            Value::Str(host::command_line("rustc", &["--version"])),
        ),
        (
            "commit",
            Value::Str(host::command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("fma_isa", Value::Str(peak.isa.into())),
        ("fma_peak_gflops_f64", Value::Num(peak.gflops_f64)),
        ("fma_peak_gflops_f32", Value::Num(peak.gflops_f32)),
        ("calib_ms", Value::Num(host::calib_ms())),
        (
            "glibc_tunables",
            Value::Str(std::env::var("GLIBC_TUNABLES").unwrap_or_default()),
        ),
    ]);
    println!("host {}", host_block.to_json());

    let mut all_sets = Vec::new();
    let mut problems = Vec::new();
    for set in 0..sets {
        let mut runs = Vec::new();
        for w in &WORKLOADS {
            println!("\n#### set {} of {sets}: {}", set + 1, w.name);
            let mut opts = RunOpts {
                workload: w.name.to_string(),
                seed,
                seconds,
                trace: false,
                smoke,
                out_dir: out_dir.to_path_buf(),
                probe_reps: None,
            };
            let Value::Object(mut run) = run_child_guarded(&opts)? else {
                return Err("detail file is not an object".into());
            };
            if traced {
                // The traced run's whole record rides along under one key.
                opts.trace = true;
                let layers = run_child_guarded(&opts)?;
                problems.extend(check_metrics(w.name, &layers, "per_layer", &PER_LAYER));
                run.insert("traced".into(), layers);
            }
            let run = Value::Object(run);
            problems.extend(check_metrics(w.name, &run, "end_to_end", &END_TO_END));
            let (attempted, failed) = crate::compare::operations(&run);
            if failed > 0.0 {
                problems.push(format!(
                    "{}: {failed} of {attempted} operations failed their oracle",
                    w.name
                ));
            }
            runs.push((w.name, run));
        }
        all_sets.push(object(runs));
    }

    let results = object([
        ("host", host_block),
        ("sets", Value::Array(all_sets.clone())),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, results.to_json() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());

    let mut ok = problems.is_empty();
    for p in &problems {
        println!("PROBLEM {p}");
    }
    if sets >= 2 {
        let (mut a, mut b) = (Side::default(), Side::default());
        a.add_sets(&all_sets[..sets / 2])?;
        b.add_sets(&all_sets[sets / 2..])?;
        let (table, pass) = compare(&a, &b);
        println!(
            "\nfirst {} set(s) against the other {}:\n{table}",
            sets / 2,
            sets - sets / 2
        );
        ok &= pass;
    }
    println!(
        "{}",
        if ok {
            "tuckerbench: ok"
        } else {
            "tuckerbench: FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    #[test]
    fn smoke_check_catches_missing_zero_and_non_finite_metrics() {
        let mut out = Outcome::default();
        for d in &END_TO_END {
            out.set(d.name, 1.0);
        }
        let run = |out: &Outcome| object([("end_to_end", out.metrics_value(&END_TO_END))]);
        assert!(check_metrics("serve_cold", &run(&out), "end_to_end", &END_TO_END).is_empty());
        out.set("op_p50_ms", 0.0);
        out.set("ops_per_s", f64::NAN);
        let problems = check_metrics(
            "serve_cold",
            &parse(&run(&out).to_json()).unwrap(),
            "end_to_end",
            &END_TO_END,
        );
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert_eq!(
            check_metrics(
                "serve_cold",
                &object([("x", Value::Null)]),
                "end_to_end",
                &END_TO_END
            )
            .len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn every_layer_metric_must_be_nonzero_somewhere_except_the_overhead() {
        for d in &PER_LAYER {
            let somewhere = WORKLOADS.iter().any(|w| must_be_nonzero(w.name, d.name));
            assert_eq!(
                somewhere,
                d.name != "bench.trace_overhead_frac",
                "{}",
                d.name
            );
        }
        assert!(
            must_be_nonzero("hcci_gram_f64", "linalg.syrk_s")
                && !must_be_nonzero("hcci_gram_f64", "linalg.lq_s")
        );
        assert!(
            !must_be_nonzero("serve_cold", "serve.cache_hit_rate")
                && must_be_nonzero("serve_cold", "serve.miss_p50_us")
        );
    }
}
