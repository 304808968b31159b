//! `tuckerbench compare`: two sets of results against the benchmark's own
//! bounds, one row per (workload, end-to-end metric).

use crate::json::{parse, Value};
use crate::report::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{quantile, sorted};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The runs of one side of a comparison, as read from result files.
#[derive(Default)]
pub struct Side {
    /// End-to-end values by (workload, metric), one per run.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// Failed operations over attempted ones by workload, one per run.
    pub failed_frac: BTreeMap<String, Vec<f64>>,
    /// Numbers that must repeat exactly by (workload, key): `(seed, number)`.
    pub exact: BTreeMap<(String, String), Vec<(u64, String)>>,
}

impl Side {
    /// Add the runs of `sets`, the `sets` array of a result file.
    pub fn add_sets(&mut self, sets: &[Value]) -> Result<(), String> {
        for set in sets {
            for (workload, run) in set.as_object().ok_or("a set is not an object")? {
                let metrics = run
                    .get("end_to_end")
                    .and_then(|m| m.as_object())
                    .ok_or("run without end_to_end")?;
                for (name, m) in metrics {
                    let v = m
                        .get("value")
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| format!("{workload}.{name} has no value"))?;
                    self.values
                        .entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
                let (attempted, failed) = operations(run);
                self.failed_frac
                    .entry(workload.clone())
                    .or_default()
                    .push(failed / attempted.max(1.0));
                let seed = run.get("seed").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
                for (prefix, record) in [("", Some(run)), ("traced.", run.get("traced"))] {
                    for (key, v) in record
                        .and_then(|r| r.get("exact"))
                        .and_then(|e| e.as_object())
                        .into_iter()
                        .flatten()
                    {
                        self.exact
                            .entry((workload.clone(), format!("{prefix}{key}")))
                            .or_default()
                            .push((seed, v.as_str().unwrap_or("?").to_string()));
                    }
                }
            }
        }
        Ok(())
    }

    pub fn load(path: &str) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut side = Side::default();
        side.add_sets(
            doc.get("sets")
                .and_then(|s| s.as_array())
                .ok_or_else(|| format!("{path}: no \"sets\" array"))?,
        )?;
        Ok(side)
    }
}

/// Operations attempted and failed by a run, its traced run included.
pub fn operations(run: &Value) -> (f64, f64) {
    let count = |record: Option<&Value>, key: &str| {
        record
            .and_then(|r| r.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let both = |key: &str| count(Some(run), key) + count(run.get("traced"), key);
    (both("attempted"), both("failed"))
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

struct Quartiles {
    n: usize,
    q1: f64,
    median: f64,
    q3: f64,
}

fn quartiles(values: &[f64]) -> Quartiles {
    let s = sorted(values);
    Quartiles {
        n: s.len(),
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
    }
}

/// Verdict for one metric: `b` against `a`. The change is a regression when
/// `b`'s median is worse than `a`'s by more than the bound and by more than
/// the runs of either side spread; a spread wider than the bound otherwise
/// leaves the row unresolved, since "no worse than the bound" cannot be
/// read off such runs.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let base = qa.median.abs().max(f64::MIN_POSITIVE);
    let worse = match def.better {
        Better::Lower => (qb.median - qa.median) / base,
        Better::Higher => (qa.median - qb.median) / base,
    };
    let spread =
        ((qa.q3 - qa.q1) / base).max((qb.q3 - qb.q1) / qb.median.abs().max(f64::MIN_POSITIVE));
    let v = if worse > def.bound && worse > spread {
        Verdict::Regressed
    } else if spread > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (v, worse, spread)
}

/// The comparison table and whether `b` passes: no regressed row, no higher
/// failed fraction, and identical exact numbers where both sides ran a seed.
pub fn compare(a: &Side, b: &Side) -> (String, bool) {
    let mut table = format!(
        "{:<14} {:<18} {:>3} {:>11} {:>11} {:>11} {:>3} {:>11} {:>11} {:>11} {:>6} {:>7} {:>7}  verdict\n",
        "workload", "metric", "nA", "q1 A", "median A", "q3 A", "nB", "q1 B", "median B", "q3 B", "bound", "worse", "spread"
    );
    let mut pass = true;
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let key = (w.name.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let (v, worse, spread) = verdict(def, va, vb);
            pass &= v != Verdict::Regressed;
            writeln!(
                table,
                "{:<14} {:<18} {:>3} {:>11.5} {:>11.5} {:>11.5} {:>3} {:>11.5} {:>11.5} {:>11.5} {:>5.0}%{} {:>+6.1}% {:>6.1}%  {}",
                w.name, def.name, qa.n, qa.q1, qa.median, qa.q3, qb.n, qb.q1, qb.median, qb.q3,
                def.bound * 100.0,
                if def.better == Better::Lower { "↓" } else { "↑" },
                worse * 100.0,
                spread * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            )
            .expect("write to string");
        }
        if let (Some(fa), Some(fb)) = (a.failed_frac.get(w.name), b.failed_frac.get(w.name)) {
            let (ma, mb) = (quartiles(fa).median, quartiles(fb).median);
            let higher = mb > ma;
            pass &= !higher;
            writeln!(
                table,
                "{:<14} {:<18} failed fraction {ma:.6} -> {mb:.6}  {}",
                w.name,
                "failed_frac",
                if higher { "regressed" } else { "ok" }
            )
            .expect("write to string");
        }
    }
    for (key, ea) in &a.exact {
        let Some(eb) = b.exact.get(key) else { continue };
        // Same seed on both sides must give the same number.
        for (seed, x) in ea {
            for (_, y) in eb.iter().filter(|(s, y)| s == seed && y != x) {
                pass = false;
                writeln!(
                    table,
                    "{:<14} {:<18} not repeatable for seed {seed}: {x} vs {y}",
                    key.0, key.1
                )
                .expect("write to string");
            }
        }
    }
    (table, pass)
}

pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let (table, pass) = compare(&Side::load(a)?, &Side::load(b)?);
    print!("{table}");
    println!(
        "{}",
        if pass {
            "compare: ok"
        } else {
            "compare: FAILED"
        }
    );
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::object;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            kind: crate::report::Kind::Time,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let p50 = &def(Better::Lower);
        assert_eq!(verdict(p50, &[100.0], &[105.0]).0, Verdict::Ok);
        assert_eq!(verdict(p50, &[100.0], &[80.0]).0, Verdict::Ok);
        assert_eq!(verdict(p50, &[100.0], &[115.0]).0, Verdict::Regressed);
        let qps = &def(Better::Higher);
        assert_eq!(verdict(qps, &[100.0], &[115.0]).0, Verdict::Ok);
        assert_eq!(verdict(qps, &[100.0], &[85.0]).0, Verdict::Regressed);
        // Runs that spread wider than the bound cannot show "no worse than the bound" …
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            verdict(p50, &noisy, &[101.0, 102.0, 103.0, 104.0, 105.0]).0,
            Verdict::Unresolved
        );
        // … but a change far outside that spread is still a regression.
        assert_eq!(
            verdict(p50, &noisy, &[200.0, 201.0, 202.0, 203.0, 204.0]).0,
            Verdict::Regressed
        );
    }

    fn run(p50: f64, failed: f64, fingerprint: &str) -> Value {
        object([
            ("seed", Value::Num(7.0)),
            ("attempted", Value::Num(100.0)),
            ("failed", Value::Num(failed)),
            (
                "end_to_end",
                object([(
                    "op_p50_ms",
                    object([
                        ("value", Value::Num(p50)),
                        ("unit", Value::Str("ms".into())),
                    ]),
                )]),
            ),
            (
                "exact",
                object([("fingerprint", Value::Str(fingerprint.into()))]),
            ),
        ])
    }

    fn side(p50: f64, failed: f64, fingerprint: &str) -> Side {
        let mut s = Side::default();
        s.add_sets(&[object([("serve_zipf", run(p50, failed, fingerprint))])])
            .unwrap();
        s
    }

    #[test]
    fn compare_fails_on_regression_failures_and_unrepeatable_counts() {
        let base = side(1.0, 0.0, "abc");
        assert!(compare(&base, &side(1.05, 0.0, "abc")).1);
        let (table, pass) = compare(&base, &side(1.5, 0.0, "abc"));
        assert!(!pass && table.contains("regressed"), "{table}");
        assert!(
            !compare(&base, &side(1.0, 1.0, "abc")).1,
            "a higher failed fraction fails"
        );
        let (table, pass) = compare(&base, &side(1.0, 0.0, "abd"));
        assert!(!pass && table.contains("not repeatable"), "{table}");
    }
}
