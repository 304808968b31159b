//! The benchmark's contract in one place: workloads, metric names with
//! units, directions and bounds, and the result a run prints.
//! `BENCHMARK.json` is `tuckerbench manifest`; a test keeps them equal.

use crate::json::{object, Value};
use crate::stats::Summary;
use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "hcci_qr_f64",
        why: "sthosvd QR-SVD f64 on HCCI surrogate 48x48x33x48, tol 1e-4: the paper's algorithm; 3/4 of the time is blocked LQ, then flat-tree TSLQ, so an LQ/TSQR or thread-pool change must show here",
    },
    WorkloadDef {
        name: "hcci_gram_f64",
        why: "same tensor, Gram-SVD f64 (TuckerMPI baseline): SYRK + TTM, bypasses LQ entirely, so an LQ change predicts no movement and a GEMM-microkernel change the largest",
    },
    WorkloadDef {
        name: "hcci_qr_f32",
        why: "same tensor cast to f32, QR-SVD: the paper's recommended variant and the f32 kernels; its op_p50_ms over hcci_gram_f64's is the paper's headline ratio (paper ~0.5)",
    },
    WorkloadDef {
        name: "grid2_qr_f64",
        why: "sthosvd_parallel on 2 simulated ranks, grid 2x1x1x1, 1 thread per rank, same tensor: the only workload through mpisim + dtensor, so a comms/runtime change shows here and not on hcci_*",
    },
    WorkloadDef {
        name: "serve_zipf",
        why: "Engine::execute, 12000 queries on a 1024x96x96 ranks 32x24x24 store, Zipf(1.0) block popularity, cache = 1/4 of all partials (hit rate 0.78): cache-dominated reads; a cache or planner change must show",
    },
    WorkloadDef {
        name: "serve_cold",
        why: "same store and mix, uniform block popularity, cache_budget 0: every query pays its mode-0 contraction; a cache change predicts no movement, a kernel/TTM change moves both serve workloads",
    },
    WorkloadDef {
        name: "stream_append",
        why: "StreamState::append on [T,64,64] ranks 12^3, 48 slabs of 8 rows from T=128, drift scheduled Fast 38 / Refresh 9 / Full 1, each followed by publish, open, swap_store, one query: writes beside reads",
    },
];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric depends on the speed the host happened to run at: wall
/// time grows with the host's pace, a rate shrinks with it, and counts,
/// ratios of two timings and modeled (virtual) times do not move.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    Time,
    Rate,
    Plain,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

impl MetricDef {
    /// The value reported for a measured `raw` on a host running at `pace`
    /// times its reference speed (see `host::Pace`).
    pub fn at_reference_pace(&self, raw: f64, pace: f64) -> f64 {
        match self.kind {
            Kind::Time => raw / pace,
            Kind::Rate => raw * pace,
            Kind::Plain => raw,
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound,
    }
}

/// A per-layer wall time (lower is better).
const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Lower,
        kind: Time,
        bound: 0.0,
    }
}

/// A per-layer rate (higher is better).
const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Higher,
        kind: Rate,
        bound: 0.0,
    }
}

/// A per-layer count, ratio or modeled time.
const fn plain(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Plain,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};
use Kind::{Plain, Rate, Time};

/// What a user of the system sees, defined on every workload through its
/// operation (one compress call, one query, one append); README.md maps
/// them to the per-family names of the issue that asked for the benchmark.
/// The bounds are what the reference host can hold (README.md, "Host and
/// calibration"): ten runs spread by 1 to 6% on a timing in a quiet hour,
/// but the host has stretches of many minutes in which memory-bound work
/// runs 15 to 40% slower, so every timing sits at the contract's cap of 25%.
/// The other three follow the seed (ranks at tol 1e-4) or the allocator.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, Time, 0.25),
    e2e("op_p50_ms", "ms", Lower, Time, 0.25),
    e2e("op_tail_ms", "ms", Lower, Time, 0.25),
    e2e("ops_per_s", "1/s", Higher, Rate, 0.25),
    e2e("error_over_tol", "ratio", Lower, Plain, 0.25),
    e2e("compression_ratio", "ratio", Higher, Plain, 0.15),
    e2e("peak_rss_mb", "MB", Lower, Plain, 0.10),
];

/// One number per layer boundary, from the traced run. A layer a workload
/// does not exercise reports 0 there.
pub const PER_LAYER: [MetricDef; 81] = [
    time("linalg.lq_s", "s"),
    time("linalg.lq_whole_s", "s"),
    time("linalg.tslq_s", "s"),
    rate("linalg.lq_gflops", "GF/s"),
    plain("linalg.lq_frac_peak", "ratio", Higher),
    time("linalg.syrk_s", "s"),
    rate("linalg.syrk_gflops", "GF/s"),
    plain("linalg.syrk_frac_peak", "ratio", Higher),
    time("linalg.svd_s", "s"),
    time("linalg.evd_s", "s"),
    time("linalg.svd_stacked_ms", "ms"),
    plain("linalg.thread_speedup", "ratio", Higher),
    time("tensor.ttm_s", "s"),
    rate("tensor.ttm_gflops", "GF/s"),
    plain("tensor.ttm_frac_peak", "ratio", Higher),
    time("tensor.read_s", "s"),
    time("core.mode0_s", "s"),
    time("core.mode1_s", "s"),
    time("core.mode2_s", "s"),
    time("core.mode3_s", "s"),
    plain("core.mode0_share", "ratio", Lower),
    time("core.loop_self_s", "s"),
    time("core.write_tucker_s", "s"),
    time("core.read_tucker_s", "s"),
    time("core.reconstruct_s", "s"),
    plain("core.store_bytes", "B", Lower),
    plain("core.p1_over_seq", "ratio", Lower),
    plain("core.p2_speedup", "ratio", Higher),
    time("core.step_imbalance_s", "s"),
    time("dtensor.scatter_s", "s"),
    time("dtensor.redistribute_s", "s"),
    time("dtensor.lq_s", "s"),
    time("dtensor.ttm_s", "s"),
    time("dtensor.gather_s", "s"),
    time("mpisim.launch_ms", "ms"),
    time("mpisim.sendrecv_us", "us"),
    rate("mpisim.sendrecv_mbps", "MB/s"),
    time("mpisim.allreduce_us", "us"),
    rate("mpisim.alltoallv_mbps", "MB/s"),
    plain("mpisim.msgs", "count", Lower),
    plain("mpisim.words", "count", Lower),
    plain("mpisim.flops", "count", Lower),
    plain("mpisim.modeled_s", "s", Lower),
    plain("mpisim.modeled_over_measured", "ratio", Higher),
    time("serve.store_open_ms", "ms"),
    plain("serve.store_resident_mb", "MB", Lower),
    time("serve.plan_us", "us"),
    time("serve.contract_mode0_us", "us"),
    plain("serve.cache_hit_rate", "ratio", Higher),
    time("serve.hit_p50_us", "us"),
    time("serve.miss_p50_us", "us"),
    time("serve.element_p50_us", "us"),
    time("serve.fiber_p50_us", "us"),
    time("serve.slab_p50_us", "us"),
    time("serve.bigslab_p50_ms", "ms"),
    rate("serve.out_mbps", "MB/s"),
    rate("serve.batch8_qps", "1/s"),
    plain("serve.modeled_over_measured", "ratio", Higher),
    time("serve.router_us_per_query", "us"),
    plain("serve.router_over_engine", "ratio", Lower),
    time("serve.swap_us", "us"),
    time("serve.first_query_us", "us"),
    time("stream.fast_p50_ms", "ms"),
    time("stream.refresh_p50_ms", "ms"),
    time("stream.full_p50_ms", "ms"),
    plain("stream.fast_n", "count", Higher),
    plain("stream.refresh_n", "count", Higher),
    plain("stream.full_n", "count", Higher),
    time("stream.swap_p50_ms", "ms"),
    time("stream.publish_ms", "ms"),
    time("stream.extend_p50_ms", "ms"),
    time("stream.recompute_ms", "ms"),
    plain("stream.speedup_vs_recompute", "ratio", Higher),
    plain("stream.err_vs_recompute", "ratio", Lower),
    rate("stream.coo_ingest_meps", "Mev/s"),
    time("stream.coo_gram_ms", "ms"),
    time("cli.compress_s", "s"),
    time("cli.query_ms", "ms"),
    plain("bench.replay_bit_identical", "count", Higher),
    plain("bench.replay_over_e2e", "ratio", Lower),
    plain("bench.trace_overhead_frac", "ratio", Lower),
];

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub fn metric_defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strs = |v: &[&str]| Value::Array(v.iter().map(|s| Value::Str((*s).into())).collect());
    let metric = |m: &MetricDef, bound: bool| {
        let mut pairs = vec![
            ("name", Value::Str(m.name.into())),
            ("unit", Value::Str(m.unit.into())),
            ("better", Value::Str(m.better.as_str().into())),
        ];
        if bound {
            pairs.push(("bound", Value::Num(m.bound)));
        }
        object(pairs)
    };
    let fields = [
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        object([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ];
    // One field per line in the contract's order, and one line per workload
    // and metric, so diffs stay readable.
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            let text = match v {
                Value::Array(items) if matches!(items.first(), Some(Value::Object(_))) => {
                    let lines: Vec<String> = items.iter().map(Value::to_json).collect();
                    format!("[{}]", lines.join(",\n    "))
                }
                other => other.to_json(),
            };
            format!("  \"{k}\": {text}")
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and those that returned an error, missed their
    /// oracle, or exceeded their error budget.
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; any metric of the active set left out is 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Timings to print with their count, quartiles and tail:
    /// `(name, summary of seconds, scale to unit, unit)`.
    pub timings: Vec<(String, Summary, f64, &'static str)>,
    /// Numbers that must repeat exactly for one seed (fingerprints, counts).
    pub exact: BTreeMap<String, String>,
    /// Free-form lines for the reader.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn timing(
        &mut self,
        name: &str,
        samples: &[f64],
        scale: f64,
        unit: &'static str,
    ) -> Summary {
        let s = Summary::of(samples);
        self.timings
            .push((name.to_string(), s.clone(), scale, unit));
        s
    }

    /// Record the verdict of one oracle over `n` operations.
    pub fn check(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("ORACLE FAILED: {what}: {failed} of {n}"));
        }
    }

    /// Every metric of `defs` with its unit; one left unset is 0.
    pub fn metrics_value(&self, defs: &[MetricDef]) -> Value {
        object(defs.iter().map(|d| {
            let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
            (
                d.name,
                object([
                    ("value", Value::Num(v)),
                    ("unit", Value::Str(d.unit.into())),
                ]),
            )
        }))
    }

    /// The contract's result line for the metrics in `defs`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        object([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value(defs)),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `tuckerbench manifest > BENCHMARK.json`"
        );
        let v = parse(&on_disk).expect("manifest is JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .keys()
            .map(|k| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn result_line_has_every_metric_of_the_set_and_nothing_else() {
        let mut o = Outcome::default();
        o.check(10, 0, "all good");
        o.set("op_p50_ms", 1.25);
        let v = parse(&o.result_line(&END_TO_END)).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["op_p50_ms"].get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m["op_p50_ms"].get("unit").unwrap().as_str(), Some("ms"));
        o.check(1, 1, "deliberately wrong");
        assert_eq!(
            parse(&o.result_line(&PER_LAYER))
                .unwrap()
                .get("correct")
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }
}
