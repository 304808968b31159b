//! Opt-in metrics export for the `figs` entries, the counters-and-gauges
//! companion of [`crate::tracing::BenchTracer`] (DESIGN.md §11).
//!
//! Every entry that drives the simulated machine honours `figs --metrics
//! <dir>`: when set, each simulated run collects its per-rank metrics
//! registries and writes them — together with the cost-model conformance
//! report, when the caller computed one — as `<label>.metrics.json` under
//! the directory.
//! Without the flag, collection stays off and the runs are untouched.

use std::path::PathBuf;
use tucker_core::ModelCheckReport;
use tucker_mpisim::{MetricsRegistry, Simulator};

/// Metrics-export destination (`None`: never export).
pub struct MetricsSink {
    dir: Option<PathBuf>,
}

impl MetricsSink {
    /// Export under `dir`, or never.
    pub fn new(dir: Option<PathBuf>) -> Self {
        MetricsSink { dir }
    }

    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Turn on metrics collection when enabled; otherwise return the
    /// simulator unchanged (zero overhead).
    pub fn apply(&self, sim: Simulator) -> Simulator {
        if self.enabled() {
            sim.with_metrics(true)
        } else {
            sim
        }
    }

    /// Write `<label>.metrics.json` under the metrics directory, in the same
    /// `tucker-metrics-v1` schema the CLI's `--metrics` flag emits. No-op
    /// when disabled or when the run collected no registries.
    pub fn export(&self, label: &str, metrics: &[MetricsRegistry], report: Option<&ModelCheckReport>) {
        let Some(dir) = &self.dir else { return };
        if metrics.is_empty() {
            return;
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("metrics export: cannot create {}: {e}", dir.display());
            return;
        }
        let per_rank: Vec<String> = metrics.iter().map(|r| r.to_json()).collect();
        let json = format!(
            "{{\"schema\":\"tucker-metrics-v1\",\"ranks\":{},\"per_rank\":[{}],\"model_check\":{}}}\n",
            metrics.len(),
            per_rank.join(","),
            report.map_or("null".to_string(), |r| r.to_json()),
        );
        let path = dir.join(format!("{label}.metrics.json"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("metrics export: {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_mpisim::{Comm, CostModel};

    #[test]
    fn export_writes_schema_json_per_label() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("tucker_bench_metrics_{}", std::process::id()));
        let sink = MetricsSink { dir: Some(dir.clone()) };
        let sim = sink.apply(Simulator::new(2).with_cost(CostModel::zero()));
        let out = sim.run(|ctx| {
            let r = ctx.rank() as f64;
            let mut world = Comm::world(ctx);
            world.allreduce_sum_vec(ctx, vec![r]);
        });
        sink.export("unit", &out.metrics, None);
        let json = std::fs::read_to_string(dir.join("unit.metrics.json")).unwrap();
        assert!(json.contains("\"schema\":\"tucker-metrics-v1\""));
        assert!(json.contains("\"ranks\":2"));
        assert!(json.contains("comm/allreduce/bytes"));
        assert!(json.contains("\"model_check\":null"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = MetricsSink::new(None);
        assert!(!sink.enabled());
        let sim = sink.apply(Simulator::new(1));
        let out = sim.run(|_ctx| ());
        assert!(out.metrics.is_empty());
        sink.export("nothing", &out.metrics, None);
    }
}
