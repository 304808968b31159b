//! Opt-in event tracing for the `figs` entries.
//!
//! Every entry that drives the simulated machine honours `figs --trace
//! <dir>`: when set, each simulated run records its collective/phase event
//! stream with validation on, and writes a Chrome-trace JSON plus a per-rank
//! text timeline under the directory, one pair per experiment label. Without
//! the flag, tracing stays off and the runs are untouched (see DESIGN.md
//! §Observability).

use std::path::PathBuf;
use tucker_mpisim::{chrome_trace_json, text_timeline, RankTrace, Simulator, TraceConfig};

/// Trace-export destination (`None`: never export).
pub struct BenchTracer {
    dir: Option<PathBuf>,
}

impl BenchTracer {
    /// Export under `dir`, or never.
    pub fn new(dir: Option<PathBuf>) -> Self {
        BenchTracer { dir }
    }

    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Attach validating trace collection to a simulator when enabled;
    /// otherwise return it unchanged (zero overhead).
    pub fn apply(&self, sim: Simulator) -> Simulator {
        if self.enabled() {
            sim.with_trace(TraceConfig::validating())
        } else {
            sim
        }
    }

    /// Write `<label>.trace.json` and `<label>.timeline.txt` under the trace
    /// directory. No-op when disabled or when the run recorded no events.
    pub fn export(&self, label: &str, traces: &[RankTrace]) {
        let Some(dir) = &self.dir else { return };
        if traces.is_empty() {
            return;
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("trace export: cannot create {}: {e}", dir.display());
            return;
        }
        let json = dir.join(format!("{label}.trace.json"));
        let txt = dir.join(format!("{label}.timeline.txt"));
        if let Err(e) = std::fs::write(&json, chrome_trace_json(traces)) {
            eprintln!("trace export: {}: {e}", json.display());
        }
        if let Err(e) = std::fs::write(&txt, text_timeline(traces)) {
            eprintln!("trace export: {}: {e}", txt.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_mpisim::{Comm, CostModel};

    #[test]
    fn export_writes_both_files_per_label() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("tucker_bench_trace_{}", std::process::id()));
        let tracer = BenchTracer { dir: Some(dir.clone()) };
        let sim = tracer.apply(Simulator::new(2).with_cost(CostModel::zero()));
        let out = sim.run(|ctx| {
            let r = ctx.rank() as f64;
            let mut world = Comm::world(ctx);
            ctx.phase("Gram", |c| world.allreduce_sum_vec(c, vec![r]));
        });
        tracer.export("unit", &out.traces);
        let json = std::fs::read_to_string(dir.join("unit.trace.json")).unwrap();
        assert!(json.contains("\"name\":\"Gram\""));
        let txt = std::fs::read_to_string(dir.join("unit.timeline.txt")).unwrap();
        assert!(txt.contains("rank 1"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let tracer = BenchTracer::new(None);
        assert!(!tracer.enabled());
        let sim = tracer.apply(Simulator::new(1));
        let out = sim.run(|_ctx| ());
        assert!(out.traces.is_empty());
        tracer.export("nothing", &out.traces);
    }
}
