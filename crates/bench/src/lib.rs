//! The paper's experiments.
//!
//! One binary, `figs` (`src/bin/figs.rs`), fronts everything here: an entry
//! per paper table/figure ([`figures`]), the two < 2% overhead budgets and
//! the DESIGN.md §5 ablations ([`overhead`]). [`serve_bench`] is the
//! deterministic serving harness the CLI's `serve-bench` / `slo-report`
//! call. The rest is plumbing: the four (algorithm × precision) variants,
//! the paper's processor grids, the `figs` argument parser, and plain-text /
//! CSV reporting into `results/`. Wall-clock performance is judged by
//! `benchmark/` (`tuckerbench`), not here.

pub mod args;
pub mod figures;
pub mod grids;
pub mod metrics;
pub mod overhead;
pub mod report;
pub mod serve_bench;
pub mod tracing;
pub mod variants;

pub use args::Opts;
pub use grids::{balanced_grid, strong_scaling_grids, table1_grid};
pub use metrics::MetricsSink;
pub use report::{write_csv, Table};
pub use serve_bench::{
    bench_dims, run_failover_bench, run_serve_bench, run_tier_workload, FailoverBenchResult,
    ServeBenchResult,
};
pub use tracing::BenchTracer;
pub use variants::{run_compression, run_variant, CompressionRow, Precision, Variant};
