//! `tuckerbench`: the repository's wall-clock benchmark. See README.md.
//!
//! ```text
//! tuckerbench --workload NAME --seed N --seconds S --trace 0|1   one run; the last line is the result
//! tuckerbench [--traced] [--sets N] [--smoke] [--seed N]         every workload, each in its own process
//! tuckerbench compare A.json B.json                              two result files against the bounds
//! tuckerbench manifest                                           the text of BENCHMARK.json
//! ```

mod compare;
mod gen;
mod host;
mod json;
mod report;
mod runall;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunOpts;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 7;

/// `--name value` options and bare `--flags` of one command line.
pub struct Args {
    tokens: Vec<String>,
}

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        self.tokens
            .iter()
            .position(|t| t == name)
            .and_then(|i| self.tokens.get(i + 1))
            .map(|s| s.as_str())
    }

    pub fn flag(&self, name: &str) -> bool {
        self.tokens.iter().any(|t| t == name)
    }

    pub fn parsed<V: std::str::FromStr>(&self, name: &str, default: V) -> Result<V, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {name}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args {
        tokens: std::env::args().skip(1).collect(),
    };
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tuckerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.tokens.first().map(|s| s.as_str()) {
        Some("manifest") => {
            print!("{}", report::manifest());
            return Ok(ExitCode::SUCCESS);
        }
        Some("compare") => {
            let (a, b) = match &args.tokens[1..] {
                [a, b] => (a, b),
                _ => return Err("usage: tuckerbench compare A.json B.json".into()),
            };
            return compare::compare_files(a, b);
        }
        _ => {}
    }
    if host::nproc() < host::THREADS {
        return Err(format!(
            "needs {} cores, this host has {}",
            host::THREADS,
            host::nproc()
        ));
    }
    // Every workload runs its kernels on two threads. The variable is read
    // once, at the first parallel call, so it is set before any; a value
    // already present (the one-thread probe's child) is left alone.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", host::THREADS.to_string());
    }
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out"));
    match args.value("--workload") {
        Some(workload) => {
            let opts = RunOpts {
                workload: workload.to_string(),
                seed: args.parsed("--seed", DEFAULT_SEED)?,
                seconds: args.parsed("--seconds", report::RUN_SECONDS as f64)?,
                trace: args.parsed("--trace", 0u8)? != 0,
                smoke: args.flag("--smoke"),
                out_dir,
                probe_reps: args
                    .value("--probe")
                    .map(|v| v.parse().map_err(|_| "bad --probe"))
                    .transpose()?,
            };
            runall::run_one(&opts)
        }
        None => runall::run_all(args, &out_dir),
    }
}
