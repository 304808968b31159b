//! The one argument parser of the `figs` binary.
//!
//! `figs <name>… | all | list [--trace DIR] [--metrics DIR] [--threads N|auto]
//! [--quick]`. A flag without its value, an unknown flag and an unknown
//! entry name are errors (the binary prints the entry list and exits 2) —
//! never a silently untraced run.

use crate::{BenchTracer, MetricsSink};
use std::path::PathBuf;
use tucker_mpisim::ThreadTopology;

/// What the flags select, handed to every entry.
pub struct Opts {
    /// `--trace DIR`: Chrome trace + text timeline per simulated run.
    pub tracer: BenchTracer,
    /// `--metrics DIR`: per-rank registries + conformance report per run.
    pub sink: MetricsSink,
    /// `--threads N|auto`: thread topology of the simulated ranks (unset
    /// keeps the shared pool).
    pub threads: Option<ThreadTopology>,
    /// `--quick`: CI-sized shapes and no < 2% gate (overhead entries only).
    pub quick: bool,
}

/// A parsed command line: positional words in order, plus the options.
pub struct Parsed {
    /// Entry names, `all` or `list`, as given.
    pub names: Vec<String>,
    /// The flags.
    pub opts: Opts,
}

/// Parse a `--threads` value into a topology.
pub fn parse_threads_spec(spec: &str) -> Result<ThreadTopology, String> {
    if spec == "auto" {
        return Ok(ThreadTopology::Partitioned);
    }
    match spec.parse::<usize>() {
        Ok(n) if n > 0 => Ok(ThreadTopology::PerRank(n)),
        _ => Err(format!("bad --threads '{spec}' (want a positive count or 'auto')")),
    }
}

/// Parse the arguments after the program name. `known` is the set of entry
/// names; `all` and `list` are always accepted.
pub fn parse(args: &[String], known: &[&str]) -> Result<Parsed, String> {
    let mut names = Vec::new();
    let (mut trace, mut metrics, mut threads, mut quick) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || match it.next() {
            Some(v) if !v.starts_with("--") => Ok(v.as_str()),
            _ => Err(format!("{arg} needs a value")),
        };
        match arg.as_str() {
            "--trace" => trace = Some(PathBuf::from(value()?)),
            "--metrics" => metrics = Some(PathBuf::from(value()?)),
            "--threads" => threads = Some(parse_threads_spec(value()?)?),
            "--quick" => quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name if name == "all" || name == "list" || known.contains(&name) => {
                names.push(name.to_string())
            }
            name => return Err(format!("unknown entry '{name}'")),
        }
    }
    if names.is_empty() {
        return Err("no entry named".into());
    }
    let opts =
        Opts { tracer: BenchTracer::new(trace), sink: MetricsSink::new(metrics), threads, quick };
    Ok(Parsed { names, opts })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["fig1", "fig4", "overhead_obs"];

    fn parse_words(words: &[&str]) -> Result<Parsed, String> {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse(&args, KNOWN)
    }

    #[test]
    fn spec_forms() {
        assert_eq!(parse_threads_spec("auto").unwrap(), ThreadTopology::Partitioned);
        assert_eq!(parse_threads_spec("1").unwrap(), ThreadTopology::PerRank(1));
        assert_eq!(parse_threads_spec("4").unwrap(), ThreadTopology::PerRank(4));
        for bad in ["0", "-2", "many", ""] {
            assert!(parse_threads_spec(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn names_and_flags_in_any_order() {
        let p = parse_words(&["fig4", "--trace", "/tmp/t", "fig1", "--threads", "auto", "--quick"])
            .unwrap();
        assert_eq!(p.names, ["fig4", "fig1"]);
        assert!(p.opts.tracer.enabled() && !p.opts.sink.enabled());
        assert_eq!(p.opts.threads, Some(ThreadTopology::Partitioned));
        assert!(p.opts.quick);
        let p = parse_words(&["--metrics", "m", "all"]).unwrap();
        assert_eq!(p.names, ["all"]);
        assert!(p.opts.sink.enabled() && !p.opts.quick && p.opts.threads.is_none());
        assert_eq!(parse_words(&["list"]).unwrap().names, ["list"]);
    }

    #[test]
    fn a_flag_without_its_value_is_rejected() {
        for words in [
            &["fig1", "--trace"][..],
            &["--threads"],
            &["--metrics", "--quick", "fig1"],
            &["--trace", "--metrics", "dir", "fig1"],
        ] {
            let err = parse_words(words).err().unwrap_or_else(|| panic!("{words:?} accepted"));
            assert!(err.contains("needs a value"), "{words:?}: {err}");
        }
        assert!(parse_words(&["--threads", "zero", "fig1"]).err().unwrap().contains("bad --threads"));
    }

    #[test]
    fn unknown_flags_and_entries_are_rejected() {
        assert_eq!(parse_words(&["--nosuchflag", "fig1"]).err().unwrap(), "unknown flag --nosuchflag");
        assert_eq!(parse_words(&["nosuchfig"]).err().unwrap(), "unknown entry 'nosuchfig'");
        assert_eq!(parse_words(&["--quick"]).err().unwrap(), "no entry named");
        assert!(parse_words(&[]).is_err());
    }
}
