//! Tiny dependency-free argument parsing for the `tucker` CLI.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// First non-flag token.
    pub command: String,
    /// Remaining positional tokens.
    pub positional: Vec<String>,
    /// `--key value` pairs; bare flags map to an empty string.
    pub options: BTreeMap<String, String>,
}

/// Flags that take no value.
const BARE_FLAGS: &[&str] = &[
    "extend", "f32", "help", "json", "model-check", "no-cache", "quick", "resume", "validate",
    "verify",
];

/// Options that take a value. With [`BARE_FLAGS`] this names every option
/// a command reads, so a misspelt or retired option is rejected instead of
/// silently ignored.
const VALUE_OPTIONS: &[&str] = &[
    "checkpoint-dir", "dims", "fast-drift", "full-drift", "grid", "inject", "kind", "method",
    "metrics", "model-tol", "order", "order-policy", "out", "oversample", "power", "ranks",
    "replicas", "seed", "shards", "sketch-seed", "slab", "slo-error-rate", "slo-p50-ms",
    "slo-p99-ms", "slo-recovery-ms", "svd", "threads", "time-mode", "timeline", "tol", "trace",
    "watchdog-ms",
];

/// Parse a token stream (without the program name).
pub fn parse(tokens: &[String]) -> Result<Args, String> {
    let mut it = tokens.iter().peekable();
    let command = it.next().cloned().ok_or("missing subcommand; try `tucker help`")?;
    let mut positional = Vec::new();
    let mut options = BTreeMap::new();
    while let Some(tok) = it.next() {
        if let Some(key) = tok.strip_prefix("--") {
            if BARE_FLAGS.contains(&key) {
                options.insert(key.to_string(), String::new());
            } else if VALUE_OPTIONS.contains(&key) {
                let val = it
                    .next()
                    .ok_or_else(|| format!("option --{key} expects a value"))?;
                options.insert(key.to_string(), val.clone());
            } else {
                return Err(format!("unknown option --{key}"));
            }
        } else {
            positional.push(tok.clone());
        }
    }
    Ok(Args { command, positional, options })
}

impl Args {
    /// Positional argument `i`, or an error naming it.
    pub fn pos(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positional.get(i).map(|s| s.as_str()).ok_or_else(|| format!("missing <{name}>"))
    }

    /// Option value, if present.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Bare-flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

/// Parse `"40x40x33x40"` or `"40,40,33,40"` into dimensions.
pub fn parse_dims(s: &str) -> Result<Vec<usize>, String> {
    let parts: Vec<&str> = s.split(['x', 'X', ',']).collect();
    let mut dims = Vec::with_capacity(parts.len());
    for p in parts {
        let d: usize = p.trim().parse().map_err(|_| format!("bad dimension '{p}'"))?;
        if d == 0 {
            return Err("dimensions must be positive".into());
        }
        dims.push(d);
    }
    if dims.is_empty() {
        return Err("empty dimension list".into());
    }
    Ok(dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_positionals_and_options() {
        let a = parse(&toks("compress in.tns out.tkr --tol 1e-4 --method qr")).unwrap();
        assert_eq!(a.command, "compress");
        assert_eq!(a.positional, vec!["in.tns", "out.tkr"]);
        assert_eq!(a.opt("tol"), Some("1e-4"));
        assert_eq!(a.opt("method"), Some("qr"));
    }

    #[test]
    fn bare_flags() {
        let a = parse(&toks("generate out.tns --kind hcci --f32")).unwrap();
        assert!(a.flag("f32"));
        assert_eq!(a.opt("kind"), Some("hcci"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&toks("compress x --tol")).is_err());
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn dims_formats() {
        assert_eq!(parse_dims("40x40x33x40").unwrap(), vec![40, 40, 33, 40]);
        assert_eq!(parse_dims("3,4,5").unwrap(), vec![3, 4, 5]);
        assert!(parse_dims("3x0x2").is_err());
        assert!(parse_dims("abc").is_err());
    }

    #[test]
    fn positional_accessor() {
        let a = parse(&toks("info file.tns")).unwrap();
        assert_eq!(a.pos(0, "file").unwrap(), "file.tns");
        assert!(a.pos(1, "missing").is_err());
    }
}
