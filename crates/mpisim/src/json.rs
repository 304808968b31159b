//! The JSON string and number writers behind every deterministic export:
//! Chrome traces, `tucker-metrics-v1`, and the serving tier's
//! `serve-log-v1` / `tucker-slo-v1` documents.

use std::fmt::Write as _;

/// Append `s` to `out` with JSON string escaping (quotes, backslashes and
/// control characters). Strings needing no escape — virtually every event
/// name and log field — cost one `push_str`.
pub fn json_escape_into(out: &mut String, s: &str) {
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// [`json_escape_into`] a fresh `String`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Append `v` to `out` as a JSON number. Finite values use Rust's shortest
/// round-trip formatting (deterministic for identical bit patterns);
/// non-finite values, which JSON cannot carry, become `null`.
pub fn json_f64_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// [`json_f64_into`] a fresh `String`.
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    json_f64_into(&mut out, v);
    out
}
