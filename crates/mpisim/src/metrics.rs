//! Per-rank metrics registry: typed counters, gauges, and log₂-bucketed
//! histograms (DESIGN.md §11).
//!
//! The registry is the machine-readable counterpart of the event traces from
//! PR 1: where a trace answers "what happened, in what order", the registry
//! answers "how much, in total" — bytes and messages per collective kind,
//! flops and pack-buffer traffic per kernel call site, per-mode retained
//! ranks and truncation errors. It is the data source for the cost-model
//! conformance checker in `tucker-core`.
//!
//! Determinism contract: everything exported by [`MetricsRegistry::to_json`]
//! is a pure function of the simulated program — counters count events,
//! gauges carry modeled (virtual-clock) values, histogram buckets are
//! `⌊log₂(value)⌋` — so two identical runs produce byte-identical JSON.
//! No wall-clock reading ever enters the registry.
//!
//! Metric names are `/`-separated paths; the conventional namespaces are
//! `comm/<kind>/…` (per-collective-kind traffic), `mem/…` (payload
//! high-water marks), `kernel/<site>/…` (linalg call sites, populated by the
//! caller draining `tucker_linalg::perf`), and `sthosvd/mode<k>/…`
//! (per-mode decomposition quality). All maps are `BTreeMap`s, so iteration
//! and JSON field order are name-sorted and run-independent.

use crate::json::{json_escape, json_f64};
use std::collections::BTreeMap;

/// Pre-interned metric names for one collective kind.
///
/// The per-message hooks in the runtime fire on every simulated wire message;
/// building `comm/<kind>/bytes` etc. with `format!` there would put a heap
/// allocation on the hottest metered path. The kinds form a closed set, so
/// the full name strings are interned at compile time instead.
pub(crate) struct CommNames {
    pub bytes: &'static str,
    pub msgs: &'static str,
    pub msg_size: &'static str,
    pub calls: &'static str,
    pub modeled_s: &'static str,
}

macro_rules! comm_names_table {
    ($($k:literal),* $(,)?) => {
        pub(crate) fn comm_names(kind: &str) -> &'static CommNames {
            match kind {
                $($k => &CommNames {
                    bytes: concat!("comm/", $k, "/bytes"),
                    msgs: concat!("comm/", $k, "/msgs"),
                    msg_size: concat!("comm/", $k, "/msg_size"),
                    calls: concat!("comm/", $k, "/calls"),
                    modeled_s: concat!("comm/", $k, "/modeled_s"),
                },)*
                other => panic!("unknown collective kind {other:?} — add it to comm_names_table!"),
            }
        }
    };
}

comm_names_table!(
    "p2p",
    "sendrecv",
    "bcast",
    "reduce",
    "allreduce",
    "allgather",
    "alltoallv",
    "reduce_scatter",
    "barrier",
);

/// A log₂-bucketed histogram of `u64` samples (message sizes, block counts).
///
/// Bucket `b` counts samples `v` with `⌊log₂(max(v,1))⌋ == b`, i.e. the
/// half-open magnitude range `[2^b, 2^(b+1))` (bucket 0 also takes `v = 0`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Sparse bucket counts, keyed by the log₂ bucket index.
    pub buckets: BTreeMap<u32, u64>,
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = 63 - v.max(1).leading_zeros();
        *self.buckets.entry(bucket).or_insert(0) += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (nearest-rank over the bucket counts), or `None` when empty.
    ///
    /// A log₂ histogram cannot recover exact sample values, so this returns
    /// the *inclusive* upper edge `2^(b+1) − 1` of the chosen bucket — a
    /// conservative (never understated) latency estimate, which is the right
    /// direction for SLO evaluation. `q` is clamped to `[0, 1]`.
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&b, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(if b >= 63 { u64::MAX } else { (1u64 << (b + 1)) - 1 });
            }
        }
        unreachable!("bucket counts sum to count")
    }

    fn json(&self) -> String {
        let buckets: Vec<String> =
            self.buckets.iter().map(|(b, c)| format!("\"{b}\":{c}")).collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"buckets\":{{{}}}}}",
            self.count,
            self.sum,
            buckets.join(",")
        )
    }
}

/// Per-rank registry of named counters, gauges, and histograms.
///
/// One registry exists per simulated rank when the simulator is built with
/// [`crate::Simulator::with_metrics`]; they come back in
/// [`crate::SimOutput::metrics`], indexed by rank. When metrics are off the
/// whole subsystem costs one `Option` check per event site.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add `v` to the named counter (created at zero on first use).
    ///
    /// These mutators probe with the borrowed `&str` before inserting so the
    /// steady state (key already present — every call after the first) does
    /// no allocation; `entry()` would build an owned `String` per call.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Raise the named counter to at least `v` (high-water-mark semantics).
    pub fn counter_max(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c = (*c).max(v),
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Add `v` to the named gauge (created at zero on first use).
    pub fn gauge_add(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g += v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Set the named gauge to `v`, overwriting any prior value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Record `v` into the named log₂ histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                self.histograms.entry(name.to_string()).or_default().record(v);
            }
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order (used by aggregation and reports).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Deterministic JSON object: `{"counters":{…},"gauges":{…},
    /// "histograms":{…}}`, all keys name-sorted.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_f64(*v)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("\"{}\":{}", json_escape(k), h.json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1049);
        // 0 and 1 → bucket 0; 2,3 → bucket 1; 4..8 → bucket 2; 8 → 3; 1024 → 10.
        assert_eq!(h.buckets[&0], 2);
        assert_eq!(h.buckets[&1], 2);
        assert_eq!(h.buckets[&2], 2);
        assert_eq!(h.buckets[&3], 1);
        assert_eq!(h.buckets[&10], 1);
    }

    #[test]
    fn quantile_upper_is_nearest_rank_over_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_upper(0.5), None);
        h.record(1); // bucket 0, upper 1
        assert_eq!(h.quantile_upper(0.0), Some(1));
        assert_eq!(h.quantile_upper(1.0), Some(1));
        for v in [100, 100, 100] {
            h.record(v); // bucket 6, upper 127
        }
        h.record(5000); // bucket 12, upper 8191
        assert_eq!(h.quantile_upper(0.5), Some(127));
        assert_eq!(h.quantile_upper(0.99), Some(8191));
        let mut top = Histogram::default();
        top.record(u64::MAX); // bucket 63 saturates at u64::MAX
        assert_eq!(top.quantile_upper(0.5), Some(u64::MAX));
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = MetricsRegistry::default();
        m.counter_add("comm/bcast/bytes", 100);
        m.counter_add("comm/bcast/bytes", 28);
        m.counter_max("mem/peak", 7);
        m.counter_max("mem/peak", 3);
        m.gauge_add("comm/bcast/modeled_s", 0.5);
        m.gauge_add("comm/bcast/modeled_s", 0.25);
        m.gauge_set("mode0/rank", 4.0);
        assert_eq!(m.counter("comm/bcast/bytes"), 128);
        assert_eq!(m.counter("mem/peak"), 7);
        assert_eq!(m.gauge("comm/bcast/modeled_s"), Some(0.75));
        assert_eq!(m.gauge("mode0/rank"), Some(4.0));
        assert_eq!(m.counter("never/touched"), 0);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut a = MetricsRegistry::default();
        a.counter_add("z/second", 2);
        a.counter_add("a/first", 1);
        a.observe("h/sizes", 80);
        a.gauge_set("g/x", 1.5);
        let mut b = MetricsRegistry::default();
        // Opposite insertion order must not change the rendering.
        b.gauge_set("g/x", 1.5);
        b.observe("h/sizes", 80);
        b.counter_add("a/first", 1);
        b.counter_add("z/second", 2);
        assert_eq!(a.to_json(), b.to_json());
        let j = a.to_json();
        assert!(j.find("a/first").unwrap() < j.find("z/second").unwrap(), "{j}");
        assert!(j.contains("\"count\":1"), "{j}");
        assert!(j.contains("\"6\":1"), "80 bytes lands in log2 bucket 6: {j}");
    }

    #[test]
    fn non_finite_gauges_become_null() {
        let mut m = MetricsRegistry::default();
        m.gauge_set("bad", f64::NAN);
        assert!(m.to_json().contains("\"bad\":null"));
    }
}
