//! Deterministic collective/point-to-point event tracing for the simulator.
//!
//! When enabled via [`TraceConfig`] on [`crate::Simulator`], every rank
//! records its sends, receives, collective entries, and phase begin/end marks
//! into a bounded per-rank ring buffer ([`TraceBuffer`]), stamped with both
//! the wall clock (seconds since the run started) and the modeled
//! alpha-beta-gamma virtual clock. The buffers live behind an
//! `Arc<Mutex<..>>` shared with the runner so the deadlock watchdog can dump
//! every rank's last events even while those ranks are still blocked.
//!
//! Two exporters are provided: [`chrome_trace_json`], which emits the Chrome
//! trace-event JSON format loadable in Perfetto / `chrome://tracing` (one
//! track per rank, phases as complete spans, messages as flow arrows), and
//! [`text_timeline`], a plain-text per-rank event listing for terminals and
//! test assertions.

use crate::json::json_escape;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Configuration for tracing and runtime validation, passed to
/// [`crate::Simulator::with_trace`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Per-rank ring-buffer capacity in events. Oldest events are dropped
    /// (and counted) once full.
    pub capacity: usize,
    /// Cross-rank collective sequence validation: detects two ranks calling
    /// different collectives at the same operation index of a communicator
    /// and reports a typed [`crate::MpiSimError::CollectiveMismatch`].
    pub validate: bool,
    /// Deadlock watchdog: if a rank sits in a receive for this long with no
    /// message arriving, the run aborts with
    /// [`crate::MpiSimError::Deadlock`] carrying every rank's trace tail.
    pub watchdog: Option<Duration>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 4096, validate: false, watchdog: None }
    }
}

impl TraceConfig {
    /// Tracing plus all runtime validation: collective sequence checking and
    /// a 5-second deadlock watchdog.
    pub fn validating() -> Self {
        TraceConfig { capacity: 4096, validate: true, watchdog: Some(Duration::from_secs(5)) }
    }

    /// Set the per-rank ring capacity.
    pub fn capacity(mut self, events: usize) -> Self {
        self.capacity = events.max(1);
        self
    }

    /// Set (or clear) the deadlock watchdog interval.
    pub fn watchdog(mut self, interval: Option<Duration>) -> Self {
        self.watchdog = interval;
        self
    }
}

/// What happened at one trace point.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Point-to-point send to `dst`.
    Send {
        /// Destination world rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Payload wire bytes.
        bytes: usize,
    },
    /// Point-to-point receive from `src` (recorded when the message is
    /// consumed, after clock sync).
    Recv {
        /// Source world rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Payload wire bytes.
        bytes: usize,
    },
    /// Entry into a collective operation on a communicator.
    Collective {
        /// Communicator id.
        comm: u64,
        /// Operation index on that communicator.
        op_index: u64,
        /// Human-readable operation descriptor, e.g. `bcast<f64>(root=2)`.
        op: String,
    },
    /// A named phase timer opened.
    PhaseBegin {
        /// Phase label.
        name: String,
    },
    /// The innermost phase timer closed.
    PhaseEnd {
        /// Phase label.
        name: String,
    },
    /// An injected fault fired ([`crate::FaultPlan`]): crash, drop, delay,
    /// or corruption.
    Fault {
        /// Human-readable description of what fired.
        desc: String,
    },
    /// A complete span with an explicit duration, recorded after the fact.
    ///
    /// Unlike [`EventKind::PhaseBegin`]/[`EventKind::PhaseEnd`] pairs, spans
    /// carry their own extent, so they need no stack discipline: they may
    /// overlap, nest arbitrarily, and be pushed out of timestamp order on a
    /// lane. The serving tier uses them for per-query attempt/backoff
    /// windows, where concurrent queries interleave on one replica track.
    Span {
        /// Span label.
        name: String,
        /// Span length in seconds (same clock as the event's timestamp).
        dur: f64,
    },
}

/// One recorded event with its clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone per-rank sequence number (survives ring-buffer eviction).
    pub seq: u64,
    /// Wall-clock seconds since the simulated run started.
    pub wall: f64,
    /// Modeled (alpha-beta-gamma) virtual time of the rank, in seconds.
    pub vt: f64,
    /// The event payload.
    pub kind: EventKind,
}

/// Bounded per-rank event ring.
#[derive(Debug)]
pub struct TraceBuffer {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<TraceEvent>,
}

impl TraceBuffer {
    /// An empty ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        TraceBuffer { cap: cap.max(1), next_seq: 0, dropped: 0, events: VecDeque::new() }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, wall: f64, vt: f64, kind: EventKind) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { seq: self.next_seq, wall, vt, kind });
        self.next_seq += 1;
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copy out the current contents as an owned trace for `rank`.
    pub fn snapshot(&self, rank: usize) -> RankTrace {
        RankTrace { rank, dropped: self.dropped, events: self.events.iter().cloned().collect() }
    }
}

/// The recorded trace of one rank, as returned in
/// [`crate::SimOutput::traces`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// World rank.
    pub rank: usize,
    /// Events evicted from the ring before this snapshot.
    pub dropped: u64,
    /// Surviving events in sequence order.
    pub events: Vec<TraceEvent>,
}

impl RankTrace {
    /// The last `n` events (fewer if the trace is shorter).
    pub fn tail(&self, n: usize) -> &[TraceEvent] {
        let start = self.events.len().saturating_sub(n);
        &self.events[start..]
    }
}

fn fmt_kind(kind: &EventKind) -> String {
    match kind {
        EventKind::Send { dst, tag, bytes } => format!("send  -> rank {dst} tag {tag} ({bytes} B)"),
        EventKind::Recv { src, tag, bytes } => format!("recv  <- rank {src} tag {tag} ({bytes} B)"),
        EventKind::Collective { comm, op_index, op } => {
            format!("coll  {op} [comm {comm} op {op_index}]")
        }
        EventKind::PhaseBegin { name } => format!("begin {name}"),
        EventKind::PhaseEnd { name } => format!("end   {name}"),
        EventKind::Fault { desc } => format!("fault {desc}"),
        EventKind::Span { name, dur } => format!("span  {name} ({dur:.9}s)"),
    }
}

/// Plain-text per-rank timeline: one line per event, ranks in order.
pub fn text_timeline(traces: &[RankTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        out.push_str(&format!("── rank {} ({} events", t.rank, t.events.len()));
        if t.dropped > 0 {
            out.push_str(&format!(", {} dropped", t.dropped));
        }
        out.push_str(") ──\n");
        for e in &t.events {
            out.push_str(&format!(
                "  #{:<6} wall {:>12.6}s  vt {:>12.9}s  {}\n",
                e.seq,
                e.wall,
                e.vt,
                fmt_kind(&e.kind)
            ));
        }
    }
    out
}

/// The last `n` events of every rank, for deadlock reports.
pub fn tail_report(traces: &[RankTrace], n: usize) -> String {
    let mut out = String::new();
    for t in traces {
        out.push_str(&format!("rank {} (last {} of {} events):\n", t.rank, t.tail(n).len(), t.events.len()));
        for e in t.tail(n) {
            out.push_str(&format!("  #{:<6} vt {:>12.9}s  {}\n", e.seq, e.vt, fmt_kind(&e.kind)));
        }
    }
    out
}

/// Export traces in the Chrome trace-event JSON format (loadable by Perfetto
/// and `chrome://tracing`).
///
/// Each rank becomes one thread track (`tid` = rank). Phases become complete
/// (`"ph":"X"`) spans, collectives instant events, and point-to-point
/// messages flow arrows from sender to receiver. Timestamps use the modeled
/// virtual clock in microseconds when any modeled time was charged (the
/// interesting axis for an alpha-beta-gamma simulation); under a zero cost
/// model every virtual stamp is 0, so the exporter falls back to wall time.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let use_vt = traces.iter().any(|t| t.events.iter().any(|e| e.vt > 0.0));
    let ts_of = |e: &TraceEvent| -> f64 {
        let secs = if use_vt { e.vt } else { e.wall };
        secs * 1e6
    };

    let mut events: Vec<String> = Vec::new();
    for t in traces {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"rank {}"}}}}"#,
            t.rank, t.rank
        ));
    }

    // Match the n-th send on (src, dst, tag) with the n-th recv on the same
    // key to draw flow arrows; the simulator's channels are FIFO per pair,
    // and tag-stashed messages are consumed in per-tag send order, so ordinal
    // matching is exact.
    let mut send_ord: HashMap<(usize, usize, u64), u64> = HashMap::new();
    let mut recv_ord: HashMap<(usize, usize, u64), u64> = HashMap::new();

    for t in traces {
        // Reconstruct spans from begin/end pairs with an explicit stack.
        let mut stack: Vec<(&str, f64)> = Vec::new();
        let last_ts = t.events.last().map(ts_of).unwrap_or(0.0);
        for e in &t.events {
            let ts = ts_of(e);
            match &e.kind {
                EventKind::PhaseBegin { name } => stack.push((name, ts)),
                EventKind::PhaseEnd { name } => {
                    if let Some((n, begin)) = stack.pop() {
                        debug_assert_eq!(n, name);
                        events.push(format!(
                            r#"{{"name":"{}","ph":"X","pid":0,"tid":{},"ts":{:.3},"dur":{:.3}}}"#,
                            json_escape(name),
                            t.rank,
                            begin,
                            (ts - begin).max(0.0)
                        ));
                    }
                }
                EventKind::Send { dst, tag, bytes } => {
                    let ord = send_ord.entry((t.rank, *dst, *tag)).or_insert(0);
                    let id = format!("{}-{}-{}-{}", t.rank, dst, tag, ord);
                    *ord += 1;
                    events.push(format!(
                        r#"{{"name":"send","ph":"s","cat":"msg","id":"{id}","pid":0,"tid":{},"ts":{:.3},"args":{{"dst":{},"tag":{},"bytes":{}}}}}"#,
                        t.rank, ts, dst, tag, bytes
                    ));
                }
                EventKind::Recv { src, tag, bytes } => {
                    let ord = recv_ord.entry((*src, t.rank, *tag)).or_insert(0);
                    let id = format!("{}-{}-{}-{}", src, t.rank, tag, ord);
                    *ord += 1;
                    events.push(format!(
                        r#"{{"name":"recv","ph":"f","bp":"e","cat":"msg","id":"{id}","pid":0,"tid":{},"ts":{:.3},"args":{{"src":{},"tag":{},"bytes":{}}}}}"#,
                        t.rank, ts, src, tag, bytes
                    ));
                }
                EventKind::Collective { comm, op_index, op } => {
                    events.push(format!(
                        r#"{{"name":"{}","ph":"i","s":"t","pid":0,"tid":{},"ts":{:.3},"args":{{"comm":{},"op_index":{}}}}}"#,
                        json_escape(op),
                        t.rank,
                        ts,
                        comm,
                        op_index
                    ));
                }
                EventKind::Fault { desc } => {
                    events.push(format!(
                        r#"{{"name":"fault: {}","ph":"i","s":"t","pid":0,"tid":{},"ts":{:.3}}}"#,
                        json_escape(desc),
                        t.rank,
                        ts
                    ));
                }
                EventKind::Span { name, dur } => {
                    events.push(format!(
                        r#"{{"name":"{}","ph":"X","pid":0,"tid":{},"ts":{:.3},"dur":{:.3}}}"#,
                        json_escape(name),
                        t.rank,
                        ts,
                        (dur * 1e6).max(0.0)
                    ));
                }
            }
        }
        // A rank that died (or deadlocked) mid-phase leaves open frames;
        // close them at its last timestamp so the span is still visible.
        while let Some((name, begin)) = stack.pop() {
            events.push(format!(
                r#"{{"name":"{} (unclosed)","ph":"X","pid":0,"tid":{},"ts":{:.3},"dur":{:.3}}}"#,
                json_escape(name),
                t.rank,
                begin,
                (last_ts - begin).max(0.0)
            ));
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_traces() -> Vec<RankTrace> {
        let mut b0 = TraceBuffer::new(64);
        b0.push(0.001, 0.0, EventKind::PhaseBegin { name: "LQ".into() });
        b0.push(0.002, 1e-6, EventKind::Send { dst: 1, tag: 7, bytes: 800 });
        b0.push(0.004, 3e-6, EventKind::PhaseEnd { name: "LQ".into() });
        let mut b1 = TraceBuffer::new(64);
        b1.push(0.001, 0.0, EventKind::PhaseBegin { name: "LQ".into() });
        b1.push(0.003, 2e-6, EventKind::Recv { src: 0, tag: 7, bytes: 800 });
        b1.push(
            0.004,
            3e-6,
            EventKind::Collective { comm: 0, op_index: 0, op: "barrier".into() },
        );
        b1.push(0.005, 4e-6, EventKind::PhaseEnd { name: "LQ".into() });
        vec![b0.snapshot(0), b1.snapshot(1)]
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut b = TraceBuffer::new(3);
        for i in 0..5 {
            b.push(i as f64, 0.0, EventKind::PhaseBegin { name: format!("p{i}") });
        }
        let t = b.snapshot(0);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.events.len(), 3);
        // Sequence numbers keep counting across evictions.
        assert_eq!(t.events.first().unwrap().seq, 2);
        assert_eq!(t.events.last().unwrap().seq, 4);
    }

    #[test]
    fn tail_handles_short_traces() {
        let t = sample_traces().remove(1);
        assert_eq!(t.tail(2).len(), 2);
        assert_eq!(t.tail(100).len(), 4);
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_spans_and_flows() {
        let json = chrome_trace_json(&sample_traces());
        // Structural sanity: balanced braces/brackets outside strings.
        let (mut depth_obj, mut depth_arr, mut in_str, mut esc) = (0i64, 0i64, false, false);
        for c in json.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            assert!(depth_obj >= 0 && depth_arr >= 0);
        }
        assert_eq!(depth_obj, 0);
        assert_eq!(depth_arr, 0);
        assert!(!in_str);
        // Contains a complete span per rank, a matched flow pair, and the
        // collective instant.
        assert_eq!(json.matches(r#""ph":"X""#).count(), 2);
        assert!(json.contains(r#""ph":"s""#) && json.contains(r#""ph":"f""#));
        assert!(json.contains(r#""id":"0-1-7-0""#));
        assert!(json.contains("barrier"));
        // vt was non-zero, so timestamps come from the modeled clock.
        assert!(json.contains(r#""ts":1.000"#));
    }

    #[test]
    fn zero_virtual_time_falls_back_to_wall_clock() {
        let mut b = TraceBuffer::new(8);
        b.push(0.5, 0.0, EventKind::PhaseBegin { name: "TTM".into() });
        b.push(1.0, 0.0, EventKind::PhaseEnd { name: "TTM".into() });
        let json = chrome_trace_json(&[b.snapshot(0)]);
        assert!(json.contains(r#""ts":500000.000"#), "{json}");
    }

    #[test]
    fn unclosed_phase_is_emitted_for_dead_ranks() {
        let mut b = TraceBuffer::new(8);
        b.push(0.0, 0.0, EventKind::PhaseBegin { name: "Gram".into() });
        b.push(1.0, 2.0, EventKind::Send { dst: 1, tag: 1, bytes: 8 });
        let json = chrome_trace_json(&[b.snapshot(0)]);
        assert!(json.contains("Gram (unclosed)"), "{json}");
    }

    #[test]
    fn explicit_spans_export_without_stack_discipline() {
        let mut b = TraceBuffer::new(8);
        // Overlapping and out-of-order spans on one lane: legal for the
        // explicit-duration variant, impossible for begin/end pairs.
        b.push(0.0, 3e-6, EventKind::Span { name: "q1/attempt#0".into(), dur: 2e-6 });
        b.push(0.0, 1e-6, EventKind::Span { name: "q0/attempt#0".into(), dur: 4e-6 });
        let json = chrome_trace_json(&[b.snapshot(0)]);
        assert_eq!(json.matches(r#""ph":"X""#).count(), 2);
        assert!(json.contains(r#""name":"q1/attempt#0","ph":"X","pid":0,"tid":0,"ts":3.000,"dur":2.000"#), "{json}");
        assert!(json.contains(r#""ts":1.000,"dur":4.000"#), "{json}");
        assert!(text_timeline(&[b.snapshot(0)]).contains("span  q0/attempt#0"));
    }

    #[test]
    fn text_timeline_lists_every_event_with_both_clocks() {
        let txt = text_timeline(&sample_traces());
        assert!(txt.contains("── rank 0"));
        assert!(txt.contains("── rank 1"));
        assert!(txt.contains("send  -> rank 1 tag 7 (800 B)"));
        assert!(txt.contains("recv  <- rank 0 tag 7 (800 B)"));
        assert!(txt.contains("coll  barrier"));
        assert!(txt.contains("wall"));
        assert!(txt.contains("vt"));
    }

    #[test]
    fn tail_report_names_every_rank() {
        let report = tail_report(&sample_traces(), 2);
        assert!(report.contains("rank 0 (last 2 of 3 events)"));
        assert!(report.contains("rank 1 (last 2 of 4 events)"));
    }
}
