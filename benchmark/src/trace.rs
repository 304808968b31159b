//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into the crates' public functions, held in
//! memory, and written when the run ends as Chrome trace-event JSON plus a
//! self-time table. Nothing here touches the crates being measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `op` is the operation (repetition, query, append) the
/// span belongs to; `lane` is the thread or simulated rank it ran on.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub lane: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans on one lane. Switched off it only calls the closure, which
/// is how the untraced side of the overhead comparison runs the same code.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    lane: u32,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, lane: u32) -> Self {
        Recorder {
            on,
            epoch,
            lane,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            lane: self.lane,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Join the spans of several lanes into one list, keeping parent links.
pub fn merge(lanes: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for lane in lanes {
        let base = all.len();
        all.extend(lane.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover (children that overlap each other count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Sum of `value(span)` per operation for the spans named `name`, in
/// operation order. Lanes are summed separately and the largest kept, so for
/// simulated ranks this is the slowest rank's total.
pub fn per_op(spans: &[Span], name: &str, value: impl Fn(usize, &Span) -> f64) -> Vec<f64> {
    let mut sums: BTreeMap<(u64, u32), f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == name {
            *sums.entry((s.op, s.lane)).or_insert(0.0) += value(i, s);
        }
    }
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for ((op, _), v) in sums {
        let slot = by_op.entry(op).or_insert(0.0);
        *slot = slot.max(v);
    }
    by_op.into_values().collect()
}

/// Per-operation total duration of the spans named `name`.
pub fn per_op_secs(spans: &[Span], name: &str) -> Vec<f64> {
    per_op(spans, name, |_, s| s.secs())
}

/// Self-time table: one row per span name with its count, total and self
/// seconds, sorted by self time.
pub fn self_time_table(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let r = rows.entry(s.name).or_insert((0, 0.0, 0.0));
        r.0 += 1;
        r.1 += s.secs();
        r.2 += own as f64 * 1e-9;
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.partial_cmp(&a.1 .2).expect("finite"));
    let mut out = format!(
        "{:<24} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, (n, total, own)) in rows {
        writeln!(out, "{name:<24} {n:>8} {total:>12.6} {own:>12.6}").expect("write to string");
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, microsecond timestamps, the lane as thread id.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
        )
        .expect("write to string");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // root 0..100 { a 10..40 { b 20..30 }, c 50..90 }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to its root.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two ranks working in parallel under one root: 10..60 and 30..80
        // cover 10..80, not 50 + 50.
        let spans = vec![
            span("root", 0, 100, None),
            span("rank0", 10, 60, Some(0)),
            span("rank1", 30, 80, Some(0)),
            span("inside", 35, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_can_be_switched_off() {
        let mut rec = Recorder::new(true, Instant::now(), 3);
        rec.set_op(5);
        let got = rec.span("outer", |r| r.span("inner", |_| 7));
        assert_eq!(got, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op, spans[0].lane),
            ("outer", None, 5, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false, Instant::now(), 0);
        assert_eq!(off.span("outer", |r| r.span("inner", |_| 7)), 7);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn per_op_keeps_the_slowest_lane() {
        let mut spans = vec![
            span("lq", 0, 10, None),
            span("lq", 20, 25, None),
            span("lq", 0, 40, None),
        ];
        spans[2].lane = 1;
        let mut later = span("lq", 100, 101, None);
        later.op = 1;
        spans.push(later);
        assert_eq!(
            per_op(&spans, "lq", |_, s| (s.end_ns - s.start_ns) as f64),
            vec![40.0, 1.0]
        );
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("r", 0, 9, None), span("k", 1, 2, Some(0))];
        let b = vec![span("r", 0, 9, None), span("k", 1, 2, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
    }

    #[test]
    fn chrome_json_is_valid_json() {
        let spans = vec![span("root", 0, 1500, None), span("a", 100, 900, Some(0))];
        let text = chrome_json(&spans);
        let v = crate::json::parse(&text).expect("trace parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(0.8));
        // The issue asks that Python's json module loads the file too.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("create out/");
        let path = dir.join(format!("unit_test_trace_{}.json", std::process::id()));
        std::fs::write(&path, &text).expect("write trace");
        let ok = std::process::Command::new("python3")
            .arg("-c")
            .arg("import json,sys; json.load(open(sys.argv[1]))")
            .arg(&path)
            .status();
        std::fs::remove_file(&path).ok();
        if let Ok(status) = ok {
            assert!(status.success(), "python3 could not load the trace");
        }
    }
}
