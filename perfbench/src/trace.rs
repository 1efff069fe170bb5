//! In-memory spans recorded by the benchmark's own code, around each call
//! into a layer and inside the closures the benchmark hands to the
//! executor, plus the self-time accounting over them.
//!
//! Spans of one operation share its `op` id; `id` and `parent` are local
//! to that operation (`ROOT` is the operation itself, parent `NONE`).
//! Spans outside any operation (telemetry pumps and scrapes) use op 0.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const NONE: u32 = 0;
/// Local id of an operation's root span.
pub const ROOT: u32 = 1;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Operation id (0: background work outside any operation).
    pub op: u64,
    /// Id within the operation.
    pub id: u32,
    /// Parent id within the operation (`NONE` for the root).
    pub parent: u32,
    /// Span name; [`layer_of`] maps it to a layer.
    pub name: &'static str,
    /// Free tag: task index, device shard, tenant.
    pub tag: u32,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The layer a span name's self time belongs to. The root span's self
/// time is time inside an operation that no layer span covers.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "op" => "unexplained",
        "plan.build" | "core.run" => "hf-core.plan",
        "core.wait" => "hf-core.sched",
        "stream.submit" | "stream.wait" => "hf-core.stream",
        "fleet.submit" => "hf-core.fleet",
        "telemetry.pump" | "telemetry.scrape" => "hf-telemetry",
        "app.corr_build" | "app.place_build" => "apps",
        _ => "body",
    }
}

/// Span store shared by the benchmark's threads and the task closures.
pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
    cap: usize,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer, off, holding at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// True while recording and below capacity: an operation that starts
    /// now may be traced.
    pub fn accepting(&self) -> bool {
        self.on.load(Ordering::Relaxed) && self.len() < self.cap
    }

    /// True while recording.
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant to the tracer's timebase.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Stores a span (counted as dropped once the store is full).
    pub fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Spans lost to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of every span recorded.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.tag, s.start, s.end
        )?;
    }
    w.flush()
}

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval that its children cover. Children may
/// overlap each other or spill past the parent; only their union inside
/// the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<(u64, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NONE) {
        children
            .entry((s.op, s.parent))
            .or_default()
            .push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&(s.op, s.id))
                .map_or(0, |c| union_within(c, s.start, s.end));
            s.dur() - covered
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

/// Per-layer totals over the operations `keep` selects.
#[derive(Debug, Default, Clone)]
pub struct Accounting {
    /// Summed root-span durations: the end-to-end time accounted.
    pub e2e_ns: u64,
    /// Summed self time per layer (root self time under "unexplained").
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Accounting {
    /// Folds spans of the operations `keep` accepts.
    pub fn of(spans: &[Span], keep: impl Fn(u64) -> bool) -> Self {
        let selfs = self_times(spans);
        let mut acc = Accounting::default();
        for (s, &st) in spans.iter().zip(&selfs) {
            if s.op == 0 || !keep(s.op) {
                continue;
            }
            if s.parent == NONE {
                acc.e2e_ns += s.dur();
            }
            *acc.self_ns.entry(layer_of(s.name)).or_default() += st;
        }
        acc
    }

    /// Share of end-to-end time in `layer`'s self time.
    pub fn share(&self, layer: &str) -> f64 {
        crate::stats::ratio(
            self.self_ns.get(layer).copied().unwrap_or(0) as f64,
            self.e2e_ns as f64,
        )
    }

    /// `1 - summed layer self time / end-to-end time`.
    pub fn unexplained_frac(&self) -> f64 {
        let explained: u64 = self
            .self_ns
            .iter()
            .filter(|(l, _)| **l != "unexplained")
            .map(|(_, v)| v)
            .sum();
        1.0 - crate::stats::ratio(explained as f64, self.e2e_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op,
            id,
            parent,
            name,
            tag: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100): run [0,20), wait [20,100) with two overlapping
        // bodies [30,60) and [50,70), plus one spilling past the wait.
        let spans = vec![
            span(1, ROOT, NONE, "op", 0, 100),
            span(1, 2, ROOT, "core.run", 0, 20),
            span(1, 3, ROOT, "core.wait", 20, 100),
            span(1, 10, 3, "host.body", 30, 60),
            span(1, 11, 3, "host.body", 50, 70),
            span(1, 12, 3, "host.body", 90, 130),
            // Same local ids in another op must not mix in.
            span(2, 3, ROOT, "core.wait", 0, 10),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 0, "run and wait tile the op");
        assert_eq!(st[1], 20);
        // wait covers 80 ns; children cover [30,70) and [90,100).
        assert_eq!(st[2], 80 - 40 - 10);
        assert_eq!(&st[3..6], &[30, 20, 40]);
        assert_eq!(st[6], 10);
    }

    #[test]
    fn accounting_splits_layers_and_residual() {
        let spans = vec![
            span(1, ROOT, NONE, "op", 0, 100),
            span(1, 2, ROOT, "core.run", 0, 10),
            span(1, 3, ROOT, "core.wait", 15, 100),
            span(1, 10, 3, "host.body", 20, 80),
            span(0, ROOT, NONE, "telemetry.pump", 0, 5),
            span(7, ROOT, NONE, "op", 0, 1000),
        ];
        let acc = Accounting::of(&spans, |op| op == 1);
        assert_eq!(acc.e2e_ns, 100);
        assert_eq!(acc.self_ns["hf-core.plan"], 10);
        assert_eq!(acc.self_ns["hf-core.sched"], 25);
        assert_eq!(acc.self_ns["body"], 60);
        assert_eq!(acc.self_ns["unexplained"], 5);
        assert!((acc.unexplained_frac() - 0.05).abs() < 1e-12);
        assert!((acc.share("body") - 0.6).abs() < 1e-12);
        assert!(!acc.self_ns.contains_key("hf-telemetry"));
    }

    #[test]
    fn store_is_bounded() {
        let t = Tracer::new(2);
        t.set_on(true);
        for i in 0..3 {
            t.record(span(1, i + 2, ROOT, "host.body", 0, 1));
        }
        assert_eq!((t.len(), t.dropped()), (2, 1));
        assert!(!t.accepting());
    }
}
