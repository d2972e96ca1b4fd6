//! In-memory spans for the traced run, written at exit as a Chrome trace.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span carries its name, start, end, the span that caused it, and the
//! identifier of the request or job it belongs to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spade_sim::JsonValue;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Layer name, e.g. `matrix.tile`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request or job id shared by every span of one request.
    pub rid: u64,
    /// Recording thread (small dense ids, for the trace's lanes).
    pub tid: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by children), ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean duration in milliseconds (0 when no spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Span recorder shared by every thread of the traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// An empty tracer timing from `epoch`, so several tracers share one
    /// timeline.
    pub fn with_epoch(epoch: Instant) -> Self {
        Tracer {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent
    /// nested spans on.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            rid,
            tid: TID.with(|t| *t),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Per-name totals and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans())
    }
}

/// Spans of several tracers as one Chrome-trace JSON document
/// (`traceEvents` of complete `X` events, microsecond timestamps), the
/// format `spade-cli trace` writes and Perfetto opens. Each tracer becomes
/// one named process.
pub fn chrome_trace(processes: &[(&str, &Tracer)]) -> String {
    let mut events = Vec::new();
    for (pid, (name, tracer)) in (1u64..).zip(processes) {
        events.push(JsonValue::object([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("args", JsonValue::object([("name", (*name).into())])),
        ]));
        for s in tracer.spans() {
            events.push(JsonValue::object([
                ("name", s.name.into()),
                ("cat", "repobench".into()),
                ("ph", "X".into()),
                ("ts", JsonValue::Float(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    JsonValue::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid", pid.into()),
                ("tid", s.tid.into()),
                (
                    "args",
                    JsonValue::object([
                        ("span", s.id.into()),
                        ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                        ("rid", s.rid.into()),
                    ]),
                ),
            ]));
        }
    }
    JsonValue::object([
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", "ms".into()),
    ])
    .render()
}

/// Runs `f` in a span when tracing, or plainly when `tracer` is `None`.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    rid: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, parent, rid, |id| f(Some(id))),
        None => f(None),
    }
}

/// Folds spans into per-name totals. A span's self time is its duration
/// minus the union of its children's intervals clipped to it.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rid: 1,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            s(1, "job", 0, 100, None),
            s(2, "tile", 10, 30, Some(1)),
            s(3, "run", 25, 60, Some(1)),
            s(4, "validate", 90, 120, Some(1)),
        ];
        let layers = layer_times(&spans);
        // Children cover [10,60) and [90,100): 60 ns of the job's 100.
        assert_eq!(layers["job"].self_ns, 40);
        assert_eq!(layers["job"].total_ns, 100);
        assert_eq!(layers["tile"].self_ns, 20);
        assert_eq!(layers["validate"].count, 1);
    }

    #[test]
    fn chrome_trace_parses_and_nests() {
        let t = Tracer::with_epoch(Instant::now());
        let v = t.time("outer", None, 7, |id| t.time("inner", Some(id), 7, |_| 42));
        assert_eq!(v, 42);
        let doc = JsonValue::parse(&chrome_trace(&[("test", &t)])).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("inner"))
            .unwrap();
        assert_eq!(inner.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(
            inner
                .get("args")
                .and_then(|a| a.get("rid"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        let layers = t.layers();
        assert_eq!(layers["outer"].count, 1);
        assert!(layers["outer"].self_ns <= layers["outer"].total_ns);
    }

    #[test]
    fn untraced_span_runs_the_closure() {
        assert!(span(None, "x", None, 0, |id| id.is_none()));
    }
}
