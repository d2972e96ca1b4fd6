//! Service observability: a std-only metrics registry with counters,
//! gauges and fixed-bucket histograms, plus deterministic JSON and
//! Prometheus text renderings.
//!
//! The experiment daemon (`spade_bench::service`) is an always-on
//! process serving planning traffic; an operator needs queue depth,
//! cache hit rate and latency distributions without attaching a
//! debugger. The registry here is the single source of those numbers:
//! instruments are registered once at daemon startup (names, help
//! strings and label sets are fixed for the process lifetime), updated
//! lock-free from the admission path and the workers, and snapshotted
//! on demand into a [`MetricsSnapshot`] — an owned, comparable value
//! that renders as JSON (the `metrics` protocol request) or as the
//! Prometheus text exposition format (`spade-cli client metrics
//! --prom`), no HTTP endpoint required.
//!
//! # Pure observation
//!
//! Instruments are plain atomics updated with relaxed ordering: reading
//! or writing them never blocks a worker and never feeds back into a
//! simulation. Enabling or scraping metrics leaves every `RunReport`,
//! telemetry series and trace byte identical to an unobserved run —
//! the same guarantee the simulator's telemetry layer makes, pinned by
//! the service robustness suite.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use spade_sim::JsonValue;

use crate::cache::CacheStats;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count — for mirroring an external monotonic source
    /// (e.g. [`CacheStats`]) into the registry at snapshot time.
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depth, in-flight workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets follow the Prometheus `le` convention: an observation `v`
/// lands in the first bucket whose upper bound is `>= v`; anything
/// above the last bound lands in the implicit overflow (`+Inf`)
/// bucket. Bounds are fixed at registration, so concurrent observers
/// only touch atomics.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    /// One cell per bound plus the overflow cell.
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending — bucket
    /// layouts are compile-time constants, so this is a programming
    /// error, not an input error.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (non-cumulative), overflow cell last.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A fixed set of named instruments, snapshot-able in registration
/// order. Registration happens once (requiring `&mut self`); updates
/// and snapshots are lock-free through the shared `Arc` handles.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Vec<Entry>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a counter and returns its update handle.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: owned_labels(labels),
            instrument: Instrument::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Registers a gauge and returns its update handle.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: owned_labels(labels),
            instrument: Instrument::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers a fixed-bucket histogram and returns its update handle.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new(bounds));
        self.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: owned_labels(labels),
            instrument: Instrument::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// A point-in-time snapshot of every instrument, in registration
    /// order. The order — and therefore the rendered output — is a
    /// deterministic function of the registration sequence, independent
    /// of how many workers are updating concurrently.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            samples: self
                .entries
                .iter()
                .map(|e| MetricSample {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: match &e.instrument {
                        Instrument::Counter(c) => SampleValue::Counter(c.get()),
                        Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                        Instrument::Histogram(h) => SampleValue::Histogram {
                            bounds: h.bounds().to_vec(),
                            counts: h.counts(),
                            sum: h.sum(),
                        },
                    },
                })
                .collect(),
        }
    }
}

/// The captured value of one instrument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter's count.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's buckets (non-cumulative, overflow cell last) and
    /// value sum.
    Histogram {
        /// Bucket upper bounds (`le`).
        bounds: Vec<u64>,
        /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the
        /// last cell is the overflow (`+Inf`) bucket.
        counts: Vec<u64>,
        /// Sum of all observed values.
        sum: u64,
    },
}

/// One instrument in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name (Prometheus-style, e.g. `spade_requests_total`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label pairs distinguishing this series from same-named ones.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SampleValue,
}

impl MetricSample {
    /// Total observations of a histogram sample (`None` for other
    /// kinds).
    pub fn histogram_count(&self) -> Option<u64> {
        match &self.value {
            SampleValue::Histogram { counts, .. } => Some(counts.iter().sum()),
            _ => None,
        }
    }
}

/// An owned, comparable capture of a whole registry — the payload of
/// the `metrics` protocol request and of the drain summary's lifetime
/// stats.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Samples in registration order.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Finds a sample by name and exact label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// The value of a counter sample found by [`MetricsSnapshot::find`].
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SampleValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The snapshot as a JSON document: `{"metrics":[...]}` with one
    /// object per sample, in registration order.
    pub fn to_json(&self) -> JsonValue {
        let samples: Vec<JsonValue> = self
            .samples
            .iter()
            .map(|s| {
                let labels = JsonValue::Object(
                    s.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                        .collect(),
                );
                let mut fields = vec![
                    ("name", JsonValue::from(s.name.as_str())),
                    ("help", s.help.as_str().into()),
                    ("labels", labels),
                ];
                match &s.value {
                    SampleValue::Counter(v) => {
                        fields.push(("type", "counter".into()));
                        fields.push(("value", (*v).into()));
                    }
                    SampleValue::Gauge(v) => {
                        fields.push(("type", "gauge".into()));
                        fields.push(("value", (*v).into()));
                    }
                    SampleValue::Histogram {
                        bounds,
                        counts,
                        sum,
                    } => {
                        fields.push(("type", "histogram".into()));
                        fields.push((
                            "le",
                            JsonValue::Array(bounds.iter().map(|&b| b.into()).collect()),
                        ));
                        fields.push((
                            "counts",
                            JsonValue::Array(counts.iter().map(|&c| c.into()).collect()),
                        ));
                        fields.push(("sum", (*sum).into()));
                        fields.push(("count", counts.iter().sum::<u64>().into()));
                    }
                }
                JsonValue::object(fields)
            })
            .collect();
        JsonValue::object([("metrics", JsonValue::Array(samples))])
    }

    /// Parses a document produced by [`MetricsSnapshot::to_json`] — the
    /// client side of the `metrics` protocol request.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed sample.
    pub fn from_json(doc: &JsonValue) -> Result<MetricsSnapshot, String> {
        let list = doc
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("snapshot has no \"metrics\" array")?;
        let mut samples = Vec::with_capacity(list.len());
        for item in list {
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("sample has no name")?
                .to_string();
            let help = item
                .get("help")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string();
            let labels = match item.get("labels") {
                Some(JsonValue::Object(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|v| (k.clone(), v.to_string()))
                            .ok_or_else(|| format!("{name}: label {k} is not a string"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => Vec::new(),
            };
            let kind = item
                .get("type")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{name}: sample has no type"))?;
            let value = match kind {
                "counter" => SampleValue::Counter(
                    item.get("value")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("{name}: counter has no value"))?,
                ),
                "gauge" => SampleValue::Gauge(
                    item.get("value")
                        .and_then(JsonValue::as_i64)
                        .ok_or_else(|| format!("{name}: gauge has no value"))?,
                ),
                "histogram" => {
                    let nums = |key: &str| -> Result<Vec<u64>, String> {
                        item.get(key)
                            .and_then(JsonValue::as_array)
                            .ok_or_else(|| format!("{name}: histogram has no {key}"))?
                            .iter()
                            .map(|v| {
                                v.as_u64()
                                    .ok_or_else(|| format!("{name}: bad number in {key}"))
                            })
                            .collect()
                    };
                    let bounds = nums("le")?;
                    let counts = nums("counts")?;
                    if counts.len() != bounds.len() + 1 {
                        return Err(format!("{name}: counts/le length mismatch"));
                    }
                    SampleValue::Histogram {
                        bounds,
                        counts,
                        sum: item
                            .get("sum")
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("{name}: histogram has no sum"))?,
                    }
                }
                other => return Err(format!("{name}: unknown sample type {other:?}")),
            };
            samples.push(MetricSample {
                name,
                help,
                labels,
                value,
            });
        }
        Ok(MetricsSnapshot { samples })
    }

    /// The snapshot in the Prometheus text exposition format (version
    /// 0.0.4): `# HELP` / `# TYPE` once per metric name, one line per
    /// series, histograms expanded into cumulative `_bucket{le=...}`
    /// lines plus `_sum` and `_count`. Deterministic byte-for-byte for
    /// a given snapshot — golden-file friendly.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for s in &self.samples {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram { .. } => "histogram",
            };
            if !seen.contains(&s.name.as_str()) {
                seen.push(&s.name);
                out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
                out.push_str(&format!("# TYPE {} {kind}\n", s.name));
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, label_block(&s.labels, None)));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, label_block(&s.labels, None)));
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                } => {
                    let mut cumulative = 0u64;
                    for (b, c) in bounds.iter().zip(counts) {
                        cumulative += c;
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            s.name,
                            label_block(&s.labels, Some(&b.to_string()))
                        ));
                    }
                    cumulative += counts.last().copied().unwrap_or(0);
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        s.name,
                        label_block(&s.labels, Some("+Inf"))
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {sum}\n",
                        s.name,
                        label_block(&s.labels, None)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {cumulative}\n",
                        s.name,
                        label_block(&s.labels, None)
                    ));
                }
            }
        }
        out
    }
}

/// Renders `{k="v",...}` (empty string when there is nothing to show),
/// appending the `le` pseudo-label for histogram bucket lines.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

// ---------------------------------------------------------------------------
// The daemon's instrument set
// ---------------------------------------------------------------------------

/// Request kinds the daemon counts, in protocol order.
pub const REQUEST_KINDS: [&str; 10] = [
    "ping", "status", "metrics", "query", "run", "search", "trace", "batch", "advise", "shutdown",
];

/// The tiers an `advise` answer can come from (see
/// `spade_core::advisor::AdviseSource`).
pub const ADVISE_SOURCES: [&str; 3] = ["model", "heuristic", "exhaustive"];

/// Advise-latency bucket bounds in microseconds: the whole point of the
/// model tier is sub-millisecond selection, so the buckets resolve 50 µs
/// to 25 ms (anything beyond is a regression worth seeing).
pub const ADVISE_LATENCY_BUCKETS_US: [u64; 9] =
    [50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000];

/// Per-job outcomes inside a `batch` request: served fresh, served from
/// the cache, rejected with back-pressure, or failed (bad spec,
/// deadline, simulation error).
pub const BATCH_JOB_OUTCOMES: [&str; 4] = ["ok", "cached", "rejected", "error"];

/// Wall-time bucket bounds in microseconds: 100 µs to one minute,
/// roughly ×5 per step — wide enough for a cache hit and a full-scale
/// sweep on one axis.
pub const WALL_TIME_BUCKETS_US: [u64; 9] = [
    100, 1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000, 10_000_000, 60_000_000,
];

/// Simulated-cycle bucket bounds: decades from 10³ to 10⁹ cycles.
pub const SIM_CYCLE_BUCKETS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// The daemon's full instrument set, registered once at startup:
/// requests by kind and outcome, back-pressure and framing counters,
/// queue/worker gauges, cache behavior mirrors, deadline kills, and
/// the latency histograms (queue wait, execution wall time, simulated
/// cycles).
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: MetricsRegistry,
    /// `(ok, error)` counter per [`REQUEST_KINDS`] entry.
    requests: Vec<(Arc<Counter>, Arc<Counter>)>,
    /// One counter per [`BATCH_JOB_OUTCOMES`] entry — a batch counts
    /// once in `spade_requests_total{cmd="batch"}` and once per job
    /// here.
    batch_jobs: Vec<Arc<Counter>>,
    /// Requests rejected with `overloaded` back-pressure.
    pub rejected_overload: Arc<Counter>,
    /// Frames that failed to parse as a request.
    pub bad_frames: Arc<Counter>,
    /// Requests that died at their cycle deadline.
    pub deadline_kills: Arc<Counter>,
    /// Connections accepted over the lifetime.
    pub connections: Arc<Counter>,
    /// Admission-queue depth (mirrored at snapshot time).
    pub queue_depth: Arc<Gauge>,
    /// Jobs executing right now (mirrored at snapshot time).
    pub in_flight: Arc<Gauge>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_stores: Arc<Counter>,
    cache_quarantined: Arc<Counter>,
    /// Time spent waiting in the admission queue, microseconds.
    pub queue_wait_us: Arc<Histogram>,
    /// Worker execution wall time, microseconds.
    pub exec_us: Arc<Histogram>,
    /// Simulated cycles per completed simulation.
    pub sim_cycles: Arc<Histogram>,
    /// One counter per [`ADVISE_SOURCES`] entry: which tier answered.
    advise_total: Vec<Arc<Counter>>,
    /// Advise selection latency, microseconds (no simulation included).
    pub advise_latency_us: Arc<Histogram>,
    /// Workloads prepared (matrix generated, dense operands filled):
    /// once per matrix a daemon first sees, then only on cache misses.
    pub workload_prepares: Arc<Counter>,
}

impl ServiceMetrics {
    /// Registers the daemon's instrument set.
    pub fn new() -> Self {
        let mut r = MetricsRegistry::new();
        let requests = REQUEST_KINDS
            .iter()
            .map(|kind| {
                (
                    r.counter(
                        "spade_requests_total",
                        "Requests handled, by command and outcome.",
                        &[("cmd", kind), ("outcome", "ok")],
                    ),
                    r.counter(
                        "spade_requests_total",
                        "Requests handled, by command and outcome.",
                        &[("cmd", kind), ("outcome", "error")],
                    ),
                )
            })
            .collect();
        let batch_jobs = BATCH_JOB_OUTCOMES
            .iter()
            .map(|outcome| {
                r.counter(
                    "spade_batch_jobs_total",
                    "Jobs carried by batch requests, by per-job outcome.",
                    &[("outcome", outcome)],
                )
            })
            .collect();
        let rejected_overload = r.counter(
            "spade_rejected_overload_total",
            "Requests rejected with back-pressure because the queue or connection limit was full.",
            &[],
        );
        let bad_frames = r.counter(
            "spade_bad_frames_total",
            "Frames that could not be parsed as a request.",
            &[],
        );
        let deadline_kills = r.counter(
            "spade_deadline_kills_total",
            "Requests that exceeded their cycle deadline.",
            &[],
        );
        let connections = r.counter(
            "spade_connections_total",
            "Connections accepted over the daemon lifetime.",
            &[],
        );
        let queue_depth = r.gauge(
            "spade_queue_depth",
            "Requests waiting in the admission queue.",
            &[],
        );
        let in_flight = r.gauge(
            "spade_in_flight_workers",
            "Jobs executing on workers right now.",
            &[],
        );
        let cache_hits = r.counter(
            "spade_cache_hits_total",
            "Result-cache entries served from disk.",
            &[],
        );
        let cache_misses = r.counter(
            "spade_cache_misses_total",
            "Result-cache lookups that found nothing trustworthy.",
            &[],
        );
        let cache_stores = r.counter(
            "spade_cache_stores_total",
            "Result-cache entries committed.",
            &[],
        );
        let cache_quarantined = r.counter(
            "spade_cache_quarantined_total",
            "Result-cache entries rejected on read and moved aside.",
            &[],
        );
        let queue_wait_us = r.histogram(
            "spade_queue_wait_microseconds",
            "Time requests spent waiting in the admission queue.",
            &[],
            &WALL_TIME_BUCKETS_US,
        );
        let exec_us = r.histogram(
            "spade_exec_microseconds",
            "Worker execution wall time per request.",
            &[],
            &WALL_TIME_BUCKETS_US,
        );
        let sim_cycles = r.histogram(
            "spade_sim_cycles",
            "Simulated cycles per completed simulation.",
            &[],
            &SIM_CYCLE_BUCKETS,
        );
        let advise_total = ADVISE_SOURCES
            .iter()
            .map(|source| {
                r.counter(
                    "spade_advise_total",
                    "Advise answers, by the tier that produced the plan.",
                    &[("source", source)],
                )
            })
            .collect();
        let advise_latency_us = r.histogram(
            "spade_advise_latency_microseconds",
            "Plan-selection latency of advise answers (features + ranking, no simulation).",
            &[],
            &ADVISE_LATENCY_BUCKETS_US,
        );
        let workload_prepares = r.counter(
            "spade_workload_prepare_total",
            "Workloads prepared (matrix generated, dense operands filled); warm cache hits prepare none.",
            &[],
        );
        ServiceMetrics {
            registry: r,
            requests,
            batch_jobs,
            rejected_overload,
            bad_frames,
            deadline_kills,
            connections,
            queue_depth,
            in_flight,
            cache_hits,
            cache_misses,
            cache_stores,
            cache_quarantined,
            queue_wait_us,
            exec_us,
            sim_cycles,
            advise_total,
            advise_latency_us,
            workload_prepares,
        }
    }

    /// Counts one finished request of `cmd` with the given outcome.
    /// Unknown commands never reach this point (they are rejected as
    /// bad frames before dispatch), so they are ignored here.
    pub fn count_request(&self, cmd: &str, ok: bool) {
        if let Some(i) = REQUEST_KINDS.iter().position(|k| *k == cmd) {
            let (ok_c, err_c) = &self.requests[i];
            if ok {
                ok_c.inc()
            } else {
                err_c.inc()
            }
        }
    }

    /// Counts one job carried by a `batch` request, by its per-job
    /// outcome (`ok`/`cached`/`rejected`/`error`). Unknown outcomes are
    /// ignored; the caller only emits members of [`BATCH_JOB_OUTCOMES`].
    pub fn count_batch_job(&self, outcome: &str) {
        if let Some(i) = BATCH_JOB_OUTCOMES.iter().position(|o| *o == outcome) {
            self.batch_jobs[i].inc();
        }
    }

    /// Counts one advise answer from `source` (a member of
    /// [`ADVISE_SOURCES`]; unknown sources are ignored) and observes its
    /// selection latency.
    pub fn count_advise(&self, source: &str, latency_us: u64) {
        if let Some(i) = ADVISE_SOURCES.iter().position(|s| *s == source) {
            self.advise_total[i].inc();
        }
        self.advise_latency_us.observe(latency_us);
    }

    /// Mirrors the result cache's own counters into the registry (the
    /// cache is the source of truth; the registry is the exposition).
    pub fn observe_cache(&self, stats: &CacheStats) {
        self.cache_hits.store(stats.hits);
        self.cache_misses.store(stats.misses);
        self.cache_stores.store(stats.stores);
        self.cache_quarantined.store(stats.quarantined);
    }

    /// A snapshot of every instrument, in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_boundaries_use_le_semantics() {
        let h = Histogram::new(&[10, 100]);
        h.observe(0); // first bucket (v <= 10)
        h.observe(10); // exactly on the bound: still the first bucket
        h.observe(11); // second bucket
        h.observe(100); // exactly on the bound: second bucket
        h.observe(101); // overflow
        assert_eq!(h.counts(), vec![2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 222);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("x_total", "Xs.", &[("kind", "a")]);
        let g = r.gauge("depth", "Depth.", &[]);
        let h = r.histogram("lat", "Latency.", &[], &[1, 2]);
        c.add(7);
        g.set(-3);
        h.observe(1);
        h.observe(9);
        let snap = r.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(snap.counter("x_total", &[("kind", "a")]), Some(7));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat_us", "Latency.", &[], &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_us_sum 555\n"));
        assert!(text.contains("lat_us_count 3\n"));
    }

    #[test]
    fn service_metrics_count_known_and_unknown_kinds() {
        let m = ServiceMetrics::new();
        m.count_request("run", true);
        m.count_request("run", true);
        m.count_request("run", false);
        m.count_request("frobnicate", true); // ignored, not a panic
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("spade_requests_total", &[("cmd", "run"), ("outcome", "ok")]),
            Some(2)
        );
        assert_eq!(
            snap.counter(
                "spade_requests_total",
                &[("cmd", "run"), ("outcome", "error")]
            ),
            Some(1)
        );
    }

    #[test]
    fn snapshots_are_deterministic_under_concurrent_updates() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("ops_total", "Ops.", &[]);
        let h = r.histogram("lat", "Latency.", &[], &[10, 100, 1_000]);
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.observe((t * 1_000 + i) % 2_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Once the writers are quiescent, every observation is accounted
        // for exactly once, and repeated snapshots are identical — the
        // properties the drain summary and scrape tests rely on.
        let snap = r.snapshot();
        assert_eq!(snap.counter("ops_total", &[]), Some(8_000));
        let lat = snap.find("lat", &[]).expect("lat sample");
        assert_eq!(lat.histogram_count(), Some(8_000));
        assert_eq!(snap, r.snapshot());
    }
}
