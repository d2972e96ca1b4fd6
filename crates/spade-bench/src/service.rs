//! `spade-serve`: the always-on experiment daemon.
//!
//! A std-only TCP service speaking newline-delimited JSON (one request
//! per line, one response per line — the [`spade_sim::json`] codec on
//! both sides). The local CLI commands are the daemon without a socket:
//! [`answer`] sends one request line through the same parse → key →
//! admit → execute → render path in process, so a local `--format json`
//! line is the reply a cold daemon sends.
//!
//! # Architecture
//!
//! ```text
//! accept loop ─┬─ connection handler ──┐ try_send   ┌─ worker ─ ParallelRunner
//!              ├─ connection handler ──┤──────────▶ │  (panic guard, deadline
//!              └─ connection handler ──┘  bounded   └─  watchdog)   │
//!                     ▲      │ cache probe (hit → reply now)        │
//!                     │      └────────────── ResultCache ◀── put ───┘
//! ```
//!
//! * **One admit/collect path.** Every job — a `run`, `trace`, `search`
//!   or `query` request, or one slot of a `batch` — is admitted the same
//!   way: one cache probe on the connection thread (a hit is answered at
//!   once), then the job is built and offered to the queue. Collection
//!   waits for the worker and counts the outcome. A standalone request
//!   is a batch of one; the two reply shapes differ only in their head.
//! * **Bounded admission.** Jobs funnel through a
//!   [`std::sync::mpsc::sync_channel`] of [`ServiceConfig::queue_capacity`]
//!   slots. When the queue is full the daemon replies immediately with a
//!   structured `overloaded` error carrying `retry_after_ms` — explicit
//!   back-pressure, never an unbounded buffer. Memory is bounded by
//!   construction: ≤ `max_connections` handler threads, each with at most
//!   one in-flight request, plus ≤ `queue_capacity` queued jobs.
//! * **Graceful degradation.** A malformed frame fails that one request
//!   (the connection and daemon keep serving); a panicking simulation is
//!   contained by the [`ParallelRunner`] panic guard and fails only its
//!   own request; a request that exceeds its cycle deadline gets a
//!   structured `deadline_exceeded` error from the watchdog ceiling.
//! * **Crash-safe result cache.** Completed results are stored in a
//!   [`ResultCache`] keyed by [`Job::cache_key`] — content-addressed, so
//!   the same experiment hits across restarts and processes. Cache hits
//!   are byte-identical to a fresh simulation because response payloads
//!   are *canonical*: `host_wall_ns` — a host property, excluded from
//!   [`RunReport`] equality — is zeroed before rendering.
//! * **Matrix-free hits.** Each daemon keeps a stamp per (benchmark,
//!   scale, k) it has prepared — the matrix width and the memoized key
//!   prefix over its triplets — so a request is keyed and
//!   probed without regenerating its matrix. Only a cache miss prepares
//!   the workload and builds the [`Job`].
//! * **Graceful shutdown.** SIGTERM/SIGINT (see
//!   [`install_termination_handler`]) or an in-band `shutdown` request
//!   stops the accept loop, drains in-flight jobs and returns a
//!   [`ServiceSummary`].
//!
//! # Protocol
//!
//! Requests are JSON objects with a `cmd` field and an optional `id`
//! (string or integer), echoed in every reply to a frame that parsed as
//! JSON.
//!
//! * `ping`, `status`, `metrics` (a [`MetricsSnapshot`] of the daemon's
//!   registry) and `shutdown` are answered on the connection thread, so
//!   they work while every worker is busy. So is `advise`: plan selection
//!   for one (benchmark, scale, k, pes) through the three-tier advisor.
//! * `run` simulates one job; `trace` runs one job with event tracing on
//!   and returns the Chrome-trace JSON inline, byte-identical to what
//!   `spade-cli trace` writes; `search` runs every candidate of the quick
//!   (or full) plan space. All three are cache-served when warm.
//! * `query` filters the cached entries as a dataset (benchmark, kernel,
//!   kind, k, pes, cycle bounds), or folds them with `group_by`
//!   (`benchmark`/`kernel`/`pes`) into per-group cycle statistics and a
//!   best plan. The catalog is built from the entry files at bind time
//!   and kept current as workers store.
//! * `batch` carries many `run`-shaped jobs: an explicit `jobs` array, or
//!   a `sweep` cross product over benchmarks × kernels × k × pes × plans.
//!   Each slot is admitted, fails and is rejected on its own, and its
//!   payload is byte-identical to the equivalent standalone `run`.
//!
//! Success: `{"ok":true,"cmd":...,"cached":...,"key":...,"result":{...}}`.
//! Failure: `{"ok":false,"error":{"kind":...,"message":...}}` with
//! `retry_after_ms` on `overloaded`, scaled with queue occupancy and the
//! observed queue wait ([`scaled_retry_after_ms`]). Error kinds:
//! `bad_request`, `overloaded`, `shutting_down`, `deadline_exceeded`,
//! `sim_failed`, `internal`. DESIGN.md §7 documents the full matrix.
//!
//! # Observability is pure
//!
//! Metrics are relaxed atomics, log spans (`SPADE_LOG=json`) go to
//! stderr, and neither feeds back into a simulation: every `RunReport`,
//! telemetry series and trace byte is identical with observability on
//! or off. The robustness suite pins this.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spade_core::advisor::advise_tiered;
use spade_core::{
    BarrierPolicy, CMatrixPolicy, ExecutionPlan, PlanSearchSpace, Primitive, RMatrixPolicy,
    RunReport, SystemConfig,
};
use spade_matrix::generators::{Benchmark, Scale};
use spade_sim::json::MAX_FRAME_BYTES;
use spade_sim::{Cycle, FrameError, FrameReader, JsonValue};

use crate::cache::{CacheStats, ResultCache};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::model::CostModel;
use crate::parallel::{
    self, run_cache_key, trace_cache_key, Job, JobOutput, KeyPrefix, ParallelRunner,
};
use crate::suite::Workload;

/// Wire-protocol version, reported in the head of every connection-thread
/// reply (`ping`, `status`, `metrics`, `shutdown`, `advise`) and in the
/// `serve` banner. The requests and reply fields are those the module
/// documentation lists.
pub const PROTOCOL_VERSION: u32 = 4;

/// Default cap on entries a single `query` response returns. Keeps a
/// response line comfortably under the default client frame limit even
/// for a cache holding thousands of sweep results; `limit` in the
/// request overrides it.
pub const DEFAULT_QUERY_LIMIT: usize = 500;

/// Upper bound on `pes` accepted from the wire — requests are untrusted,
/// and the config allocates per-PE state before the simulation starts.
const MAX_REQUEST_PES: usize = 1024;

/// Upper bound on `k` accepted from the wire (dense operand columns).
const MAX_REQUEST_K: usize = 4096;

/// Upper bound on jobs one `batch` request may carry (explicit list or
/// expanded sweep template). Bounds the per-connection reply buffer the
/// way `queue_capacity` bounds admitted work.
pub const MAX_BATCH_JOBS: usize = 256;

/// The idle floor of the `retry_after_ms` hint carried by `overloaded`
/// rejections; the daemon scales it up with load
/// ([`scaled_retry_after_ms`]).
pub const BASE_RETRY_AFTER_MS: u64 = 100;

/// Ceiling on the load-scaled `retry_after_ms` hint.
pub const MAX_RETRY_AFTER_MS: u64 = 60_000;

/// The back-pressure hint, scaled from load: `base` (the daemon uses
/// [`BASE_RETRY_AFTER_MS`]) when the queue is empty, growing
/// linearly to `5 * base` at full occupancy, plus the mean observed
/// queue wait — a saturated daemon whose jobs wait seconds tells
/// clients to come back in seconds, not in the idle-tuned constant.
/// Monotone in both `queue_depth` and `mean_queue_wait_us`; capped at
/// [`MAX_RETRY_AFTER_MS`].
#[must_use]
pub fn scaled_retry_after_ms(
    base: u64,
    queue_depth: usize,
    queue_capacity: usize,
    mean_queue_wait_us: u64,
) -> u64 {
    let cap = queue_capacity.max(1) as u64;
    let depth = (queue_depth as u64).min(cap);
    let occupancy_scaled = base.saturating_add(base.saturating_mul(4).saturating_mul(depth) / cap);
    occupancy_scaled
        .saturating_add(mean_queue_wait_us / 1_000)
        .min(MAX_RETRY_AFTER_MS)
}

/// How the daemon is shaped: queue depth, worker count, deadlines,
/// cache location. `Default` is sized for an interactive host.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads (defaults to [`parallel::num_threads`]).
    pub workers: usize,
    /// Admission-queue slots; a full queue rejects with `overloaded`.
    pub queue_capacity: usize,
    /// Maximum concurrent client connections; excess connections get one
    /// `overloaded` reply and are closed.
    pub max_connections: usize,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_cycles`, riding the watchdog cycle ceiling. `None`
    /// leaves such requests unbounded.
    pub default_deadline_cycles: Option<Cycle>,
    /// How long a connection read blocks before re-checking for
    /// shutdown; bounds drain latency, not connection lifetime.
    pub read_timeout: Duration,
    /// Result-cache directory; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Fault injection: hold each admitted job for this long before
    /// executing it. Lets the robustness suite create deterministic
    /// back-pressure with fast jobs; `None` (the default) in production.
    pub worker_delay: Option<Duration>,
    /// Emit one JSON log line per request-lifecycle event to stderr
    /// (admission → queue → worker → cache → reply), each carrying the
    /// request id. Defaults to the `SPADE_LOG=json` environment setting;
    /// off otherwise. Logging is pure observation — response bytes are
    /// identical either way.
    pub log_json: bool,
    /// Trained cost-model file ([`crate::model::CostModel::save`]
    /// format) backing the `advise` request's model tier. `None` — and
    /// any file that fails to load or validate — falls back to the
    /// structural heuristic: a missing or corrupt model degrades advice
    /// quality, never availability.
    pub model_path: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: parallel::num_threads(),
            queue_capacity: 32,
            max_connections: 32,
            // Orders of magnitude above any suite run (the full-scale
            // sweeps finish in millions of cycles): a safety ceiling, not
            // a tuning knob.
            default_deadline_cycles: Some(4_000_000_000),
            read_timeout: Duration::from_millis(500),
            cache_dir: None,
            worker_delay: None,
            log_json: std::env::var("SPADE_LOG").is_ok_and(|v| v == "json"),
            model_path: None,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`Service::run`]
/// after a graceful shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Requests answered successfully (cached or fresh).
    pub served_ok: u64,
    /// Requests that failed (bad input, deadline, simulation error).
    pub served_err: u64,
    /// Requests rejected with back-pressure because the queue was full.
    pub rejected_overload: u64,
    /// Frames that could not be parsed as a request.
    pub bad_frames: u64,
    /// Connections accepted over the lifetime.
    pub connections: u64,
    /// Result-cache statistics, when a cache was configured.
    pub cache: Option<CacheStats>,
    /// The full metrics registry at shutdown — lifetime request counts
    /// per kind/outcome and the latency histograms (queue wait,
    /// execution wall time, simulated cycles), so a drained daemon
    /// reports its per-phase latency breakdown, not just totals.
    pub metrics: MetricsSnapshot,
}

impl ServiceSummary {
    /// The summary as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("served_ok", self.served_ok.into()),
            ("served_err", self.served_err.into()),
            ("rejected_overload", self.rejected_overload.into()),
            ("bad_frames", self.bad_frames.into()),
            ("connections", self.connections.into()),
            (
                "cache",
                match &self.cache {
                    Some(stats) => stats.to_json(),
                    None => JsonValue::Null,
                },
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// Shared daemon state: configuration, cache, counters, shutdown flag.
struct Inner {
    config: ServiceConfig,
    cache: Option<ResultCache>,
    /// Queryable catalog of what the cache holds (`Some` iff `cache`).
    dataset: Option<DatasetIndex>,
    /// Trained cost model for the `advise` request's model tier;
    /// `None` (cold or corrupt model file) falls back to the heuristic.
    model: Option<CostModel>,
    metrics: ServiceMetrics,
    shutdown: AtomicBool,
    /// Requests answered successfully (cache hits included) and requests
    /// a worker or the advisor failed. The registry has no series for
    /// these two; every other service counter lives there.
    served_ok: AtomicU64,
    served_err: AtomicU64,
    /// Monotonic request-id source: every parsed frame gets the next id,
    /// threading one identity through its log span from admission to
    /// reply.
    next_rid: AtomicU64,
    /// What a cache key needs from each workload this daemon has
    /// prepared. With a stamp, a request computes its key — and a warm
    /// request is answered — without preparing the workload. The wire
    /// domain is finite (10 benchmarks × 4 scales × `k` ≤
    /// [`MAX_REQUEST_K`]) and an entry is ~40 bytes, so it is never
    /// evicted.
    stamps: Mutex<HashMap<WorkloadId, MatrixStamp>>,
    started: Instant,
}

impl Inner {
    /// Opens the result cache and loads the cost model `config` names.
    fn new(config: ServiceConfig) -> io::Result<Inner> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        let dataset = cache.as_ref().map(DatasetIndex::load);
        // A model that fails to load is a warning, not a bind failure:
        // the advise tiers below the model keep the request available.
        let model = config
            .model_path
            .as_ref()
            .and_then(|path| match CostModel::load(path) {
                Ok(m) => Some(m),
                Err(e) => {
                    eprintln!(
                        "spade-serve: cost model {} unusable ({e}); \
                         advise falls back to the heuristic",
                        path.display()
                    );
                    None
                }
            });
        Ok(Inner {
            config,
            cache,
            dataset,
            model,
            metrics: ServiceMetrics::new(),
            shutdown: AtomicBool::new(false),
            served_ok: AtomicU64::new(0),
            served_err: AtomicU64::new(0),
            next_rid: AtomicU64::new(0),
            stamps: Mutex::new(HashMap::new()),
            started: Instant::now(),
        })
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || termination_signal_received()
    }

    /// The current `retry_after_ms` hint: the base scaled by queue
    /// occupancy and the mean observed queue wait.
    fn retry_after_hint(&self) -> u64 {
        let wait = &self.metrics.queue_wait_us;
        let mean_wait_us = wait.sum().checked_div(wait.count()).unwrap_or(0);
        scaled_retry_after_ms(
            BASE_RETRY_AFTER_MS,
            usize::try_from(self.metrics.queue_depth.get()).unwrap_or(0),
            self.config.queue_capacity,
            mean_wait_us,
        )
    }

    /// Workload `id`, from this request's `workloads` or freshly
    /// prepared — counted, and stamped for every later request.
    fn workload(&self, id: WorkloadId, workloads: &mut Workloads) -> Arc<Workload> {
        let w = workloads.entry(id).or_insert_with(|| {
            self.metrics.workload_prepares.inc();
            let w = Workload::prepare(id.benchmark, id.scale, id.k);
            self.stamps
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, MatrixStamp::of(&w));
            Arc::new(w)
        });
        Arc::clone(w)
    }

    /// The stamp of workload `id`. Only the first request for a matrix
    /// prepares it, into `workloads`, where its own job picks it up.
    fn stamp(&self, id: WorkloadId, workloads: &mut Workloads) -> MatrixStamp {
        let known = self
            .stamps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .copied();
        known.unwrap_or_else(|| MatrixStamp::of(&self.workload(id, workloads)))
    }
}

/// A suite workload as the wire names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WorkloadId {
    benchmark: Benchmark,
    scale: Scale,
    k: usize,
}

/// What a cache key needs from a workload: the matrix width (the Base
/// plan's column panel and the search-space clamp) and the key prefix
/// over the matrix content.
#[derive(Debug, Clone, Copy)]
struct MatrixStamp {
    num_cols: usize,
    key_prefix: KeyPrefix,
}

impl MatrixStamp {
    fn of(w: &Workload) -> Self {
        MatrixStamp {
            num_cols: w.a.num_cols(),
            key_prefix: w.key_prefix(),
        }
    }
}

/// Workloads prepared while answering one request: a batch sweep over
/// pes × plans prepares each matrix once, and the request that fills a
/// stamp hands its workload on to its own job.
type Workloads = HashMap<WorkloadId, Arc<Workload>>;

/// A clonable handle for requesting shutdown from another thread (tests,
/// signal bridges). The daemon also honors SIGTERM/SIGINT directly once
/// [`install_termination_handler`] has run.
#[derive(Clone)]
pub struct ServiceHandle(Arc<Inner>);

impl ServiceHandle {
    /// Asks the daemon to stop accepting, drain, and return.
    pub fn request_shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether the daemon is draining.
    pub fn is_shutting_down(&self) -> bool {
        self.0.shutting_down()
    }
}

/// One admitted request, queued for a worker.
struct WorkItem {
    /// Request id, threading the log span from admission to reply.
    rid: u64,
    /// Command name, for the worker's span events.
    cmd: &'static str,
    kind: WorkKind,
    /// Cache key to store the result under (`None`: don't persist).
    store_key: Option<String>,
    /// When the item entered the queue — the queue-wait histogram
    /// measures from here to worker pickup.
    enqueued: Instant,
    reply: SyncSender<WorkResult>,
}

/// Jobs carry everything a reply renders: the benchmark (the workload's
/// name), kernel, `k`, `pes` and plan.
enum WorkKind {
    Run(Box<Job>),
    /// One SpMM job per candidate plan.
    Search(Vec<Job>),
    /// Filter the cache catalog. Query rides the same admission queue
    /// as simulations — it holds the catalog lock and renders up to
    /// `limit` entries, so it gets the same back-pressure contract.
    Query {
        filter: QueryFilter,
    },
    /// Run (or cache-serve) one traced job and return the Chrome-trace
    /// document inline in the result.
    Trace {
        job: Box<Job>,
        window: u64,
    },
}

/// The daemon: bind, then [`Service::run`] until shutdown.
pub struct Service {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Service {
    /// Binds the service (use port `0` to let the OS pick) and opens the
    /// result cache when one is configured.
    ///
    /// # Errors
    ///
    /// Fails if the address can't be bound or the cache directory can't
    /// be created.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<Service> {
        Ok(Service {
            listener: TcpListener::bind(addr)?,
            inner: Arc::new(Inner::new(config)?),
        })
    }

    /// The bound address (useful with port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has no local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle(Arc::clone(&self.inner))
    }

    /// Serves until shutdown is requested (in-band `shutdown`, a
    /// [`ServiceHandle`], or SIGTERM/SIGINT after
    /// [`install_termination_handler`]), then drains in-flight work and
    /// returns the lifetime summary.
    ///
    /// # Errors
    ///
    /// Fails only on listener/worker setup; per-request failures are
    /// answered in-protocol and never abort the daemon.
    pub fn run(self) -> io::Result<ServiceSummary> {
        let inner = self.inner;
        self.listener.set_nonblocking(true)?;
        let (work_tx, workers) = spawn_workers(&inner)?;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !inner.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handlers.retain(|h| !h.is_finished());
                    inner.metrics.connections.inc();
                    if handlers.len() >= inner.config.max_connections {
                        refuse_connection(&inner, stream);
                        continue;
                    }
                    let inner = Arc::clone(&inner);
                    let tx = work_tx.clone();
                    let h = std::thread::Builder::new()
                        .name("spade-serve-conn".into())
                        .spawn(move || handle_connection(&inner, &tx, stream))?;
                    handlers.push(h);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // Drain: handlers notice the shutdown flag within one read
        // timeout and close their connections (after answering anything
        // already in flight); then the workers finish whatever was
        // admitted.
        for h in handlers {
            let _ = h.join();
        }
        drain(work_tx, workers);
        let m = &inner.metrics;
        Ok(ServiceSummary {
            served_ok: inner.served_ok.load(Ordering::Relaxed),
            served_err: inner.served_err.load(Ordering::Relaxed),
            rejected_overload: m.rejected_overload.get(),
            bad_frames: m.bad_frames.get(),
            connections: m.connections.get(),
            cache: inner.cache.as_ref().map(ResultCache::stats),
            metrics: metrics_snapshot(&inner),
        })
    }
}

/// Answers one request line in process: the daemon's own parse, key,
/// admission, worker and render path, with no listener. Local CLI
/// commands go through here, so a local run prints the line a cold
/// daemon with the same `config` would reply.
///
/// # Errors
///
/// Fails when the cache directory can't be opened or a worker can't be
/// spawned; request failures come back in-protocol, as `ok:false` lines.
pub fn answer(config: ServiceConfig, line: &str) -> io::Result<String> {
    let inner = Arc::new(Inner::new(config)?);
    let (work_tx, workers) = spawn_workers(&inner)?;
    let response = process_frame(&inner, &work_tx, line.as_bytes());
    drain(work_tx, workers);
    Ok(response)
}

/// Starts the worker pool behind a fresh admission queue.
fn spawn_workers(inner: &Arc<Inner>) -> io::Result<(SyncSender<WorkItem>, Vec<JoinHandle<()>>)> {
    let (work_tx, work_rx) = mpsc::sync_channel::<WorkItem>(inner.config.queue_capacity);
    let work_rx = Arc::new(Mutex::new(work_rx));
    let mut workers = Vec::new();
    for i in 0..inner.config.workers.max(1) {
        let inner = Arc::clone(inner);
        let rx = Arc::clone(&work_rx);
        workers.push(
            std::thread::Builder::new()
                .name(format!("spade-serve-worker-{i}"))
                .spawn(move || worker_loop(&inner, &rx))?,
        );
    }
    Ok((work_tx, workers))
}

/// Closes the admission queue and lets the workers finish what was
/// admitted.
fn drain(work_tx: SyncSender<WorkItem>, workers: Vec<JoinHandle<()>>) {
    drop(work_tx);
    for w in workers {
        let _ = w.join();
    }
}

/// Over-capacity connections get one structured rejection, then close —
/// the same back-pressure contract as a full queue.
fn refuse_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    inner.metrics.rejected_overload.inc();
    let resp = error_response(
        None,
        None,
        "overloaded",
        "connection limit reached",
        Some(inner.retry_after_hint()),
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// One connection: read frames, answer each, until EOF / fatal frame
/// error / shutdown. Per-request failures answer in-protocol and keep
/// the connection; only sync-destroying conditions (oversized frame,
/// mid-frame EOF, socket errors) close it.
fn handle_connection(inner: &Arc<Inner>, work_tx: &SyncSender<WorkItem>, stream: TcpStream) {
    // Accepted sockets can inherit the listener's non-blocking mode on
    // some platforms; force blocking-with-timeout explicitly.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut frames = FrameReader::new(stream);
    loop {
        if inner.shutting_down() {
            let _ = respond(
                &mut writer,
                &error_response(None, None, "shutting_down", "daemon is draining", None),
            );
            return;
        }
        match frames.next_frame() {
            Ok(Some(frame)) => {
                if frame.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                if !respond(&mut writer, &process_frame(inner, work_tx, &frame)) {
                    return;
                }
            }
            Ok(None) => return, // clean EOF
            Err(FrameError::TooLong { limit }) => {
                // The rest of the oversized line is unread: framing is
                // lost, so answer once and drop the connection.
                inner.metrics.bad_frames.inc();
                let _ = respond(
                    &mut writer,
                    &error_response(
                        None,
                        None,
                        "bad_request",
                        &format!("frame exceeds {limit} bytes"),
                        None,
                    ),
                );
                return;
            }
            Err(FrameError::Truncated { .. }) => {
                // Client died mid-line; nobody is listening for a reply.
                inner.metrics.bad_frames.inc();
                return;
            }
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick: loop to re-check the shutdown flag.
                continue;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

/// Answers one well-framed request line with its response line.
fn process_frame(inner: &Arc<Inner>, work_tx: &SyncSender<WorkItem>, frame: &[u8]) -> String {
    let rid = inner.next_rid.fetch_add(1, Ordering::Relaxed) + 1;
    let received = Instant::now();
    let mut workloads = Workloads::new();
    let (id, parsed) = parse_request(inner, frame, &mut workloads);
    let id = id.as_ref();
    let parsed = match parsed {
        Ok(p) => p,
        Err(message) => {
            inner.metrics.bad_frames.inc();
            log_event(
                inner,
                rid,
                "bad_frame",
                &[("message", message.as_str().into())],
            );
            return error_response(id, None, "bad_request", &message, None);
        }
    };
    let cmd_name = match &parsed {
        Request::Ping => "ping",
        Request::Status => "status",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
        Request::Work(job) => job.spec.cmd(),
        Request::Batch(_) => "batch",
        Request::Advise { .. } => "advise",
    };
    log_event(inner, rid, "request", &[("cmd", cmd_name.into())]);
    let (response, ok) = match parsed {
        Request::Ping => (JsonValue::object(reply_head("ping", id)).render(), true),
        Request::Status => (status_response(inner, id).render(), true),
        Request::Metrics => {
            // Answered on the connection thread, like status: a scrape
            // must work even when every worker is busy.
            let mut fields = reply_head("metrics", id);
            fields.push(("result", metrics_snapshot(inner).to_json()));
            (JsonValue::object(fields).render(), true)
        }
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::SeqCst);
            let mut fields = reply_head("shutdown", id);
            fields.push(("draining", true.into()));
            (JsonValue::object(fields).render(), true)
        }
        Request::Work(job) => {
            let admitted = admit(inner, work_tx, rid, cmd_name, None, job, &mut workloads);
            // The job holds its workload; release the request's handle so
            // the matrix is freed when the worker finishes, not after the
            // reply.
            drop(workloads);
            let outcome = collect(inner, admitted);
            let head = Head::Envelope {
                cmd: Some(cmd_name),
                id,
            };
            (outcome.render(head), outcome.is_success())
        }
        Request::Batch(jobs) => (
            batch_response(inner, work_tx, rid, id, jobs, workloads),
            true,
        ),
        Request::Advise {
            benchmark,
            scale,
            k,
            pes,
        } => advise_response(inner, id, benchmark, scale, k, pes),
    };
    inner.metrics.count_request(cmd_name, ok);
    log_event(
        inner,
        rid,
        "reply",
        &[
            ("cmd", cmd_name.into()),
            ("ok", ok.into()),
            ("total_us", (received.elapsed().as_micros() as u64).into()),
        ],
    );
    response
}

/// The `ok`/`cmd`/`protocol`/`id` fields that open every reply answered
/// on the connection thread: `ping`, `status`, `metrics`, `shutdown` and
/// `advise`.
fn reply_head(cmd: &str, id: Option<&JsonValue>) -> Vec<(&'static str, JsonValue)> {
    let mut fields = vec![
        ("ok", true.into()),
        ("cmd", cmd.into()),
        ("protocol", PROTOCOL_VERSION.into()),
    ];
    fields.extend(id.map(|id| ("id", id.clone())));
    fields
}

/// What a worker sends back: the rendered result, or an error kind and
/// message.
type WorkResult = Result<String, (&'static str, String)>;

/// What one job request, or one batch slot, came to.
/// [`Outcome::render`] gives it either reply shape; the bytes after the
/// head are the same in both.
enum Outcome {
    Success {
        cached: bool,
        key: Option<String>,
        /// The result document, spliced into the reply verbatim — so a
        /// cache hit serves exactly the bytes a fresh run produced.
        result: String,
    },
    Failure {
        kind: &'static str,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

/// How a reply opens: a standalone envelope `{"ok":…[,"cmd":…][,"id":…]`
/// or a batch slot `{"index":…,"ok":…`.
enum Head<'a> {
    Envelope {
        cmd: Option<&'a str>,
        id: Option<&'a JsonValue>,
    },
    Slot(usize),
}

impl Outcome {
    fn failure(kind: &'static str, message: impl Into<String>) -> Outcome {
        Outcome::Failure {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    fn is_success(&self) -> bool {
        matches!(self, Outcome::Success { .. })
    }

    fn render(&self, head: Head<'_>) -> String {
        let ok = if self.is_success() { "true" } else { "false" };
        let body = match self {
            Outcome::Success { result, .. } => result.len(),
            Outcome::Failure { message, .. } => message.len(),
        };
        let mut s = String::with_capacity(body + 160);
        match head {
            Head::Envelope { cmd, id } => {
                s.push_str("{\"ok\":");
                s.push_str(ok);
                if let Some(cmd) = cmd {
                    s.push_str(",\"cmd\":\"");
                    s.push_str(cmd);
                    s.push('"');
                }
                if let Some(id) = id {
                    s.push_str(",\"id\":");
                    id.write_into(&mut s);
                }
            }
            Head::Slot(index) => {
                s.push_str("{\"index\":");
                JsonValue::from(index).write_into(&mut s);
                s.push_str(",\"ok\":");
                s.push_str(ok);
            }
        }
        match self {
            Outcome::Success {
                cached,
                key,
                result,
            } => {
                s.push_str(if *cached {
                    ",\"cached\":true"
                } else {
                    ",\"cached\":false"
                });
                if let Some(key) = key {
                    s.push_str(",\"key\":\"");
                    s.push_str(key);
                    s.push('"');
                }
                s.push_str(",\"result\":");
                s.push_str(result);
            }
            Outcome::Failure {
                kind,
                message,
                retry_after_ms,
            } => {
                s.push_str(",\"error\":");
                JsonValue::object([
                    ("kind", (*kind).into()),
                    ("message", message.as_str().into()),
                ])
                .write_into(&mut s);
                if let Some(ms) = retry_after_ms {
                    s.push_str(",\"retry_after_ms\":");
                    JsonValue::from(*ms).write_into(&mut s);
                }
            }
        }
        s.push('}');
        s
    }
}

/// A job slot after [`admit`].
enum Admission {
    /// Decided on the connection thread: a cache hit, a rejection, or a
    /// malformed spec.
    Done(Outcome),
    /// Queued; the worker's reply arrives on `rx`.
    Queued {
        rx: Receiver<WorkResult>,
        cache_key: Option<String>,
    },
}

/// Admits one job — a standalone request, or one batch slot at `index`
/// (logged with its events): the cache probe on the connection thread (a
/// hit ends the slot here, without a queue slot or a matrix), then — on a
/// miss — the job is built and offered to the bounded admission queue.
fn admit(
    inner: &Arc<Inner>,
    work_tx: &SyncSender<WorkItem>,
    rid: u64,
    cmd: &'static str,
    index: Option<usize>,
    job: KeyedSpec,
    workloads: &mut Workloads,
) -> Admission {
    let event = |event: &str, field: (&'static str, JsonValue)| match index {
        Some(i) => log_event(inner, rid, event, &[("index", i.into()), field]),
        None => log_event(inner, rid, event, &[field]),
    };
    let KeyedSpec { spec, cache_key } = job;
    let hit = inner
        .cache
        .as_ref()
        .zip(cache_key.as_deref())
        .and_then(|(cache, key)| cache.get(key))
        .and_then(|payload| String::from_utf8(payload).ok());
    if let Some(result) = hit {
        inner.served_ok.fetch_add(1, Ordering::Relaxed);
        let key = cache_key.expect("only keyed jobs probe the cache");
        event("cache_hit", ("key", key.as_str().into()));
        return Admission::Done(Outcome::Success {
            cached: true,
            key: Some(key),
            result,
        });
    }
    let (reply, rx) = mpsc::sync_channel(1);
    let item = WorkItem {
        rid,
        cmd,
        kind: spec.into_work(inner, workloads, cache_key.as_deref()),
        store_key: cache_key.clone(),
        enqueued: Instant::now(),
        reply,
    };
    // The queue slot is counted *before* try_send: the worker may pull
    // the item (and decrement) the instant the send lands, so counting
    // afterwards could transiently take the depth below zero.
    let depth = inner.metrics.queue_depth.add(1);
    match work_tx.try_send(item) {
        Ok(()) => {
            event("enqueue", ("depth", depth.into()));
            Admission::Queued { rx, cache_key }
        }
        Err(rejected) => {
            inner.metrics.queue_depth.add(-1);
            Admission::Done(match rejected {
                TrySendError::Full(_) => {
                    inner.metrics.rejected_overload.inc();
                    Outcome::Failure {
                        kind: "overloaded",
                        message: format!(
                            "admission queue is full ({} slots)",
                            inner.config.queue_capacity
                        ),
                        retry_after_ms: Some(inner.retry_after_hint()),
                    }
                }
                TrySendError::Disconnected(_) => {
                    Outcome::failure("shutting_down", "daemon is draining")
                }
            })
        }
    }
}

/// Turns an admitted slot into its outcome, waiting for the worker when
/// it was queued, and counts what the worker reported: successes in
/// `served_ok`, failures in `served_err` (deadline kills in their own
/// counter too). Outcomes decided at admission were counted there.
fn collect(inner: &Inner, admission: Admission) -> Outcome {
    let (rx, cache_key) = match admission {
        Admission::Done(outcome) => return outcome,
        Admission::Queued { rx, cache_key } => (rx, cache_key),
    };
    let outcome = match rx.recv() {
        Ok(Ok(result)) => Outcome::Success {
            cached: false,
            key: cache_key,
            result,
        },
        Ok(Err((kind, message))) => Outcome::failure(kind, message),
        Err(_) => Outcome::failure("internal", "worker dropped the job"),
    };
    match &outcome {
        Outcome::Success { .. } => inner.served_ok.fetch_add(1, Ordering::Relaxed),
        Outcome::Failure { kind, .. } => {
            if *kind == "deadline_exceeded" {
                inner.metrics.deadline_kills.inc();
            }
            inner.served_err.fetch_add(1, Ordering::Relaxed)
        }
    };
    outcome
}

/// Answers one `advise` request on the connection thread: generate the
/// matrix, run the three-tier advisor with whatever model the daemon
/// loaded at bind time, and report the selected plan with its tier and
/// selection latency. Never touches the admission queue — plan advice
/// stays available even when every simulation worker is busy.
fn advise_response(
    inner: &Arc<Inner>,
    id: Option<&JsonValue>,
    benchmark: Benchmark,
    scale: Scale,
    k: usize,
    pes: usize,
) -> (String, bool) {
    let a = benchmark.generate(scale);
    let config = SystemConfig::scaled(pes);
    let ranker = inner
        .model
        .as_ref()
        .map(|m| m as &dyn spade_core::advisor::PlanRanker);
    // The timer starts after matrix generation: the histogram measures
    // plan *selection*, the thing the cost model accelerates.
    let started = Instant::now();
    match advise_tiered(&a, k, &config, ranker) {
        Ok(advice) => {
            let latency_us = started.elapsed().as_micros() as u64;
            inner
                .metrics
                .count_advise(advice.source.as_str(), latency_us);
            inner.served_ok.fetch_add(1, Ordering::Relaxed);
            let mut fields = reply_head("advise", id);
            fields.push((
                "result",
                JsonValue::object([
                    ("benchmark", benchmark.short_name().into()),
                    ("k", k.into()),
                    ("pes", pes.into()),
                    ("source", advice.source.as_str().into()),
                    ("plan", plan_json(&advice.plan)),
                    (
                        "predicted_cycles",
                        advice
                            .predicted_cycles
                            .map_or(JsonValue::Null, JsonValue::from),
                    ),
                    ("latency_us", latency_us.into()),
                ]),
            ));
            (JsonValue::object(fields).render(), true)
        }
        Err(e) => {
            inner.served_err.fetch_add(1, Ordering::Relaxed);
            let message = e.to_string();
            (
                error_response(id, Some("advise"), error_kind(&message), &message, None),
                false,
            )
        }
    }
}

/// Answers one `batch` request the way a standalone job is answered, slot
/// by slot: every slot is admitted in order (each matrix prepared at most
/// once per batch), then collected in order, tallied and wrapped. When
/// the queue fills mid-batch the jobs that fit keep running and the rest
/// are rejected with `overloaded`; a failing job fails only its slot, and
/// a malformed spec ends as `bad_request`, counted in neither `served_ok`
/// nor `served_err`. The envelope is `ok:true` whenever the request
/// parsed; per-job outcomes and the summary counts tell the rest.
fn batch_response(
    inner: &Arc<Inner>,
    work_tx: &SyncSender<WorkItem>,
    rid: u64,
    id: Option<&JsonValue>,
    jobs: Vec<Result<KeyedSpec, String>>,
    mut workloads: Workloads,
) -> String {
    let total = jobs.len();
    log_event(inner, rid, "batch", &[("jobs", total.into())]);
    let admitted: Vec<Admission> = jobs
        .into_iter()
        .enumerate()
        .map(|(index, slot)| match slot {
            Ok(job) => admit(
                inner,
                work_tx,
                rid,
                "batch",
                Some(index),
                job,
                &mut workloads,
            ),
            Err(message) => Admission::Done(Outcome::failure("bad_request", message)),
        })
        .collect();
    // As for a standalone job: each admitted job holds its own workload.
    drop(workloads);
    let (mut succeeded, mut hits, mut failed, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let mut rendered_jobs = Vec::with_capacity(total);
    for (index, admission) in admitted.into_iter().enumerate() {
        let outcome = collect(inner, admission);
        let class = match &outcome {
            Outcome::Success { cached: true, .. } => {
                succeeded += 1;
                hits += 1;
                "cached"
            }
            Outcome::Success { .. } => {
                succeeded += 1;
                "ok"
            }
            Outcome::Failure {
                kind: "overloaded", ..
            } => {
                rejected += 1;
                "rejected"
            }
            Outcome::Failure { .. } => {
                failed += 1;
                "error"
            }
        };
        inner.metrics.count_batch_job(class);
        rendered_jobs.push(outcome.render(Head::Slot(index)));
    }
    let mut s = String::with_capacity(rendered_jobs.iter().map(String::len).sum::<usize>() + 192);
    s.push_str("{\"ok\":true,\"cmd\":\"batch\"");
    if let Some(id) = id {
        s.push_str(",\"id\":");
        s.push_str(&id.render());
    }
    s.push_str(&format!(
        ",\"result\":{{\"total\":{total},\"succeeded\":{succeeded},\"cached\":{hits},\
         \"failed\":{failed},\"rejected\":{rejected},\"jobs\":["
    ));
    s.push_str(&rendered_jobs.join(","));
    s.push_str("]}}");
    s
}

fn respond(writer: &mut TcpStream, line: &str) -> bool {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_ok()
}

fn status_response(inner: &Arc<Inner>, id: Option<&JsonValue>) -> JsonValue {
    let m = &inner.metrics;
    let mut fields = reply_head("status", id);
    fields.extend([
        (
            "uptime_ms",
            (inner.started.elapsed().as_millis() as u64).into(),
        ),
        ("queue_depth", m.queue_depth.get().into()),
        ("queue_capacity", inner.config.queue_capacity.into()),
        ("in_flight", m.in_flight.get().into()),
        ("workers", inner.config.workers.into()),
        ("served_ok", inner.served_ok.load(Ordering::Relaxed).into()),
        (
            "served_err",
            inner.served_err.load(Ordering::Relaxed).into(),
        ),
        ("rejected_overload", m.rejected_overload.get().into()),
        ("bad_frames", m.bad_frames.get().into()),
        ("connections", m.connections.get().into()),
        (
            "cache",
            match &inner.cache {
                Some(cache) => {
                    let mut stats = cache.stats().to_json();
                    if let JsonValue::Object(fields) = &mut stats {
                        fields.push(("entries".into(), cache.len().into()));
                    }
                    stats
                }
                None => JsonValue::Null,
            },
        ),
        ("shutting_down", inner.shutting_down().into()),
    ]);
    JsonValue::object(fields)
}

/// A standalone failure reply; `cmd` is `None` when the frame never
/// named a valid one.
fn error_response(
    id: Option<&JsonValue>,
    cmd: Option<&str>,
    kind: &'static str,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    Outcome::Failure {
        kind,
        message: message.to_string(),
        retry_after_ms,
    }
    .render(Head::Envelope { cmd, id })
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

enum Request {
    Ping,
    Status,
    Metrics,
    Shutdown,
    /// A `run`/`search`/`trace`/`query` request.
    Work(KeyedSpec),
    /// A sweep: many `run`-shaped jobs answered in one reply. Each slot
    /// is either a parsed job or the `bad_request` message that job spec
    /// earned — a malformed job fails only its own slot, in keeping with
    /// the per-job containment contract.
    Batch(Vec<Result<KeyedSpec, String>>),
    /// Millisecond plan selection for one (benchmark, scale, k, pes):
    /// the three-tier advisor, answered on the connection thread — never
    /// a simulation worker, so advice stays available under full load.
    Advise {
        benchmark: Benchmark,
        scale: Scale,
        k: usize,
        pes: usize,
    },
}

/// Parses one frame into its `id` (when the frame is JSON carrying one)
/// and its request, applying the same validation the CLI flags get —
/// every reject happens before any simulation work starts. Cache keys
/// come from the daemon's stamp table; a workload prepared to fill a
/// stamp lands in `workloads` for the request's own job.
fn parse_request(
    inner: &Inner,
    frame: &[u8],
    workloads: &mut Workloads,
) -> (Option<JsonValue>, Result<Request, String>) {
    let doc = match std::str::from_utf8(frame) {
        Err(_) => return (None, Err("frame is not UTF-8".into())),
        Ok(text) => match JsonValue::parse(text) {
            Err(e) => return (None, Err(format!("frame is not valid JSON: {e}"))),
            Ok(doc) => doc,
        },
    };
    let id = doc.get("id").and_then(|v| match v {
        JsonValue::Str(_) | JsonValue::UInt(_) | JsonValue::Int(_) => Some(v.clone()),
        _ => None,
    });
    (id, parse_command(inner, &doc, workloads))
}

/// The request a JSON frame names in its `cmd`.
fn parse_command(
    inner: &Inner,
    doc: &JsonValue,
    workloads: &mut Workloads,
) -> Result<Request, String> {
    if doc.get("cmd").is_none() {
        return Err("request must be an object with a \"cmd\" field".into());
    }
    let cmd = doc
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or("\"cmd\" must be a string")?;
    Ok(match cmd {
        "ping" => Request::Ping,
        "status" => Request::Status,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        "run" => Request::Work(parse_run(inner, doc, workloads)?),
        "search" => parse_search(inner, doc, workloads)?,
        "query" => parse_query(doc)?,
        "trace" => parse_trace(inner, doc, workloads)?,
        "batch" => parse_batch(inner, doc, workloads)?,
        "advise" => Request::Advise {
            benchmark: parse_wire_benchmark(doc)?,
            scale: parse_wire_scale(doc)?,
            k: parse_wire_k(doc)?,
            pes: parse_wire_pes(doc)?,
        },
        other => return Err(format!("unknown cmd {other:?}")),
    })
}

fn field_str<'a>(doc: &'a JsonValue, key: &str, default: &'a str) -> Result<&'a str, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_str().ok_or(format!("\"{key}\" must be a string")),
    }
}

fn field_u64(doc: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or(format!("\"{key}\" must be a non-negative integer")),
    }
}

fn field_bool(doc: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or(format!("\"{key}\" must be a boolean")),
    }
}

fn parse_wire_scale(doc: &JsonValue) -> Result<Scale, String> {
    match field_str(doc, "scale", "tiny")? {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        other => Err(format!("unknown scale {other:?}")),
    }
}

fn parse_wire_benchmark(doc: &JsonValue) -> Result<Benchmark, String> {
    let name = doc
        .get("benchmark")
        .and_then(JsonValue::as_str)
        .ok_or("\"benchmark\" is required")?;
    Benchmark::ALL
        .into_iter()
        .find(|b| b.short_name().eq_ignore_ascii_case(name))
        .ok_or(format!("unknown benchmark {name:?}"))
}

fn parse_wire_k(doc: &JsonValue) -> Result<usize, String> {
    let k = field_u64(doc, "k")?.unwrap_or(32) as usize;
    let line = spade_matrix::FLOATS_PER_LINE;
    if k == 0 || !k.is_multiple_of(line) {
        return Err(format!(
            "\"k\": {k} is not a multiple of the cache line ({line} floats)"
        ));
    }
    if k > MAX_REQUEST_K {
        return Err(format!(
            "\"k\": {k} exceeds the service limit {MAX_REQUEST_K}"
        ));
    }
    Ok(k)
}

fn parse_wire_pes(doc: &JsonValue) -> Result<usize, String> {
    let pes = field_u64(doc, "pes")?.unwrap_or(56) as usize;
    if pes == 0 || !pes.is_multiple_of(4) {
        return Err("\"pes\" must be a positive multiple of 4".into());
    }
    if pes > MAX_REQUEST_PES {
        return Err(format!(
            "\"pes\": {pes} exceeds the service limit {MAX_REQUEST_PES}"
        ));
    }
    Ok(pes)
}

fn parse_wire_kernel(doc: &JsonValue) -> Result<Primitive, String> {
    match field_str(doc, "kernel", "spmm")? {
        "spmm" => Ok(Primitive::Spmm),
        "sddmm" => Ok(Primitive::Sddmm),
        other => Err(format!("unknown kernel {other:?}")),
    }
}

/// The request deadline: explicit `deadline_cycles` wins, otherwise the
/// service default; an explicit `0` means "no deadline".
fn parse_wire_deadline(
    doc: &JsonValue,
    config_default: Option<Cycle>,
) -> Result<Option<Cycle>, String> {
    match field_u64(doc, "deadline_cycles")? {
        Some(0) => Ok(None),
        Some(d) => Ok(Some(d)),
        None => Ok(config_default),
    }
}

/// The plan a request asks for: SPADE Base (§7.A: 256-row panels, one
/// column panel spanning all `num_cols` columns, no bypass, no
/// barriers) with the request's knob overrides.
fn parse_wire_plan(doc: &JsonValue, num_cols: usize) -> Result<ExecutionPlan, String> {
    let rp = field_u64(doc, "rp")?.map_or(256, |v| v as usize);
    let cp = match doc.get("cp") {
        Some(v) if v.as_str() != Some("all") => {
            v.as_u64().ok_or("\"cp\" must be an integer or \"all\"")? as usize
        }
        _ => num_cols.max(1),
    };
    let r_policy = match field_str(doc, "rmatrix", "cache")? {
        "cache" => RMatrixPolicy::Cache,
        "bypass" => RMatrixPolicy::Bypass,
        "victim" => RMatrixPolicy::BypassVictim,
        other => return Err(format!("unknown rmatrix policy {other:?}")),
    };
    let barriers = if field_bool(doc, "barriers", false)? {
        BarrierPolicy::per_column_panel()
    } else {
        BarrierPolicy::None
    };
    ExecutionPlan::with_knobs(rp, cp, r_policy, CMatrixPolicy::Cache, barriers)
        .map_err(|e| e.to_string())
}

/// A parsed job — a `run`/`search`/`trace`/`query` request or one
/// `batch` slot — with its cache key (`None`: don't probe or persist).
struct KeyedSpec {
    spec: WorkSpec,
    cache_key: Option<String>,
}

/// A parsed `run`/`search`/`trace`/`query` request. Parsing keys it from
/// the stamp table alone; [`WorkSpec::into_work`] builds its jobs — the
/// expensive part — only after the cache probe misses.
enum WorkSpec {
    Run(RunSpec),
    Trace { run: RunSpec, window: u64 },
    Search(SearchSpec),
    Query { filter: QueryFilter },
}

impl WorkSpec {
    fn cmd(&self) -> &'static str {
        match self {
            WorkSpec::Run(_) => "run",
            WorkSpec::Trace { .. } => "trace",
            WorkSpec::Search(_) => "search",
            WorkSpec::Query { .. } => "query",
        }
    }

    /// Builds the worker's job(s) after a cache miss, preparing the
    /// workload unless this request already holds it. `cache_key` is the
    /// key parsing computed from the stamp; debug builds check that the
    /// built job computes the same one from its matrix.
    fn into_work(
        self,
        inner: &Inner,
        workloads: &mut Workloads,
        cache_key: Option<&str>,
    ) -> WorkKind {
        match self {
            WorkSpec::Run(run) => {
                let job = run.job(inner, workloads);
                if let Some(key) = cache_key {
                    debug_assert_eq!(key, job.cache_key());
                }
                WorkKind::Run(Box::new(job))
            }
            WorkSpec::Trace { run, window } => {
                let job = run
                    .job(inner, workloads)
                    .with_telemetry((window > 0).then_some(window))
                    .with_trace(true);
                if let Some(key) = cache_key {
                    debug_assert_eq!(key, job.trace_cache_key());
                }
                WorkKind::Trace {
                    job: Box::new(job),
                    window,
                }
            }
            WorkSpec::Search(search) => {
                let workload = inner.workload(search.workload, workloads);
                let config = Arc::new(SystemConfig::scaled(search.pes));
                let jobs: Vec<Job> = search
                    .plans
                    .iter()
                    .map(|&plan| {
                        Job::new(&workload, &config, Primitive::Spmm, plan)
                            .with_deadline_cycles(search.deadline)
                    })
                    .collect();
                if let Some(key) = cache_key {
                    let run_keys: Vec<String> = jobs.iter().map(Job::cache_key).collect();
                    debug_assert_eq!(key, search_cache_key(&run_keys));
                }
                WorkKind::Search(jobs)
            }
            WorkSpec::Query { filter } => WorkKind::Query { filter },
        }
    }
}

/// One parsed `run`-shaped job: the standalone `run` request, every
/// `batch` slot and `trace` go through exactly this, so a batch job's
/// cache key, deadline resolution and rendered payload are byte-for-byte
/// those of the equivalent individual request.
struct RunSpec {
    workload: WorkloadId,
    pes: usize,
    kernel: Primitive,
    plan: ExecutionPlan,
    deadline: Option<Cycle>,
}

impl RunSpec {
    /// The run cache key, from the workload's stamp — no matrix needed.
    fn cache_key(&self, stamp: &MatrixStamp) -> String {
        run_cache_key(
            &stamp.key_prefix,
            &SystemConfig::scaled(self.pes),
            self.kernel,
            &self.plan,
            self.deadline,
        )
    }

    fn job(&self, inner: &Inner, workloads: &mut Workloads) -> Job {
        let workload = inner.workload(self.workload, workloads);
        let config = Arc::new(SystemConfig::scaled(self.pes));
        Job::new(&workload, &config, self.kernel, self.plan).with_deadline_cycles(self.deadline)
    }
}

/// A parsed `search`: the candidate plans of the quick (or full) space.
struct SearchSpec {
    workload: WorkloadId,
    pes: usize,
    plans: Vec<ExecutionPlan>,
    deadline: Option<Cycle>,
}

/// Parses one `run`-shaped document into its spec and run cache key
/// (`None` when the request opts out with `no_cache`).
fn parse_run_spec(
    inner: &Inner,
    doc: &JsonValue,
    workloads: &mut Workloads,
) -> Result<(RunSpec, Option<String>), String> {
    let benchmark = parse_wire_benchmark(doc)?;
    let scale = parse_wire_scale(doc)?;
    let k = parse_wire_k(doc)?;
    let pes = parse_wire_pes(doc)?;
    let kernel = parse_wire_kernel(doc)?;
    let deadline = parse_wire_deadline(doc, inner.config.default_deadline_cycles)?;
    let no_cache = field_bool(doc, "no_cache", false)?;
    let workload = WorkloadId {
        benchmark,
        scale,
        k,
    };
    let stamp = inner.stamp(workload, workloads);
    let spec = RunSpec {
        workload,
        pes,
        kernel,
        plan: parse_wire_plan(doc, stamp.num_cols)?,
        // The deadline is resolved at admission (per-request field or
        // the service default), so it lands in the cache key before the
        // cache probe.
        deadline,
    };
    let cache_key = (!no_cache).then(|| spec.cache_key(&stamp));
    Ok((spec, cache_key))
}

/// A `run` request, or one `batch` slot.
fn parse_run(
    inner: &Inner,
    doc: &JsonValue,
    workloads: &mut Workloads,
) -> Result<KeyedSpec, String> {
    let (run, cache_key) = parse_run_spec(inner, doc, workloads)?;
    Ok(KeyedSpec {
        spec: WorkSpec::Run(run),
        cache_key,
    })
}

/// Fields a batch request may set once for every job (anything but the
/// envelope and the job list itself): per-job fields win, batch-level
/// fields fill the gaps.
fn merged_job_doc(job: &JsonValue, batch: &JsonValue) -> Result<JsonValue, String> {
    let JsonValue::Object(job_fields) = job else {
        return Err("each batch job must be an object".into());
    };
    let mut fields = job_fields.clone();
    if let JsonValue::Object(batch_fields) = batch {
        for (key, value) in batch_fields {
            if matches!(key.as_str(), "cmd" | "id" | "jobs" | "sweep") {
                continue;
            }
            if job.get(key).is_none() {
                fields.push((key.clone(), value.clone()));
            }
        }
    }
    Ok(JsonValue::Object(fields))
}

fn sweep_list<'a>(sweep: &'a JsonValue, key: &str) -> Result<Option<&'a [JsonValue]>, String> {
    match sweep.get(key) {
        None => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or(format!("sweep \"{key}\" must be an array"))?;
            if items.is_empty() {
                return Err(format!("sweep \"{key}\" must not be empty"));
            }
            Ok(Some(items))
        }
    }
}

/// Expands a `sweep` template into per-job documents: the cross product
/// benchmarks × kernels × k × pes × plans, in exactly that nesting
/// order — the job order of the reply is a deterministic function of
/// the request.
fn expand_sweep(sweep: &JsonValue) -> Result<Vec<JsonValue>, String> {
    let benchmarks =
        sweep_list(sweep, "benchmarks")?.ok_or("sweep requires a \"benchmarks\" array")?;
    let default_kernels = [JsonValue::from("spmm")];
    let kernels = sweep_list(sweep, "kernels")?.unwrap_or(&default_kernels);
    let default_ks = [JsonValue::from(32u64)];
    let ks = sweep_list(sweep, "k")?.unwrap_or(&default_ks);
    let default_pes = [JsonValue::from(56u64)];
    let pes_list = sweep_list(sweep, "pes")?.unwrap_or(&default_pes);
    let default_plans = [JsonValue::object::<&str>([])];
    let plans = sweep_list(sweep, "plans")?.unwrap_or(&default_plans);
    let mut docs = Vec::new();
    for bench in benchmarks {
        for kernel in kernels {
            for k in ks {
                for pes in pes_list {
                    for plan in plans {
                        let JsonValue::Object(plan_fields) = plan else {
                            return Err("each sweep plan must be an object".into());
                        };
                        let mut fields: Vec<(String, JsonValue)> = vec![
                            ("benchmark".into(), bench.clone()),
                            ("kernel".into(), kernel.clone()),
                            ("k".into(), k.clone()),
                            ("pes".into(), pes.clone()),
                        ];
                        fields.extend(plan_fields.iter().cloned());
                        docs.push(JsonValue::Object(fields));
                    }
                }
            }
        }
    }
    Ok(docs)
}

/// Parses a `batch` request: an explicit `jobs` array or a `sweep`
/// template (exactly one of the two), every other top-level field acting
/// as a per-job default. Structural problems (no jobs, both forms, over
/// the cap) reject the request; a single malformed job spec only poisons
/// its own slot.
fn parse_batch(
    inner: &Inner,
    doc: &JsonValue,
    workloads: &mut Workloads,
) -> Result<Request, String> {
    let job_docs = match (doc.get("jobs"), doc.get("sweep")) {
        (Some(_), Some(_)) => {
            return Err("\"jobs\" and \"sweep\" are mutually exclusive".into());
        }
        (None, None) => {
            return Err("batch requires a \"jobs\" array or a \"sweep\" template".into());
        }
        (Some(jobs), None) => {
            let items = jobs.as_array().ok_or("\"jobs\" must be an array")?;
            if items.is_empty() {
                return Err("\"jobs\" must not be empty".into());
            }
            items.to_vec()
        }
        (None, Some(sweep)) => expand_sweep(sweep)?,
    };
    if job_docs.len() > MAX_BATCH_JOBS {
        return Err(format!(
            "batch of {} jobs exceeds the service limit {MAX_BATCH_JOBS}",
            job_docs.len()
        ));
    }
    let jobs = job_docs
        .iter()
        .map(|job| merged_job_doc(job, doc).and_then(|merged| parse_run(inner, &merged, workloads)))
        .collect();
    Ok(Request::Batch(jobs))
}

fn parse_search(
    inner: &Inner,
    doc: &JsonValue,
    workloads: &mut Workloads,
) -> Result<Request, String> {
    let benchmark = parse_wire_benchmark(doc)?;
    let scale = parse_wire_scale(doc)?;
    let k = parse_wire_k(doc)?;
    let pes = parse_wire_pes(doc)?;
    let full = field_bool(doc, "full", false)?;
    let deadline = parse_wire_deadline(doc, inner.config.default_deadline_cycles)?;
    let no_cache = field_bool(doc, "no_cache", false)?;
    let workload = WorkloadId {
        benchmark,
        scale,
        k,
    };
    let stamp = inner.stamp(workload, workloads);
    let space = if full {
        PlanSearchSpace::table3(k)
    } else {
        PlanSearchSpace::quick(k)
    };
    let plans = space.enumerate(stamp.num_cols);
    let cache_key = (!no_cache).then(|| {
        let config = SystemConfig::scaled(pes);
        let run_keys: Vec<String> = plans
            .iter()
            .map(|plan| run_cache_key(&stamp.key_prefix, &config, Primitive::Spmm, plan, deadline))
            .collect();
        search_cache_key(&run_keys)
    });
    Ok(Request::Work(KeyedSpec {
        spec: WorkSpec::Search(SearchSpec {
            workload,
            pes,
            plans,
            deadline,
        }),
        cache_key,
    }))
}

/// A search result is a pure function of its candidate set, so its key
/// is a digest over every candidate's run key (prefixed `s` to keep run
/// and search entries in distinct key spaces).
fn search_cache_key(run_keys: &[String]) -> String {
    let digest = parallel::digest128(|h| {
        h.write(b"search:v1");
        for key in run_keys {
            h.write(key.as_bytes());
        }
    });
    format!("s{digest}")
}

/// A `trace` request is a `run` request with trace capture forced on
/// plus an optional telemetry `window` (cycles; default 256, `0`
/// disables the telemetry lane). Keyed by [`trace_cache_key`] over the
/// run key, so a repeated trace is a cache hit with byte-identical trace
/// JSON.
fn parse_trace(
    inner: &Inner,
    doc: &JsonValue,
    workloads: &mut Workloads,
) -> Result<Request, String> {
    let (run, run_key) = parse_run_spec(inner, doc, workloads)?;
    let window = field_u64(doc, "window")?.unwrap_or(256);
    Ok(Request::Work(KeyedSpec {
        cache_key: run_key.map(|key| trace_cache_key(&key, (window > 0).then_some(window))),
        spec: WorkSpec::Trace { run, window },
    }))
}

/// The catalog dimension a `query` aggregation groups on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKey {
    /// Per matrix (the wire accepts `"benchmark"` or `"matrix"`).
    Benchmark,
    Kernel,
    Pes,
}

impl GroupKey {
    /// The group label for one catalog row.
    fn of(self, m: &EntryMeta) -> String {
        match self {
            GroupKey::Benchmark => m.benchmark.clone(),
            GroupKey::Kernel => m.kernel.clone(),
            GroupKey::Pes => m.pes.to_string(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            GroupKey::Benchmark => "benchmark",
            GroupKey::Kernel => "kernel",
            GroupKey::Pes => "pes",
        }
    }
}

/// Filters a `query` request applies to the dataset catalog. Every
/// field is optional; an empty filter matches everything.
#[derive(Debug, Clone)]
struct QueryFilter {
    benchmark: Option<String>,
    kernel: Option<String>,
    kind: Option<String>,
    k: Option<u64>,
    pes: Option<u64>,
    min_cycles: Option<u64>,
    max_cycles: Option<u64>,
    limit: usize,
    /// `Some`: aggregate the matches into per-group projections instead
    /// of listing them (`limit` then caps the group list).
    group_by: Option<GroupKey>,
}

impl QueryFilter {
    fn matches(&self, m: &EntryMeta) -> bool {
        self.benchmark.as_deref().is_none_or(|b| b == m.benchmark)
            && self.kernel.as_deref().is_none_or(|kn| kn == m.kernel)
            && self.kind.as_deref().is_none_or(|kd| kd == m.kind)
            && self.k.is_none_or(|k| k == m.k)
            && self.pes.is_none_or(|p| p == m.pes)
            && self.min_cycles.is_none_or(|lo| m.cycles >= lo)
            && self.max_cycles.is_none_or(|hi| m.cycles <= hi)
    }
}

/// Validates a `query` request's filter fields — unknown benchmarks,
/// kernels and kinds are rejected here as `bad_request`, like every
/// other wire field.
fn parse_query(doc: &JsonValue) -> Result<Request, String> {
    let benchmark = match doc.get("benchmark") {
        None => None,
        Some(_) => Some(parse_wire_benchmark(doc)?.short_name().to_string()),
    };
    let kernel = match doc.get("kernel") {
        None => None,
        Some(_) => Some(parse_wire_kernel(doc)?.to_string().to_lowercase()),
    };
    let kind = match field_str(doc, "kind", "")? {
        "" => None,
        k @ ("run" | "search" | "trace") => Some(k.to_string()),
        other => return Err(format!("unknown entry kind {other:?}")),
    };
    // An explicit zero used to silently return no rows — ambiguous
    // enough (is it "no limit"?) that it is now rejected outright.
    // DESIGN.md §7.1 documents the choice.
    let limit = match field_u64(doc, "limit")? {
        Some(0) => {
            return Err(format!(
                "\"limit\": 0 would return no rows; omit the field for the default ({DEFAULT_QUERY_LIMIT}) or give a positive cap"
            ));
        }
        Some(n) => n as usize,
        None => DEFAULT_QUERY_LIMIT,
    };
    let group_by = match field_str(doc, "group_by", "")? {
        "" => None,
        "benchmark" | "matrix" => Some(GroupKey::Benchmark),
        "kernel" => Some(GroupKey::Kernel),
        "pes" => Some(GroupKey::Pes),
        other => {
            return Err(format!("unknown group_by {other:?} (benchmark|kernel|pes)"));
        }
    };
    Ok(Request::Work(KeyedSpec {
        cache_key: None,
        spec: WorkSpec::Query {
            filter: QueryFilter {
                benchmark,
                kernel,
                kind,
                k: field_u64(doc, "k")?,
                pes: field_u64(doc, "pes")?,
                min_cycles: field_u64(doc, "min_cycles")?,
                max_cycles: field_u64(doc, "max_cycles")?,
                limit,
                group_by,
            },
        },
    }))
}

// ---------------------------------------------------------------------------
// Workers: simulation, result rendering, cache stores
// ---------------------------------------------------------------------------

/// One worker: pull admitted requests, simulate inside the
/// [`ParallelRunner`] panic guard, persist successes, reply. Exits when
/// the admission queue closes (shutdown drain).
fn worker_loop(inner: &Arc<Inner>, rx: &Arc<Mutex<Receiver<WorkItem>>>) {
    loop {
        let item = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(item) = item else { return };
        inner.metrics.queue_depth.add(-1);
        inner.metrics.in_flight.add(1);
        let queue_wait_us = item.enqueued.elapsed().as_micros() as u64;
        inner.metrics.queue_wait_us.observe(queue_wait_us);
        log_event(
            inner,
            item.rid,
            "execute",
            &[
                ("cmd", item.cmd.into()),
                ("queue_wait_us", queue_wait_us.into()),
            ],
        );
        if let Some(delay) = inner.config.worker_delay {
            std::thread::sleep(delay);
        }
        let exec_start = Instant::now();
        let outcome = execute_work(inner, &item.kind);
        let exec_us = exec_start.elapsed().as_micros() as u64;
        inner.metrics.exec_us.observe(exec_us);
        log_event(
            inner,
            item.rid,
            "executed",
            &[("ok", outcome.is_ok().into()), ("exec_us", exec_us.into())],
        );
        if let (Ok(result), Some(cache), Some(key)) =
            (&outcome, inner.cache.as_ref(), item.store_key.as_deref())
        {
            if let Err(e) = cache.put(key, result.as_bytes()) {
                // A failed store costs persistence, not the request.
                eprintln!("spade-serve: cache store for {key} failed: {e}");
            } else {
                log_event(inner, item.rid, "store", &[("key", key.into())]);
                if let Some(dataset) = &inner.dataset {
                    dataset.insert_payload(key, result);
                }
            }
        }
        // The handler may have given up (connection died); a dead
        // receiver just drops the result.
        let _ = item.reply.send(outcome);
        inner.metrics.in_flight.add(-1);
    }
}

/// Classifies a job failure into a protocol error kind: watchdog
/// cycle-ceiling trips are deadline errors, everything else (invalid
/// config, deadlock, gold divergence, contained panic) is `sim_failed`.
fn error_kind(message: &str) -> &'static str {
    if message.contains("cycle budget exceeded") {
        "deadline_exceeded"
    } else {
        "sim_failed"
    }
}

fn execute_work(inner: &Arc<Inner>, kind: &WorkKind) -> WorkResult {
    match kind {
        WorkKind::Run(job) => {
            // A single-worker runner still wraps the job in the panic
            // guard with one retry — a crashing simulation fails this
            // request, never the worker thread.
            let mut outputs = ParallelRunner::new(1).run_outputs(std::slice::from_ref(job));
            match outputs.pop().expect("one job in, one result out") {
                Ok(output) => {
                    inner.metrics.sim_cycles.observe(output.report.cycles);
                    Ok(run_result_json(job, &output).render())
                }
                Err(e) => Err((error_kind(&e.message), e.to_string())),
            }
        }
        WorkKind::Trace { job, window } => {
            let mut outputs = ParallelRunner::new(1).run_outputs(std::slice::from_ref(job));
            match outputs.pop().expect("one job in, one result out") {
                Ok(output) => {
                    inner.metrics.sim_cycles.observe(output.report.cycles);
                    let (chrome, events) = trace_document(&output, job.config.num_pes)
                        .map_err(|e| ("sim_failed", e))?;
                    // Head object rendered, then the Chrome JSON spliced
                    // in verbatim (like every reply's result) so the
                    // wire bytes equal the local `spade-cli trace` file.
                    let head = JsonValue::object([
                        ("benchmark", job.workload.name.as_str().into()),
                        ("kernel", job.primitive.to_string().into()),
                        ("k", job.workload.k.into()),
                        ("pes", job.config.num_pes.into()),
                        ("window", (*window).into()),
                        ("events", events.into()),
                        ("plan", plan_json(&job.plan)),
                        ("report", canonical_report(&output.report).to_json()),
                    ]);
                    let mut s = head.render();
                    s.pop();
                    s.push_str(",\"trace\":");
                    s.push_str(&chrome);
                    s.push('}');
                    Ok(s)
                }
                Err(e) => Err((error_kind(&e.message), e.to_string())),
            }
        }
        WorkKind::Query { filter } => match &inner.dataset {
            Some(dataset) => Ok(dataset.query(filter).render()),
            None => Err((
                "bad_request",
                "daemon has no cache configured; nothing to query".to_string(),
            )),
        },
        WorkKind::Search(jobs) => {
            // Fan the candidates out over the workers nobody else is
            // using (this one included): a lone search gets the whole
            // pool, a busy daemon one thread per search.
            let busy = usize::try_from(inner.metrics.in_flight.get()).unwrap_or(0);
            let idle = inner.config.workers.saturating_sub(busy);
            let outcomes = ParallelRunner::new(idle + 1).run_outputs(jobs);
            let mut failures = 0usize;
            let mut results: Vec<(&Job, JobOutput)> = Vec::with_capacity(jobs.len());
            let mut last_error = String::new();
            for (job, outcome) in jobs.iter().zip(outcomes) {
                match outcome {
                    Ok(o) => {
                        inner.metrics.sim_cycles.observe(o.report.cycles);
                        results.push((job, o));
                    }
                    Err(e) => {
                        failures += 1;
                        last_error = e.to_string();
                    }
                }
            }
            if results.is_empty() {
                return Err((
                    error_kind(&last_error),
                    format!("all {failures} candidate plans failed (last: {last_error})"),
                ));
            }
            results.sort_by_key(|(_, o)| o.report.cycles);
            let first = results[0].0;
            let candidates: Vec<JsonValue> = results
                .iter()
                .map(|(job, o)| {
                    JsonValue::object([
                        ("plan", plan_json(&job.plan)),
                        ("cycles", o.report.cycles.into()),
                        ("dram_accesses", o.report.dram_accesses.into()),
                        ("requests_per_cycle", o.report.requests_per_cycle.into()),
                    ])
                })
                .collect();
            Ok(JsonValue::object([
                ("benchmark", first.workload.name.as_str().into()),
                ("k", first.workload.k.into()),
                ("pes", first.config.num_pes.into()),
                ("failures", failures.into()),
                ("candidates", JsonValue::Array(candidates)),
            ])
            .render())
        }
    }
}

/// An execution plan as a JSON object.
pub fn plan_json(p: &ExecutionPlan) -> JsonValue {
    JsonValue::object([
        ("row_panel_size", p.tiling.row_panel_size.into()),
        ("col_panel_size", p.tiling.col_panel_size.into()),
        ("r_policy", format!("{:?}", p.r_policy).into()),
        ("c_policy", format!("{:?}", p.c_policy).into()),
        ("barriers", p.barriers.is_enabled().into()),
    ])
}

/// A report with its host-execution field normalized: the wall-clock
/// time describes the serving host, not the simulated machine (it is
/// already excluded from [`RunReport`] equality), so the daemon zeroes
/// it. This is what makes a cache hit byte-identical
/// to a fresh simulation of the same request.
pub fn canonical_report(report: &RunReport) -> RunReport {
    let mut canon = report.clone();
    canon.host_wall_ns = 0.0;
    canon
}

/// The `result` document of a `run`: context, plan and canonical
/// report.
pub fn run_result_json(job: &Job, output: &JobOutput) -> JsonValue {
    JsonValue::object([
        ("benchmark", job.workload.name.as_str().into()),
        ("kernel", job.primitive.to_string().into()),
        ("k", job.workload.k.into()),
        ("pes", job.config.num_pes.into()),
        ("plan", plan_json(&job.plan)),
        ("report", canonical_report(&output.report).to_json()),
    ])
}

/// Builds the Chrome-trace JSON for a traced job output — the telemetry
/// series (when captured) merged in as its own lane above the PE lanes,
/// events sorted by time — and returns it with the event count. The
/// `trace` request builds its document here, for `spade-cli trace` (in
/// process) and `client trace` alike.
///
/// # Errors
///
/// Fails when the job did not actually capture a trace.
pub fn trace_document(output: &JobOutput, num_pes: usize) -> Result<(String, usize), String> {
    let mut trace = output
        .trace
        .clone()
        .ok_or_else(|| "tracing produced no event log".to_string())?;
    if let Some(series) = &output.telemetry {
        let lane = num_pes as u64 + 1;
        trace.set_lane(lane, "telemetry");
        trace.add_telemetry(series, lane);
        trace.sort_by_time();
    }
    let events = trace.len();
    Ok((trace.to_chrome_json(), events))
}

// ---------------------------------------------------------------------------
// Dataset catalog: the cache as a queryable surface
// ---------------------------------------------------------------------------

/// What the `query` surface knows about one cached entry: enough to
/// filter and rank (benchmark, kernel, shape, plan, headline numbers)
/// without decoding the full payload per query.
#[derive(Debug, Clone)]
struct EntryMeta {
    key: String,
    /// `"run"`, `"search"` or `"trace"` — recovered from the key prefix
    /// (run keys are pure hex, so `s`/`t` prefixes are unambiguous).
    kind: &'static str,
    benchmark: String,
    /// Lower-case kernel name (`"spmm"` / `"sddmm"`).
    kernel: String,
    k: u64,
    pes: u64,
    /// The plan (for `search` entries: the best candidate's plan).
    plan: Option<JsonValue>,
    /// Simulated cycles (for `search` entries: the best candidate's).
    cycles: u64,
    dram_accesses: u64,
}

impl EntryMeta {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("key", self.key.as_str().into()),
            ("kind", self.kind.into()),
            ("benchmark", self.benchmark.as_str().into()),
            ("kernel", self.kernel.as_str().into()),
            ("k", self.k.into()),
            ("pes", self.pes.into()),
            ("plan", self.plan.clone().unwrap_or(JsonValue::Null)),
            ("cycles", self.cycles.into()),
            ("dram_accesses", self.dram_accesses.into()),
        ])
    }
}

/// Decodes one cached payload into its catalog row. Returns `None` for
/// payloads that don't carry the expected fields (a foreign or
/// hand-edited entry) — such entries still serve cache hits, they are
/// just invisible to `query`.
fn entry_meta_from_payload(key: &str, payload: &[u8]) -> Option<EntryMeta> {
    let text = std::str::from_utf8(payload).ok()?;
    let doc = JsonValue::parse(text).ok()?;
    let kind = if key.starts_with('s') {
        "search"
    } else if key.starts_with('t') {
        "trace"
    } else {
        "run"
    };
    let benchmark = doc.get("benchmark")?.as_str()?.to_string();
    let k = doc.get("k")?.as_u64()?;
    let pes = doc.get("pes")?.as_u64()?;
    if kind == "search" {
        // Candidates are sorted by cycles; the catalog carries the best.
        let best = doc.get("candidates")?.as_array()?.first()?;
        Some(EntryMeta {
            key: key.to_string(),
            kind,
            benchmark,
            kernel: "spmm".to_string(),
            k,
            pes,
            plan: best.get("plan").cloned(),
            cycles: best.get("cycles")?.as_u64()?,
            dram_accesses: best.get("dram_accesses")?.as_u64()?,
        })
    } else {
        let report = doc.get("report")?;
        Some(EntryMeta {
            key: key.to_string(),
            kind,
            benchmark,
            kernel: doc.get("kernel")?.as_str()?.to_lowercase(),
            k,
            pes,
            plan: doc.get("plan").cloned(),
            cycles: report.get("cycles")?.as_u64()?,
            dram_accesses: report.get("dram_accesses")?.as_u64()?,
        })
    }
}

/// In-memory catalog of the cache contents, backing the `query`
/// request. Built once at bind time from the entry files and kept
/// current by the workers as they store; the entries on disk are its
/// only source.
struct DatasetIndex {
    entries: Mutex<BTreeMap<String, EntryMeta>>,
}

impl DatasetIndex {
    /// Catalogs `cache`: one row per entry that passes its checks,
    /// decoded from the payload. [`ResultCache::peek`] quarantines an
    /// entry that fails them, so it is neither listed nor exported.
    fn load(cache: &ResultCache) -> DatasetIndex {
        let entries = cache
            .keys()
            .into_iter()
            .filter_map(|key| {
                let payload = cache.peek(&key)?;
                let meta = entry_meta_from_payload(&key, &payload)?;
                Some((key, meta))
            })
            .collect();
        DatasetIndex {
            entries: Mutex::new(entries),
        }
    }

    /// Adds (or refreshes) the row for a just-stored payload.
    fn insert_payload(&self, key: &str, payload: &str) {
        if let Some(meta) = entry_meta_from_payload(key, payload.as_bytes()) {
            self.entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(key.to_string(), meta);
        }
    }

    /// Answers one query: `{"total","matched","returned","entries"}`
    /// with matches sorted by (benchmark, kernel, cycles, key) — a
    /// deterministic order, so "best plan per matrix" is the first
    /// entry per benchmark group. With `group_by`, the matches are
    /// folded server-side instead (see [`DatasetIndex::aggregate`]).
    fn query(&self, filter: &QueryFilter) -> JsonValue {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut matched: Vec<&EntryMeta> = entries.values().filter(|m| filter.matches(m)).collect();
        matched.sort_by(|a, b| {
            (&a.benchmark, &a.kernel, a.cycles, &a.key).cmp(&(
                &b.benchmark,
                &b.kernel,
                b.cycles,
                &b.key,
            ))
        });
        if let Some(group_by) = filter.group_by {
            return Self::aggregate(entries.len(), &matched, group_by, filter.limit);
        }
        let shown: Vec<JsonValue> = matched
            .iter()
            .take(filter.limit)
            .map(|m| m.to_json())
            .collect();
        JsonValue::object([
            ("total", entries.len().into()),
            ("matched", matched.len().into()),
            ("returned", shown.len().into()),
            ("entries", JsonValue::Array(shown)),
        ])
    }

    /// Folds the (already filtered and sorted) matches into per-group
    /// projections: count, min/max/mean cycles, and the best entry —
    /// fewest cycles, key as the deterministic tie-break — whose plan is
    /// the group's best-plan answer. Groups come back sorted by label;
    /// `limit` caps how many are rendered.
    fn aggregate(
        total: usize,
        matched: &[&EntryMeta],
        group_by: GroupKey,
        limit: usize,
    ) -> JsonValue {
        let mut groups: BTreeMap<String, Vec<&EntryMeta>> = BTreeMap::new();
        for m in matched {
            groups.entry(group_by.of(m)).or_default().push(m);
        }
        let group_count = groups.len();
        let shown: Vec<JsonValue> = groups
            .into_iter()
            .take(limit)
            .map(|(label, members)| {
                let count = members.len() as u64;
                let min = members.iter().map(|m| m.cycles).min().unwrap_or(0);
                let max = members.iter().map(|m| m.cycles).max().unwrap_or(0);
                let sum: u64 = members.iter().map(|m| m.cycles).sum();
                let best = members
                    .iter()
                    .min_by(|a, b| (a.cycles, &a.key).cmp(&(b.cycles, &b.key)))
                    .expect("groups are never empty");
                JsonValue::object([
                    ("group", label.as_str().into()),
                    ("count", count.into()),
                    ("min_cycles", min.into()),
                    ("max_cycles", max.into()),
                    ("mean_cycles", (sum as f64 / count as f64).into()),
                    ("best", best.to_json()),
                ])
            })
            .collect();
        JsonValue::object([
            ("total", total.into()),
            ("matched", matched.len().into()),
            ("group_by", group_by.name().into()),
            ("groups_matched", group_count.into()),
            ("returned", shown.len().into()),
            ("groups", JsonValue::Array(shown)),
        ])
    }

    /// The catalog rows as one JSON array, in key order.
    fn to_json(&self) -> JsonValue {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        JsonValue::Array(entries.values().map(EntryMeta::to_json).collect())
    }
}

/// Exports the cache catalog as one JSON document — the dataset a cost
/// model is trained from (`spade-cli dataset export` / `model train`).
/// Loads the catalog exactly the way the daemon does at bind time
/// ([`DatasetIndex::load`]): every row is decoded from an entry file on
/// disk, and entries that fail their checks are quarantined and
/// *skipped* — the export reports how many in `skipped_quarantined`
/// (with a stderr warning) instead of failing.
///
/// # Errors
///
/// Fails only when the cache directory cannot be opened or created.
pub fn export_dataset(cache_dir: &Path) -> io::Result<JsonValue> {
    let cache = ResultCache::open(cache_dir)?;
    let dataset = DatasetIndex::load(&cache);
    let entries = dataset.to_json();
    let skipped = cache.stats().quarantined;
    if skipped > 0 {
        eprintln!(
            "spade-dataset: skipped {skipped} quarantined entr{} during export",
            if skipped == 1 { "y" } else { "ies" }
        );
    }
    let count = entries.as_array().map_or(0, <[JsonValue]>::len);
    Ok(JsonValue::object([
        ("dataset_version", 1u64.into()),
        ("total", count.into()),
        ("skipped_quarantined", skipped.into()),
        ("entries", entries),
    ]))
}

// ---------------------------------------------------------------------------
// Observability: the registry snapshot and log spans
// ---------------------------------------------------------------------------

/// The registry with the cache counters brought current from the
/// cache, their source of truth; every other instrument is updated live.
fn metrics_snapshot(inner: &Inner) -> MetricsSnapshot {
    if let Some(cache) = &inner.cache {
        inner.metrics.observe_cache(&cache.stats());
    }
    inner.metrics.snapshot()
}

/// One structured span event as a single JSON line on stderr, gated on
/// [`ServiceConfig::log_json`]. Fields: `log:"spade-serve"`, `t_us`
/// (microseconds since daemon start), `rid`, `event`, plus the
/// event-specific extras. stderr only — never the protocol stream,
/// never simulation state — so logging on or off cannot change a
/// response byte.
fn log_event(inner: &Inner, rid: u64, event: &str, extra: &[(&str, JsonValue)]) {
    if !inner.config.log_json {
        return;
    }
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("log", "spade-serve".into()),
        ("t_us", (inner.started.elapsed().as_micros() as u64).into()),
        ("rid", rid.into()),
        ("event", event.into()),
    ];
    fields.extend_from_slice(extra);
    eprintln!("{}", JsonValue::object(fields).render());
}

// ---------------------------------------------------------------------------
// Termination signals
// ---------------------------------------------------------------------------

static TERMINATION_SIGNAL: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM/SIGINT has been received since
/// [`install_termination_handler`] ran.
pub fn termination_signal_received() -> bool {
    TERMINATION_SIGNAL.load(Ordering::SeqCst)
}

/// Routes SIGTERM and SIGINT into a flag the accept loop polls, turning
/// `kill <pid>` / ctrl-c into the same graceful drain as an in-band
/// `shutdown` request. The handler only stores an atomic — the minimum
/// an async-signal context allows. std already links libc on Unix, so
/// the declaration introduces no new dependency.
#[cfg(unix)]
pub fn install_termination_handler() {
    extern "C" fn on_signal(_signum: i32) {
        TERMINATION_SIGNAL.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op off Unix: the in-band `shutdown` command still works.
#[cfg(not(unix))]
pub fn install_termination_handler() {}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A minimal blocking client for the daemon protocol: one JSON line out,
/// one JSON line back. Used by `spade-cli client` and the robustness
/// tests; independent deployments only need a TCP socket and a JSON
/// library.
pub struct ServiceClient {
    writer: TcpStream,
    frames: FrameReader<TcpStream>,
}

impl ServiceClient {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &SocketAddr) -> io::Result<ServiceClient> {
        Self::connect_with_max_frame(addr, MAX_FRAME_BYTES)
    }

    /// Connects with a custom response-frame byte limit. `client trace`
    /// uses this: a Chrome-trace response is one line and can exceed the
    /// default limit that protects ordinary request/response traffic.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with_max_frame(
        addr: &SocketAddr,
        max_frame: usize,
    ) -> io::Result<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(ServiceClient {
            writer,
            frames: FrameReader::with_max_frame(stream, max_frame),
        })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or when the daemon closes the connection
    /// without answering.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends a JSON request document and reads one response line.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request_line`].
    pub fn request(&mut self, doc: &JsonValue) -> io::Result<String> {
        self.request_line(&doc.render())
    }

    /// Reads the next response line without sending anything (for tests
    /// that write raw bytes through a separate socket handle).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or EOF before a full line arrived.
    pub fn read_response(&mut self) -> io::Result<String> {
        match self.frames.next_frame() {
            Ok(Some(frame)) => String::from_utf8(frame)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response")),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            Err(FrameError::Io(e)) => Err(e),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// Write access to the raw socket, for byzantine-client tests that
    /// need to send partial or garbage frames.
    pub fn raw_writer(&mut self) -> &mut TcpStream {
        &mut self.writer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache directory written by an earlier build must keep hitting:
    /// the run, trace and search keys of one fixed tiny job, pinned.
    #[test]
    fn cache_keys_match_the_pinned_values() {
        let w = Arc::new(Workload::prepare(Benchmark::Myc, Scale::Tiny, 16));
        let config = Arc::new(SystemConfig::scaled(4));
        let deadline = Some(4_000_000_000);
        let job_for =
            |plan| Job::new(&w, &config, Primitive::Spmm, plan).with_deadline_cycles(deadline);
        let job = job_for(ExecutionPlan::spmm_base(&w.a).unwrap());
        assert_eq!(job.cache_key(), "c9a832aff3d7a3dabf2f30264fa1c922");
        let traced = job.with_telemetry(Some(256)).with_trace(true);
        assert_eq!(
            traced.trace_cache_key(),
            "t4f35fe03ae6357fa14aa8febe30cba52"
        );
        let run_keys: Vec<String> = PlanSearchSpace::quick(16)
            .enumerate(w.a.num_cols())
            .into_iter()
            .map(|plan| job_for(plan).cache_key())
            .collect();
        assert_eq!(
            search_cache_key(&run_keys),
            "s553ed18811dc40787542f2ff5994ca90"
        );
    }

    /// A standalone reply and a batch slot carrying the same outcome differ
    /// only in their head.
    #[test]
    fn both_reply_shapes_carry_the_same_outcome_bytes() {
        let id = JsonValue::from(7u64);
        let outcomes = [
            Outcome::Success {
                cached: true,
                key: Some("c9a832aff3d7a3dabf2f30264fa1c922".into()),
                result: r#"{"benchmark":"MYC","report":{"cycles":1234}}"#.into(),
            },
            Outcome::Failure {
                kind: "overloaded",
                message: "admission queue is full (2 slots)".into(),
                retry_after_ms: Some(500),
            },
        ];
        for outcome in &outcomes {
            let ok = outcome.is_success();
            let standalone = outcome.render(Head::Envelope {
                cmd: Some("run"),
                id: Some(&id),
            });
            let slot = outcome.render(Head::Slot(3));
            let standalone_body = standalone
                .strip_prefix(&format!(r#"{{"ok":{ok},"cmd":"run","id":7"#))
                .unwrap_or_else(|| panic!("standalone head: {standalone}"));
            let slot_body = slot
                .strip_prefix(&format!(r#"{{"index":3,"ok":{ok}"#))
                .unwrap_or_else(|| panic!("slot head: {slot}"));
            assert_eq!(standalone_body, slot_body);
            for line in [&standalone, &slot] {
                JsonValue::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
        assert!(outcomes[0].render(Head::Slot(0)).ends_with(
            r#","cached":true,"key":"c9a832aff3d7a3dabf2f30264fa1c922","result":{"benchmark":"MYC","report":{"cycles":1234}}}"#
        ));
        assert!(outcomes[1].render(Head::Slot(0)).ends_with(
            r#","error":{"kind":"overloaded","message":"admission queue is full (2 slots)"},"retry_after_ms":500}"#
        ));
    }

    /// The key a stamped request computes without its matrix equals the
    /// key of a job built from a freshly prepared workload, for every
    /// tiny graph, both kernels, three plan shapes and three deadline
    /// forms — and the request prepares nothing.
    #[test]
    fn stamp_keys_equal_freshly_prepared_job_keys() {
        let svc = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let inner = &svc.inner;
        let default_deadline = inner.config.default_deadline_cycles;
        let config = Arc::new(SystemConfig::scaled(8));
        let deadlines = [
            ("", default_deadline),
            (r#","deadline_cycles":0"#, None),
            (r#","deadline_cycles":123456"#, Some(123_456)),
        ];
        let parse = |frame: &str| {
            let mut workloads = Workloads::new();
            let (_, request) = parse_request(inner, frame.as_bytes(), &mut workloads);
            let request = request.unwrap_or_else(|e| panic!("{frame}: {e}"));
            (request, workloads.len())
        };
        for bench in Benchmark::ALL {
            let name = bench.short_name();
            let fresh = Arc::new(Workload::prepare(bench, Scale::Tiny, 32));
            let ncols = fresh.a.num_cols();
            let plans = [
                ("", ExecutionPlan::spmm_base(&fresh.a).unwrap()),
                (
                    r#","cp":"all""#,
                    ExecutionPlan::with_knobs(
                        256,
                        ncols,
                        RMatrixPolicy::Cache,
                        CMatrixPolicy::Cache,
                        BarrierPolicy::None,
                    )
                    .unwrap(),
                ),
                (
                    r#","rp":64,"rmatrix":"bypass","barriers":true"#,
                    ExecutionPlan::with_knobs(
                        64,
                        ncols,
                        RMatrixPolicy::Bypass,
                        CMatrixPolicy::Cache,
                        BarrierPolicy::per_column_panel(),
                    )
                    .unwrap(),
                ),
            ];
            // The first request for a matrix prepares it and fills the
            // stamp; everything after is answered from the stamp.
            let head = format!(r#""benchmark":"{name}","k":32,"pes":8"#);
            let (_, prepared) = parse(&format!(r#"{{"cmd":"run",{head}}}"#));
            assert_eq!(prepared, 1, "{name}: first request prepares");
            for (kernel, primitive) in [("spmm", Primitive::Spmm), ("sddmm", Primitive::Sddmm)] {
                for (plan_fields, plan) in &plans {
                    for (deadline_field, deadline) in deadlines {
                        let fields =
                            format!(r#"{head},"kernel":"{kernel}"{plan_fields}{deadline_field}"#);
                        let job = Job::new(&fresh, &config, primitive, *plan)
                            .with_deadline_cycles(deadline);
                        let (run, prepared) = parse(&format!(r#"{{"cmd":"run",{fields}}}"#));
                        assert_eq!(prepared, 0, "{fields}: stamped run prepared");
                        let Request::Work(KeyedSpec {
                            cache_key: Some(key),
                            ..
                        }) = run
                        else {
                            panic!("{fields}: run not keyed");
                        };
                        assert_eq!(key, job.cache_key(), "{fields}");
                        let (trace, _) = parse(&format!(r#"{{"cmd":"trace",{fields}}}"#));
                        let Request::Work(KeyedSpec {
                            cache_key: Some(key),
                            ..
                        }) = trace
                        else {
                            panic!("{fields}: trace not keyed");
                        };
                        let traced = job.with_telemetry(Some(256)).with_trace(true);
                        assert_eq!(key, traced.trace_cache_key(), "{fields}");
                    }
                }
            }
            let (search, prepared) = parse(&format!(r#"{{"cmd":"search",{head}}}"#));
            assert_eq!(prepared, 0, "{name}: stamped search prepared");
            let Request::Work(KeyedSpec {
                cache_key: Some(key),
                ..
            }) = search
            else {
                panic!("{name}: search not keyed");
            };
            let run_keys: Vec<String> = PlanSearchSpace::quick(32)
                .enumerate(ncols)
                .into_iter()
                .map(|plan| {
                    Job::new(&fresh, &config, Primitive::Spmm, plan)
                        .with_deadline_cycles(default_deadline)
                        .cache_key()
                })
                .collect();
            assert_eq!(key, search_cache_key(&run_keys), "{name}: search");
        }
    }
}
