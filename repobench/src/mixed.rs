//! `serve-mixed`: a daemon on a cold cache with a cost model that set-up
//! fits on tiny-scale quick sweeps, so the small-scale inputs it serves
//! are held out from fitting. Two connections run 20 sessions, one per
//! (graph, kernel): `advise` → `run` the advised plan → `run` Base → `run`
//! two seeded quick-space plans → repeat the advised and Base runs (cache
//! hits) → a `batch` sweep of two more plans. Whole cycles through the
//! 20 pairs repeat until the measured time is up; each cycle draws its own
//! plans and sets its own `deadline_cycles` (far above any run's cycle
//! count), so its runs have fresh cache keys and reach the workers cold.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spade_bench::metrics::{MetricsSnapshot, SampleValue};
use spade_bench::model::{CostModel, TrainingRow};
use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::runner::{geomean, opt_candidates};
use spade_bench::service::{ServiceClient, ServiceConfig};
use spade_bench::suite::Workload;
use spade_core::advisor::{advise_tiered, PlanRanker};
use spade_core::{Primitive, SystemConfig};
use spade_matrix::analysis::MatrixFeatures;
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::rng::Rng64;
use spade_matrix::Coo;
use spade_sim::JsonValue;

use crate::common::{
    repeat_setup, report_digest, stream, Ctx, Pair, Phase, Tally, K, PES, SCALE, TAIL_PCT,
};
use crate::serve::{advise_line, batch_line, call, run_line, Daemon, Reply, WirePlan};
use crate::stats::{latency_notes, Metric};
use crate::trace::{span, Tracer};

/// Set-up repetitions (each runs the tiny training sweep and fits).
const SETUP_REPS: usize = 3;
/// Quick-space plans each session runs one by one, cold.
pub const SINGLE_PLANS: usize = 2;
/// Further quick-space plans in each session's `batch`.
pub const BATCH_PLANS: usize = 2;
/// Times the advised and Base runs are repeated as hits per session.
const REPEATS: usize = 1;
const SALT: u64 = 0x5eed_0003;

/// What set-up leaves behind: the fitted model on disk and the
/// small-scale candidate plans per graph.
pub struct Prepared {
    model_path: PathBuf,
    holdout_mare: f64,
    /// Per graph (Table-2 order): the small matrix and its quick-space
    /// candidates, Base last.
    graphs: Vec<(Arc<Coo>, Vec<WirePlan>)>,
}

/// Fits the cost model on a tiny-scale quick SpMM sweep of the suite and
/// saves it; lists the small-scale candidates the sessions draw from.
///
/// # Errors
///
/// Fails when a training simulation fails or the model cannot be fitted
/// or saved.
pub fn prepare(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Prepared, String> {
    let config = Arc::new(SystemConfig::scaled(PES));
    let mut jobs = Vec::new();
    let mut features = Vec::new();
    for b in Benchmark::ALL {
        let w = Arc::new(Workload::prepare(b, Scale::Tiny, K));
        let f = MatrixFeatures::compute(&w.a).as_vec();
        for plan in opt_candidates(&w, true) {
            jobs.push(Job::new(&w, &config, Primitive::Spmm, plan));
            features.push(f.clone());
        }
    }
    let results = span(tracer, "model.train_sweep", None, 0, |_| {
        ParallelRunner::new(ctx.threads).run_results(&jobs)
    });
    let mut rows = Vec::with_capacity(jobs.len());
    for ((job, r), f) in jobs.iter().zip(results).zip(features) {
        let report = r.map_err(|e| format!("training sweep: {e}"))?;
        rows.push(TrainingRow {
            benchmark: job.workload.name.clone(),
            features: f,
            row_panel: job.plan.tiling.row_panel_size,
            col_panel: job.plan.tiling.col_panel_size,
            r_policy: job.plan.r_policy,
            barriers: job.plan.barriers.is_enabled(),
            k: K,
            pes: PES,
            cycles: report.cycles,
        });
    }
    let model = span(tracer, "model.fit", None, 0, |_| CostModel::fit(&rows))?;
    let model_path = ctx.fresh_dir("model")?.join("cost.model");
    model.save(&model_path)?;
    let graphs = Benchmark::ALL
        .iter()
        .map(|&b| {
            let w = Workload::prepare(b, SCALE, K);
            let plans = opt_candidates(&w, true).iter().map(WirePlan::of).collect();
            (Arc::clone(&w.a), plans)
        })
        .collect();
    Ok(Prepared {
        model_path,
        holdout_mare: model.accuracy.holdout_mare,
        graphs,
    })
}

/// One session's inputs.
struct Session {
    pair: Pair,
    graph: usize,
    cycle: u64,
    singles: Vec<WirePlan>,
    batch: Vec<WirePlan>,
}

impl Session {
    /// The deadline every request of this session carries: the daemon's
    /// default plus the cycle number, a distinct cache key per cycle that
    /// changes no simulated byte (runs finish orders of magnitude sooner).
    fn deadline(&self) -> u64 {
        ServiceConfig::default()
            .default_deadline_cycles
            .expect("the daemon has a default deadline")
            + self.cycle
    }
}

/// The 20 sessions of one cycle, in Table-2 order, with seeded single and
/// batch plans (distinct, drawn from the searched candidates, Base
/// excluded). The order is fixed so that which sessions overlap on the
/// two connections does not change with the seed.
fn sessions(seed: u64, cycle: u64, prep: &Prepared) -> Vec<Session> {
    let mut rng = Rng64::seed_from_u64(stream(seed, SALT, cycle));
    Pair::all()
        .into_iter()
        .enumerate()
        .map(|(i, pair)| {
            let graph = i / 2;
            let plans = &prep.graphs[graph].1;
            let mut pool: Vec<&WirePlan> = plans[..plans.len() - 1].iter().collect();
            let mut draw = |n: usize| -> Vec<WirePlan> {
                (0..n.min(pool.len()))
                    .map(|_| {
                        pool.swap_remove(rng.bounded(pool.len() as u64) as usize)
                            .clone()
                    })
                    .collect()
            };
            let singles = draw(SINGLE_PLANS);
            let batch = draw(BATCH_PLANS);
            Session {
                pair,
                graph,
                cycle,
                singles,
                batch,
            }
        })
        .collect()
}

/// Everything the sessions of a run observed.
#[derive(Default)]
struct Log {
    ops: u64,
    advise_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    advised_vs_base: Vec<f64>,
    model_answers: u64,
    /// Whether the current session's reports join the digest (first
    /// cycle only, whose plans do not depend on the run's length).
    record: bool,
    reports: Vec<(String, String)>,
}

impl Log {
    fn report(&mut self, key: Option<&str>, report: Option<&JsonValue>) {
        if let (true, Some(key), Some(report)) = (self.record, key, report) {
            self.reports.push((key.to_string(), report.render()));
        }
    }

    fn merge(&mut self, other: Log) {
        self.ops += other.ops;
        self.advise_ms.extend(other.advise_ms);
        self.miss_ms.extend(other.miss_ms);
        self.hit_ms.extend(other.hit_ms);
        self.advised_vs_base.extend(other.advised_vs_base);
        self.model_answers += other.model_answers;
        self.reports.extend(other.reports);
    }
}

/// Checks one `run` reply: ok, the plan it echoes, and — for a repeat —
/// that it is a hit byte-identical to `first`. Logs its latency.
fn check_run(
    reply: Result<Reply, String>,
    want: &WirePlan,
    first: Option<&Reply>,
    label: &str,
    log: &mut Log,
    tally: &Tally,
) -> Option<Reply> {
    tally.attempt();
    let reply = match reply {
        Ok(r) if r.ok() => r,
        Ok(r) => {
            tally.fail(format!("{label}: {}", r.error()));
            return None;
        }
        Err(e) => {
            tally.fail(format!("{label}: {e}"));
            return None;
        }
    };
    let echoed = reply
        .doc
        .get("result")
        .and_then(|r| r.get("plan"))
        .and_then(WirePlan::from_json);
    if echoed.as_ref() != Some(want) {
        tally.wrong(format!("{label}: ran {echoed:?}, asked for {want:?}"));
        return None;
    }
    if let Some(first) = first {
        if reply.cached() != Some(true) || reply.result_bytes() != first.result_bytes() {
            tally.wrong(format!("{label}: repeat is not a byte-identical hit"));
            return None;
        }
    }
    match reply.cached() {
        Some(false) => log.miss_ms.push(reply.ms),
        _ => log.hit_ms.push(reply.ms),
    }
    log.ops += 1;
    log.report(
        reply.key(),
        reply.doc.get("result").and_then(|r| r.get("report")),
    );
    Some(reply)
}

/// Runs one session on `client`.
fn session(
    client: &mut ServiceClient,
    s: &Session,
    prep: &Prepared,
    tracer: Option<&Tracer>,
    rid: u64,
    log: &mut Log,
    tally: &Tally,
) {
    let label = s.pair.label();
    span(tracer, "serve.session", None, rid, |parent| {
        tally.attempt();
        let advice = span(tracer, "serve.advise", parent, rid, |_| {
            call(client, &advise_line(s.pair))
        });
        let advised = match advice {
            Ok(r) if r.ok() => {
                log.advise_ms.push(r.ms);
                log.ops += 1;
                let result = r.doc.get("result");
                if result
                    .and_then(|x| x.get("source"))
                    .and_then(JsonValue::as_str)
                    == Some("model")
                {
                    log.model_answers += 1;
                }
                match result
                    .and_then(|x| x.get("plan"))
                    .and_then(WirePlan::from_json)
                {
                    Some(p) => p,
                    None => {
                        tally.wrong(format!("{label}: advise returned no plan"));
                        return;
                    }
                }
            }
            Ok(r) => {
                tally.fail(format!("{label}: advise: {}", r.error()));
                return;
            }
            Err(e) => {
                tally.fail(format!("{label}: advise: {e}"));
                return;
            }
        };
        let base = prep.graphs[s.graph].1.last().expect("Base is a candidate");
        let deadline = Some(s.deadline());
        log.record = s.cycle == 0;
        let mut run = |plan: &WirePlan, first: Option<&Reply>| {
            let line = run_line(s.pair, Some(plan), deadline);
            let reply = span(tracer, "serve.run", parent, rid, |_| call(client, &line));
            check_run(reply, plan, first, &label, log, tally)
        };
        let Some(a) = run(&advised, None) else { return };
        let Some(b) = run(base, None) else { return };
        for plan in &s.singles {
            run(plan, None);
        }
        for _ in 0..REPEATS {
            run(&advised, Some(&a));
            run(base, Some(&b));
        }
        if let (Some(ca), Some(cb)) = (a.cycles(), b.cycles()) {
            log.advised_vs_base.push(ca as f64 / cb as f64);
        }
        let line = batch_line(s.pair, &s.batch, deadline);
        let reply = span(tracer, "serve.batch", parent, rid, |_| call(client, &line));
        check_batch(reply, &s.batch, &label, log, tally);
    });
}

/// Checks a `batch` reply job by job: each must be `ok` and run the plan
/// it was given.
fn check_batch(
    reply: Result<Reply, String>,
    plans: &[WirePlan],
    label: &str,
    log: &mut Log,
    tally: &Tally,
) {
    let jobs = match &reply {
        Ok(r) if r.ok() => r
            .doc
            .get("result")
            .and_then(|x| x.get("jobs"))
            .and_then(JsonValue::as_array),
        _ => None,
    };
    let Some(jobs) = jobs.filter(|j| j.len() == plans.len()) else {
        for _ in plans {
            tally.attempt();
            tally.fail(format!("{label}: batch failed"));
        }
        return;
    };
    for (job, plan) in jobs.iter().zip(plans) {
        tally.attempt();
        let result = job.get("result");
        let echoed = result
            .and_then(|r| r.get("plan"))
            .and_then(WirePlan::from_json);
        if job.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            tally.fail(format!("{label}: batch job failed: {}", job.render()));
        } else if echoed.as_ref() != Some(plan) {
            tally.wrong(format!("{label}: batch ran {echoed:?}, asked for {plan:?}"));
        } else {
            log.ops += 1;
            log.report(
                job.get("key").and_then(JsonValue::as_str),
                result.and_then(|r| r.get("report")),
            );
        }
    }
}

/// The daemon's own view of the run, from its `metrics` reply.
struct DaemonStats {
    queue_wait_us: (u64, u64),
    exec_us: (u64, u64),
    rejected: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn scrape(client: &mut ServiceClient) -> Result<DaemonStats, String> {
    let reply = call(client, r#"{"cmd":"metrics"}"#)?;
    let snap = reply
        .doc
        .get("result")
        .ok_or("metrics reply without result")
        .and_then(|r| MetricsSnapshot::from_json(r).map_err(|_| "bad metrics reply"))?;
    let hist = |name: &str| match snap.find(name, &[]).map(|s| &s.value) {
        Some(SampleValue::Histogram { counts, sum, .. }) => (*sum, counts.iter().sum::<u64>()),
        _ => (0, 0),
    };
    let counter = |name: &str| snap.counter(name, &[]).unwrap_or(0);
    Ok(DaemonStats {
        queue_wait_us: hist("spade_queue_wait_microseconds"),
        exec_us: hist("spade_exec_microseconds"),
        rejected: counter("spade_rejected_overload_total"),
        cache_hits: counter("spade_cache_hits_total"),
        cache_misses: counter("spade_cache_misses_total"),
    })
}

/// Runs the workload: set-up, then a daemon on an empty cache serves
/// whole cycles of sessions over `ctx.threads` connections until
/// `seconds` have elapsed. Cycles are whole so that every run measures
/// the same session mix, whatever the host's speed.
///
/// # Errors
///
/// Fails when set-up fails or the daemon cannot start.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>, seconds: f64) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let reps = if tracer.is_some() { 1 } else { SETUP_REPS };
    let (setup_s, prep) = repeat_setup(reps, || prepare(ctx, tracer))?;
    phase.setup_s = setup_s;
    let dir = ctx.fresh_dir("mixed")?;
    let daemon = Daemon::start(&dir, Some(&prep.model_path), ctx.threads)?;
    let pairs = Pair::all().len() as u64;
    let started = Instant::now();
    let log = Mutex::new(Log::default());
    // The next session index. Taking it and deciding, at a cycle's first
    // session, whether another cycle fits happen under one lock, so no
    // connection can start a cycle that another has already ended.
    let next = Mutex::new(0u64);
    let take = || {
        let mut n = next.lock().expect("session counter poisoned");
        let i = *n;
        if i > 0 && i.is_multiple_of(pairs) && started.elapsed().as_secs_f64() >= seconds {
            return None;
        }
        *n += 1;
        Some(i)
    };
    std::thread::scope(|s| {
        for _ in 0..ctx.threads {
            s.spawn(|| {
                let mut mine = Log::default();
                match daemon.client() {
                    Ok(mut client) => {
                        while let Some(i) = take() {
                            let list = sessions(ctx.seed, i / pairs, &prep);
                            let sess = &list[(i % pairs) as usize];
                            session(&mut client, sess, &prep, tracer, i, &mut mine, &phase.tally);
                        }
                    }
                    Err(e) => {
                        phase.tally.attempt();
                        phase.tally.fail(e);
                    }
                }
                log.lock().expect("log poisoned").merge(mine);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let daemon_stats = scrape(&mut daemon.client()?)?;
    daemon.stop()?;
    let cycles = next.into_inner().expect("session counter poisoned") / pairs;
    let log = log.into_inner().expect("log poisoned");
    // One window: the session mix changes along a cycle (graph order), so
    // time slices would not be comparable with each other.
    phase.windows = vec![(log.ops, elapsed)];
    phase.digest = report_digest(log.reports.clone());
    phase.latency_ms = log.miss_ms.clone();
    let vs_base = geomean(&log.advised_vs_base);
    let model_frac = log.model_answers as f64 / log.advise_ms.len().max(1) as f64;
    phase.notes = vec![
        format!(
            "serve-mixed: {} connections, {cycles} cycles of {pairs} sessions (advise, run advised, run Base, run {SINGLE_PLANS} plans, {REPEATS} repeat, batch of {BATCH_PLANS}), every run cold",
            ctx.threads
        ),
        format!("mixed_jobs_per_s {:.4} 1/s", phase.ops_per_s()),
        format!(
            "advise_cycles_vs_base {vs_base:.6} (geomean over {} sessions; {:.0}% answered by the model)",
            log.advised_vs_base.len(),
            model_frac * 100.0
        ),
    ];
    phase
        .notes
        .extend(latency_notes("miss", &log.miss_ms, TAIL_PCT));
    phase
        .notes
        .extend(latency_notes("advise", &log.advise_ms, TAIL_PCT));
    phase
        .notes
        .extend(latency_notes("repeat_hit", &log.hit_ms, TAIL_PCT));
    if let Some(tr) = tracer {
        let mut layers = probe_layers(tr, &prep)?;
        let d = &daemon_stats;
        let mean_ms = |(sum, n): (u64, u64)| sum as f64 / n.max(1) as f64 / 1e3;
        let l = tr.layers();
        layers.extend([
            Metric::new(
                "cache.hit_ratio",
                "ratio",
                d.cache_hits as f64 / (d.cache_hits + d.cache_misses).max(1) as f64,
            ),
            Metric::new("service.queue_wait_ms", "ms", mean_ms(d.queue_wait_us)),
            Metric::new("service.exec_ms", "ms", mean_ms(d.exec_us)),
            Metric::new("service.rejected_overload", "count", d.rejected as f64),
            Metric::new("model.fit_s", "s", l["model.fit"].mean_ms() / 1e3),
            Metric::new(
                "model.train_sweep_s",
                "s",
                l["model.train_sweep"].mean_ms() / 1e3,
            ),
            Metric::new("model.holdout_mare", "ratio", prep.holdout_mare),
            Metric::new("advisor.model_frac", "ratio", model_frac),
            Metric::new("advisor.cycles_vs_base", "ratio", vs_base),
        ]);
        phase.layers = layers;
    }
    Ok(phase)
}

/// Plan selection's layers, timed in-process on the served matrices:
/// the feature vector and the tiered advisor with the fitted model.
fn probe_layers(tr: &Tracer, prep: &Prepared) -> Result<Vec<Metric>, String> {
    let model = CostModel::load(&prep.model_path)?;
    let config = SystemConfig::scaled(PES);
    for (g, (a, _)) in prep.graphs.iter().enumerate() {
        let rid = g as u64;
        tr.time("matrix.features", None, rid, |_| MatrixFeatures::compute(a));
        tr.time("core.advise", None, rid, |_| {
            advise_tiered(a, K, &config, Some(&model as &dyn PlanRanker))
        })
        .map_err(|e| e.to_string())?;
    }
    let l = tr.layers();
    Ok(vec![
        Metric::new(
            "matrix.features_us",
            "us",
            l["matrix.features"].mean_ms() * 1e3,
        ),
        Metric::new("core.advise_us", "us", l["core.advise"].mean_ms() * 1e3),
    ])
}
