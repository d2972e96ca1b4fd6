//! `serve-hit`: a daemon whose cache set-up warmed with the 20 Base runs,
//! then a closed loop of `run` requests for a seeded uniform pick of
//! them. Nothing is simulated in the timed phase; every reply must be a
//! cache hit byte-identical after `"result":` to the reply that stored it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spade_bench::cache::ResultCache;
use spade_bench::parallel::Job;
use spade_bench::suite::Workload;
use spade_core::{ExecutionPlan, SystemConfig};
use spade_matrix::rng::Rng64;

use crate::common::{
    remove_dir, repeat_setup, report_digest, stream, time_slices, Ctx, Pair, Phase, K, PES, SCALE,
};
use crate::serve::{call, run_line, Daemon};
use crate::stats::{latency_notes, Metric};
use crate::trace::{span, Tracer};

/// Set-up repetitions (each warms a fresh cache with 20 simulations).
const SETUP_REPS: usize = 3;
/// Rounds of in-process layer probes over the 20 pairs (traced only).
const PROBE_ROUNDS: usize = 3;
const SALT: u64 = 0x5eed_0002;

/// A daemon with a warm cache and the reply each pair stored. The cache
/// directory lives in the run's scratch directory, which is removed at
/// exit.
pub struct Warm {
    /// The serving daemon.
    pub daemon: Daemon,
    /// Its cache directory.
    pub dir: PathBuf,
    /// The 20 pairs.
    pub pairs: Vec<Pair>,
    /// Per pair: the `result` bytes and cache key of the storing reply.
    pub stored: Vec<(String, String)>,
}

/// Starts a daemon on a fresh cache and fills it with the 20 Base runs
/// over `ctx.threads` connections.
///
/// # Errors
///
/// Fails when the daemon cannot start or a warming run fails: without a
/// warm cache there is nothing to measure.
pub fn warm(ctx: &Ctx) -> Result<Warm, String> {
    let dir = ctx.fresh_dir("hit")?;
    let daemon = Daemon::start(&dir, None, ctx.threads)?;
    let pairs = Pair::all();
    let next = AtomicUsize::new(0);
    let stored: Mutex<Vec<Option<(String, String)>>> = Mutex::new(vec![None; pairs.len()]);
    std::thread::scope(|s| -> Result<(), String> {
        let conns: Vec<_> = (0..ctx.threads)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut client = daemon.client()?;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&pair) = pairs.get(i) else {
                            return Ok(());
                        };
                        let reply = call(&mut client, &run_line(pair, None, None))?;
                        let (Some(result), Some(key), true, Some(false)) = (
                            reply.result_bytes(),
                            reply.key(),
                            reply.ok(),
                            reply.cached(),
                        ) else {
                            return Err(format!("warming {}: {}", pair.label(), reply.error()));
                        };
                        stored.lock().expect("stored list poisoned")[i] =
                            Some((result.to_string(), key.to_string()));
                    }
                })
            })
            .collect();
        conns
            .into_iter()
            .try_for_each(|c| c.join().map_err(|_| "client panicked".to_string())?)
    })?;
    let stored = stored
        .into_inner()
        .expect("stored list poisoned")
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("a pair was not warmed")?;
    Ok(Warm {
        daemon,
        dir,
        pairs,
        stored,
    })
}

/// Runs the workload: set-up, then the closed loop for `seconds`.
///
/// # Errors
///
/// Fails when set-up fails.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>, seconds: f64) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let reps = if tracer.is_some() { 1 } else { SETUP_REPS };
    let (setup_s, warm) = repeat_setup(reps, || warm(ctx))?;
    phase.setup_s = setup_s;
    phase.digest = report_digest(
        warm.pairs
            .iter()
            .zip(&warm.stored)
            .map(|(p, (result, _))| (p.label(), result.clone()))
            .collect(),
    );
    let latencies = Mutex::new(Vec::new());
    let next_rid = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for conn in 0..ctx.threads {
            let (warm, latencies, tally, next_rid) = (&warm, &latencies, &phase.tally, &next_rid);
            s.spawn(move || {
                let mut rng = Rng64::seed_from_u64(stream(ctx.seed, SALT, conn as u64));
                let mut mine = Vec::new();
                match warm.daemon.client() {
                    Err(e) => {
                        tally.attempt();
                        tally.fail(e);
                    }
                    Ok(mut client) => {
                        while started.elapsed().as_secs_f64() < seconds {
                            let i = rng.bounded(warm.pairs.len() as u64) as usize;
                            let rid = next_rid.fetch_add(1, Ordering::Relaxed);
                            tally.attempt();
                            let line = run_line(warm.pairs[i], None, None);
                            let reply =
                                span(tracer, "serve.hit", None, rid, |_| call(&mut client, &line));
                            match reply {
                                Err(e) => {
                                    tally.fail(e);
                                    break;
                                }
                                Ok(r) if !r.ok() => tally.fail(r.error()),
                                Ok(r)
                                    if r.cached() != Some(true)
                                        || r.result_bytes() != Some(warm.stored[i].0.as_str()) =>
                                {
                                    tally.wrong(format!(
                                        "{}: hit differs from the stored reply",
                                        warm.pairs[i].label()
                                    ));
                                }
                                Ok(r) => mine.push((r.ms, started.elapsed().as_secs_f64())),
                            }
                        }
                    }
                }
                latencies
                    .lock()
                    .expect("latency list poisoned")
                    .extend(mine);
            });
        }
    });
    let done: Vec<(f64, f64)> = latencies.into_inner().expect("latency list poisoned");
    phase.latency_ms = done.iter().map(|&(ms, _)| ms).collect();
    let done_at: Vec<f64> = done.iter().map(|&(_, at)| at).collect();
    phase.windows = time_slices(&done_at, started.elapsed().as_secs_f64());
    phase.notes = vec![
        format!(
            "serve-hit: {} connections, closed loop, warm cache of {} Base runs",
            ctx.threads,
            warm.pairs.len()
        ),
        format!(
            "hit_rps {:.4} 1/s (median of time slices)",
            phase.ops_per_s()
        ),
    ];
    phase
        .notes
        .extend(latency_notes("hit", &phase.latency_ms, 99.0));
    if let Some(tr) = tracer {
        phase.layers = probe_layers(ctx, tr, &warm)?;
    }
    warm.daemon.stop()?;
    Ok(phase)
}

/// The hit path's layers, timed by calling each one in-process on the
/// same inputs a hit request carries: regenerate the matrix, compute the
/// job's cache key, read the entry. Cache stores are timed into a
/// scratch cache with the same payloads. Each probe is followed by the
/// same hit sent alone on one connection, so the residual (the round
/// trip minus those three layers) compares times taken side by side.
fn probe_layers(ctx: &Ctx, tr: &Tracer, warm: &Warm) -> Result<Vec<Metric>, String> {
    let Warm {
        daemon,
        dir,
        pairs,
        stored,
    } = warm;
    let cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    let mut client = daemon.client()?;
    let scratch = ctx.fresh_dir("put")?;
    let sink = ResultCache::open(&scratch).map_err(|e| e.to_string())?;
    let config = std::sync::Arc::new(SystemConfig::scaled(PES));
    let deadline = spade_bench::service::ServiceConfig::default().default_deadline_cycles;
    for round in 0..PROBE_ROUNDS {
        for (i, pair) in pairs.iter().enumerate() {
            let rid = (round * pairs.len() + i) as u64;
            let a = tr.time("matrix.generate", None, rid, |_| pair.bench.generate(SCALE));
            let plan = ExecutionPlan::spmm_base(&a).map_err(|e| e.to_string())?;
            let w = std::sync::Arc::new(Workload::from_matrix(pair.bench.short_name(), a, K));
            let job = Job::new(&w, &config, pair.prim, plan).with_deadline_cycles(deadline);
            let key = tr.time("parallel.cache_key", None, rid, |_| job.cache_key());
            let (result, stored_key) = &stored[i];
            if &key != stored_key {
                return Err(format!(
                    "{}: cache key differs from the daemon's",
                    pair.label()
                ));
            }
            let payload = tr
                .time("cache.get", None, rid, |_| cache.get(&key))
                .ok_or_else(|| format!("{}: warm entry missing", pair.label()))?;
            if payload != result.as_bytes() {
                return Err(format!(
                    "{}: cached payload differs from the reply",
                    pair.label()
                ));
            }
            tr.time("cache.put", None, rid, |_| sink.put(&key, &payload))
                .map_err(|e| e.to_string())?;
            let line = run_line(*pair, None, None);
            let reply = tr.time("serve.hit_alone", None, rid, |_| call(&mut client, &line))?;
            if reply.result_bytes() != Some(result.as_str()) {
                return Err(format!(
                    "{}: lone hit differs from the stored reply",
                    pair.label()
                ));
            }
        }
    }
    remove_dir(&scratch);
    let layers = tr.layers();
    let mean = |n: &str| layers[n].mean_ms();
    Ok(vec![
        Metric::new("parallel.cache_key_ms", "ms", mean("parallel.cache_key")),
        Metric::new("cache.get_ms", "ms", mean("cache.get")),
        Metric::new("cache.put_ms", "ms", mean("cache.put")),
        Metric::new(
            "service.residual_ms",
            "ms",
            mean("serve.hit_alone")
                - mean("matrix.generate")
                - mean("parallel.cache_key")
                - mean("cache.get"),
        ),
    ])
}
