//! `sweep`: the 10 Table-2 graphs × {SpMM, SDDMM}, each under Base plus a
//! seed-chosen handful of quick-space plans, run through
//! `ParallelRunner` as a closed loop of whole passes, with no daemon and
//! no cache. Every job is validated against the gold kernels.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::runner::opt_candidates;
use spade_bench::service::canonical_report;
use spade_bench::suite::Workload;
use spade_core::{Primitive, RunReport, Schedule, SpadeSystem, SystemConfig};
use spade_matrix::rng::Rng64;
use spade_matrix::{reference, TiledCoo};
use spade_sim::LevelKind;

use crate::common::{repeat_setup, report_digest, stream, Ctx, Pair, Phase, K, PES, SCALE};
use crate::stats::Metric;
use crate::trace::{span, Tracer};

/// Quick-space plans drawn per (graph, kernel) beside Base.
pub const PLANS_PER_PAIR: usize = 2;
/// Set-up repetitions; set-up is cheap, so take a wide median.
const SETUP_REPS: usize = 5;
const SALT: u64 = 0x5eed_0001;

/// The prepared job list.
pub struct Sweep {
    /// Jobs in dispatch order (largest matrix first).
    pub jobs: Vec<Job>,
}

/// Generates the suite, computes the gold outputs and draws the plans.
pub fn prepare(seed: u64, tracer: Option<&Tracer>) -> Sweep {
    let config = Arc::new(SystemConfig::scaled(PES));
    let mut rng = Rng64::seed_from_u64(stream(seed, SALT, 0));
    let mut jobs = Vec::new();
    for (g, pairs) in Pair::all().chunks(2).enumerate() {
        let bench = pairs[0].bench;
        let rid = g as u64;
        let a = span(tracer, "matrix.generate", None, rid, |_| {
            bench.generate(SCALE)
        });
        let mut w = Workload::from_matrix(bench.short_name(), a, K);
        w.benchmark = Some(bench);
        span(tracer, "matrix.reference", None, rid, |_| {
            w.gold_spmm().num_rows()
        });
        span(tracer, "matrix.reference", None, rid, |_| {
            w.gold_sddmm().len()
        });
        let w = Arc::new(w);
        let mut plans = opt_candidates(&w, true);
        let base = plans.pop().expect("candidates end with Base");
        for pair in pairs {
            jobs.push(Job::new(&w, &config, pair.prim, base));
            let mut pool = plans.clone();
            for _ in 0..PLANS_PER_PAIR.min(pool.len()) {
                let i = rng.bounded(pool.len() as u64) as usize;
                jobs.push(Job::new(&w, &config, pair.prim, pool.swap_remove(i)));
            }
        }
    }
    // Largest matrices first, so the pool's tail is made of short jobs.
    jobs.sort_by_key(|j| std::cmp::Reverse(j.workload.a.nnz()));
    Sweep { jobs }
}

fn job_label(job: &Job) -> String {
    format!("{}/{:?}/{:?}", job.workload.name, job.primitive, job.plan)
}

/// One job's outcome.
struct JobRun {
    report: RunReport,
    wall: Duration,
    /// Traced runs only: time in `TiledCoo::new`, `Schedule::build`, the
    /// whole `run_spmm`/`run_sddmm` call, and gold validation.
    split: Option<[Duration; 4]>,
}

/// Runs one job the way `Job::try_execute` does, calling the layers one by
/// one so each gets a span. Tiling and scheduling are timed by calling
/// them beside the run (which repeats them internally), so the run's
/// self time is its span minus those two.
fn traced_job(job: &Job, tracer: &Tracer, rid: u64) -> Result<JobRun, String> {
    let started = Instant::now();
    let w = &job.workload;
    tracer.time("sweep.job", None, rid, |root| {
        let parent = Some(root);
        let t = Instant::now();
        let tiled = tracer.time("matrix.tile", parent, rid, |_| {
            TiledCoo::new(&w.a, job.plan.tiling)
        });
        let tiled = tiled.map_err(|e| e.to_string())?;
        let tile = t.elapsed();
        let t = Instant::now();
        tracer.time("core.schedule", parent, rid, |_| {
            Schedule::build(&tiled, job.config.num_pes, job.primitive, job.plan.barriers)
        });
        let schedule = t.elapsed();
        drop(tiled);
        let mut sys = SpadeSystem::new((*job.config).clone());
        let t = Instant::now();
        let (report, ok) = match job.primitive {
            Primitive::Spmm => {
                let run = tracer
                    .time("core.run", parent, rid, |_| {
                        sys.run_spmm(&w.a, w.b_for_spmm(), &job.plan)
                    })
                    .map_err(|e| e.to_string())?;
                let run_t = t.elapsed();
                let t = Instant::now();
                let ok = tracer.time("parallel.validate", parent, rid, |_| {
                    reference::dense_close(&run.output, w.gold_spmm(), 1e-3)
                });
                ((run.report, run_t, t.elapsed()), ok)
            }
            Primitive::Sddmm => {
                let run = tracer
                    .time("core.run", parent, rid, |_| {
                        sys.run_sddmm(&w.a, &w.b, &w.c_t, &job.plan)
                    })
                    .map_err(|e| e.to_string())?;
                let run_t = t.elapsed();
                let t = Instant::now();
                let ok = tracer.time("parallel.validate", parent, rid, |_| {
                    reference::first_mismatch(run.output.vals(), w.gold_sddmm(), 1e-3).is_none()
                });
                ((run.report, run_t, t.elapsed()), ok)
            }
        };
        if !ok {
            return Err(format!("{}: diverged from the gold kernel", job_label(job)));
        }
        let (report, run, validate) = report;
        Ok(JobRun {
            report,
            wall: started.elapsed(),
            split: Some([tile, schedule, run, validate]),
        })
    })
}

/// Runs the whole job list once across the pool.
fn pass(
    sweep: &Sweep,
    runner: &ParallelRunner,
    tracer: Option<&Tracer>,
    index: usize,
) -> Vec<Result<JobRun, String>> {
    let n = sweep.jobs.len();
    runner
        .run_tasks(n, |i| {
            let job = &sweep.jobs[i];
            match tracer {
                Some(t) => traced_job(job, t, (index * n + i) as u64),
                None => {
                    let t = Instant::now();
                    let report = job.try_execute().map_err(|e| e.to_string())?;
                    Ok(JobRun {
                        report,
                        wall: t.elapsed(),
                        split: None,
                    })
                }
            }
        })
        .into_iter()
        .map(|r| r.map_err(|e| e.message))
        .collect()
}

/// Sums over the successful jobs of every pass.
#[derive(Default)]
struct Totals {
    jobs: u64,
    cycles: f64,
    requests: f64,
    vops: f64,
    host_ns: f64,
    busy_ns: f64,
    wall_ns: f64,
    split_ns: [f64; 4],
    dram_accesses: f64,
    dram_utilization: f64,
    tlb_misses: f64,
    stall_no_rs: f64,
    stall_no_vr: f64,
    hits: [f64; 3],
    accesses: [f64; 3],
}

/// Runs the workload: set-up, then whole passes until `seconds` have
/// elapsed. Traced runs add the per-layer metrics.
///
/// # Errors
///
/// Never in practice; the signature matches the other phases.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>, seconds: f64) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let reps = if tracer.is_some() { 1 } else { SETUP_REPS };
    let (setup_s, sweep) = repeat_setup(reps, || Ok(prepare(ctx.seed, tracer)))?;
    phase.setup_s = setup_s;
    let runner = ParallelRunner::new(ctx.threads);
    let mut first: Vec<Option<RunReport>> = vec![None; sweep.jobs.len()];
    let mut t = Totals::default();
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let pass_start = Instant::now();
        let results = pass(&sweep, &runner, tracer, passes);
        let wall = pass_start.elapsed();
        t.wall_ns += wall.as_nanos() as f64;
        let done_before = t.jobs;
        for (i, r) in results.into_iter().enumerate() {
            phase.tally.attempt();
            let run = match r {
                Ok(run) => run,
                Err(e) => {
                    phase
                        .tally
                        .wrong(format!("{}: {e}", job_label(&sweep.jobs[i])));
                    continue;
                }
            };
            match &first[i] {
                None => first[i] = Some(run.report.clone()),
                Some(f) if *f != run.report => {
                    phase.tally.wrong(format!(
                        "{}: report differs between passes",
                        job_label(&sweep.jobs[i])
                    ));
                    continue;
                }
                Some(_) => {}
            }
            absorb(&mut t, &run);
            phase.latency_ms.push(run.wall.as_secs_f64() * 1e3);
        }
        phase
            .windows
            .push((t.jobs - done_before, wall.as_secs_f64()));
        passes += 1;
    }
    phase.digest = report_digest(
        sweep
            .jobs
            .iter()
            .zip(&first)
            .filter_map(|(j, r)| {
                r.as_ref()
                    .map(|r| (job_label(j), canonical_report(r).to_json().render()))
            })
            .collect(),
    );
    let n = t.jobs.max(1) as f64;
    phase.notes = vec![
        format!(
            "sweep: {} jobs per pass ({} pairs × (Base + {PLANS_PER_PAIR} plans)), {passes} passes, {} threads",
            sweep.jobs.len(),
            Pair::all().len(),
            ctx.threads
        ),
        format!("sweep_jobs_per_s {:.4} 1/s (median over passes)", phase.ops_per_s()),
        format!(
            "sim_cycles_per_host_s {:.1} 1/s (simulated cycles per host second inside the simulator)",
            t.cycles / (t.host_ns / 1e9)
        ),
    ];
    if tracer.is_some() {
        let ms = |i: usize| t.split_ns[i] / n / 1e6;
        let rate = |l: usize| t.hits[l] / t.accesses[l].max(1.0);
        let sim_ns = t.split_ns[2] - t.split_ns[0] - t.split_ns[1];
        let layers = [
            ("matrix.tile_ms", "ms", ms(0)),
            ("core.schedule_ms", "ms", ms(1)),
            ("core.simulate_ms", "ms", sim_ns / n / 1e6),
            ("core.host_ns_per_request", "ns", sim_ns / t.requests),
            ("core.host_ns_per_vop", "ns", sim_ns / t.vops),
            (
                "core.sim_cycles_per_host_s",
                "1/s",
                t.cycles / (t.host_ns / 1e9),
            ),
            ("sim.cycles", "count", t.cycles / n),
            ("sim.requests_issued", "count", t.requests / n),
            ("sim.vops", "count", t.vops / n),
            ("sim.l1_hit_rate", "ratio", rate(0)),
            ("sim.l2_hit_rate", "ratio", rate(1)),
            ("sim.llc_hit_rate", "ratio", rate(2)),
            ("sim.dram_accesses", "count", t.dram_accesses / n),
            ("sim.dram_utilization", "ratio", t.dram_utilization / n),
            ("sim.tlb_misses", "count", t.tlb_misses / n),
            ("sim.stall_no_rs", "count", t.stall_no_rs / n),
            ("sim.stall_no_vr", "count", t.stall_no_vr / n),
            ("parallel.validate_ms", "ms", ms(3)),
            (
                "parallel.worker_busy_frac",
                "ratio",
                t.busy_ns / (t.wall_ns * ctx.threads as f64),
            ),
        ];
        let mut out: Vec<Metric> = layers
            .iter()
            .map(|&(name, unit, v)| Metric::new(name, unit, v))
            .collect();
        if let Some(tr) = tracer {
            let l = tr.layers();
            out.push(Metric::new(
                "matrix.generate_ms",
                "ms",
                l["matrix.generate"].mean_ms(),
            ));
            out.push(Metric::new(
                "matrix.reference_ms",
                "ms",
                l["matrix.reference"].mean_ms(),
            ));
        }
        phase.layers = out;
    }
    Ok(phase)
}

fn absorb(t: &mut Totals, run: &JobRun) {
    let r = &run.report;
    t.jobs += 1;
    t.cycles += r.cycles as f64;
    t.requests += r.mem.requests_issued as f64;
    t.vops += r.total_vops as f64;
    t.host_ns += r.host_wall_ns;
    t.busy_ns += run.wall.as_nanos() as f64;
    t.dram_accesses += r.dram_accesses as f64;
    t.dram_utilization += r.dram_utilization;
    t.tlb_misses += r.tlb_misses as f64;
    t.stall_no_rs += r.stall_no_rs as f64;
    t.stall_no_vr += r.stall_no_vr as f64;
    for (i, level) in [LevelKind::L1, LevelKind::L2, LevelKind::Llc]
        .into_iter()
        .enumerate()
    {
        let s = r.mem.level(level);
        t.hits[i] += s.hits as f64;
        t.accesses[i] += s.accesses as f64;
    }
    if let Some(split) = run.split {
        for (acc, d) in t.split_ns.iter_mut().zip(split) {
            *acc += d.as_nanos() as f64;
        }
    }
}
