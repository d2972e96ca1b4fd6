//! `repobench`: the repository benchmark.
//!
//! One command measures one workload end to end and prints every metric
//! by name with its unit, checking every output on the way:
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <sweep|serve-hit|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! selected workload untraced and then traced (for the tracing overhead),
//! traces the other two workloads briefly so every layer is covered,
//! reports the per-layer metrics and writes the spans as a Chrome trace.
//! `--steady <runs>` re-runs the workload with consecutive seeds and
//! prints each end-to-end metric's median and quartiles against the
//! bounds in `BENCHMARK.json`. The last line of standard output is always
//! the JSON result. README.md lists what each metric means.

mod common;
mod hit;
mod mixed;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use spade_sim::JsonValue;

use common::{Ctx, Phase, Tally, K, PES, SCALE_NAME};
use stats::{quartiles, valid_name, valid_unit, Metric, ResultLine};
use trace::{chrome_trace, Tracer};

const USAGE: &str = "usage: repobench --workload <sweep|serve-hit|serve-mixed> --seed <n> \
--seconds <s> --trace <0|1> [--steady <runs>]";

/// Where results and traces are written, relative to the checkout root.
const OUT_DIR: &str = ".repobench";

/// End-to-end metrics, in report order: every workload reports all of
/// them (the headline operation differs per workload; see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics of a traced run, in report order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("matrix.generate_ms", "ms"),
    ("matrix.reference_ms", "ms"),
    ("matrix.tile_ms", "ms"),
    ("matrix.features_us", "us"),
    ("core.schedule_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("core.host_ns_per_request", "ns"),
    ("core.host_ns_per_vop", "ns"),
    ("core.sim_cycles_per_host_s", "1/s"),
    ("core.advise_us", "us"),
    ("sim.cycles", "count"),
    ("sim.requests_issued", "count"),
    ("sim.vops", "count"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.llc_hit_rate", "ratio"),
    ("sim.dram_accesses", "count"),
    ("sim.dram_utilization", "ratio"),
    ("sim.tlb_misses", "count"),
    ("sim.stall_no_rs", "count"),
    ("sim.stall_no_vr", "count"),
    ("parallel.validate_ms", "ms"),
    ("parallel.worker_busy_frac", "ratio"),
    ("parallel.cache_key_ms", "ms"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.rejected_overload", "count"),
    ("service.residual_ms", "ms"),
    ("model.fit_s", "s"),
    ("model.train_sweep_s", "s"),
    ("model.holdout_mare", "ratio"),
    ("advisor.model_frac", "ratio"),
    ("advisor.cycles_vs_base", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep,
    ServeHit,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Sweep, Workload::ServeHit, Workload::ServeMixed];

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeHit => "serve-hit",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, ctx: &Ctx, tracer: Option<&Tracer>, seconds: f64) -> Result<Phase, String> {
        match self {
            Workload::Sweep => sweep::run(ctx, tracer, seconds),
            Workload::ServeHit => hit::run(ctx, tracer, seconds),
            Workload::ServeMixed => mixed::run(ctx, tracer, seconds),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut steady) =
            (None, None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--steady" => {
                    steady = Some(value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?)
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            steady,
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    match run(&args) {
        Ok(line) => {
            println!("{}", line.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one measurement and prints everything but the result line, which
/// it returns.
fn run(args: &Args) -> Result<ResultLine, String> {
    let out = Path::new(OUT_DIR);
    let work = out.join(format!("work-{}", std::process::id()));
    let ctx = Ctx::new(args.seed, args.seconds, work)?;
    let tally = Tally::default();
    let (metrics, notes, digest) = if args.trace {
        traced(&ctx, args.workload, &tally, out)?
    } else {
        let phase = args.workload.run(&ctx, None, ctx.seconds)?;
        tally.absorb(&phase.tally);
        (phase.end_to_end(), phase.notes, phase.digest)
    };
    if let Some(m) = metrics
        .iter()
        .find(|m| !valid_name(&m.name) || !valid_unit(&m.unit) || !m.value.is_finite())
    {
        return Err(format!("metric {m:?} breaks the output rules"));
    }
    let (attempted, failed, wrong) = tally.counts();
    let line = ResultLine {
        correct: wrong == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    let context = context_json(args, &ctx, digest, &tally);
    println!(
        "repobench: workload {}, seed {}, {} s measured, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "context: nproc {}, {} threads/connections, commit {}, scale {SCALE_NAME}, K {K}, {PES} PEs, \
         modelled caches start cold (every job builds a fresh SpadeSystem)",
        ctx.nproc,
        ctx.threads,
        commit()
    );
    println!("{UNVALIDATED}");
    for n in &notes {
        println!("{n}");
    }
    println!("report_digest {digest:016x}");
    println!(
        "attempted {attempted}, failed {failed} (error_rate {:.6}), wrong outputs {wrong}",
        failed as f64 / attempted.max(1) as f64
    );
    for p in tally.problems() {
        println!("problem: {p}");
    }
    for m in &line.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let record = JsonValue::object([
        ("context", context),
        (
            "notes",
            JsonValue::Array(notes.iter().map(|n| n.as_str().into()).collect()),
        ),
        ("result", JsonValue::parse(&line.render())?),
    ]);
    let path = out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("record written to {}", path.display());
    Ok(line)
}

const UNVALIDATED: &str = "accuracy: the simulator is unvalidated against real hardware; the \
repository holds no hardware reference numbers, so no error figure is given";

fn context_json(args: &Args, ctx: &Ctx, digest: u64, tally: &Tally) -> JsonValue {
    let (attempted, failed, wrong) = tally.counts();
    JsonValue::object([
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("nproc", ctx.nproc.into()),
        ("threads", ctx.threads.into()),
        ("commit", commit().into()),
        ("scale", SCALE_NAME.into()),
        ("k", K.into()),
        ("pes", PES.into()),
        ("modelled_caches_start_cold", true.into()),
        ("accuracy", UNVALIDATED.into()),
        ("report_digest", format!("{digest:016x}").into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("wrong", wrong.into()),
        (
            "problems",
            JsonValue::Array(tally.problems().into_iter().map(JsonValue::from).collect()),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run in a copy that is not a repository.
fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The traced run: the selected workload untraced and then traced for
/// half the time each (their throughput ratio is the tracing overhead),
/// then the other workloads traced for a quarter each, so every layer
/// is measured. Writes the spans as one Chrome trace.
fn traced(
    ctx: &Ctx,
    selected: Workload,
    tally: &Tally,
    out: &Path,
) -> Result<(Vec<Metric>, Vec<String>, u64), String> {
    let half = ctx.seconds / 2.0;
    let untraced = selected.run(ctx, None, half)?;
    tally.absorb(&untraced.tally);
    let epoch = Instant::now();
    let tracers: Vec<(Workload, Tracer)> = Workload::ALL
        .into_iter()
        .map(|w| (w, Tracer::with_epoch(epoch)))
        .collect();
    let mut layers = Vec::new();
    let mut notes = Vec::new();
    let mut digest = untraced.digest;
    for (w, tracer) in &tracers {
        let seconds = if *w == selected {
            half
        } else {
            ctx.seconds / 4.0
        };
        let phase = w.run(ctx, Some(tracer), seconds)?;
        tally.absorb(&phase.tally);
        if *w == selected {
            if phase.digest != untraced.digest {
                tally.wrong(format!(
                    "{}: traced run simulated different reports (digest {:016x} vs {:016x})",
                    w.name(),
                    phase.digest,
                    untraced.digest
                ));
            }
            let overhead = (untraced.ops_per_s() / phase.ops_per_s() - 1.0) * 100.0;
            notes.push(format!(
                "tracing overhead on {}: {:.4} ops/s untraced vs {:.4} traced ({overhead:+.2}%)",
                w.name(),
                untraced.ops_per_s(),
                phase.ops_per_s()
            ));
            layers.push(Metric::new("trace.overhead_pct", "%", overhead));
            digest = phase.digest;
        }
        notes.extend(
            phase
                .notes
                .iter()
                .map(|n| format!("[traced {}] {n}", w.name())),
        );
        layers.extend(phase.layers);
        for (name, t) in tracer.layers() {
            notes.push(format!(
                "[traced {}] self time {name}: {} spans, total {:.3} ms, self {:.3} ms",
                w.name(),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
    let named: Vec<(&str, &Tracer)> = tracers.iter().map(|(w, t)| (w.name(), t)).collect();
    let path = out.join(format!("trace-{}-seed{}.json", selected.name(), ctx.seed));
    std::fs::write(&path, chrome_trace(&named)).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("chrome trace written to {}", path.display()));
    let ordered = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            layers
                .iter()
                .find(|m| m.name == *name && m.unit == *unit)
                .cloned()
                .ok_or(format!("traced run produced no {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ordered, notes, digest))
}

/// Re-runs the workload `runs` times with consecutive seeds and reports
/// each end-to-end metric's median and quartiles, flagging any whose
/// spread (interquartile range over median) exceeds its bound in
/// `BENCHMARK.json`. `setup_s` is shown but exempt, like the acceptance
/// rule for it.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let bounds = match read_bounds(Path::new("BENCHMARK.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for i in 0..runs as u64 {
        let seed = args.seed + i;
        let result = run_child(&exe, args, seed);
        match result {
            Ok(line) => {
                let shown: Vec<String> = line
                    .metrics
                    .iter()
                    .map(|m| format!("{} {:.4}", m.name, m.value))
                    .collect();
                println!(
                    "run {} seed {seed}: correct {}, attempted {}, failed {}; {}",
                    i + 1,
                    line.correct,
                    line.attempted,
                    line.failed,
                    shown.join(", ")
                );
                for m in line.metrics {
                    match values.iter_mut().find(|(n, _)| *n == m.name) {
                        Some((_, v)) => v.push(m.value),
                        None => values.push((m.name, vec![m.value])),
                    }
                }
            }
            Err(e) => {
                eprintln!("repobench: run with seed {seed} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut flagged = false;
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, v) in &values {
        let Some((q1, med, q3)) = quartiles(v) else {
            continue;
        };
        let spread = (q3 - q1) / med.abs();
        let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
        let verdict = match bound {
            _ if name == "setup_s" => "exempt",
            Some(b) if spread > b => {
                flagged = true;
                "FLAG"
            }
            Some(b) if spread > b / 3.0 => "within bound, above a third of it",
            Some(_) => "steady",
            None => "no bound",
        };
        println!(
            "{name:<14} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4} {:>6} {verdict}",
            bound.map_or("-".into(), |b| format!("{b}"))
        );
    }
    if flagged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs one untraced measurement as a child process and parses its
/// result line.
fn run_child(exe: &PathBuf, args: &Args, seed: u64) -> Result<ResultLine, String> {
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    ResultLine::parse(stdout.lines().last().unwrap_or(""))
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text)?;
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_use_the_charset_once_each() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        assert!(
            read_bounds(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
                .unwrap()
                .iter()
                .all(|(_, b)| *b > 0.0 && *b <= 0.25)
        );
    }

    #[test]
    fn args_need_every_flag_and_check_values() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv(
            "--workload serve-hit --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeHit);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.steady),
            (7, 10.0, true, None)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 0 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace 2",
            "--workload sweep --seed 1 --seconds 1",
            "--workload sweep --seed x --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace 0 --steady 1",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
