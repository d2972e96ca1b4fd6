//! Subcommand implementations.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spade_bench::model::{CostModel, TrainingRow};
use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::service::{self, ServiceConfig};
use spade_bench::suite::Workload;
use spade_core::advisor::PlanRanker;
use spade_core::{advisor, JsonValue, Primitive, RMatrixPolicy, SystemConfig};
use spade_matrix::analysis::{MatrixFeatures, MatrixStats};
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::mm;
use spade_sim::json::MAX_FRAME_BYTES;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "usage:
  spade-cli info   [--scale tiny|small|default|large]
  spade-cli run    --benchmark <name> [--kernel spmm|sddmm] [--k 32]
                   [--pes 56] [--scale tiny|small|default|large]
                   [--rp N] [--cp N|all] [--rmatrix cache|bypass|victim]
                   [--barriers] [--deadline-cycles N] [--format json|text]
  spade-cli trace  <name> [run flags as above] [--window 256]
                   [--out <file.trace.json>]
  spade-cli advise --benchmark <name> [--k 32] [--pes 56] [--scale ...]
                   [--fast|--exact] [--model FILE] [--top-n 5] [--exhaustive]
                   [--format json|text]
  spade-cli search --benchmark <name> [--k 32] [--pes 56] [--scale ...] [--full]
                   [--deadline-cycles N] [--format json|text]
  spade-cli mm     --file <matrix.mtx> [--k 32] [--pes 56] [--format json|text]
  spade-cli serve  [--addr 127.0.0.1:7700] [--cache-dir DIR] [--workers N]
                   [--queue 32] [--max-connections 32] [--deadline-cycles N]
                   [--read-timeout-ms 500] [--log-json] [--model FILE]
  spade-cli client --addr <host:port> --request '<json>'
  spade-cli client ping|status|metrics|shutdown --addr <host:port>
                   [--format json|text] [--prom (metrics only)]
  spade-cli client run|trace|search|advise --addr <host:port>
                   [flags of the local command, less --model/--exact/
                   --exhaustive/--top-n] [--no-cache (not advise)]
  spade-cli client query --addr <host:port> [--benchmark <name>]
                   [--kernel spmm|sddmm] [--kind run|search|trace] [--k N]
                   [--pes N] [--min-cycles N] [--max-cycles N] [--limit N]
                   [--format json|text]
  spade-cli client batch --addr <host:port> --benchmarks a,b,c
                   [--kernels spmm,sddmm] [--k 32,128] [--pes 56,112]
                   [--rp N] [--cp N|all] [--rmatrix cache|bypass|victim]
                   [--barriers] [--scale ...] [--deadline-cycles N]
                   [--no-cache] [--format json|text]
  spade-cli client agg --addr <host:port> --group-by benchmark|kernel|pes
                   [query filters as above] [--format json|text]
  spade-cli client best-plans --addr <host:port> [query filters as above]
                   [--format json|text]
  spade-cli bench-perf [--scale tiny|small|default|large] [--k 32] [--pes 56]
                   [--gate-speedup X] [--out BENCH_sim.json]
  spade-cli dataset export --cache-dir DIR [--out FILE]
  spade-cli model train --dataset FILE [--scale tiny|small|default|large]
                   [--out spade.model] [--report FILE]
  spade-cli bench-advise [--scale ...] [--k 32] [--pes 56]
                   [--out BENCH_sim.json] [--model-out FILE] [--report-out FILE]
                   [--gate-advise-speedup X] [--gate-advise-quality X]

run, trace, search and advise are the daemon without a socket: the
request goes through the daemon's own handler in process, so
--format json prints the line a cold daemon replies.

benchmarks: asi liv ork pap del kro myc pac roa ser";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags or
/// failed runs.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "info" => info(rest),
        cmd @ ("run" | "trace" | "search" | "advise") => request(cmd, rest, false),
        "mm" => run_mm(rest),
        "serve" => serve(rest),
        "client" => client(rest),
        "bench-perf" => bench_perf(rest),
        "bench-advise" => bench_advise(rest),
        "dataset" => dataset(rest),
        "model" => model_cmd(rest),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn parse_scale(args: &Args) -> Result<Scale, String> {
    match args.get("scale").unwrap_or("tiny") {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        other => Err(format!("--scale: unknown scale '{other}'")),
    }
}

fn lookup_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.short_name().eq_ignore_ascii_case(name))
        .ok_or(format!("unknown benchmark '{name}'"))
}

/// Whether machine-readable output was requested: `--format json|text`,
/// with the legacy `--json` switch as an alias for `--format json`.
fn parse_format(args: &Args) -> Result<bool, String> {
    match args.get("format") {
        None => Ok(args.has("json")),
        Some("json") => Ok(true),
        Some("text") => Ok(false),
        Some(other) => Err(format!("--format: unknown format '{other}' (json|text)")),
    }
}

/// Parses `--k`, rejecting values the simulator cannot run (K must fill
/// whole cache lines) before any simulation work starts.
fn parse_k(args: &Args) -> Result<usize, String> {
    let k: usize = args.get_parsed("k", 32)?;
    let line = spade_matrix::FLOATS_PER_LINE;
    if k == 0 || !k.is_multiple_of(line) {
        return Err(format!(
            "--k: {k} is not a multiple of the cache line ({line} floats)"
        ));
    }
    Ok(k)
}

fn parse_pes(args: &Args) -> Result<usize, String> {
    let pes: usize = args.get_parsed("pes", 56)?;
    if pes == 0 || !pes.is_multiple_of(4) {
        return Err("--pes must be a positive multiple of 4".into());
    }
    Ok(pes)
}

fn parse_flag_u64(name: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse '{v}'"))
}

fn info(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["scale"], &[])?;
    let scale = parse_scale(&args)?;
    println!(
        "{:<6} {:<24} {:>8} {:>9} {:>8} {:>7}  RU",
        "name", "domain", "rows", "nnz", "avg-deg", "density"
    );
    for b in Benchmark::ALL {
        let m = b.generate(scale);
        let s = MatrixStats::compute(&m);
        println!(
            "{:<6} {:<24} {:>8} {:>9} {:>8.1} {:>7.0e}  {}",
            b.short_name(),
            b.domain(),
            s.num_rows,
            s.nnz,
            s.avg_degree,
            s.density,
            s.classify_ru()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Requests: run, trace, search, advise — local or served
// ---------------------------------------------------------------------------

/// The value flags and switches request command `cmd` declares, locally
/// or (`remote`) as a `client` subcommand.
fn request_flags(cmd: &str, remote: bool) -> (Vec<&'static str>, Vec<&'static str>) {
    let mut values = vec!["benchmark", "scale", "k", "pes", "format"];
    let mut switches = vec!["json"];
    match cmd {
        "run" | "trace" => {
            values.extend(["kernel", "rp", "cp", "rmatrix", "deadline-cycles"]);
            switches.push("barriers");
            if cmd == "trace" {
                values.extend(["window", "out"]);
            }
        }
        "search" => {
            values.push("deadline-cycles");
            switches.push("full");
        }
        _ => {}
    }
    if remote {
        values.push("addr");
        if cmd != "advise" {
            switches.push("no-cache");
        }
    } else if cmd == "advise" {
        values.extend(["model", "top-n"]);
        switches.extend(["fast", "exact", "exhaustive"]);
    }
    (values, switches)
}

/// Flags that steer the CLI itself (output, transport, the local-only
/// exact advise tier) and never reach a request document.
const CLI_FLAGS: [&str; 9] = [
    "format",
    "json",
    "out",
    "addr",
    "model",
    "top-n",
    "fast",
    "exact",
    "exhaustive",
];

/// Flags whose value is a number (`cp` may also be `all`).
const NUMERIC_FLAGS: [&str; 9] = [
    "k",
    "pes",
    "rp",
    "cp",
    "window",
    "deadline-cycles",
    "min-cycles",
    "max-cycles",
    "limit",
];

/// Flags → request document, one mapping for every request command, its
/// `client` twin and the `client` query and batch fields. Each flag
/// becomes the wire field of the same name (dashes as underscores) and
/// each switch a `true`. Only numbers are checked here; the handler
/// validates every field.
fn request_doc(cmd: &str, args: &Args) -> Result<Vec<(String, JsonValue)>, String> {
    let mut fields = vec![("cmd".to_string(), JsonValue::from(cmd))];
    for (flag, v) in args.values() {
        if CLI_FLAGS.contains(&flag.as_str()) {
            continue;
        }
        let value = if NUMERIC_FLAGS.contains(&flag.as_str()) && !(flag == "cp" && v == "all") {
            parse_flag_u64(flag, v)?.into()
        } else {
            v.as_str().into()
        };
        fields.push((flag.replace('-', "_"), value));
    }
    for switch in args.switches() {
        if !CLI_FLAGS.contains(&switch.as_str()) {
            fields.push((switch.replace('-', "_"), true.into()));
        }
    }
    Ok(fields)
}

/// `run`, `trace`, `search` and `advise`, local or (`client …`) served,
/// in three steps: flags → request document, transport, one renderer
/// per command. Locally the document goes through [`service::answer`],
/// the daemon's handler without a socket, so `--format json` prints
/// exactly the line a cold daemon replies.
fn request(cmd: &str, argv: &[String], remote: bool) -> Result<(), String> {
    // `trace` also takes its benchmark positionally (`trace myc`).
    let (positional, rest) = match argv.first() {
        Some(first) if cmd == "trace" && !first.starts_with("--") => {
            (Some(first.as_str()), &argv[1..])
        }
        _ => (None, argv),
    };
    let (values, switches) = request_flags(cmd, remote);
    let args = Args::parse(rest, &values, &switches)?;
    let json = parse_format(&args)?;
    let mut doc = request_doc(cmd, &args)?;
    if let Some(name) = positional {
        doc.push(("benchmark".into(), name.into()));
    }
    let line = JsonValue::Object(doc).render();
    let (response, reply) = if remote {
        // A trace reply is one long line: raise the read limit well past
        // the default.
        let max_frame = if cmd == "trace" {
            256 << 20
        } else {
            MAX_FRAME_BYTES
        };
        let (addr, mut client) = client_connect(&args, max_frame)?;
        client_roundtrip(&mut client, &addr, &line)?
    } else if args.has("exact") {
        advise_exact(&args)?
    } else {
        answer_locally(&args, &line)?
    };
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = reply.get("result").ok_or("response has no result")?;
    match cmd {
        "run" => print_run(result, &provenance(&reply)),
        "trace" => write_trace(result, args.get("out"), &provenance(&reply)),
        "search" => print_search(result, &provenance(&reply)),
        _ => print_advise(result),
    }
}

/// Answers `line` in process, as a cold daemon without a cache would.
/// `--model` (advise) is the only configuration a local request takes;
/// an `ok:false` reply becomes the command's error.
fn answer_locally(args: &Args, line: &str) -> Result<(String, JsonValue), String> {
    let config = ServiceConfig {
        model_path: args.get("model").map(PathBuf::from),
        ..ServiceConfig::default()
    };
    let response = service::answer(config, line).map_err(|e| e.to_string())?;
    let reply = JsonValue::parse(&response)
        .map_err(|e| format!("unparseable response ({e}): {response}"))?;
    if reply.get("ok").and_then(JsonValue::as_bool) == Some(false) {
        let error = reply.get("error").ok_or("error reply has no error")?;
        return Err(js(error, "message").to_string());
    }
    Ok((response, reply))
}

/// `advise --exact`: the demoted verification tier. It simulates the
/// candidates (model-pruned to `--top-n` unless `--exhaustive`) through
/// `find_opt_pruned`, work the daemon never does, so it stays local. The
/// reply takes the served advise shape plus `measured_cycles`.
fn advise_exact(args: &Args) -> Result<(String, JsonValue), String> {
    if args.has("fast") {
        return Err("--fast and --exact are mutually exclusive".into());
    }
    let bench = lookup_benchmark(args.get("benchmark").ok_or("--benchmark is required")?)?;
    let k = parse_k(args)?;
    let pes = parse_pes(args)?;
    let top_n: usize = args.get_parsed("top-n", spade_bench::runner::PRUNE_TOP_N)?;
    let w = Workload::prepare(bench, parse_scale(args)?, k);
    // A model that fails to load costs pruning, never the answer.
    let model = args
        .get("model")
        .and_then(|path| match CostModel::load(Path::new(path)) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("warning: cost model {path} unusable ({e}); simulating every candidate");
                None
            }
        });
    let ranker = match &model {
        Some(m) if !args.has("exhaustive") => Some(m as &dyn PlanRanker),
        _ => None,
    };
    let started = Instant::now();
    let (plan, report) = spade_bench::runner::find_opt_pruned(
        &SystemConfig::scaled(pes),
        &w,
        Primitive::Spmm,
        true,
        ranker,
        top_n,
    );
    let result = JsonValue::object([
        ("benchmark", bench.short_name().into()),
        ("k", k.into()),
        ("pes", pes.into()),
        ("source", "exhaustive".into()),
        ("plan", service::plan_json(&plan)),
        ("predicted_cycles", JsonValue::Null),
        ("latency_us", (started.elapsed().as_micros() as u64).into()),
        ("measured_cycles", report.cycles.into()),
    ]);
    let reply = JsonValue::object([
        ("ok", true.into()),
        ("cmd", "advise".into()),
        ("protocol", service::PROTOCOL_VERSION.into()),
        ("result", result),
    ]);
    Ok((reply.render(), reply))
}

/// ` (fresh|cached, key K)`: where a reply's result came from.
fn provenance(reply: &JsonValue) -> String {
    let cached = if reply.get("cached").and_then(JsonValue::as_bool) == Some(true) {
        "cached"
    } else {
        "fresh"
    };
    match reply.get("key").and_then(JsonValue::as_str) {
        Some(key) => format!(" ({cached}, key {key})"),
        None => format!(" ({cached})"),
    }
}

/// A `u64` response field, defaulting to 0 — display only, never logic.
fn ju(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// A numeric response field as `f64`, defaulting to 0.
fn jf(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// A string response field, defaulting to `?`.
fn js<'a>(doc: &'a JsonValue, key: &str) -> &'a str {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

/// A plan object as `rp=R cp=C`, with ` b` when barriers are on.
fn plan_summary(plan: Option<&JsonValue>) -> String {
    match plan {
        None | Some(JsonValue::Null) => "-".to_string(),
        Some(p) => format!(
            "rp={} cp={}{}",
            ju(p, "row_panel_size"),
            ju(p, "col_panel_size"),
            if p.get("barriers").and_then(JsonValue::as_bool) == Some(true) {
                " b"
            } else {
                ""
            }
        ),
    }
}

/// Renders a `run` result (also `mm`'s): its context line, then the
/// headline report.
fn print_run(result: &JsonValue, note: &str) -> Result<(), String> {
    let report = result.get("report").ok_or("result has no report")?;
    let cycles = ju(report, "cycles");
    println!(
        "{} {} k={} pes={}{note}",
        js(result, "benchmark"),
        js(result, "kernel"),
        ju(result, "k"),
        ju(result, "pes")
    );
    println!("cycles            : {cycles}");
    println!("time              : {:.1} µs", jf(report, "time_ns") / 1e3);
    println!("vOps              : {}", ju(report, "total_vops"));
    println!("DRAM accesses     : {}", ju(report, "dram_accesses"));
    println!("LLC accesses      : {}", ju(report, "llc_accesses"));
    println!(
        "requests/cycle    : {:.2}",
        jf(report, "requests_per_cycle")
    );
    println!(
        "DRAM bandwidth    : {:.1} GB/s",
        jf(report, "achieved_gbps")
    );
    println!(
        "termination cost  : {:.2}%",
        ju(report, "termination_cycles") as f64 * 100.0 / cycles.max(1) as f64
    );
    Ok(())
}

/// Renders a `search` result: the five best candidates.
fn print_search(result: &JsonValue, note: &str) -> Result<(), String> {
    let candidates = result
        .get("candidates")
        .and_then(JsonValue::as_array)
        .ok_or("result has no candidates")?;
    println!(
        "{} k={} pes={}: {} plans, {} failures{note}; best first:",
        js(result, "benchmark"),
        ju(result, "k"),
        ju(result, "pes"),
        candidates.len(),
        ju(result, "failures")
    );
    for c in candidates.iter().take(5) {
        let plan = c.get("plan").ok_or("candidate has no plan")?;
        println!(
            "  {:>10} cycles  RP={:<6} CP={:<8} {:<12} barriers={}",
            ju(c, "cycles"),
            ju(plan, "row_panel_size"),
            ju(plan, "col_panel_size"),
            js(plan, "r_policy"),
            plan.get("barriers") == Some(&JsonValue::Bool(true))
        );
    }
    Ok(())
}

/// Writes a `trace` result's Chrome-trace document to `out` (default
/// `<benchmark>-<kernel>.trace.json`). Re-rendering the parsed value
/// reproduces the handler's exact bytes: the codec's render∘parse
/// fixpoint is pinned by the json fuzz suite.
fn write_trace(result: &JsonValue, out: Option<&str>, note: &str) -> Result<(), String> {
    let trace = result.get("trace").ok_or("result has no trace")?;
    let out_path = match out {
        Some(p) => p.to_string(),
        None => format!(
            "{}-{}.trace.json",
            js(result, "benchmark"),
            js(result, "kernel").to_lowercase()
        ),
    };
    std::fs::write(&out_path, trace.render()).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "wrote {out_path}: {} events over {} cycles{note} (load in ui.perfetto.dev)",
        ju(result, "events"),
        result.get("report").map_or(0, |r| ju(r, "cycles"))
    );
    Ok(())
}

/// Renders an `advise` result: the plan, its tier and the selection
/// latency, with the predicted or measured cycles when known.
fn print_advise(result: &JsonValue) -> Result<(), String> {
    let plan = result.get("plan").ok_or("result has no plan")?;
    let note = match (
        result.get("predicted_cycles").and_then(JsonValue::as_f64),
        result.get("measured_cycles").and_then(JsonValue::as_u64),
    ) {
        (Some(p), _) => format!(", predicted {p:.0} cycles"),
        (_, Some(c)) => format!(", measured {c} cycles"),
        _ => String::new(),
    };
    println!(
        "{} k={} pes={}: RP={} CP={} rMatrix={} barriers={} ({} tier, {} \u{3bc}s{note})",
        js(result, "benchmark"),
        ju(result, "k"),
        ju(result, "pes"),
        ju(plan, "row_panel_size"),
        ju(plan, "col_panel_size"),
        js(plan, "r_policy"),
        plan.get("barriers") == Some(&JsonValue::Bool(true)),
        js(result, "source"),
        ju(result, "latency_us"),
    );
    Ok(())
}

/// `spade-cli mm`: advise a plan for a MatrixMarket file and run it. A
/// file matrix is not a wire benchmark, so this runs its job directly
/// and renders the result like a `run`.
fn run_mm(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["file", "k", "pes", "format"], &["json"])?;
    let json = parse_format(&args)?;
    let path = args.get("file").ok_or("--file is required")?;
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let a = mm::read_matrix_market(BufReader::new(file)).map_err(|e| e.to_string())?;
    let k = parse_k(&args)?;
    let config = SystemConfig::scaled(parse_pes(&args)?);
    let plan = advisor::advise(&a, k, &config).map_err(|e| e.to_string())?;
    let workload = Arc::new(Workload::from_matrix(path, a, k));
    let job = Job::new(&workload, &Arc::new(config), Primitive::Spmm, plan);
    let output = job.try_execute_full().map_err(|e| e.to_string())?;
    let result = service::run_result_json(&job, &output);
    if json {
        println!("{}", result.render());
        return Ok(());
    }
    print_run(&result, "")
}

/// `spade-cli serve`: the always-on experiment daemon — newline-delimited
/// JSON over TCP, a bounded admission queue with back-pressure, and a
/// crash-safe persistent result cache (see `spade_bench::service`).
/// SIGTERM/ctrl-c (or an in-band `shutdown` request) drains in-flight
/// jobs and exits 0.
fn serve(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "addr",
            "cache-dir",
            "workers",
            "queue",
            "max-connections",
            "deadline-cycles",
            "read-timeout-ms",
            "model",
        ],
        &["log-json"],
    )?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7700").to_string();
    let mut config = ServiceConfig::default();
    config.workers = args.get_parsed("workers", config.workers)?;
    config.queue_capacity = args.get_parsed("queue", config.queue_capacity)?;
    config.max_connections = args.get_parsed("max-connections", config.max_connections)?;
    if let Some(v) = args.get("deadline-cycles") {
        match parse_flag_u64("deadline-cycles", v)? {
            0 => return Err("--deadline-cycles: need at least one cycle".into()),
            d => config.default_deadline_cycles = Some(d),
        }
    }
    let timeout_ms: u64 =
        args.get_parsed("read-timeout-ms", config.read_timeout.as_millis() as u64)?;
    config.read_timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    config.cache_dir = args.get("cache-dir").map(PathBuf::from);
    // `--model` arms the advise request's model tier; a file that fails
    // to load logs a warning at bind and the heuristic answers instead.
    config.model_path = args.get("model").map(PathBuf::from);
    // `--log-json` turns the request log spans on explicitly; the
    // SPADE_LOG=json environment default (already in `config`) stays
    // effective either way.
    if args.has("log-json") {
        config.log_json = true;
    }
    service::install_termination_handler();
    let svc = service::Service::bind(&addr, config).map_err(|e| format!("{addr}: bind: {e}"))?;
    let local = svc.local_addr().map_err(|e| e.to_string())?;
    // One machine-parseable banner line: scripts read the actual port
    // (meaningful with --addr 127.0.0.1:0) before sending requests.
    println!(
        "{}",
        JsonValue::object([
            ("serving", local.to_string().into()),
            ("pid", u64::from(std::process::id()).into()),
            ("protocol", service::PROTOCOL_VERSION.into()),
        ])
        .render()
    );
    // stdout is block-buffered when piped; a supervising script must see
    // the banner before the first request, not at exit.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let summary = svc.run().map_err(|e| e.to_string())?;
    println!("{}", summary.to_json().render());
    Ok(())
}

/// `spade-cli client`: talk to a running daemon — the scripting
/// primitive for smoke tests, cache-warm sweeps and operations.
///
/// Two modes share one wire protocol: raw (`--request '<json>'` sends
/// the line verbatim) and typed subcommands that build the request from
/// flags. `run`, `trace`, `search` and `advise` are the local commands
/// sent over `--addr`. Every subcommand honours `--format json|text`:
/// `json` prints the daemon's response line untouched, `text` a human
/// rendering. A protocol-level failure prints the raw response and exits
/// non-zero either way.
fn client(argv: &[String]) -> Result<(), String> {
    let (sub, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (Some(first.as_str()), &argv[1..]),
        _ => (None, argv),
    };
    match sub {
        None => client_raw(rest),
        Some(cmd @ ("ping" | "shutdown")) => client_simple(rest, cmd),
        Some("status") => client_status(rest),
        Some("metrics") => client_metrics(rest),
        Some(sub @ ("query" | "agg" | "best-plans")) => client_query(rest, sub),
        Some("batch") => client_batch(rest),
        Some(cmd @ ("run" | "trace" | "search" | "advise")) => request(cmd, rest, true),
        Some(other) => Err(format!("client: unknown subcommand '{other}'")),
    }
}

/// Parses `--addr` and connects, with a response-frame limit.
fn client_connect(
    args: &Args,
    max_frame: usize,
) -> Result<(std::net::SocketAddr, service::ServiceClient), String> {
    let addr = args.get("addr").ok_or("--addr is required")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("--addr: cannot parse '{addr}'"))?;
    let client = service::ServiceClient::connect_with_max_frame(&addr, max_frame)
        .map_err(|e| format!("{addr}: connect: {e}"))?;
    Ok((addr, client))
}

/// Sends one request and returns `(raw line, parsed doc)`. A
/// `"ok":false` reply is printed raw and converted into the silent
/// error (empty message) that makes `main` exit non-zero without the
/// usage dump — scripts branch on the exit code, the line is the
/// report.
fn client_roundtrip(
    client: &mut service::ServiceClient,
    addr: &std::net::SocketAddr,
    request: &str,
) -> Result<(String, JsonValue), String> {
    let response = client
        .request_line(request)
        .map_err(|e| format!("{addr}: {e}"))?;
    match JsonValue::parse(&response) {
        Ok(doc) if doc.get("ok").and_then(JsonValue::as_bool) == Some(false) => {
            println!("{response}");
            Err(String::new())
        }
        Ok(doc) => Ok((response, doc)),
        Err(e) => Err(format!("{addr}: unparseable response ({e}): {response}")),
    }
}

/// Connects to `--addr` and sends one request.
fn client_call(args: &Args, request: &str) -> Result<(String, JsonValue), String> {
    let (addr, mut client) = client_connect(args, MAX_FRAME_BYTES)?;
    client_roundtrip(&mut client, &addr, request)
}

/// Raw mode: `--request '<json>'`. The request is one JSON document on
/// a newline-delimited wire, so embedded newlines (a multi-line shell
/// string) are folded to spaces — insignificant between JSON tokens,
/// fatal to the framing.
fn client_raw(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "request"], &[])?;
    let request = args
        .get("request")
        .ok_or("--request is required")?
        .replace(['\n', '\r'], " ");
    let (response, _doc) = client_call(&args, &request)?;
    println!("{response}");
    Ok(())
}

/// `client ping` / `client shutdown`: one command word, no payload.
fn client_simple(argv: &[String], cmd: &str) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &["json"])?;
    let json = parse_format(&args)?;
    let request = JsonValue::object([("cmd", cmd.into())]).render();
    let (response, doc) = client_call(&args, &request)?;
    if json {
        println!("{response}");
    } else if cmd == "ping" {
        println!(
            "{}: ok (protocol {})",
            args.get("addr").unwrap_or("?"),
            ju(&doc, "protocol")
        );
    } else {
        println!("{}: draining", args.get("addr").unwrap_or("?"));
    }
    Ok(())
}

/// `client status`: the daemon's live state as a human table (or the
/// raw response with `--format json`).
fn client_status(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &["json"])?;
    let json = parse_format(&args)?;
    let request = JsonValue::object([("cmd", "status".into())]).render();
    let (response, doc) = client_call(&args, &request)?;
    if json {
        println!("{response}");
        return Ok(());
    }
    println!(
        "daemon {}  protocol {}  uptime {} ms{}",
        args.get("addr").unwrap_or("?"),
        ju(&doc, "protocol"),
        ju(&doc, "uptime_ms"),
        if doc.get("shutting_down").and_then(JsonValue::as_bool) == Some(true) {
            "  (draining)"
        } else {
            ""
        }
    );
    println!(
        "queue      {}/{} waiting, {} in flight on {} workers",
        ju(&doc, "queue_depth"),
        ju(&doc, "queue_capacity"),
        ju(&doc, "in_flight"),
        ju(&doc, "workers")
    );
    println!(
        "served     ok {}  err {}  overloaded {}  bad-frames {}  connections {}",
        ju(&doc, "served_ok"),
        ju(&doc, "served_err"),
        ju(&doc, "rejected_overload"),
        ju(&doc, "bad_frames"),
        ju(&doc, "connections")
    );
    match doc.get("cache") {
        None | Some(JsonValue::Null) => println!("cache      none"),
        Some(c) => println!(
            "cache      {} entries  hits {}  misses {}  stores {}  quarantined {}",
            ju(c, "entries"),
            ju(c, "hits"),
            ju(c, "misses"),
            ju(c, "stores"),
            ju(c, "quarantined")
        ),
    }
    Ok(())
}

/// `client metrics`: scrape the daemon's registry. `--prom` prints the
/// Prometheus text exposition (rendered client-side from the JSON
/// snapshot — no HTTP endpoint anywhere), `--format json` the raw
/// response, text a compact value listing.
fn client_metrics(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &["json", "prom"])?;
    let json = parse_format(&args)?;
    let request = JsonValue::object([("cmd", "metrics".into())]).render();
    let (response, doc) = client_call(&args, &request)?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("metrics response has no result")?;
    let snapshot = spade_bench::metrics::MetricsSnapshot::from_json(result)?;
    if args.has("prom") {
        print!("{}", snapshot.to_prometheus());
        return Ok(());
    }
    for s in &snapshot.samples {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            format!(
                "{{{}}}",
                s.labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        match &s.value {
            spade_bench::metrics::SampleValue::Counter(v) => println!("{}{labels} {v}", s.name),
            spade_bench::metrics::SampleValue::Gauge(v) => println!("{}{labels} {v}", s.name),
            spade_bench::metrics::SampleValue::Histogram { sum, counts, .. } => println!(
                "{}{labels} count={} sum={sum}",
                s.name,
                counts.iter().sum::<u64>()
            ),
        }
    }
    Ok(())
}

/// `client query` / `client agg` / `client best-plans`: filter the
/// daemon's cache dataset. Every filter flag is optional. `query` lists
/// the matches sorted by (benchmark, kernel, cycles), so the first row
/// per benchmark is its best plan; `agg` folds them server-side by
/// `--group-by benchmark|kernel|pes`; `best-plans` is the preset
/// `--group-by benchmark --kind run`, the best-plan-per-matrix fold.
fn client_query(argv: &[String], sub: &str) -> Result<(), String> {
    let mut values = vec![
        "addr",
        "format",
        "benchmark",
        "kernel",
        "kind",
        "k",
        "pes",
        "min-cycles",
        "max-cycles",
        "limit",
    ];
    if sub != "query" {
        values.push("group-by");
    }
    let args = Args::parse(argv, &values, &["json"])?;
    let json = parse_format(&args)?;
    let mut fields = request_doc("query", &args)?;
    if sub == "best-plans" {
        for (flag, preset) in [("group-by", "benchmark"), ("kind", "run")] {
            if args.get(flag).is_none() {
                fields.push((flag.replace('-', "_"), preset.into()));
            }
        }
    } else if sub == "agg" && args.get("group-by").is_none() {
        return Err("--group-by is required (benchmark|kernel|pes)".into());
    }
    let (response, doc) = client_call(&args, &JsonValue::Object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("query response has no result")?;
    if sub == "query" {
        print_entries(result)
    } else {
        print_groups(result)
    }
}

/// Renders a plain `query` result: one row per matching cache entry.
fn print_entries(result: &JsonValue) -> Result<(), String> {
    println!(
        "matched {} of {} cached entries (showing {})",
        ju(result, "matched"),
        ju(result, "total"),
        ju(result, "returned")
    );
    let entries = result
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("query response has no entries")?;
    if entries.is_empty() {
        return Ok(());
    }
    println!(
        "{:<7} {:<6} {:<6} {:>5} {:>5} {:>12} {:>10}  {:<18} key",
        "kind", "bench", "kernel", "k", "pes", "cycles", "dram", "plan"
    );
    for e in entries {
        println!(
            "{:<7} {:<6} {:<6} {:>5} {:>5} {:>12} {:>10}  {:<18} {}",
            js(e, "kind"),
            js(e, "benchmark"),
            js(e, "kernel"),
            ju(e, "k"),
            ju(e, "pes"),
            ju(e, "cycles"),
            ju(e, "dram_accesses"),
            plan_summary(e.get("plan")),
            js(e, "key")
        );
    }
    Ok(())
}

/// Renders a `group_by` query result: one row per group with its best
/// entry.
fn print_groups(result: &JsonValue) -> Result<(), String> {
    println!(
        "group_by {}: {} groups over {} matched of {} cached entries",
        js(result, "group_by"),
        ju(result, "returned"),
        ju(result, "matched"),
        ju(result, "total")
    );
    let groups = result
        .get("groups")
        .and_then(JsonValue::as_array)
        .ok_or("agg response has no groups")?;
    if groups.is_empty() {
        return Ok(());
    }
    println!(
        "{:<10} {:>5} {:>12} {:>12} {:>14}  {:<18} best key",
        "group", "n", "min", "max", "mean", "best plan"
    );
    for g in groups {
        let best = g.get("best");
        println!(
            "{:<10} {:>5} {:>12} {:>12} {:>14.1}  {:<18} {}",
            js(g, "group"),
            ju(g, "count"),
            ju(g, "min_cycles"),
            ju(g, "max_cycles"),
            jf(g, "mean_cycles"),
            plan_summary(best.and_then(|b| b.get("plan"))),
            best.map_or("?", |b| js(b, "key"))
        );
    }
    Ok(())
}

/// Splits a comma-separated flag value into non-empty items.
fn comma_list(name: &str, v: &str) -> Result<Vec<String>, String> {
    let items: Vec<String> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if items.is_empty() {
        return Err(format!("--{name}: expected a comma-separated list"));
    }
    Ok(items)
}

/// Same, with every item parsed as a number.
fn comma_list_u64(name: &str, v: &str) -> Result<Vec<JsonValue>, String> {
    comma_list(name, v)?
        .iter()
        .map(|item| parse_flag_u64(name, item).map(JsonValue::from))
        .collect()
}

/// `client batch`: one request, a whole sweep. The comma-list flags
/// form the server-side cross product (benchmarks × kernels × k × pes);
/// the singular plan/scale/deadline/cache flags apply to every job. The daemon
/// fans the jobs out through its admission queue and replies once, with
/// per-job payloads in job order.
fn client_batch(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "addr",
            "format",
            "benchmarks",
            "kernels",
            "k",
            "pes",
            "rp",
            "cp",
            "rmatrix",
            "scale",
            "deadline-cycles",
        ],
        &["json", "barriers", "no-cache"],
    )?;
    let json = parse_format(&args)?;
    args.get("benchmarks").ok_or("--benchmarks is required")?;
    // The comma-list flags are the sweep axes; every other flag is a
    // batch-level field, the default for each job.
    let axes = ["benchmarks", "kernels", "k", "pes"];
    let mut sweep = Vec::new();
    for axis in axes {
        if let Some(v) = args.get(axis) {
            let items = if matches!(axis, "k" | "pes") {
                comma_list_u64(axis, v)?
            } else {
                comma_list(axis, v)?
                    .into_iter()
                    .map(JsonValue::from)
                    .collect()
            };
            sweep.push((axis, JsonValue::Array(items)));
        }
    }
    let mut fields = request_doc("batch", &args.without(&axes))?;
    fields.push(("sweep".into(), JsonValue::object(sweep)));
    let (response, doc) = client_call(&args, &JsonValue::Object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("batch response has no result")?;
    println!(
        "batch: {} jobs — {} ok ({} cached), {} failed, {} rejected",
        ju(result, "total"),
        ju(result, "succeeded"),
        ju(result, "cached"),
        ju(result, "failed"),
        ju(result, "rejected")
    );
    let jobs = result
        .get("jobs")
        .and_then(JsonValue::as_array)
        .ok_or("batch response has no jobs")?;
    for job in jobs {
        let index = ju(job, "index");
        if job.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            let r = job.get("result").ok_or("batch job has no result")?;
            let report = r.get("report").ok_or("batch job has no report")?;
            let cached = if job.get("cached").and_then(JsonValue::as_bool) == Some(true) {
                " (cached)"
            } else {
                ""
            };
            println!(
                "  [{index}] {} {} k={} pes={}: {} cycles, {} DRAM accesses{cached}",
                js(r, "benchmark"),
                js(r, "kernel"),
                ju(r, "k"),
                ju(r, "pes"),
                ju(report, "cycles"),
                ju(report, "dram_accesses")
            );
        } else {
            let error = job.get("error").ok_or("batch job has no error")?;
            println!(
                "  [{index}] error {}: {}",
                js(error, "kind"),
                js(error, "message")
            );
        }
    }
    // Any failed or rejected job makes the whole invocation non-zero,
    // after the per-job report above — scripts branch on the exit code.
    if ju(result, "failed") + ju(result, "rejected") > 0 {
        return Err(String::new());
    }
    Ok(())
}

/// `bench-perf`: measures simulator host throughput under the event-driven
/// scheduler and the naive tick-loop oracle across the Figure 9 suite, one
/// run at a time, then writes the machine-readable summary (default
/// `BENCH_sim.json`). The run doubles as an equivalence check: it fails if
/// the two drivers disagree on any simulated metric. `--gate-speedup`
/// turns the run into a regression gate: the command fails (after writing
/// the summary) when the geomean event/naive speedup falls below the given
/// floor.
fn bench_perf(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["scale", "k", "pes", "gate-speedup", "out"], &[])?;
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let pes = parse_pes(&args)?;
    let gate_speedup: f64 = args.get_parsed("gate-speedup", 0.0)?;
    let out = args.get("out").unwrap_or("BENCH_sim.json").to_string();
    let host_start = Instant::now();
    let summary = spade_bench::perf::run_suite_perf(scale, k, pes)?;
    println!(
        "{:<6} {:<6} {:>12} {:>14} {:>14} {:>8}",
        "name", "kernel", "cycles", "event cyc/s", "naive cyc/s", "speedup"
    );
    for r in &summary.rows {
        println!(
            "{:<6} {:<6} {:>12} {:>14.3e} {:>14.3e} {:>7.2}x",
            r.workload,
            r.primitive.to_string().to_lowercase(),
            r.cycles,
            r.event_cps,
            r.naive_cps,
            r.speedup()
        );
    }
    println!(
        "geomean: event {:.3e} cyc/s, naive {:.3e} cyc/s, speedup {:.2}x ({:.1}s host)",
        summary.geomean_event_cps(),
        summary.geomean_naive_cps(),
        summary.geomean_speedup(),
        host_start.elapsed().as_secs_f64()
    );
    // `bench-advise` merges its own section into the same file; keep it.
    let mut json = summary.to_json();
    if let (JsonValue::Object(fields), Some(JsonValue::Object(old))) = (&mut json, read_json(&out))
    {
        fields.extend(old.into_iter().filter(|(k, _)| k == "bench_advise"));
    }
    std::fs::write(&out, json.render()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    if gate_speedup > 0.0 && summary.geomean_speedup() < gate_speedup {
        return Err(format!(
            "gate failed: geomean event-driver speedup {:.3}x is below the \
             required {gate_speedup:.2}x",
            summary.geomean_speedup()
        ));
    }
    Ok(())
}

/// `spade-cli dataset`: operations over the daemon's result-cache
/// catalog as a dataset.
fn dataset(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("export") => dataset_export(&argv[1..]),
        Some(other) => Err(format!("dataset: unknown subcommand '{other}' (export)")),
        None => Err("dataset: expected 'export' subcommand".into()),
    }
}

/// `dataset export`: the cache catalog as one JSON document, the input
/// to `model train`. Every row is decoded from an entry payload; entries
/// that fail their checks are skipped with a counted warning — a
/// damaged cache degrades the dataset, never the export.
fn dataset_export(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["cache-dir", "out"], &[])?;
    let dir = args.get("cache-dir").ok_or("--cache-dir is required")?;
    let doc =
        service::export_dataset(std::path::Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    let rendered = doc.render();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote {path}: {} entries ({} quarantined skipped)",
                doc.get("total").and_then(JsonValue::as_u64).unwrap_or(0),
                doc.get("skipped_quarantined")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            );
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

/// `spade-cli model`: fit and inspect plan-selection cost models.
fn model_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("train") => model_train(&argv[1..]),
        Some(other) => Err(format!("model: unknown subcommand '{other}' (train)")),
        None => Err("model: expected 'train' subcommand".into()),
    }
}

/// Recovers an [`RMatrixPolicy`] from the `r_policy` string the plan
/// JSON carries (the enum's `Debug` rendering).
fn policy_from_name(name: &str) -> Option<RMatrixPolicy> {
    match name {
        "Cache" => Some(RMatrixPolicy::Cache),
        "Bypass" => Some(RMatrixPolicy::Bypass),
        "BypassVictim" => Some(RMatrixPolicy::BypassVictim),
        _ => None,
    }
}

/// `model train`: fit a cost model from an exported dataset. Matrix
/// features are recomputed by regenerating each benchmark at `--scale`
/// (cache entries don't carry the matrix), so train against a dataset
/// swept at that same scale. Unusable entries (foreign benchmarks,
/// missing plans, sddmm rows) are skipped with a count, not an error.
fn model_train(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["dataset", "scale", "out", "report"], &[])?;
    let dataset_path = args.get("dataset").ok_or("--dataset is required")?;
    let scale = parse_scale(&args)?;
    let out = args.get("out").unwrap_or("spade.model");
    let text = std::fs::read_to_string(dataset_path).map_err(|e| format!("{dataset_path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{dataset_path}: {e}"))?;
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("dataset has no \"entries\" array")?;
    let mut features: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut rows: Vec<TrainingRow> = Vec::new();
    let mut skipped = 0usize;
    for entry in entries {
        let usable = (|| {
            let name = entry.get("benchmark")?.as_str()?;
            if entry.get("kernel")?.as_str()? != "spmm" {
                return None;
            }
            let bench = lookup_benchmark(name).ok()?;
            let plan = entry.get("plan")?;
            let feats = features
                .entry(name.to_string())
                .or_insert_with(|| MatrixFeatures::compute(&bench.generate(scale)).as_vec())
                .clone();
            Some(TrainingRow {
                benchmark: name.to_string(),
                features: feats,
                row_panel: plan.get("row_panel_size")?.as_usize()?,
                col_panel: plan.get("col_panel_size")?.as_usize()?,
                r_policy: policy_from_name(plan.get("r_policy")?.as_str()?)?,
                barriers: plan.get("barriers")?.as_bool()?,
                k: entry.get("k")?.as_usize()?,
                pes: entry.get("pes")?.as_usize()?,
                cycles: entry.get("cycles")?.as_u64()?,
            })
        })();
        match usable {
            Some(row) => rows.push(row),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("warning: {skipped} dataset entries were not usable as training rows");
    }
    let model = CostModel::fit(&rows)?;
    println!(
        "fitted on {} rows ({} held out): holdout MARE {:.3}{}",
        model.accuracy.train_rows,
        model.accuracy.holdout_rows,
        model.accuracy.holdout_mare,
        if model.confident() {
            ""
        } else {
            " — NOT confident; advise will use the heuristic"
        }
    );
    for (bench, n, mare) in &model.accuracy.per_benchmark {
        println!("  {bench:<6} {n:>5} rows  MARE {mare:.3}");
    }
    model.save(std::path::Path::new(out))?;
    println!("wrote {out}");
    if let Some(report) = args.get("report") {
        std::fs::write(report, model.accuracy.to_json().render())
            .map_err(|e| format!("{report}: {e}"))?;
        println!("wrote {report}");
    }
    Ok(())
}

/// The JSON document at `path`, if it exists and parses.
fn read_json(path: &str) -> Option<JsonValue> {
    JsonValue::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// Merges `section` under `key` into the JSON document at `path`,
/// preserving every other key — `bench-perf` and `bench-advise` write
/// the same summary file from different CI legs. A missing or
/// unparseable file starts a fresh document.
fn merge_bench_section(path: &str, key: &str, section: JsonValue) -> String {
    let mut fields: Vec<(String, JsonValue)> = match read_json(path) {
        Some(JsonValue::Object(fields)) => fields,
        _ => Vec::new(),
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = section,
        None => fields.push((key.to_string(), section)),
    }
    JsonValue::Object(fields).render()
}

/// `bench-advise`: measures plan-selection latency and quality across
/// the Figure 9 suite — the timed quick `find_opt` sweep per benchmark
/// versus the tiered advise scored by a leave-one-benchmark-out model —
/// and merges the `bench_advise` section into the bench summary JSON.
/// `--model-out`/`--report-out` save the full-sweep model and its
/// accuracy report as artifacts; `--gate-advise-speedup` (floor on the
/// advise speedup geomean) and `--gate-advise-quality` (ceiling on the
/// selected-plan cycles / Opt cycles geomean) turn the run into a
/// regression gate, failing after the summary is written.
fn bench_advise(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "scale",
            "k",
            "pes",
            "gate-advise-speedup",
            "gate-advise-quality",
            "out",
            "model-out",
            "report-out",
        ],
        &[],
    )?;
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let pes = parse_pes(&args)?;
    let gate_speedup: f64 = args.get_parsed("gate-advise-speedup", 0.0)?;
    let gate_quality: f64 = args.get_parsed("gate-advise-quality", 0.0)?;
    let out = args.get("out").unwrap_or("BENCH_sim.json").to_string();
    let runner = ParallelRunner::from_env();
    let bench = spade_bench::perf::run_advise_bench(scale, k, pes, &runner)?;
    println!(
        "{:<6} {:>12} {:>12} {:>7} {:>10} {:>11} {:>12} {:>9}",
        "name",
        "opt cyc",
        "advised cyc",
        "quality",
        "source",
        "advise \u{3bc}s",
        "find-opt \u{3bc}s",
        "speedup"
    );
    for r in &bench.rows {
        println!(
            "{:<6} {:>12} {:>12} {:>7.3} {:>10} {:>11.1} {:>12.0} {:>8.0}x",
            r.workload,
            r.opt_cycles,
            r.advised_cycles,
            r.quality(),
            r.source,
            r.advise_us,
            r.find_opt_us,
            r.speedup()
        );
    }
    println!(
        "advise geomean: quality {:.3}, speedup {:.0}x; model holdout MARE {:.3}",
        bench.geomean_quality(),
        bench.geomean_speedup(),
        bench.model.accuracy.holdout_mare
    );
    let merged = merge_bench_section(&out, "bench_advise", bench.to_json());
    std::fs::write(&out, merged).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    if let Some(path) = args.get("model-out") {
        bench.model.save(std::path::Path::new(path))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("report-out") {
        std::fs::write(path, bench.model.accuracy.to_json().render())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if gate_quality > 0.0 && bench.geomean_quality() > gate_quality {
        return Err(format!(
            "gate failed: advised-plan quality geomean {:.3} exceeds the \
             allowed {gate_quality:.2}\u{d7} of exhaustive Opt",
            bench.geomean_quality()
        ));
    }
    if gate_speedup > 0.0 && bench.geomean_speedup() < gate_speedup {
        return Err(format!(
            "gate failed: advise speedup geomean {:.1}x is below the \
             required {gate_speedup:.0}x",
            bench.geomean_speedup()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn info_runs() {
        dispatch(&argv(&["info"])).unwrap();
    }

    #[test]
    fn run_executes_a_tiny_benchmark() {
        dispatch(&argv(&[
            "run",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
        ]))
        .unwrap();
    }

    #[test]
    fn run_with_json_and_knobs() {
        dispatch(&argv(&[
            "run",
            "--benchmark",
            "kro",
            "--pes",
            "4",
            "--rp",
            "4",
            "--cp",
            "all",
            "--rmatrix",
            "victim",
            "--json",
        ]))
        .unwrap();
    }

    #[test]
    fn advise_runs() {
        dispatch(&argv(&["advise", "--benchmark", "roa", "--pes", "8"])).unwrap();
    }

    #[test]
    fn bad_pes_is_rejected() {
        assert!(dispatch(&argv(&["run", "--benchmark", "kro", "--pes", "3"])).is_err());
    }

    #[test]
    fn run_with_format_json() {
        dispatch(&argv(&[
            "run",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--format",
            "json",
        ]))
        .unwrap();
    }

    #[test]
    fn bad_format_and_zero_telemetry_are_rejected() {
        assert!(dispatch(&argv(&["run", "--benchmark", "myc", "--format", "xml"])).is_err());
        assert!(dispatch(&argv(&["run", "--benchmark", "myc", "--telemetry", "0"])).is_err());
    }

    #[test]
    fn request_doc_maps_flags_to_wire_fields() {
        let (values, switches) = request_flags("run", true);
        let args = Args::parse(
            &argv(&[
                "--benchmark",
                "myc",
                "--cp",
                "all",
                "--deadline-cycles",
                "7",
                "--addr",
                "127.0.0.1:1",
                "--barriers",
                "--no-cache",
            ]),
            &values,
            &switches,
        )
        .unwrap();
        let doc = JsonValue::Object(request_doc("run", &args).unwrap()).render();
        assert_eq!(
            doc,
            r#"{"cmd":"run","benchmark":"myc","cp":"all","deadline_cycles":7,"barriers":true,"no_cache":true}"#
        );
        let args = Args::parse(&argv(&["--k", "x"]), &values, &switches).unwrap();
        assert!(request_doc("run", &args).unwrap_err().contains("--k"));
    }

    #[test]
    fn trace_writes_a_valid_chrome_trace() {
        let path = std::env::temp_dir().join("spade_cli_trace_test.trace.json");
        dispatch(&argv(&[
            "trace",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--window",
            "256",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(spade_sim::json::validate(&text), Ok(()));
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"cat\":\"tile\""));
        assert!(text.contains("\"ph\":\"C\""), "telemetry counter tracks");
        // No wall-clock values: the trace is deterministic byte for byte.
        assert!(!text.contains("host_wall"));
    }

    #[test]
    fn bench_perf_writes_a_valid_summary() {
        let path = std::env::temp_dir().join("spade_cli_bench_perf_test.json");
        // The section `bench-advise` merged into the file survives.
        std::fs::write(&path, r#"{"geomean_speedup":0,"bench_advise":{"rows":[]}}"#).unwrap();
        dispatch(&argv(&[
            "bench-perf",
            "--scale",
            "tiny",
            "--k",
            "16",
            "--pes",
            "4",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(spade_sim::json::validate(&text), Ok(()));
        assert!(text.contains("\"geomean_speedup\""));
        assert!(text.contains("\"kernel\":\"sddmm\""));
        assert!(text.ends_with(r#","bench_advise":{"rows":[]}}"#), "{text}");
        assert_eq!(text.matches("geomean_speedup").count(), 1);
    }

    #[test]
    fn mm_roundtrip_via_tempfile() {
        let a = spade_matrix::Coo::from_triplets(32, 32, &[(0, 1, 1.0), (5, 7, 2.0), (31, 0, 3.0)])
            .unwrap();
        let path = std::env::temp_dir().join("spade_cli_test.mtx");
        let mut buf = Vec::new();
        mm::write_matrix_market(&a, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        dispatch(&argv(&[
            "mm",
            "--file",
            path.to_str().unwrap(),
            "--k",
            "16",
            "--pes",
            "4",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn advise_fast_and_exact_run() {
        dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--format",
            "json",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--exact",
            "--exhaustive",
        ]))
        .unwrap();
        let err = dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--fast",
            "--exact",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    /// The full offline loop: a swept cache (with one corrupt entry) →
    /// `dataset export` → `model train` → `advise --model`. Quarantined
    /// entries are skipped with a count, never a failure.
    #[test]
    fn dataset_export_model_train_advise_roundtrip() {
        use spade_bench::cache::ResultCache;
        let dir = std::env::temp_dir().join(format!("spade_cli_dataset_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let mut i = 0usize;
        for bench in ["MYC", "KRO"] {
            for k in [16u64, 32, 48] {
                for rp in [64u64, 256, 1024] {
                    for cp in [512u64, 4096] {
                        for rpol in ["Cache", "BypassVictim"] {
                            let payload = format!(
                                "{{\"benchmark\":\"{bench}\",\"kernel\":\"spmm\",\"k\":{k},\
                                 \"pes\":4,\"plan\":{{\"row_panel_size\":{rp},\
                                 \"col_panel_size\":{cp},\"r_policy\":\"{rpol}\",\
                                 \"c_policy\":\"Cache\",\"barriers\":false}},\
                                 \"report\":{{\"cycles\":{},\"dram_accesses\":7}}}}",
                                rp * 1000 + k
                            );
                            cache.put(&format!("e{i:03x}"), payload.as_bytes()).unwrap();
                            i += 1;
                        }
                    }
                }
            }
        }
        // One damaged entry: must be quarantined and skipped, not fatal.
        let victim = dir.join("e000.entry");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();

        let ds = dir.join("dataset.json");
        dispatch(&argv(&[
            "dataset",
            "export",
            "--cache-dir",
            dir.to_str().unwrap(),
            "--out",
            ds.to_str().unwrap(),
        ]))
        .unwrap();
        let doc = JsonValue::parse(&std::fs::read_to_string(&ds).unwrap()).unwrap();
        assert_eq!(doc.get("total").and_then(JsonValue::as_u64), Some(71));
        assert_eq!(
            doc.get("skipped_quarantined").and_then(JsonValue::as_u64),
            Some(1)
        );

        let model_path = dir.join("spade.model");
        let report_path = dir.join("accuracy.json");
        dispatch(&argv(&[
            "model",
            "train",
            "--dataset",
            ds.to_str().unwrap(),
            "--scale",
            "tiny",
            "--out",
            model_path.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = JsonValue::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert!(report
            .get("holdout_mare")
            .and_then(JsonValue::as_f64)
            .is_some());

        dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--model",
            model_path.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_batch_requires_benchmarks() {
        let err = dispatch(&argv(&["client", "batch", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--benchmarks"), "{err}");
    }

    #[test]
    fn client_batch_rejects_bad_lists() {
        // A list of separators is empty once trimmed.
        let err = dispatch(&argv(&[
            "client",
            "batch",
            "--addr",
            "127.0.0.1:1",
            "--benchmarks",
            ", ,",
        ]))
        .unwrap_err();
        assert!(err.contains("comma-separated"), "{err}");
        let err = dispatch(&argv(&[
            "client",
            "batch",
            "--addr",
            "127.0.0.1:1",
            "--benchmarks",
            "myc",
            "--k",
            "16,oops",
        ]))
        .unwrap_err();
        assert!(err.contains("--k: cannot parse 'oops'"), "{err}");
    }

    #[test]
    fn client_agg_requires_group_by() {
        let err = dispatch(&argv(&["client", "agg", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--group-by"), "{err}");
    }

    #[test]
    fn comma_lists_parse_and_trim() {
        assert_eq!(
            comma_list("benchmarks", "myc, kro ,pap").unwrap(),
            vec!["myc".to_string(), "kro".to_string(), "pap".to_string()]
        );
        assert_eq!(comma_list_u64("k", "16,32").unwrap().len(), 2);
    }
}
