//! Process-level daemon tests: a real `spade-cli serve` child process,
//! killed with real signals. The in-process suite
//! (`spade-bench/tests/service_robustness.rs`) covers protocol
//! behaviour; this one covers what only a process boundary can show —
//! SIGKILL mid-write with a restart over the same cache directory, and
//! SIGTERM draining to a zero exit code.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use spade_bench::service::ServiceClient;
use spade_sim::JsonValue;

const RUN_MYC: &str = r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"scale":"tiny"}"#;

/// A daemon child process plus the address parsed from its banner line.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Starts `spade-cli serve` on an OS-assigned port over `cache_dir`
    /// and waits for the banner line announcing the actual address.
    fn start(cache_dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spade-cli"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--read-timeout-ms",
                "50",
                "--cache-dir",
            ])
            .arg(cache_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spade-cli serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        let doc = JsonValue::parse(banner.trim())
            .unwrap_or_else(|e| panic!("bad banner {banner:?}: {e}"));
        let addr: SocketAddr = doc
            .get("serving")
            .and_then(JsonValue::as_str)
            .expect("banner has serving address")
            .parse()
            .expect("banner address parses");
        assert_eq!(doc.get("protocol").and_then(JsonValue::as_u64), Some(4));
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    fn client(&self) -> ServiceClient {
        // The listener is up before the banner prints, so this connects
        // on the first try.
        ServiceClient::connect(&self.addr).expect("connect to daemon")
    }

    /// Sends `signum` to the child (std has no cross-signal API).
    fn signal(&self, signum: &str) {
        let status = Command::new("kill")
            .args([signum, &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill {signum} failed");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spade_daemon_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn parse(response: &str) -> JsonValue {
    JsonValue::parse(response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

/// SIGKILL leaves no chance to clean up; the torn state a crash can
/// leave behind (a stray `.partial`, a truncated entry) is injected
/// explicitly so the recovery path is exercised deterministically. The
/// restarted daemon must quarantine the damage, recompute, and serve
/// bytes identical to the pre-crash result.
#[test]
fn sigkill_mid_write_then_restart_serves_identical_bytes() {
    let dir = temp_dir("kill9");
    let fresh_result;
    let key;
    {
        let daemon = Daemon::start(&dir);
        let mut client = daemon.client();
        let cold = parse(&client.request_line(RUN_MYC).expect("cold run"));
        assert_eq!(cold.get("cached").and_then(JsonValue::as_bool), Some(false));
        fresh_result = cold.get("result").expect("result").render();
        key = cold
            .get("key")
            .and_then(JsonValue::as_str)
            .expect("cache key")
            .to_string();

        // Put a second request in flight and SIGKILL while it may be
        // anywhere in its lifecycle — admission, simulation, or store.
        let addr = daemon.addr;
        let in_flight = std::thread::spawn(move || {
            let mut c = ServiceClient::connect(&addr).expect("connect");
            // The reply may never come; that is the point.
            let _ =
                c.request_line(r#"{"cmd":"run","benchmark":"kro","k":16,"pes":4,"no_cache":true}"#);
        });
        std::thread::sleep(Duration::from_millis(30));
        daemon.signal("-KILL");
        in_flight.join().expect("in-flight client thread");
        // No summary line on SIGKILL — death was immediate.
    }

    // Deterministic torn-write injection on top of whatever the kill
    // left: a garbage partial (crashed writer) and a truncated entry
    // (interrupted rename target — the worst case the checksum footer
    // exists to catch).
    let entry = dir.join(format!("{key}.entry"));
    let good_bytes = std::fs::read(&entry).expect("entry file exists");
    std::fs::write(dir.join(format!("{key}.999.0.partial")), b"torn garbage").unwrap();
    std::fs::write(&entry, &good_bytes[..good_bytes.len() / 2]).unwrap();

    {
        let daemon = Daemon::start(&dir);
        let mut client = daemon.client();
        // The stray partial was swept on open.
        assert!(
            !dir.join(format!("{key}.999.0.partial")).exists(),
            "partial files must be swept at startup"
        );
        // The truncated entry fails its checksum: quarantined, missed,
        // recomputed — and the recomputed bytes match the original run.
        let recovered = parse(&client.request_line(RUN_MYC).expect("recovered run"));
        assert_eq!(
            recovered.get("cached").and_then(JsonValue::as_bool),
            Some(false),
            "corrupt entry must not be served"
        );
        assert_eq!(
            recovered.get("result").expect("result").render(),
            fresh_result
        );
        assert!(dir.join("quarantine").exists(), "damage goes to quarantine");
        // And the slot is clean again: the next probe is a hit with the
        // same bytes.
        let warm = parse(&client.request_line(RUN_MYC).expect("warm run"));
        assert_eq!(warm.get("cached").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(warm.get("result").expect("result").render(), fresh_result);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SIGKILL never drains, so whatever the next daemon lists must come
/// from the entry files alone: a restart's `query` lists every key the
/// killed daemon stored.
#[test]
fn sigkill_restart_queries_every_stored_key() {
    let dir = temp_dir("kill9_restart");
    let mut keys = Vec::new();
    {
        let daemon = Daemon::start(&dir);
        let mut client = daemon.client();
        for req in [
            RUN_MYC,
            r#"{"cmd":"run","benchmark":"kro","k":16,"pes":4,"scale":"tiny"}"#,
        ] {
            let doc = parse(&client.request_line(req).expect("run"));
            assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
            keys.push(
                doc.get("key")
                    .and_then(JsonValue::as_str)
                    .expect("key")
                    .to_string(),
            );
        }
        daemon.signal("-KILL");
        // Dropped here: no drain, no summary — death was immediate.
    }

    let daemon = Daemon::start(&dir);
    let mut client = daemon.client();
    let rows = parse(&client.request_line(r#"{"cmd":"query"}"#).expect("query"));
    let result = rows.get("result").expect("result");
    assert_eq!(result.get("total").and_then(JsonValue::as_u64), Some(2));
    let mut listed: Vec<&str> = result
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("entries")
        .iter()
        .filter_map(|e| e.get("key").and_then(JsonValue::as_str))
        .collect();
    listed.sort_unstable();
    keys.sort();
    assert_eq!(listed, keys, "the restart must list every stored key");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM is the supervisor's stop button: the daemon drains, prints
/// its lifetime summary, and exits 0.
#[test]
fn sigterm_drains_flushes_and_exits_zero() {
    let dir = temp_dir("sigterm");
    let mut daemon = Daemon::start(&dir);
    let mut client = daemon.client();
    let run = parse(&client.request_line(RUN_MYC).expect("run"));
    assert_eq!(run.get("ok").and_then(JsonValue::as_bool), Some(true));

    daemon.signal("-TERM");
    let status = daemon.child.wait().expect("wait for daemon");
    assert!(status.success(), "SIGTERM must exit 0, got {status}");

    // The summary line made it out before exit.
    let mut summary = String::new();
    daemon.stdout.read_line(&mut summary).expect("read summary");
    let doc = parse(summary.trim());
    assert_eq!(doc.get("served_ok").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        doc.get("cache")
            .and_then(|c| c.get("stores"))
            .and_then(JsonValue::as_u64),
        Some(1)
    );
    // The machine-readable summary embeds the final metrics snapshot,
    // with the run counted.
    let snap = spade_bench::metrics::MetricsSnapshot::from_json(
        doc.get("metrics").expect("summary has metrics"),
    )
    .expect("summary metrics decode");
    assert_eq!(
        snap.counter("spade_requests_total", &[("cmd", "run"), ("outcome", "ok")]),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the built `spade-cli` with `args`, returning success + stdout.
fn cli(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spade-cli"))
        .args(args)
        .output()
        .expect("run spade-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Asserts two response lines carry the same `key` and byte-identical
/// `result` documents.
fn assert_same_key_and_result(served: &str, local: &str) {
    let key = |line: &str| parse(line.trim()).get("key").cloned();
    assert!(key(served).is_some(), "no key in {served}");
    assert_eq!(key(served), key(local));
    let result = |line: &str| {
        line.trim()
            .split_once(",\"result\":")
            .map(|(_, r)| r.to_string())
    };
    assert!(result(served).is_some(), "no result in {served}");
    assert_eq!(result(served), result(local));
}

/// An advise reply up to its `latency_us`, the host timing that ends it.
fn without_latency(line: &str) -> &str {
    line.trim()
        .split_once(",\"latency_us\":")
        .expect("advise reply has latency_us")
        .0
}

/// The typed `client` subcommands, end to end against a live daemon:
/// run (json and text), status, a Prometheus scrape, a dataset query,
/// a wire-served trace byte-compared against the locally produced file,
/// and local run/search/advise replies compared with the served ones.
#[test]
fn client_subcommands_drive_the_daemon_end_to_end() {
    let dir = temp_dir("client");
    let mut daemon = Daemon::start(&dir);
    let addr = daemon.addr.to_string();

    let (ok, out) = cli(&[
        "client",
        "run",
        "--addr",
        &addr,
        "--benchmark",
        "myc",
        "--k",
        "16",
        "--pes",
        "4",
        "--scale",
        "tiny",
        "--format",
        "json",
    ]);
    assert!(ok, "client run failed: {out}");
    let doc = parse(out.trim());
    assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(false));
    let key = doc
        .get("key")
        .and_then(JsonValue::as_str)
        .expect("run key")
        .to_string();
    // A local run is the daemon without a socket: its line is the cold
    // daemon's reply, key and result bytes included.
    let (ok, local) = cli(&[
        "run",
        "--benchmark",
        "myc",
        "--k",
        "16",
        "--pes",
        "4",
        "--scale",
        "tiny",
        "--format",
        "json",
    ]);
    assert!(ok, "local run failed: {local}");
    assert_same_key_and_result(&out, &local);

    let (ok, out) = cli(&[
        "client",
        "run",
        "--addr",
        &addr,
        "--benchmark",
        "myc",
        "--k",
        "16",
        "--pes",
        "4",
        "--scale",
        "tiny",
    ]);
    assert!(ok, "client run (text) failed: {out}");
    assert!(out.contains("cycles") && out.contains("cached"), "{out}");

    let (ok, out) = cli(&["client", "status", "--addr", &addr]);
    assert!(ok, "client status failed: {out}");
    assert!(out.contains("served") && out.contains("cache"), "{out}");

    let (ok, out) = cli(&["client", "metrics", "--addr", &addr, "--prom"]);
    assert!(ok, "client metrics failed: {out}");
    assert!(
        out.contains("spade_requests_total{cmd=\"run\",outcome=\"ok\"} 2"),
        "scrape missing run counter:\n{out}"
    );
    assert!(out.contains("spade_cache_hits_total 1"), "{out}");

    let (ok, out) = cli(&[
        "client", "query", "--addr", &addr, "--kind", "run", "--format", "json",
    ]);
    assert!(ok, "client query failed: {out}");
    let entries = parse(out.trim());
    let entries = entries
        .get("result")
        .and_then(|r| r.get("entries"))
        .and_then(JsonValue::as_array)
        .expect("query entries");
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].get("key").and_then(JsonValue::as_str),
        Some(key.as_str())
    );

    // Wire-served trace vs the locally written file: byte-identical.
    let remote = dir.join("remote.trace.json");
    let local = dir.join("local.trace.json");
    let (ok, out) = cli(&[
        "client",
        "trace",
        "--addr",
        &addr,
        "--benchmark",
        "myc",
        "--k",
        "16",
        "--pes",
        "4",
        "--scale",
        "tiny",
        "--window",
        "64",
        "--out",
        remote.to_str().unwrap(),
    ]);
    assert!(ok, "client trace failed: {out}");
    let (ok, out) = cli(&[
        "trace",
        "myc",
        "--scale",
        "tiny",
        "--k",
        "16",
        "--pes",
        "4",
        "--window",
        "64",
        "--out",
        local.to_str().unwrap(),
    ]);
    assert!(ok, "local trace failed: {out}");
    let remote_bytes = std::fs::read(&remote).expect("remote trace file");
    let local_bytes = std::fs::read(&local).expect("local trace file");
    assert!(
        remote_bytes == local_bytes,
        "wire-served trace differs from the local file"
    );

    // A batch sweep through the typed client: the myc job is already
    // cached from the runs above, the kro job simulates fresh — one
    // request, per-job outcomes.
    let (ok, out) = cli(&[
        "client",
        "batch",
        "--addr",
        &addr,
        "--benchmarks",
        "myc,kro",
        "--k",
        "16",
        "--pes",
        "4",
        "--scale",
        "tiny",
        "--format",
        "json",
    ]);
    assert!(ok, "client batch failed: {out}");
    let doc = parse(out.trim());
    let result = doc.get("result").expect("batch result");
    assert_eq!(result.get("total").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(result.get("succeeded").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(result.get("cached").and_then(JsonValue::as_u64), Some(1));
    let jobs = result
        .get("jobs")
        .and_then(JsonValue::as_array)
        .expect("batch jobs");
    assert_eq!(
        jobs[0].get("cached").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        jobs[1].get("cached").and_then(JsonValue::as_bool),
        Some(false)
    );

    // Server-side aggregation: best-plans is the per-benchmark fold.
    let (ok, out) = cli(&["client", "best-plans", "--addr", &addr]);
    assert!(ok, "client best-plans failed: {out}");
    let lower = out.to_lowercase();
    assert!(
        lower.contains("group_by benchmark") && lower.contains("myc") && lower.contains("kro"),
        "best-plans output incomplete:\n{out}"
    );
    let (ok, out) = cli(&[
        "client",
        "agg",
        "--addr",
        &addr,
        "--group-by",
        "pes",
        "--format",
        "json",
    ]);
    assert!(ok, "client agg failed: {out}");
    let doc = parse(out.trim());
    assert_eq!(
        doc.get("result")
            .and_then(|r| r.get("groups_matched"))
            .and_then(JsonValue::as_u64),
        Some(1),
        "every seeded entry ran at 4 PEs"
    );

    // Local search and advise answer as the daemon does: search key and
    // result bytes match, advise everything but its selection latency.
    let search = [
        "search",
        "--benchmark",
        "myc",
        "--k",
        "16",
        "--pes",
        "4",
        "--scale",
        "tiny",
        "--format",
        "json",
    ];
    let (ok, served) = cli(&[&["client"], &search[..1], &["--addr", &addr], &search[1..]].concat());
    assert!(ok, "client search failed: {served}");
    let (ok, local) = cli(&search);
    assert!(ok, "local search failed: {local}");
    assert_same_key_and_result(&served, &local);
    let advise = [
        "advise",
        "--benchmark",
        "myc",
        "--k",
        "16",
        "--pes",
        "4",
        "--scale",
        "tiny",
        "--format",
        "json",
    ];
    let (ok, served) = cli(&[&["client"], &advise[..1], &["--addr", &addr], &advise[1..]].concat());
    assert!(ok, "client advise failed: {served}");
    let (ok, local) = cli(&advise);
    assert!(ok, "local advise failed: {local}");
    assert_eq!(without_latency(&served), without_latency(&local));

    let (ok, out) = cli(&["client", "shutdown", "--addr", &addr]);
    assert!(ok, "client shutdown failed: {out}");
    let status = daemon.child.wait().expect("wait for daemon");
    assert!(status.success(), "drain after client shutdown must exit 0");
    let _ = std::fs::remove_dir_all(&dir);
}
