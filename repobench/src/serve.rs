//! An in-process `spade_bench::service::Service` on loopback, and the
//! client side of its wire protocol.

use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spade_bench::service::{
    plan_json, Service, ServiceClient, ServiceConfig, ServiceHandle, ServiceSummary,
};
use spade_core::ExecutionPlan;
use spade_sim::JsonValue;

use crate::common::{Pair, K, PES, SCALE_NAME};

/// A daemon serving on `127.0.0.1` from its own thread.
pub struct Daemon {
    /// The bound address.
    pub addr: SocketAddr,
    handle: ServiceHandle,
    thread: Option<JoinHandle<std::io::Result<ServiceSummary>>>,
}

impl Daemon {
    /// Binds a daemon with `workers` simulation workers, a result cache in
    /// `cache_dir`, and the cost model at `model` (if any), and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// Fails when the socket cannot be bound or the thread not spawned.
    pub fn start(cache_dir: &Path, model: Option<&Path>, workers: usize) -> Result<Daemon, String> {
        let config = ServiceConfig {
            workers,
            max_connections: 8,
            read_timeout: Duration::from_millis(50),
            cache_dir: Some(cache_dir.to_path_buf()),
            log_json: false,
            model_path: model.map(Path::to_path_buf),
            ..ServiceConfig::default()
        };
        let service = Service::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = service.local_addr().map_err(|e| e.to_string())?;
        let handle = service.handle();
        let thread = std::thread::Builder::new()
            .name("repobench-daemon".into())
            .spawn(move || service.run())
            .map_err(|e| e.to_string())?;
        Ok(Daemon {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// A new client connection.
    ///
    /// # Errors
    ///
    /// Fails when the connection is refused.
    pub fn client(&self) -> Result<ServiceClient, String> {
        ServiceClient::connect(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Drains the daemon and returns its lifetime summary.
    ///
    /// # Errors
    ///
    /// Fails when the daemon thread panicked or its serve loop failed.
    pub fn stop(mut self) -> Result<ServiceSummary, String> {
        self.handle.request_shutdown();
        let thread = self.thread.take().expect("daemon thread joined once");
        match thread.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.request_shutdown();
            let _ = thread.join();
        }
    }
}

/// One reply line with its round-trip time.
#[derive(Debug)]
pub struct Reply {
    /// The parsed reply.
    pub doc: JsonValue,
    /// The reply line as received.
    pub raw: String,
    /// Round trip, milliseconds.
    pub ms: f64,
}

impl Reply {
    /// `true` when the envelope says `ok:true`.
    pub fn ok(&self) -> bool {
        self.doc.get("ok").and_then(JsonValue::as_bool) == Some(true)
    }

    /// The envelope's `cached` flag.
    pub fn cached(&self) -> Option<bool> {
        self.doc.get("cached").and_then(JsonValue::as_bool)
    }

    /// The envelope's `key`.
    pub fn key(&self) -> Option<&str> {
        self.doc.get("key").and_then(JsonValue::as_str)
    }

    /// The bytes after `"result":` in a `run` envelope, which the daemon
    /// splices in verbatim (the envelope's last field).
    pub fn result_bytes(&self) -> Option<&str> {
        let at = self.raw.find(",\"result\":")?;
        self.raw[at + 10..].strip_suffix('}')
    }

    /// `result.report.cycles` of a `run` reply.
    pub fn cycles(&self) -> Option<u64> {
        self.doc
            .get("result")?
            .get("report")?
            .get("cycles")?
            .as_u64()
    }

    /// A short description of a failed reply.
    pub fn error(&self) -> String {
        match self.doc.get("error") {
            Some(e) => e.render(),
            None => self.raw.chars().take(200).collect(),
        }
    }
}

/// Sends one request line and waits for its reply.
///
/// # Errors
///
/// Fails on a socket error or a reply that is not JSON.
pub fn call(client: &mut ServiceClient, line: &str) -> Result<Reply, String> {
    let t = Instant::now();
    let raw = client
        .request_line(line)
        .map_err(|e| format!("request: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let doc = JsonValue::parse(&raw).map_err(|e| format!("reply is not JSON: {e}"))?;
    Ok(Reply { doc, raw, ms })
}

/// A plan as the wire carries it: the fields `plan_json` renders, which
/// `advise` returns and every `run` reply echoes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePlan {
    /// Row panel size.
    pub rp: u64,
    /// Column panel size.
    pub cp: u64,
    /// rMatrix policy (`Cache`, `Bypass`, `BypassVictim`).
    pub r_policy: String,
    /// cMatrix policy.
    pub c_policy: String,
    /// Whether barriers are inserted.
    pub barriers: bool,
}

impl WirePlan {
    /// Reads a `plan_json` object.
    pub fn from_json(doc: &JsonValue) -> Option<WirePlan> {
        Some(WirePlan {
            rp: doc.get("row_panel_size")?.as_u64()?,
            cp: doc.get("col_panel_size")?.as_u64()?,
            r_policy: doc.get("r_policy")?.as_str()?.to_string(),
            c_policy: doc.get("c_policy")?.as_str()?.to_string(),
            barriers: doc.get("barriers")?.as_bool()?,
        })
    }

    /// The wire form of `plan`.
    pub fn of(plan: &ExecutionPlan) -> WirePlan {
        WirePlan::from_json(&plan_json(plan)).expect("plan_json renders every field")
    }

    /// The `run` request fields selecting this plan.
    fn fields(&self) -> [(String, JsonValue); 4] {
        let rmatrix = match self.r_policy.as_str() {
            "Bypass" => "bypass",
            "BypassVictim" => "victim",
            _ => "cache",
        };
        [
            ("rp".into(), self.rp.into()),
            ("cp".into(), self.cp.into()),
            ("rmatrix".into(), rmatrix.into()),
            ("barriers".into(), self.barriers.into()),
        ]
    }
}

/// The `run`-shaped fields of one job: pair, scale, K, PEs, the plan knobs
/// (the daemon's Base plan when `plan` is `None`) and the cycle deadline
/// (the daemon's default when `None`).
fn job_fields(
    pair: Pair,
    plan: Option<&WirePlan>,
    deadline: Option<u64>,
) -> Vec<(String, JsonValue)> {
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("benchmark".into(), pair.bench.short_name().into()),
        ("kernel".into(), pair.kernel().into()),
        ("scale".into(), SCALE_NAME.into()),
        ("k".into(), K.into()),
        ("pes".into(), PES.into()),
    ];
    if let Some(p) = plan {
        fields.extend(p.fields());
    }
    if let Some(d) = deadline {
        fields.push(("deadline_cycles".into(), d.into()));
    }
    fields
}

/// A `run` request line.
pub fn run_line(pair: Pair, plan: Option<&WirePlan>, deadline: Option<u64>) -> String {
    let mut fields = vec![("cmd".to_string(), JsonValue::from("run"))];
    fields.extend(job_fields(pair, plan, deadline));
    JsonValue::Object(fields).render()
}

/// An `advise` request line for `pair`'s graph.
pub fn advise_line(pair: Pair) -> String {
    JsonValue::object([
        ("cmd", "advise".into()),
        ("benchmark", pair.bench.short_name().into()),
        ("scale", SCALE_NAME.into()),
        ("k", K.into()),
        ("pes", PES.into()),
    ])
    .render()
}

/// A `batch` request line running `plans` on `pair`.
pub fn batch_line(pair: Pair, plans: &[WirePlan], deadline: Option<u64>) -> String {
    let jobs = plans
        .iter()
        .map(|p| JsonValue::Object(job_fields(pair, Some(p), deadline)))
        .collect();
    JsonValue::object([("cmd", "batch".into()), ("jobs", JsonValue::Array(jobs))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_core::Primitive;
    use spade_matrix::generators::Benchmark;

    #[test]
    fn result_bytes_are_the_spliced_tail() {
        let raw = r#"{"ok":true,"cmd":"run","cached":true,"key":"ab","result":{"x":{"y":1}}}"#;
        let reply = Reply {
            doc: JsonValue::parse(raw).unwrap(),
            raw: raw.into(),
            ms: 1.0,
        };
        assert_eq!(reply.result_bytes(), Some(r#"{"x":{"y":1}}"#));
        assert_eq!(reply.cached(), Some(true));
        assert_eq!(reply.key(), Some("ab"));
    }

    #[test]
    fn request_lines_parse() {
        let pair = Pair {
            bench: Benchmark::Kro,
            prim: Primitive::Sddmm,
        };
        let run = JsonValue::parse(&run_line(pair, None, None)).unwrap();
        assert_eq!(
            run.get("benchmark").and_then(JsonValue::as_str),
            Some("KRO")
        );
        assert_eq!(run.get("kernel").and_then(JsonValue::as_str), Some("sddmm"));
        assert!(run.get("rp").is_none());
        assert!(run.get("deadline_cycles").is_none());
        let a = pair.bench.generate(spade_matrix::generators::Scale::Tiny);
        let plan = WirePlan::of(&ExecutionPlan::spmm_base(&a).unwrap());
        assert_eq!(plan.r_policy, "Cache");
        let batch =
            JsonValue::parse(&batch_line(pair, &[plan.clone(), plan.clone()], Some(7))).unwrap();
        let jobs = batch.get("jobs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0].get("rmatrix").and_then(JsonValue::as_str),
            Some("cache")
        );
        let run = JsonValue::parse(&run_line(pair, Some(&plan), None)).unwrap();
        assert_eq!(run.get("rp").and_then(JsonValue::as_u64), Some(plan.rp));
    }
}
