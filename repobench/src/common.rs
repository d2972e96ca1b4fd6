//! What every workload shares: the fixed experiment shape, the run
//! context, failure accounting and the phase result.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spade_bench::cache::Fnv64;
use spade_core::Primitive;
use spade_matrix::generators::{Benchmark, Scale};

use crate::stats::{median, Latency, Metric};

/// Matrix scale of every served and swept input.
pub const SCALE: Scale = Scale::Small;
/// Wire name of [`SCALE`].
pub const SCALE_NAME: &str = "small";
/// Dense row size.
pub const K: usize = 32;
/// Simulated processing elements.
pub const PES: usize = 8;
/// Upper bound on benchmark threads and client connections.
pub const MAX_THREADS: usize = 2;
/// Tail percentile every latency aims for (see [`Latency::of`]).
pub const TAIL_PCT: f64 = 90.0;

/// One (graph, kernel) pair of the Table-2 suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// The graph.
    pub bench: Benchmark,
    /// The kernel.
    pub prim: Primitive,
}

impl Pair {
    /// The 20 pairs: 10 graphs × {SpMM, SDDMM}, graph-major.
    pub fn all() -> Vec<Pair> {
        Benchmark::ALL
            .iter()
            .flat_map(|&bench| {
                [Primitive::Spmm, Primitive::Sddmm]
                    .into_iter()
                    .map(move |prim| Pair { bench, prim })
            })
            .collect()
    }

    /// Wire name of the kernel.
    pub fn kernel(&self) -> &'static str {
        match self.prim {
            Primitive::Spmm => "spmm",
            Primitive::Sddmm => "sddmm",
        }
    }

    /// `graph/kernel`, for messages and digests.
    pub fn label(&self) -> String {
        format!("{}/{}", self.bench.short_name(), self.kernel())
    }
}

/// Settings of one benchmark run.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds of the main phase.
    pub seconds: f64,
    /// Worker threads and client connections: `min(nproc, 2)`.
    pub threads: usize,
    /// Host parallelism, recorded with every result.
    pub nproc: usize,
    /// Per-run scratch directory under the checkout; removed on drop.
    work: PathBuf,
    next_dir: AtomicU64,
}

impl Ctx {
    /// A context whose scratch directory is `work`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn new(seed: u64, seconds: f64, work: PathBuf) -> Result<Ctx, String> {
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Ok(Ctx {
            seed,
            seconds,
            threads: nproc.clamp(1, MAX_THREADS),
            nproc,
            work,
            next_dir: AtomicU64::new(0),
        })
    }

    /// A new empty directory inside the scratch directory.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn fresh_dir(&self, label: &str) -> Result<PathBuf, String> {
        let n = self.next_dir.fetch_add(1, Ordering::Relaxed);
        let dir = self.work.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Removes a directory tree, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Attempted, failed and wrong operations, shared by client threads.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    wrong: AtomicU64,
    problems: Mutex<Vec<String>>,
}

/// Problems kept verbatim for the report; later ones are only counted.
const MAX_PROBLEMS: usize = 8;

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed operation (an error reply or a refusal).
    pub fn fail(&self, why: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.note(why);
    }

    /// Counts one operation whose output failed a check; it also counts
    /// as failed.
    pub fn wrong(&self, why: String) {
        self.wrong.fetch_add(1, Ordering::Relaxed);
        self.fail(why);
    }

    fn note(&self, why: String) {
        let mut p = self.problems.lock().expect("problem list poisoned");
        if p.len() < MAX_PROBLEMS {
            p.push(why);
        }
    }

    /// `(attempted, failed, wrong)`.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.wrong.load(Ordering::Relaxed),
        )
    }

    /// The first few problems.
    pub fn problems(&self) -> Vec<String> {
        self.problems.lock().expect("problem list poisoned").clone()
    }

    /// Adds another tally's counts and problems into this one.
    pub fn absorb(&self, other: &Tally) {
        let (a, f, w) = other.counts();
        self.attempted.fetch_add(a, Ordering::Relaxed);
        self.failed.fetch_add(f, Ordering::Relaxed);
        self.wrong.fetch_add(w, Ordering::Relaxed);
        for p in other.problems() {
            self.note(p);
        }
    }
}

/// What one run of one workload phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operation accounting.
    pub tally: Tally,
    /// Set-up times of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Operations completed and seconds taken in each window of the
    /// measured interval (a pass, or a time slice of a closed loop).
    pub windows: Vec<(u64, f64)>,
    /// The workload's headline latency samples, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Digest of the canonical simulated reports the phase produced.
    pub digest: u64,
    /// Human-readable lines, including the workload's named metrics.
    pub notes: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Phase {
    /// Completed operations per second: the median over windows, so one
    /// window slowed by a burst of host load moves it little.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .filter(|(_, secs)| *secs > 0.0)
            .map(|&(ops, secs)| ops as f64 / secs)
            .collect();
        median(&rates).unwrap_or(0.0)
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let lat = Latency::of(&self.latency_ms, TAIL_PCT);
        vec![
            Metric::new("setup_s", "s", median(&self.setup_s).unwrap_or(0.0)),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
            Metric::new("ops_per_s", "1/s", self.ops_per_s()),
            Metric::new("p50_ms", "ms", lat.map_or(0.0, |l| l.p50_ms)),
            Metric::new("p90_ms", "ms", lat.map_or(0.0, |l| l.tail_ms)),
        ]
    }
}

/// Time slices a closed loop's measured interval is cut into; the
/// reported rate is their median.
pub const TIME_SLICES: usize = 5;

/// Cuts `[0, elapsed_s]` into [`TIME_SLICES`] equal slices and counts the
/// operations completed in each (`done_at`: completion times, seconds).
/// Operations completing after the last slice's end — the loop's final
/// in-flight requests — count in the last slice.
pub fn time_slices(done_at: &[f64], elapsed_s: f64) -> Vec<(u64, f64)> {
    let width = elapsed_s / TIME_SLICES as f64;
    let mut counts = vec![0u64; TIME_SLICES];
    for &at in done_at {
        counts[((at / width) as usize).min(TIME_SLICES - 1)] += 1;
    }
    counts.into_iter().map(|n| (n, width)).collect()
}

/// Runs `setup` `reps` times and returns every repetition's wall time
/// with the last repetition's product; earlier products are dropped
/// (and cleaned up by their own `Drop`) before the next starts.
///
/// # Errors
///
/// Propagates the first set-up failure.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("at least one set-up ran")))
}

/// Order-independent digest over `(label, canonical report JSON)` pairs:
/// sorted, then hashed, so two commits that simulate the same statistics
/// print the same digest whatever the interleaving.
pub fn report_digest(mut entries: Vec<(String, String)>) -> u64 {
    entries.sort();
    entries.dedup();
    let mut h = Fnv64::new();
    for (label, report) in &entries {
        h.write(label.as_bytes());
        h.write(b"\0");
        h.write(report.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `seed` mixed with a salt and a stream index, so each workload and
/// each pass draws from its own stream of the same seed.
pub fn stream(seed: u64, salt: u64, index: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_u64(salt);
    h.write_u64(index);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_cover_the_suite_twice() {
        let pairs = Pair::all();
        assert_eq!(pairs.len(), 20);
        assert_eq!(pairs[0].label(), "ASI/spmm");
        assert_eq!(pairs[1].label(), "ASI/sddmm");
    }

    #[test]
    fn digest_ignores_order_and_duplicates() {
        let a = vec![("x".into(), "1".into()), ("y".into(), "2".into())];
        let b = vec![
            ("y".into(), "2".into()),
            ("x".into(), "1".into()),
            ("x".into(), "1".into()),
        ];
        assert_eq!(report_digest(a.clone()), report_digest(b));
        assert_ne!(
            report_digest(a),
            report_digest(vec![("x".into(), "1".into()), ("y".into(), "3".into())])
        );
    }

    #[test]
    fn tally_counts_wrong_as_failed() {
        let t = Tally::default();
        t.attempt();
        t.attempt();
        t.wrong("mismatch".into());
        assert_eq!(t.counts(), (2, 1, 1));
        assert_eq!(t.problems(), vec!["mismatch".to_string()]);
    }

    #[test]
    fn slices_count_every_operation_once() {
        let slices = time_slices(&[0.1, 0.5, 1.9, 2.0, 9.9, 12.0], 10.0);
        assert_eq!(slices.len(), TIME_SLICES);
        assert_eq!(
            slices.iter().map(|s| s.0).collect::<Vec<_>>(),
            [3, 1, 0, 0, 2]
        );
        assert!(slices.iter().all(|s| s.1 == 2.0));
        let phase = Phase {
            windows: vec![(10, 1.0), (30, 1.0), (20, 1.0)],
            ..Phase::default()
        };
        assert_eq!(phase.ops_per_s(), 20.0);
    }

    #[test]
    fn streams_differ_by_salt_and_index() {
        assert_ne!(stream(1, 2, 3), stream(1, 2, 4));
        assert_ne!(stream(1, 2, 3), stream(1, 3, 3));
        assert_eq!(stream(1, 2, 3), stream(1, 2, 3));
    }
}
