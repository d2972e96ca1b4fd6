//! Windowed time-series telemetry for the cycle loop.
//!
//! The paper's key analyses are time-resolved — Figure 10 plots
//! requests-per-cycle and pipeline occupancy *over the run* — but the
//! aggregate [`MemStats`](crate::MemStats)/report counters only say how a
//! run ended, not when it went bad. This module samples cumulative counters
//! into fixed-width cycle windows as the simulation advances.
//!
//! Design constraints:
//!
//! * **Pure observation.** The recorder only reads counters; it never feeds
//!   anything back into timing, so a telemetry-enabled run produces
//!   bit-identical aggregate results to a telemetry-disabled run.
//! * **Near-zero overhead when off.** The driver holds an
//!   `Option<TelemetryRecorder>`; when `None`, the per-iteration cost is
//!   one branch. When on, counters are materialized only at window
//!   boundaries (the probe is a closure, called lazily).
//! * **Fast-forward exact.** The cycle loop skips idle spans where no
//!   counter can change, so windows crossed in one jump are emitted as
//!   zero-delta samples — identical to what a cycle-by-cycle walk would
//!   have recorded.

use crate::json::JsonValue;
use crate::{Cycle, LevelKind, LINE_BYTES, PE_GHZ};

/// Cumulative counter snapshot taken at a window boundary. The driver
/// (the `spade-core` cycle loop) fills this from its memory system and PE
/// state; the recorder differences consecutive snapshots into samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryCounters {
    /// Requests issued into the memory system (Figure 10 numerator).
    pub requests_issued: u64,
    /// STLB page walks.
    pub tlb_misses: u64,
    /// Faults fired by the injection plan.
    pub faults_injected: u64,
    /// Accesses per hierarchy level, indexed like [`LevelKind::ALL`].
    pub level_accesses: [u64; 5],
    /// Hits per hierarchy level, indexed like [`LevelKind::ALL`].
    pub level_hits: [u64; 5],
    /// Vector operations executed across all PEs.
    pub vops: u64,
    /// Sparse tuples consumed across all PEs.
    pub tuples: u64,
    /// Cycles stalled waiting for a vector-register slot, summed over PEs.
    pub stall_no_vr: u64,
    /// Cycles stalled waiting for a reservation-station slot, summed over
    /// PEs.
    pub stall_no_rs: u64,
    /// Cycles stalled waiting for a dense load-queue slot, summed over PEs.
    pub stall_no_dense_lq: u64,
    /// Per-PE cumulative vOp counts (the busy proxy for occupancy plots).
    pub pe_vops: Vec<u64>,
}

impl TelemetryCounters {
    /// Copies `src` into `self`, reusing the per-PE buffer's allocation
    /// (a derived `clone` would reallocate it on every window boundary).
    pub fn copy_from(&mut self, src: &TelemetryCounters) {
        let TelemetryCounters {
            requests_issued,
            tlb_misses,
            faults_injected,
            level_accesses,
            level_hits,
            vops,
            tuples,
            stall_no_vr,
            stall_no_rs,
            stall_no_dense_lq,
            pe_vops,
        } = src;
        self.requests_issued = *requests_issued;
        self.tlb_misses = *tlb_misses;
        self.faults_injected = *faults_injected;
        self.level_accesses = *level_accesses;
        self.level_hits = *level_hits;
        self.vops = *vops;
        self.tuples = *tuples;
        self.stall_no_vr = *stall_no_vr;
        self.stall_no_rs = *stall_no_rs;
        self.stall_no_dense_lq = *stall_no_dense_lq;
        self.pe_vops.clear();
        self.pe_vops.extend_from_slice(pe_vops);
    }
}

/// Instantaneous (non-cumulative) gauges read at a window boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryGauges {
    /// Reads currently in flight across all PE load queues.
    pub in_flight_loads: u64,
    /// PEs that have not yet terminated.
    pub active_pes: u32,
}

/// One fixed-width window of activity: counter deltas over the window plus
/// gauges read at its close.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySample {
    /// First cycle covered by this window.
    pub start: Cycle,
    /// Window width in cycles. Equal to the configured window except for
    /// the final, possibly partial, window of a run.
    pub len: Cycle,
    /// Memory requests issued during the window.
    pub requests: u64,
    /// DRAM accesses during the window.
    pub dram_accesses: u64,
    /// STLB page walks during the window.
    pub tlb_misses: u64,
    /// Injected faults fired during the window.
    pub faults: u64,
    /// Per-level accesses during the window, indexed like
    /// [`LevelKind::ALL`].
    pub level_accesses: [u64; 5],
    /// Per-level hits during the window, indexed like [`LevelKind::ALL`].
    pub level_hits: [u64; 5],
    /// Vector operations executed during the window (all PEs).
    pub vops: u64,
    /// Sparse tuples consumed during the window (all PEs).
    pub tuples: u64,
    /// Vector-register stall cycles during the window (all PEs).
    pub stall_no_vr: u64,
    /// Reservation-station stall cycles during the window (all PEs).
    pub stall_no_rs: u64,
    /// Dense load-queue stall cycles during the window (all PEs).
    pub stall_no_dense_lq: u64,
    /// Per-PE vOps executed during the window (busy/occupancy proxy).
    pub pe_vops: Vec<u64>,
    /// Reads in flight when the window closed.
    pub in_flight_loads: u64,
    /// PEs still running when the window closed.
    pub active_pes: u32,
}

impl TelemetrySample {
    /// Memory requests per cycle over this window; zero for a zero-length
    /// window (cannot occur for recorder-produced samples, but the
    /// degenerate case is defined rather than a division by zero).
    pub fn requests_per_cycle(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.requests as f64 / self.len as f64
        }
    }

    /// Achieved DRAM bandwidth over this window in GB/s at the PE clock;
    /// zero for a zero-length window.
    pub fn dram_gbps(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            (self.dram_accesses * LINE_BYTES) as f64 / self.len as f64 * PE_GHZ
        }
    }

    /// Hit rate at `level` over this window; zero when the level saw no
    /// accesses during the window.
    pub fn hit_rate(&self, level: LevelKind) -> f64 {
        let i = level_index(level);
        if self.level_accesses[i] == 0 {
            0.0
        } else {
            self.level_hits[i] as f64 / self.level_accesses[i] as f64
        }
    }

    /// This sample as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let levels = LevelKind::ALL
            .iter()
            .enumerate()
            .map(|(i, level)| {
                (
                    level_name(*level),
                    JsonValue::object([
                        ("accesses", self.level_accesses[i].into()),
                        ("hits", self.level_hits[i].into()),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        JsonValue::object([
            ("start", self.start.into()),
            ("len", self.len.into()),
            ("requests", self.requests.into()),
            ("requests_per_cycle", self.requests_per_cycle().into()),
            ("dram_accesses", self.dram_accesses.into()),
            ("dram_gbps", self.dram_gbps().into()),
            ("tlb_misses", self.tlb_misses.into()),
            ("faults", self.faults.into()),
            ("levels", JsonValue::object(levels)),
            ("vops", self.vops.into()),
            ("tuples", self.tuples.into()),
            ("stall_no_vr", self.stall_no_vr.into()),
            ("stall_no_rs", self.stall_no_rs.into()),
            ("stall_no_dense_lq", self.stall_no_dense_lq.into()),
            (
                "pe_vops",
                JsonValue::Array(self.pe_vops.iter().map(|v| (*v).into()).collect()),
            ),
            ("in_flight_loads", self.in_flight_loads.into()),
            ("active_pes", self.active_pes.into()),
        ])
    }
}

/// Stable lowercase names for hierarchy levels in JSON artifacts.
pub fn level_name(level: LevelKind) -> &'static str {
    match level {
        LevelKind::L1 => "l1",
        LevelKind::Bbf => "bbf",
        LevelKind::L2 => "l2",
        LevelKind::Llc => "llc",
        LevelKind::Dram => "dram",
    }
}

fn level_index(level: LevelKind) -> usize {
    LevelKind::ALL.iter().position(|l| *l == level).unwrap()
}

/// A completed time series: the configured window width plus one sample
/// per window, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySeries {
    /// Configured window width in cycles.
    pub window: Cycle,
    /// Samples in increasing `start` order; the last may be partial.
    pub samples: Vec<TelemetrySample>,
}

impl TelemetrySeries {
    /// This series as a JSON object:
    /// `{"window": W, "samples": [...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("window", self.window.into()),
            (
                "samples",
                JsonValue::Array(self.samples.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

/// Samples cumulative counters into fixed-width windows as the cycle loop
/// advances. Drive it with [`advance_to`](Self::advance_to) at the top of
/// every loop iteration and close it with [`finish`](Self::finish).
#[derive(Debug)]
pub struct TelemetryRecorder {
    window: Cycle,
    num_pes: usize,
    /// End (exclusive) of the currently open window.
    next_boundary: Cycle,
    last: TelemetryCounters,
    /// Reusable buffer handed to the probe, so boundary crossings in the
    /// steady state allocate nothing on the driver side.
    scratch: TelemetryCounters,
    samples: Vec<TelemetrySample>,
}

impl TelemetryRecorder {
    /// Creates a recorder with the given window width (must be nonzero;
    /// the driver validates this) for a system with `num_pes` PEs.
    pub fn new(window: Cycle, num_pes: usize) -> Self {
        assert!(window > 0, "telemetry window must be at least one cycle");
        TelemetryRecorder {
            window,
            num_pes,
            next_boundary: window,
            last: TelemetryCounters {
                pe_vops: vec![0; num_pes],
                ..TelemetryCounters::default()
            },
            scratch: TelemetryCounters::default(),
            samples: Vec::new(),
        }
    }

    /// Closes every window that ends at or before `now`. `probe` is called
    /// at most once, and only when at least one window closes — this keeps
    /// the common (no boundary crossed) path to a single comparison. The
    /// probe fills the recorder's scratch snapshot (stale contents from the
    /// previous boundary included — overwrite, don't accumulate) and
    /// returns the instantaneous gauges.
    ///
    /// Counter activity at cycle `t` must be recorded by the driver *after*
    /// calling `advance_to(t, ..)`, so it lands in the window containing
    /// `t`. Windows crossed without a call in between (idle fast-forward)
    /// are emitted as zero-delta samples, which is exact because no counter
    /// changes while every agent sleeps.
    pub fn advance_to<F>(&mut self, now: Cycle, probe: F)
    where
        F: FnOnce(&mut TelemetryCounters) -> TelemetryGauges,
    {
        if now < self.next_boundary {
            return;
        }
        let mut counters = std::mem::take(&mut self.scratch);
        let gauges = probe(&mut counters);
        // The first closing window absorbs all activity since the last
        // snapshot; any further windows crossed in the same jump were idle.
        self.emit_delta(&counters, gauges, self.window);
        while now >= self.next_boundary {
            self.emit_zero(gauges);
        }
        self.scratch = counters;
    }

    /// Closes any remaining full windows and the final partial window
    /// (covering cycles up to and including `end`), returning the series.
    pub fn finish<F>(mut self, end: Cycle, probe: F) -> TelemetrySeries
    where
        F: FnOnce(&mut TelemetryCounters) -> TelemetryGauges,
    {
        let mut counters = std::mem::take(&mut self.scratch);
        let gauges = probe(&mut counters);
        if end >= self.next_boundary {
            self.emit_delta(&counters, gauges, self.window);
            while end >= self.next_boundary {
                self.emit_zero(gauges);
            }
        }
        // The open window [next_boundary - window, end] is partial (or
        // empty when the run ended exactly on a boundary, in which case it
        // still records the final gauge readings over zero-activity tail).
        let start = self.next_boundary - self.window;
        if end >= start {
            self.emit(&counters, gauges, start, end - start + 1);
        }
        TelemetrySeries {
            window: self.window,
            samples: self.samples,
        }
    }

    fn emit_delta(&mut self, counters: &TelemetryCounters, gauges: TelemetryGauges, len: Cycle) {
        let start = self.next_boundary - self.window;
        self.emit(counters, gauges, start, len);
        self.next_boundary += self.window;
    }

    fn emit_zero(&mut self, gauges: TelemetryGauges) {
        let start = self.next_boundary - self.window;
        let sample = TelemetrySample {
            start,
            len: self.window,
            pe_vops: vec![0; self.num_pes],
            in_flight_loads: gauges.in_flight_loads,
            active_pes: gauges.active_pes,
            ..TelemetrySample::default()
        };
        self.samples.push(sample);
        self.next_boundary += self.window;
    }

    fn emit(
        &mut self,
        counters: &TelemetryCounters,
        gauges: TelemetryGauges,
        start: Cycle,
        len: Cycle,
    ) {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let mut level_accesses = [0u64; 5];
        let mut level_hits = [0u64; 5];
        for (i, slot) in level_accesses.iter_mut().enumerate() {
            *slot = d(counters.level_accesses[i], self.last.level_accesses[i]);
        }
        for (i, slot) in level_hits.iter_mut().enumerate() {
            *slot = d(counters.level_hits[i], self.last.level_hits[i]);
        }
        let pe_vops = counters
            .pe_vops
            .iter()
            .zip(self.last.pe_vops.iter())
            .map(|(now, then)| d(*now, *then))
            .collect();
        self.samples.push(TelemetrySample {
            start,
            len,
            requests: d(counters.requests_issued, self.last.requests_issued),
            dram_accesses: level_accesses[4],
            tlb_misses: d(counters.tlb_misses, self.last.tlb_misses),
            faults: d(counters.faults_injected, self.last.faults_injected),
            level_accesses,
            level_hits,
            vops: d(counters.vops, self.last.vops),
            tuples: d(counters.tuples, self.last.tuples),
            stall_no_vr: d(counters.stall_no_vr, self.last.stall_no_vr),
            stall_no_rs: d(counters.stall_no_rs, self.last.stall_no_rs),
            stall_no_dense_lq: d(counters.stall_no_dense_lq, self.last.stall_no_dense_lq),
            pe_vops,
            in_flight_loads: gauges.in_flight_loads,
            active_pes: gauges.active_pes,
        });
        self.last.copy_from(counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe closure reporting cumulative `requests`/`vops` for a
    /// single-PE system, in the fill-the-scratch style the driver uses.
    fn probe(
        requests: u64,
        vops: u64,
        gauges: TelemetryGauges,
    ) -> impl FnOnce(&mut TelemetryCounters) -> TelemetryGauges {
        move |c| {
            c.requests_issued = requests;
            c.vops = vops;
            c.pe_vops.clear();
            c.pe_vops.push(vops);
            gauges
        }
    }

    #[test]
    fn windows_close_at_boundaries_with_deltas() {
        let mut r = TelemetryRecorder::new(10, 1);
        r.advance_to(5, |_| unreachable!("no boundary crossed yet"));
        r.advance_to(10, probe(4, 2, TelemetryGauges::default()));
        let series = r.finish(14, probe(9, 3, TelemetryGauges::default()));
        assert_eq!(series.window, 10);
        assert_eq!(series.samples.len(), 2);
        assert_eq!(series.samples[0].start, 0);
        assert_eq!(series.samples[0].len, 10);
        assert_eq!(series.samples[0].requests, 4);
        assert_eq!(series.samples[0].pe_vops, vec![2]);
        assert_eq!(series.samples[1].start, 10);
        assert_eq!(series.samples[1].len, 5);
        assert_eq!(series.samples[1].requests, 5);
        assert_eq!(series.samples[1].pe_vops, vec![1]);
    }

    #[test]
    fn fast_forward_jump_emits_zero_windows() {
        let mut r = TelemetryRecorder::new(10, 1);
        // Jump from cycle 0 straight to cycle 35: windows [0,10), [10,20),
        // [20,30) all close; the first takes the deltas, the rest are idle.
        let gauges = TelemetryGauges {
            in_flight_loads: 3,
            active_pes: 1,
        };
        r.advance_to(35, probe(7, 1, gauges));
        let series = r.finish(35, probe(7, 1, gauges));
        assert_eq!(series.samples.len(), 4);
        assert_eq!(series.samples[0].requests, 7);
        assert_eq!(series.samples[1].requests, 0);
        assert_eq!(series.samples[1].in_flight_loads, 3);
        assert_eq!(series.samples[2].requests, 0);
        assert_eq!(series.samples[3].start, 30);
        assert_eq!(series.samples[3].len, 6);
    }

    #[test]
    fn sample_rates_handle_degenerate_windows() {
        let s = TelemetrySample::default();
        assert_eq!(s.requests_per_cycle(), 0.0);
        assert_eq!(s.dram_gbps(), 0.0);
        assert_eq!(s.hit_rate(LevelKind::L1), 0.0);
    }

    #[test]
    fn json_is_valid() {
        let mut r = TelemetryRecorder::new(16, 2);
        let fill = |c: &mut TelemetryCounters| {
            c.copy_from(&TelemetryCounters {
                requests_issued: 5,
                level_accesses: [5, 1, 1, 1, 1],
                level_hits: [4, 0, 0, 0, 0],
                pe_vops: vec![2, 3],
                vops: 5,
                ..TelemetryCounters::default()
            });
            TelemetryGauges::default()
        };
        r.advance_to(16, fill);
        let series = r.finish(20, fill);
        let text = series.to_json().render();
        assert_eq!(crate::json::validate(&text), Ok(()));
        assert!(text.contains("\"requests_per_cycle\""));
        assert!(text.contains("\"llc\""));
    }
}
