//! The vector register file (VRF) and its tag CAM (§5.1 ④).
//!
//! Each vector register holds one cache line. The vOp generator tags
//! registers with the memory line they cache; before allocating, it checks
//! the tag CAM so that a line already resident (from a previous vOp) is
//! reused without a memory request. A status RAM tracks dirty/used bits,
//! and the write-back manager drains dirty registers between the
//! 25 % / 15 % occupancy thresholds (§5.1 ⑨).
//!
//! The register file is a structure of arrays: one array per field plus
//! four status bitsets (`invalid`, `ready`, `dirty`, `unref`). A victim or
//! write-back pick walks only the set bits of one mask word per 64
//! registers, the way the hardware's status RAM answers in one cycle.
//! Fills in flight sit in a completion-time heap, so promoting arrived
//! fills and finding the next arrival never scan the registers.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use spade_sim::{Cycle, DataClass, Line};

/// Index of a vector register.
pub type VrId = usize;

const NO_TAG: Line = Line::MAX;

/// Multiply-xorshift hash of one line address for the tag CAM. SipHash's
/// protection against crafted keys buys nothing here: the CAM holds at
/// most one entry per register in a table sized for the register count,
/// so even a fully colliding key set costs a probe bounded by that size.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Result of a [`Vrf::lookup_or_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// The line was already tagged in a register — no memory request
    /// needed.
    Reused(VrId),
    /// A register was allocated; the caller must issue the fill (or mark
    /// the register ready for write-only destinations).
    Allocated(VrId),
    /// No register available: all are dirty, loading or referenced.
    Stall,
}

/// The vector register file.
///
/// # Example
///
/// ```
/// use spade_core::vrf::{AllocOutcome, Vrf};
/// use spade_sim::DataClass;
///
/// let mut vrf = Vrf::new(4);
/// let a = vrf.lookup_or_alloc(100, DataClass::CMatrix);
/// assert!(matches!(a, AllocOutcome::Allocated(_)));
/// let b = vrf.lookup_or_alloc(100, DataClass::CMatrix);
/// assert!(matches!(b, AllocOutcome::Reused(_)));
/// ```
#[derive(Debug, Clone)]
pub struct Vrf {
    tag: Vec<Line>,
    /// What [`Vrf::ready_at`] answers: `Cycle::MAX` while invalid, the
    /// fill time while loading, 0 once resident.
    ready_at: Vec<Cycle>,
    /// Completion time of the last vOp writing each register — the RAW
    /// chain for accumulations into the same line.
    last_write_done: Vec<Cycle>,
    /// LRU stamp for the eviction and write-back choices.
    last_use: Vec<u64>,
    /// Pending vOps referencing each register (operand or destination).
    refs: Vec<u32>,
    class: Vec<DataClass>,
    /// Status bitsets, bit `id % 64` of word `id / 64`; bits past the last
    /// register are always clear. A register is loading when neither its
    /// `invalid` nor its `ready` bit is set.
    invalid: Vec<u64>,
    ready: Vec<u64>,
    dirty: Vec<u64>,
    /// Set while `refs` is zero.
    unref: Vec<u64>,
    cam: HashMap<Line, VrId, BuildHasherDefault<LineHasher>>,
    /// (completion, register) of every fill in flight; its size bounds
    /// the PE's dense load queue.
    loads: BinaryHeap<Reverse<(Cycle, VrId)>>,
    dirty_count: usize,
    tick: u64,
}

/// Word `w` of a bitset over `num_regs` registers with every bit set.
fn live_bits(num_regs: usize, w: usize) -> u64 {
    if (w + 1) * 64 <= num_regs {
        u64::MAX
    } else {
        (1 << (num_regs % 64)) - 1
    }
}

/// The register ids of the set bits in word `w` of a bitset, lowest first.
fn ids(w: usize, mut word: u64) -> impl Iterator<Item = VrId> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let id = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            id
        })
    })
}

fn set_bit(words: &mut [u64], id: VrId) {
    words[id / 64] |= 1 << (id % 64);
}

fn clear_bit(words: &mut [u64], id: VrId) {
    words[id / 64] &= !(1 << (id % 64));
}

fn has_bit(words: &[u64], id: VrId) -> bool {
    words[id / 64] & (1 << (id % 64)) != 0
}

impl Vrf {
    /// Creates a VRF with `num_regs` registers.
    ///
    /// # Panics
    ///
    /// Panics if `num_regs` is zero.
    pub fn new(num_regs: usize) -> Self {
        assert!(num_regs > 0, "the VRF needs at least one register");
        let words = num_regs.div_ceil(64);
        let all: Vec<u64> = (0..words).map(|w| live_bits(num_regs, w)).collect();
        let mut cam = HashMap::default();
        cam.reserve(num_regs);
        Vrf {
            tag: vec![NO_TAG; num_regs],
            ready_at: vec![Cycle::MAX; num_regs],
            last_write_done: vec![0; num_regs],
            last_use: vec![0; num_regs],
            refs: vec![0; num_regs],
            class: vec![DataClass::RMatrix; num_regs],
            invalid: all.clone(),
            ready: vec![0; words],
            dirty: vec![0; words],
            unref: all,
            cam,
            loads: BinaryHeap::new(),
            dirty_count: 0,
            tick: 0,
        }
    }

    /// Total registers.
    pub fn num_regs(&self) -> usize {
        self.tag.len()
    }

    /// Currently dirty registers.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Dirty fraction in `[0, 1]`.
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_count as f64 / self.tag.len() as f64
    }

    /// The least-recently-used register among the set bits of `mask(w)`
    /// that `eligible` accepts; ties keep the lowest index.
    fn lru(&self, mask: impl Fn(usize) -> u64, eligible: impl Fn(VrId) -> bool) -> Option<VrId> {
        let mut best = None;
        let mut best_use = u64::MAX;
        for w in 0..self.invalid.len() {
            for id in ids(w, mask(w)) {
                let last_use = self.last_use[id];
                if last_use < best_use && eligible(id) {
                    best = Some(id);
                    best_use = last_use;
                }
            }
        }
        best
    }

    /// Finds `line` in the tag CAM or allocates a register for it.
    ///
    /// Allocation prefers invalid registers, then the least-recently-used
    /// clean, unreferenced, resident register (silently evicted — clean
    /// data needs no write-back). Returns [`AllocOutcome::Stall`] when
    /// nothing can be evicted.
    pub fn lookup_or_alloc(&mut self, line: Line, class: DataClass) -> AllocOutcome {
        self.tick += 1;
        if let Some(&id) = self.cam.get(&line) {
            self.last_use[id] = self.tick;
            return AllocOutcome::Reused(id);
        }
        let slot = match self.invalid.iter().position(|&w| w != 0) {
            Some(w) => Some(w * 64 + self.invalid[w].trailing_zeros() as usize),
            None => self.lru(|w| self.ready[w] & !self.dirty[w] & self.unref[w], |_| true),
        };
        let Some(id) = slot else {
            return AllocOutcome::Stall;
        };
        if self.tag[id] != NO_TAG {
            self.cam.remove(&self.tag[id]);
        }
        self.tag[id] = line;
        self.ready_at[id] = Cycle::MAX;
        self.last_write_done[id] = 0;
        self.last_use[id] = self.tick;
        self.refs[id] = 0;
        self.class[id] = class;
        clear_bit(&mut self.invalid, id);
        clear_bit(&mut self.ready, id);
        clear_bit(&mut self.dirty, id);
        set_bit(&mut self.unref, id);
        self.cam.insert(line, id);
        AllocOutcome::Allocated(id)
    }

    /// Marks a fill of a just-allocated register in flight, completing
    /// at `ready_at`.
    pub fn set_loading(&mut self, id: VrId, ready_at: Cycle) {
        self.ready_at[id] = ready_at;
        clear_bit(&mut self.invalid, id);
        clear_bit(&mut self.ready, id);
        self.loads.push(Reverse((ready_at, id)));
    }

    /// Marks a just-allocated register resident without a fill
    /// (write-only destinations: SDDMM output lines are fully produced,
    /// never read, §5.1).
    pub fn set_ready(&mut self, id: VrId) {
        self.ready_at[id] = 0;
        clear_bit(&mut self.invalid, id);
        set_bit(&mut self.ready, id);
    }

    /// Promotes registers whose fills have arrived by `now`; returns
    /// whether any did.
    pub fn complete_loads(&mut self, now: Cycle) -> bool {
        let mut promoted = false;
        while let Some(&Reverse((done, id))) = self.loads.peek() {
            if done > now {
                break;
            }
            self.loads.pop();
            self.set_ready(id);
            promoted = true;
        }
        promoted
    }

    /// Fills in flight.
    pub fn loads_in_flight(&self) -> usize {
        self.loads.len()
    }

    /// Earliest in-flight fill completion, if any (for idle fast-forward).
    pub fn next_load_completion(&self) -> Option<Cycle> {
        self.loads.peek().map(|&Reverse((done, _))| done)
    }

    /// The cycle at which `id` has its data (now or in the future);
    /// `Cycle::MAX` while invalid.
    pub fn ready_at(&self, id: VrId) -> Cycle {
        self.ready_at[id]
    }

    /// Adds a pending-vOp reference.
    pub fn add_ref(&mut self, id: VrId) {
        self.refs[id] += 1;
        clear_bit(&mut self.unref, id);
    }

    /// Releases a pending-vOp reference. The caller (the PE retire stage)
    /// balances every `add_ref` with one release; an unbalanced release is
    /// a pipeline bug, checked in debug builds.
    pub fn release_ref(&mut self, id: VrId) {
        debug_assert!(self.refs[id] > 0, "unbalanced release on VR {id}");
        self.refs[id] = self.refs[id].saturating_sub(1);
        if self.refs[id] == 0 {
            set_bit(&mut self.unref, id);
        }
    }

    /// The RAW chain: when the last write to `id` completes.
    pub fn last_write_done(&self, id: VrId) -> Cycle {
        self.last_write_done[id]
    }

    /// Records a write to `id` completing at `done` and marks it dirty.
    pub fn record_write(&mut self, id: VrId, done: Cycle) {
        if !has_bit(&self.dirty, id) {
            self.dirty_count += 1;
            set_bit(&mut self.dirty, id);
        }
        self.last_write_done[id] = self.last_write_done[id].max(done);
    }

    /// Picks a dirty register eligible for write-back: resident,
    /// unreferenced, and not written again in the future (`now` ≥ its last
    /// write completion). Least-recently-used dirty registers are drained
    /// first — they are the least likely to be written again.
    pub fn writeback_candidate(&mut self, now: Cycle) -> Option<VrId> {
        self.lru(
            |w| self.ready[w] & self.dirty[w] & self.unref[w],
            |id| self.last_write_done[id] <= now,
        )
    }

    /// Cleans `id` after its write-back is issued, returning the line and
    /// data class to write. Only dirty registers are write-back
    /// candidates; cleaning a clean one is a pipeline bug, checked in
    /// debug builds.
    pub fn clean(&mut self, id: VrId) -> (Line, DataClass) {
        let dirty = has_bit(&self.dirty, id);
        debug_assert!(dirty, "cleaning a clean register");
        if dirty {
            self.dirty_count -= 1;
            clear_bit(&mut self.dirty, id);
        }
        (self.tag[id], self.class[id])
    }

    /// All dirty registers' (line, class), for the final VRF drain of a
    /// WB&Invalidate; the registers become clean and invalid, and fills
    /// still in flight are forgotten.
    pub fn drain_dirty(&mut self) -> Vec<(Line, DataClass)> {
        let mut out = Vec::new();
        self.drain_dirty_into(&mut out);
        out
    }

    /// [`Vrf::drain_dirty`] into a caller-owned buffer (appending in
    /// register-index order, the same order `drain_dirty` produces), so a
    /// PE flushing repeatedly allocates nothing in steady state. Returns
    /// how many entries were appended.
    pub fn drain_dirty_into<B: Extend<(Line, DataClass)>>(&mut self, out: &mut B) -> usize {
        let n = self.dirty_count;
        for w in 0..self.dirty.len() {
            out.extend(ids(w, self.dirty[w]).map(|id| (self.tag[id], self.class[id])));
        }
        self.cam.clear();
        self.loads.clear();
        self.tag.fill(NO_TAG);
        self.ready_at.fill(Cycle::MAX);
        self.last_write_done.fill(0);
        self.last_use.fill(0);
        self.refs.fill(0);
        self.class.fill(DataClass::RMatrix);
        for w in 0..self.dirty.len() {
            self.invalid[w] = live_bits(self.tag.len(), w);
            self.ready[w] = 0;
            self.dirty[w] = 0;
            self.unref[w] = live_bits(self.tag.len(), w);
        }
        self.dirty_count = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CL: DataClass = DataClass::CMatrix;

    #[test]
    fn reuse_hits_the_cam() {
        let mut v = Vrf::new(2);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(5, CL) else {
            panic!()
        };
        assert_eq!(v.lookup_or_alloc(5, CL), AllocOutcome::Reused(a));
    }

    #[test]
    fn allocation_prefers_invalid_then_lru_clean() {
        let mut v = Vrf::new(2);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        let AllocOutcome::Allocated(b) = v.lookup_or_alloc(2, CL) else {
            panic!()
        };
        v.set_ready(b);
        // Touch line 1 to make register `a` MRU.
        v.lookup_or_alloc(1, CL);
        let AllocOutcome::Allocated(c) = v.lookup_or_alloc(3, CL) else {
            panic!()
        };
        assert_eq!(c, b, "LRU clean register must be evicted");
        // Line 2's tag must be gone from the CAM.
        assert!(matches!(
            v.lookup_or_alloc(2, CL),
            AllocOutcome::Stall | AllocOutcome::Allocated(_)
        ));
    }

    #[test]
    fn stall_when_all_regs_are_busy() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_loading(a, 100); // in flight -> not evictable
        assert_eq!(v.lookup_or_alloc(2, CL), AllocOutcome::Stall);
        v.complete_loads(100);
        v.add_ref(a); // referenced -> still not evictable
        assert_eq!(v.lookup_or_alloc(2, CL), AllocOutcome::Stall);
        v.release_ref(a);
        assert!(matches!(
            v.lookup_or_alloc(2, CL),
            AllocOutcome::Allocated(_)
        ));
    }

    #[test]
    fn dirty_registers_are_not_silently_evicted() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        v.record_write(a, 10);
        assert_eq!(v.lookup_or_alloc(2, CL), AllocOutcome::Stall);
    }

    #[test]
    fn load_completion_promotes_state() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_loading(a, 50);
        assert_eq!(v.ready_at(a), 50);
        v.complete_loads(49);
        assert_eq!(v.ready_at(a), 50);
        v.complete_loads(50);
        assert_eq!(v.ready_at(a), 0);
    }

    #[test]
    fn raw_chain_tracks_last_writer() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        assert_eq!(v.last_write_done(a), 0);
        v.record_write(a, 20);
        v.record_write(a, 15); // out-of-order completion cannot regress
        assert_eq!(v.last_write_done(a), 20);
    }

    #[test]
    fn dirty_accounting_and_thresholds() {
        let mut v = Vrf::new(4);
        for line in 0..3 {
            let AllocOutcome::Allocated(id) = v.lookup_or_alloc(line, CL) else {
                panic!()
            };
            v.set_ready(id);
            v.record_write(id, 0);
        }
        assert_eq!(v.dirty_count(), 3);
        assert!((v.dirty_fraction() - 0.75).abs() < 1e-12);
        let c = v.writeback_candidate(10).unwrap();
        let (line, _) = v.clean(c);
        assert!(line < 3);
        assert_eq!(v.dirty_count(), 2);
    }

    #[test]
    fn writeback_waits_for_pending_writers() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        v.record_write(a, 100); // write completes in the future
        assert_eq!(v.writeback_candidate(50), None);
        assert_eq!(v.writeback_candidate(100), Some(a));
    }

    #[test]
    fn drain_returns_all_dirty_lines_and_clears() {
        let mut v = Vrf::new(4);
        for line in 0..4 {
            let AllocOutcome::Allocated(id) = v.lookup_or_alloc(line, CL) else {
                panic!()
            };
            v.set_ready(id);
            if line % 2 == 0 {
                v.record_write(id, 0);
            }
        }
        let mut drained: Vec<Line> = v.drain_dirty().into_iter().map(|(l, _)| l).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 2]);
        assert_eq!(v.dirty_count(), 0);
        assert_eq!(v.loads_in_flight(), 0);
        // Every register is reusable again.
        for line in 10..14 {
            assert!(matches!(
                v.lookup_or_alloc(line, CL),
                AllocOutcome::Allocated(_)
            ));
        }
    }

    #[test]
    fn fills_are_in_flight_until_they_complete() {
        let mut v = Vrf::new(2);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        v.record_write(a, 0);
        assert_eq!(v.loads_in_flight(), 0);
        let AllocOutcome::Allocated(b) = v.lookup_or_alloc(2, CL) else {
            panic!()
        };
        v.set_loading(b, 99);
        assert_eq!(v.loads_in_flight(), 1);
        assert_eq!(v.next_load_completion(), Some(99));
        assert!(!v.complete_loads(98));
        assert!(v.complete_loads(99));
        assert_eq!((v.loads_in_flight(), v.next_load_completion()), (0, None));
    }

    #[test]
    #[should_panic]
    fn zero_register_vrf_is_rejected() {
        let _ = Vrf::new(0);
    }
}
