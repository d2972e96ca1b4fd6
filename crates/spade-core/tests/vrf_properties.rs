//! Randomized tests of the vector register file: CAM consistency,
//! reference counting, and write-back eligibility under arbitrary
//! operation sequences drawn from a deterministic RNG stream, and a
//! lockstep comparison of the bitset register file against a plain
//! array-of-structs reference model.

use std::collections::HashMap;

use spade_core::vrf::{AllocOutcome, VrId, Vrf};
use spade_matrix::rng::Rng64;
use spade_sim::{Cycle, DataClass, Line};

/// A randomized VRF workout: allocate/reuse lines, complete loads, write,
/// clean — mirroring what the vOp generator and write-back manager do.
#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    CompleteLoads(u64),
    Write(usize, u64),
    ReleaseOne,
    CleanCandidate(u64),
}

fn random_op(rng: &mut Rng64) -> Op {
    match rng.bounded(5) {
        0 => Op::Lookup(rng.gen_range(0..32u64)),
        1 => Op::CompleteLoads(rng.gen_range(0..2000u64)),
        2 => Op::Write(rng.gen_range(0..8usize), rng.gen_range(0..2000u64)),
        3 => Op::ReleaseOne,
        _ => Op::CleanCandidate(rng.gen_range(0..4000u64)),
    }
}

#[test]
fn vrf_invariants_hold_under_arbitrary_sequences() {
    let mut rng = Rng64::seed_from_u64(0x0e4f);
    for case in 0..256 {
        let num_ops = rng.gen_range(1usize..200);
        let ops: Vec<Op> = (0..num_ops).map(|_| random_op(&mut rng)).collect();

        let mut vrf = Vrf::new(8);
        // Shadow state: how many refs we have taken, per register.
        let mut refs_taken: Vec<u32> = vec![0; 8];
        let mut ready: Vec<bool> = vec![false; 8];
        let mut now = 0u64;

        for op in ops {
            match op {
                Op::Lookup(line) => {
                    match vrf.lookup_or_alloc(line, DataClass::CMatrix) {
                        AllocOutcome::Allocated(id) => {
                            // Caller contract: every allocation is followed
                            // by a fill (or immediate ready).
                            vrf.set_loading(id, now + 10);
                            ready[id] = false;
                            vrf.add_ref(id);
                            refs_taken[id] += 1;
                            // A second lookup of the same line must reuse.
                            assert_eq!(
                                vrf.lookup_or_alloc(line, DataClass::CMatrix),
                                AllocOutcome::Reused(id),
                                "case {case}"
                            );
                        }
                        AllocOutcome::Reused(id) => {
                            vrf.add_ref(id);
                            refs_taken[id] += 1;
                        }
                        AllocOutcome::Stall => {
                            // Legal only when every register is pinned:
                            // loading, referenced, or dirty.
                            assert!(
                                (0..8).all(|i| refs_taken[i] > 0
                                    || vrf.ready_at(i) > 0
                                    || vrf.dirty_count() > 0),
                                "case {case}: stall with a free register"
                            );
                        }
                    }
                }
                Op::CompleteLoads(t) => {
                    now = now.max(t);
                    vrf.complete_loads(now);
                    for (i, r) in ready.iter_mut().enumerate() {
                        if vrf.ready_at(i) == 0 {
                            *r = true;
                        }
                    }
                }
                Op::Write(i, t) => {
                    let id = i % 8;
                    if ready[id] && vrf.ready_at(id) == 0 {
                        vrf.record_write(id, t);
                        assert!(vrf.last_write_done(id) >= t, "case {case}");
                    }
                }
                Op::ReleaseOne => {
                    if let Some(id) = (0..8).find(|&i| refs_taken[i] > 0) {
                        vrf.release_ref(id);
                        refs_taken[id] -= 1;
                    }
                }
                Op::CleanCandidate(t) => {
                    now = now.max(t);
                    if let Some(id) = vrf.writeback_candidate(now) {
                        // Eligibility contract.
                        assert_eq!(
                            refs_taken[id], 0,
                            "case {case}: writeback of a referenced register"
                        );
                        assert!(vrf.last_write_done(id) <= now, "case {case}");
                        let before = vrf.dirty_count();
                        vrf.clean(id);
                        assert_eq!(vrf.dirty_count(), before - 1, "case {case}");
                    }
                }
            }
            assert!(vrf.dirty_count() <= vrf.num_regs());
            let frac = vrf.dirty_fraction();
            assert!((0.0..=1.0).contains(&frac));
        }

        // Drain: afterwards the VRF is pristine.
        for (i, taken) in refs_taken.iter_mut().enumerate() {
            for _ in 0..*taken {
                vrf.release_ref(i);
            }
            *taken = 0;
        }
        let drained = vrf.drain_dirty();
        assert!(drained.len() <= 8);
        assert_eq!(vrf.dirty_count(), 0);
        assert_eq!(vrf.loads_in_flight(), 0, "case {case}: fills survived");
        for line in 100..108 {
            assert!(
                matches!(
                    vrf.lookup_or_alloc(line, DataClass::CMatrix),
                    AllocOutcome::Allocated(_)
                ),
                "case {case}: a register is still pinned after the drain"
            );
        }
    }
}

/// Load state of one reference register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefState {
    /// No valid tag.
    Invalid,
    /// A fill is in flight; data arrives at `ready_at`.
    Loading { ready_at: Cycle },
    /// Data resident.
    Ready,
}

/// One register of the reference model.
#[derive(Debug, Clone, Copy)]
struct RefVr {
    tag: Line,
    state: RefState,
    dirty: bool,
    refs: u32,
    last_write_done: Cycle,
    last_use: u64,
    class: DataClass,
}

const NO_TAG: Line = Line::MAX;

impl RefVr {
    fn empty() -> Self {
        RefVr {
            tag: NO_TAG,
            state: RefState::Invalid,
            dirty: false,
            refs: 0,
            last_write_done: 0,
            last_use: 0,
            class: DataClass::RMatrix,
        }
    }
}

/// The register file as one struct per register, every choice a linear
/// scan: the specification the bitset [`Vrf`] must match decision for
/// decision.
struct RefVrf {
    regs: Vec<RefVr>,
    cam: HashMap<Line, VrId>,
    dirty_count: usize,
    tick: u64,
}

impl RefVrf {
    fn new(num_regs: usize) -> Self {
        RefVrf {
            regs: vec![RefVr::empty(); num_regs],
            cam: HashMap::new(),
            dirty_count: 0,
            tick: 0,
        }
    }

    fn lookup_or_alloc(&mut self, line: Line, class: DataClass) -> AllocOutcome {
        self.tick += 1;
        if let Some(&id) = self.cam.get(&line) {
            self.regs[id].last_use = self.tick;
            return AllocOutcome::Reused(id);
        }
        let slot = self.regs.iter().position(|r| r.state == RefState::Invalid);
        let slot = slot.or_else(|| {
            self.regs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.state == RefState::Ready && !r.dirty && r.refs == 0)
                .min_by_key(|(_, r)| r.last_use)
                .map(|(i, _)| i)
        });
        let Some(id) = slot else {
            return AllocOutcome::Stall;
        };
        if self.regs[id].tag != NO_TAG {
            self.cam.remove(&self.regs[id].tag);
        }
        self.regs[id] = RefVr {
            tag: line,
            state: RefState::Loading {
                ready_at: Cycle::MAX,
            },
            dirty: false,
            refs: 0,
            last_write_done: 0,
            last_use: self.tick,
            class,
        };
        self.cam.insert(line, id);
        AllocOutcome::Allocated(id)
    }

    fn set_loading(&mut self, id: VrId, ready_at: Cycle) {
        self.regs[id].state = RefState::Loading { ready_at };
    }

    fn set_ready(&mut self, id: VrId) {
        self.regs[id].state = RefState::Ready;
    }

    fn complete_loads(&mut self, now: Cycle) {
        for r in &mut self.regs {
            if let RefState::Loading { ready_at } = r.state {
                if ready_at <= now {
                    r.state = RefState::Ready;
                }
            }
        }
    }

    fn ready_at(&self, id: VrId) -> Cycle {
        match self.regs[id].state {
            RefState::Invalid => Cycle::MAX,
            RefState::Loading { ready_at } => ready_at,
            RefState::Ready => 0,
        }
    }

    fn add_ref(&mut self, id: VrId) {
        self.regs[id].refs += 1;
    }

    fn release_ref(&mut self, id: VrId) {
        self.regs[id].refs -= 1;
    }

    fn record_write(&mut self, id: VrId, done: Cycle) {
        let r = &mut self.regs[id];
        if !r.dirty {
            self.dirty_count += 1;
        }
        r.dirty = true;
        r.last_write_done = r.last_write_done.max(done);
    }

    fn writeback_candidate(&self, now: Cycle) -> Option<VrId> {
        self.regs
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.dirty && r.refs == 0 && r.state == RefState::Ready && r.last_write_done <= now
            })
            .min_by_key(|(_, r)| r.last_use)
            .map(|(i, _)| i)
    }

    fn clean(&mut self, id: VrId) -> (Line, DataClass) {
        let r = &mut self.regs[id];
        assert!(r.dirty, "cleaning a clean register");
        self.dirty_count -= 1;
        r.dirty = false;
        (r.tag, r.class)
    }

    fn drain_dirty(&mut self) -> Vec<(Line, DataClass)> {
        let out = self
            .regs
            .iter()
            .filter(|r| r.dirty)
            .map(|r| (r.tag, r.class))
            .collect();
        self.regs.fill(RefVr::empty());
        self.cam.clear();
        self.dirty_count = 0;
        out
    }

    fn loads_in_flight(&self) -> usize {
        self.regs
            .iter()
            .filter(|r| matches!(r.state, RefState::Loading { .. }))
            .count()
    }

    fn next_load_completion(&self) -> Option<Cycle> {
        self.regs
            .iter()
            .filter_map(|r| match r.state {
                RefState::Loading { ready_at } => Some(ready_at),
                _ => None,
            })
            .min()
    }
}

const CLASSES: [DataClass; 4] = [
    DataClass::SparseIn,
    DataClass::SparseOut,
    DataClass::RMatrix,
    DataClass::CMatrix,
];

/// Everything observable about a register file, for lockstep comparison.
fn assert_same_state(vrf: &Vrf, reference: &RefVrf, what: &str) {
    assert_eq!(vrf.num_regs(), reference.regs.len(), "{what}");
    for id in 0..vrf.num_regs() {
        assert_eq!(
            vrf.ready_at(id),
            reference.ready_at(id),
            "{what}: ready_at({id})"
        );
        assert_eq!(
            vrf.last_write_done(id),
            reference.regs[id].last_write_done,
            "{what}: last_write_done({id})"
        );
    }
    assert_eq!(
        vrf.dirty_count(),
        reference.dirty_count,
        "{what}: dirty_count"
    );
    assert_eq!(
        vrf.loads_in_flight(),
        reference.loads_in_flight(),
        "{what}: loads_in_flight"
    );
    assert_eq!(
        vrf.next_load_completion(),
        reference.next_load_completion(),
        "{what}: next_load_completion"
    );
}

/// The bitset register file makes every choice the array-of-structs
/// reference makes — the same reuse, the same allocated or evicted
/// register, the same write-back pick, the same drain order — at register
/// counts that fill one word partly, exactly, and spill into a second and
/// third word. Operations follow the PE's calling contract: a fill or an
/// immediate ready right after each allocation, references released only
/// when held, writes only into resident registers, cleans only of the
/// write-back pick.
#[test]
fn vrf_matches_reference_model() {
    for num_regs in [1usize, 8, 64, 65, 130] {
        let mut rng = Rng64::seed_from_u64(0x5fa0 + num_regs as u64);
        for case in 0..48 {
            let mut vrf = Vrf::new(num_regs);
            let mut reference = RefVrf::new(num_regs);
            let lines = 2 * num_regs as u64 + 4;
            let mut now: Cycle = 0;
            for step in 0..600 {
                let what = format!("regs {num_regs}, case {case}, step {step}");
                match rng.bounded(16) {
                    0..=5 => {
                        let line = rng.gen_range(0..lines);
                        let class = CLASSES[rng.gen_range(0..4usize)];
                        let outcome = vrf.lookup_or_alloc(line, class);
                        assert_eq!(outcome, reference.lookup_or_alloc(line, class), "{what}");
                        let id = match outcome {
                            AllocOutcome::Allocated(id) => {
                                if rng.bounded(4) == 0 {
                                    vrf.set_ready(id);
                                    reference.set_ready(id);
                                } else {
                                    let fill = now + rng.gen_range(0..60u64);
                                    vrf.set_loading(id, fill);
                                    reference.set_loading(id, fill);
                                }
                                Some(id)
                            }
                            AllocOutcome::Reused(id) => Some(id),
                            AllocOutcome::Stall => None,
                        };
                        if let Some(id) = id.filter(|_| rng.bounded(2) == 0) {
                            vrf.add_ref(id);
                            reference.add_ref(id);
                        }
                    }
                    6 | 7 => {
                        now += rng.gen_range(0..40u64);
                        vrf.complete_loads(now);
                        reference.complete_loads(now);
                    }
                    8 | 9 => {
                        let id = rng.gen_range(0..num_regs);
                        if reference.ready_at(id) == 0 {
                            let done = now + rng.gen_range(0..30u64);
                            vrf.record_write(id, done);
                            reference.record_write(id, done);
                        }
                    }
                    10 | 11 => {
                        let start = rng.gen_range(0..num_regs);
                        let held = (0..num_regs)
                            .map(|i| (start + i) % num_regs)
                            .find(|&id| reference.regs[id].refs > 0);
                        if let Some(id) = held {
                            vrf.release_ref(id);
                            reference.release_ref(id);
                        }
                    }
                    12..=14 => {
                        let at = now + rng.gen_range(0..20u64);
                        let pick = vrf.writeback_candidate(at);
                        assert_eq!(pick, reference.writeback_candidate(at), "{what}");
                        if let Some(id) = pick.filter(|_| rng.bounded(4) != 0) {
                            assert_eq!(vrf.clean(id), reference.clean(id), "{what}");
                        }
                    }
                    _ => {
                        if rng.bounded(8) == 0 {
                            assert_eq!(vrf.drain_dirty(), reference.drain_dirty(), "{what}");
                        }
                    }
                }
                assert_same_state(&vrf, &reference, &what);
            }
        }
    }
}
