//! Cache-conscious struct-of-arrays round view — the hot decide kernel.
//!
//! The dense executors spend the round walking `n` users and asking, for
//! each, "is your resource satisfying you?". In [`State`] that question
//! round-trips through `ResourceId` newtypes, a capacity-table lookup, and
//! a scattered `loads[assign[u]]` read per user — ~memory-bound at
//! `n = 10⁶`. This module restructures the walk around what the CPU
//! actually streams:
//!
//! * **SoA arrays** ([`RoundView`]): user assignments (and class ids for
//!   multi-class instances) as contiguous, 64-byte-aligned `u32` arrays,
//!   plus a load-array copy — sequential prefetchable reads;
//! * **unsatisfied-resource bitmaps**: one bit per `(class, resource)`,
//!   set iff a user of that class on that resource would be unsatisfied.
//!   At `m = 125k` a class bitmap is ~15 KiB — it fits L1, so the per-user
//!   satisfaction test collapses to one aligned word fetch and a bit test;
//! * a **two-pass shard kernel** ([`RoundView::decide_shard_into`]):
//!   pass 1 streams the assignment array and collects the indices of
//!   unsatisfied users into a small batch; pass 2 folds the batch's RNG
//!   bases 256 users at a time into a stack buffer
//!   ([`qlb_rng::fold_round_bases`], vectorised at run time) and runs the
//!   full protocol kernel on batch users only;
//! * **per-shard delta buffers** ([`ShardDeltas`]): shards record net
//!   per-resource load deltas privately; the coordinator merges them after
//!   the barrier ([`RoundView::merge_loads`] / [`RoundView::repair_touched`])
//!   — no shared counters, no atomics, no cross-shard write traffic.
//!
//! Bit-identity with the dense reference kernel is by construction: the
//! pass-1 filter is *exactly* the "satisfied users do nothing and consume
//! no randomness" gate of [`decide_user`](crate::step::decide_user), and
//! pass 2 runs the same post-gate kernel
//! ([`decide_unsatisfied_user`](crate::step::decide_unsatisfied_user)) on
//! the same `(seed, user, round)` streams. Protocols that act while
//! satisfied bypass the filter and run the unfiltered kernel.
//!
//! The view serves weighted instances too (see [`Demands`]): loads are
//! total demand and shard deltas carry each mover's weight.

use crate::ids::{ClassId, ResourceId, UserId};
use crate::instance::{Demands, Instance};
use crate::protocol::Protocol;
use crate::state::{Move, State};
use crate::step::{decide_unsatisfied_user, decide_user, SHARD_BLOCK};
use qlb_rng::{fold_round_bases, RoundStream};

/// One 64-byte cache line of `u32`s (16 lanes).
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct LineU32([u32; 16]);

/// One 64-byte cache line of `u64`s (8 lanes).
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct LineU64([u64; 8]);

const _: () = assert!(std::mem::size_of::<LineU32>() == 64);
const _: () = assert!(std::mem::size_of::<LineU64>() == 64);

macro_rules! aligned_buf {
    ($Buf:ident, $Line:ident, $T:ty, $LANES:expr) => {
        /// A `Vec`-backed array of `$T` whose storage starts on a 64-byte
        /// boundary and is padded to whole cache lines.
        #[derive(Default)]
        pub(crate) struct $Buf {
            lines: Vec<$Line>,
            pub(crate) len: usize,
        }

        impl $Buf {
            /// Resize to `len` elements, zero-filling fresh storage.
            pub(crate) fn reset(&mut self, len: usize) {
                self.lines.clear();
                self.lines.resize(len.div_ceil($LANES), $Line([0; $LANES]));
                self.len = len;
            }

            #[inline]
            pub(crate) fn as_slice(&self) -> &[$T] {
                // SAFETY: `$Line` is `#[repr(C, align(64))]` around
                // `[$T; $LANES]` with size exactly 64, so `lines` is a
                // contiguous array of `len.div_ceil($LANES) * $LANES ≥ len`
                // properly-aligned `$T`s.
                unsafe { std::slice::from_raw_parts(self.lines.as_ptr() as *const $T, self.len) }
            }

            #[inline]
            pub(crate) fn as_mut_slice(&mut self) -> &mut [$T] {
                // SAFETY: as `as_slice`, and we hold `&mut self`.
                unsafe {
                    std::slice::from_raw_parts_mut(self.lines.as_mut_ptr() as *mut $T, self.len)
                }
            }
        }
    };
}

aligned_buf!(AlignedU32, LineU32, u32, 16);
aligned_buf!(AlignedU64, LineU64, u64, 8);

/// Per-shard reusable buffer of the two-pass kernel: the pass-1 batch of
/// unsatisfied user indices. One per shard, reused every round —
/// steady-state rounds allocate nothing.
#[derive(Default)]
pub struct ShardScratch {
    pub(crate) batch: Vec<u32>,
}

impl ShardScratch {
    /// Fresh empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A shard-private accumulator of net per-resource load deltas.
///
/// Shards record the `from → to` effect of every move they emit; after the
/// barrier the coordinator folds every shard's deltas into the
/// [`RoundView`] (and nothing else ever writes shared state), which is
/// what keeps the pooled round free of atomics and cross-shard cache-line
/// ping-pong. Touched resources are tracked with a generation stamp so a
/// round's cleanup is `O(touched)`, not `O(m)`.
pub struct ShardDeltas {
    delta: Vec<i64>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    gen: u32,
}

impl ShardDeltas {
    /// Deltas over `m` resources, all zero.
    pub fn new(m: usize) -> Self {
        Self {
            delta: vec![0; m],
            stamp: vec![0; m],
            touched: Vec::new(),
            gen: 1,
        }
    }

    #[inline]
    fn bump(&mut self, r: u32, d: i64) {
        let i = r as usize;
        if self.stamp[i] != self.gen {
            self.stamp[i] = self.gen;
            self.delta[i] = d;
            self.touched.push(r);
        } else {
            self.delta[i] += d;
        }
    }

    /// Record one move of a user with demand `w`.
    #[inline]
    pub fn record(&mut self, from: ResourceId, to: ResourceId, w: u32) {
        self.bump(from.0, -(w as i64));
        self.bump(to.0, w as i64);
    }

    /// Resources touched since the last [`ShardDeltas::advance`].
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Net delta recorded for resource `r` this round.
    #[inline]
    pub fn delta_of(&self, r: u32) -> i64 {
        if self.stamp[r as usize] == self.gen {
            self.delta[r as usize]
        } else {
            0
        }
    }

    /// Start a new round: forget all recorded deltas in `O(touched)`.
    pub fn advance(&mut self) {
        self.touched.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // generation wrapped: stale stamps could collide, reset them
            self.stamp.fill(0);
            self.gen = 1;
        }
    }
}

/// The struct-of-arrays round view (see the module docs).
///
/// Built once per run from `(instance, state)` and then **is** the round
/// state of pooled full rounds (the dense [`State`] is dropped; see
/// [`RoundView::to_state`] for the way back). It is updated incrementally:
/// pooled rounds via [`RoundView::merge_loads`] +
/// [`RoundView::apply_assignments`] + [`RoundView::repair_touched`] on the
/// coordinator, driver churn via [`RoundView::reassign`]. The
/// capacity/alias tables themselves stay in the [`Instance`], shared by
/// reference with every shard — the view holds only the per-round mutable
/// arrays.
pub struct RoundView {
    /// `assign[u]` = resource of user `u`. Shards only read it; the
    /// coordinator writes a round's moves after the barrier.
    assign: AlignedU32,
    /// Class id per user; empty for single-class instances.
    class_ids: AlignedU32,
    /// Per-resource load copy.
    loads: AlignedU32,
    /// `classes` bitmaps of `words` words each: bit `r` of bitmap `k` is
    /// set iff a class-`k` user on `r` would be **unsatisfied**.
    unsat: AlignedU64,
    /// Words per class bitmap, padded to a whole cache line.
    words: usize,
    classes: usize,
}

impl RoundView {
    /// Build the view of `state`.
    pub fn new<I: Demands>(inst: &I, state: &State) -> Self {
        let inst = inst.instance();
        let n = inst.num_users();
        let m = inst.num_resources();
        let classes = inst.num_classes();
        let mut v = Self {
            assign: AlignedU32::default(),
            class_ids: AlignedU32::default(),
            loads: AlignedU32::default(),
            unsat: AlignedU64::default(),
            // pad each class's bitmap to a whole line so bitmaps never
            // share one
            words: m.div_ceil(64).next_multiple_of(8),
            classes,
        };

        v.assign.reset(n);
        for (dst, &r) in v.assign.as_mut_slice().iter_mut().zip(state.assignment()) {
            *dst = r.0;
        }
        if classes > 1 {
            v.class_ids.reset(n);
            for (u, dst) in v.class_ids.as_mut_slice().iter_mut().enumerate() {
                *dst = inst.class_of(UserId(u as u32)).0;
            }
        }
        v.loads.reset(m);
        v.loads.as_mut_slice().copy_from_slice(state.loads());
        v.unsat.reset(classes * v.words);
        for r in 0..m as u32 {
            v.refresh_bits(inst, r);
        }
        v
    }

    /// The per-resource load copy.
    pub fn loads(&self) -> &[u32] {
        self.loads.as_slice()
    }

    /// Whether bit `r` of class `k`'s bitmap is set (unsatisfying).
    pub fn is_unsat(&self, k: ClassId, r: ResourceId) -> bool {
        let w = self.unsat.as_slice()[k.0 as usize * self.words + (r.0 >> 6) as usize];
        (w >> (r.0 & 63)) & 1 != 0
    }

    /// Recompute the unsatisfied bit of resource `r` for every class from
    /// the current load.
    #[inline]
    fn refresh_bits(&mut self, inst: &Instance, r: u32) {
        let load = self.loads.as_slice()[r as usize];
        let words = self.words;
        let unsat = self.unsat.as_mut_slice();
        for k in 0..self.classes {
            let cap = inst.cap(ClassId(k as u32), ResourceId(r));
            let word = &mut unsat[k * words + (r >> 6) as usize];
            let bit = 1u64 << (r & 63);
            if cap > 0 && load <= cap {
                *word &= !bit;
            } else {
                *word |= bit;
            }
        }
    }

    /// Decide the users of shard `[lo, hi)` with the two-pass kernel,
    /// appending migrations to `out` (in user order) and recording their
    /// load effects into `deltas`.
    ///
    /// Identical output to
    /// [`decide_range_into`](crate::step::decide_range_into) on the state
    /// this view mirrors. `scratch` and `deltas` are this shard's private
    /// buffers; nothing outside them (and `out`) is written.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_shard_into<I: Demands, P: Protocol + ?Sized>(
        &self,
        inst: &I,
        proto: &P,
        seed: u64,
        round: u64,
        lo: usize,
        hi: usize,
        out: &mut Vec<Move>,
        scratch: &mut ShardScratch,
        deltas: &mut ShardDeltas,
    ) {
        debug_assert!(lo <= hi && hi <= self.assign.len);
        let assign = self.assign.as_slice();
        let loads = self.loads.as_slice();
        if proto.acts_when_satisfied() {
            // The filter would drop satisfied users the protocol wants to
            // see; run the unfiltered reference kernel per user instead.
            for (i, &a) in assign[lo..hi].iter().enumerate() {
                let user = UserId((lo + i) as u32);
                let own = ResourceId(a);
                if let Some(mv) = decide_user(inst, loads, own, user, proto, seed, round) {
                    deltas.record(mv.from, mv.to, inst.weight(user));
                    out.push(mv);
                }
            }
            return;
        }

        // Pass 1: stream the assignment array, keep users whose resource's
        // unsatisfied bit is set — exactly the users the dense kernel would
        // not early-return for.
        scratch.batch.clear();
        let unsat = self.unsat.as_slice();
        if self.classes == 1 {
            let bm = &unsat[..self.words];
            for (i, &r) in assign[lo..hi].iter().enumerate() {
                // SAFETY: `r < m` (state invariant) so `r >> 6 < words`.
                let w = unsafe { *bm.get_unchecked((r >> 6) as usize) };
                if (w >> (r & 63)) & 1 != 0 {
                    scratch.batch.push((lo + i) as u32);
                }
            }
        } else {
            let classes = self.class_ids.as_slice();
            let words = self.words;
            for idx in lo..hi {
                let r = assign[idx];
                let k = classes[idx] as usize;
                // SAFETY: `k < classes` and `r < m`, so the flat index is
                // within `classes * words`.
                let w = unsafe { *unsat.get_unchecked(k * words + (r >> 6) as usize) };
                if (w >> (r & 63)) & 1 != 0 {
                    scratch.batch.push(idx as u32);
                }
            }
        }

        // Pass 2: fold one block of the batch's RNG bases, then run the
        // post-gate kernel on that block's users only.
        let mut bases = [0u64; SHARD_BLOCK];
        for block in scratch.batch.chunks(SHARD_BLOCK) {
            let bases = &mut bases[..block.len()];
            fold_round_bases(seed, round, block, bases);
            for (&idx, &base) in block.iter().zip(bases.iter()) {
                let user = UserId(idx);
                let own = ResourceId(assign[idx as usize]);
                let mut rng = RoundStream::from_base(base);
                if let Some(mv) =
                    decide_unsatisfied_user(inst, loads, own, user, proto, round, &mut rng)
                {
                    deltas.record(mv.from, mv.to, inst.weight(user));
                    out.push(mv);
                }
            }
        }
    }

    /// Coordinator merge, phase 1 of 2: fold one shard's load deltas into
    /// the view. Call once per shard, **all shards before any
    /// [`RoundView::repair_touched`]** — a resource touched by two shards
    /// must see both deltas before its bit is recomputed.
    pub fn merge_loads(&mut self, deltas: &ShardDeltas) {
        let loads = self.loads.as_mut_slice();
        for &r in &deltas.touched {
            let l = &mut loads[r as usize];
            let next = *l as i64 + deltas.delta[r as usize];
            debug_assert!((0..=u32::MAX as i64).contains(&next), "load underflow");
            *l = next as u32;
        }
    }

    /// Apply the round's concatenated moves to the assignment array.
    pub fn apply_assignments(&mut self, moves: &[Move]) {
        let assign = self.assign.as_mut_slice();
        for mv in moves {
            debug_assert_eq!(assign[mv.user.index()], mv.from.0, "stale move");
            assign[mv.user.index()] = mv.to.0;
        }
    }

    /// Number of unsatisfied users, computed from the view alone — a
    /// stepper that holds the view keeps no dense [`State`] to ask. The
    /// instance the view was built for picks the counting rule. Unit single-class: `O(m)`
    /// (every user on an unsatisfying resource is unsatisfied, so sum those
    /// loads). Weighted loads count demand, not users, so weighted and
    /// multi-class views make `O(n)` bit probes over the assignment (and
    /// class) arrays.
    pub fn num_unsatisfied<I: Demands>(&self, _inst: &I) -> usize {
        if I::UNIT && self.classes == 1 {
            let bm = &self.unsat.as_slice()[..self.words];
            return self
                .loads
                .as_slice()
                .iter()
                .enumerate()
                .filter(|&(r, &x)| x > 0 && (bm[r >> 6] >> (r & 63)) & 1 != 0)
                .map(|(_, &x)| x as usize)
                .sum();
        }
        self.unsatisfied_users().count()
    }

    /// The unsatisfied users in increasing order: an `O(n)` walk of the
    /// assignment (and class) arrays probing each user's resource bit.
    pub fn unsatisfied_users(&self) -> impl Iterator<Item = UserId> + '_ {
        let unsat = self.unsat.as_slice();
        let assign = self.assign.as_slice();
        let classes = self.class_ids.as_slice();
        let words = self.words;
        (0..assign.len())
            .filter(move |&i| {
                let r = assign[i];
                // single-class views keep no class array
                let k = classes.get(i).map_or(0, |&k| k as usize);
                (unsat[k * words + (r >> 6) as usize] >> (r & 63)) & 1 != 0
            })
            .map(|i| UserId(i as u32))
    }

    /// Is the mirrored state legal (every user satisfied)? Single-class:
    /// `O(m)`; multi-class: `O(n)`. Agrees with [`State::is_legal`] on the
    /// state the view mirrors.
    pub fn is_legal(&self) -> bool {
        if self.classes == 1 {
            let loads = self.loads.as_slice();
            let bm = &self.unsat.as_slice()[..self.words];
            return loads
                .iter()
                .enumerate()
                .all(|(r, &x)| x == 0 || (bm[r >> 6] >> (r & 63)) & 1 == 0);
        }
        self.unsatisfied_users().next().is_none()
    }

    /// Reconstruct a dense [`State`] from the view — the inverse of
    /// [`RoundView::new`], with which a stepper holding the view hands a
    /// `State` back. `O(n + m)`.
    pub fn to_state<I: Demands>(&self, inst: &I) -> State {
        let assignment = self
            .assign
            .as_slice()
            .iter()
            .map(|&r| ResourceId(r))
            .collect();
        let state = State::new(inst, assignment).expect("view invariant: assignment valid");
        debug_assert_eq!(state.loads(), self.loads.as_slice(), "view loads drifted");
        state
    }

    /// Coordinator merge, phase 2 of 2: recompute the unsatisfied bits of
    /// one shard's touched resources (loads already final) and reset the
    /// shard's deltas for the next round.
    pub fn repair_touched<I: Demands>(&mut self, inst: &I, deltas: &mut ShardDeltas) {
        let inst = inst.instance();
        for i in 0..deltas.touched.len() {
            self.refresh_bits(inst, deltas.touched[i]);
        }
        deltas.advance();
    }

    /// Driver-side single-user reassignment (churn, arrivals, departures):
    /// mirrors [`State::reassign`], keeping loads and bitmap bits in sync.
    /// Unit demand only, like the drivers that call it.
    pub fn reassign(&mut self, inst: &Instance, u: UserId, to: ResourceId) {
        let from = self.assign.as_slice()[u.index()];
        if from == to.0 {
            return;
        }
        self.assign.as_mut_slice()[u.index()] = to.0;
        let loads = self.loads.as_mut_slice();
        loads[from as usize] -= 1;
        loads[to.0 as usize] += 1;
        self.refresh_bits(inst, from);
        self.refresh_bits(inst, to.0);
    }

    /// Debug check: the view mirrors `state` exactly (assignments, loads,
    /// and every bitmap bit). `O(n + m·classes)` — test/debug use only.
    pub fn assert_synced<I: Demands>(&self, inst: &I, state: &State) {
        let inst = inst.instance();
        assert_eq!(self.assign.len, state.num_users());
        for (u, &r) in state.assignment().iter().enumerate() {
            assert_eq!(self.assign.as_slice()[u], r.0, "assign[{u}]");
        }
        assert_eq!(self.loads.as_slice(), state.loads());
        for k in 0..self.classes {
            for r in 0..inst.num_resources() {
                let (k, r) = (ClassId(k as u32), ResourceId(r as u32));
                let cap = inst.cap(k, r);
                let load = state.loads()[r.index()];
                let satisfied = cap > 0 && load <= cap;
                assert_eq!(self.is_unsat(k, r), !satisfied, "bit ({k:?}, {r:?})");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::protocol::{registry, ConditionalUniform, SlackDamped};
    use crate::step::decide_range_into;
    use crate::weighted::WeightedInstance;

    fn hotspot(n: usize, m: usize, cap: u32) -> (Instance, State) {
        let inst = Instance::uniform(n, m, cap).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    #[test]
    fn aligned_buffers_are_line_aligned_and_zeroed() {
        let mut b = AlignedU32::default();
        b.reset(37);
        assert_eq!(b.as_slice().len(), 37);
        assert!(b.as_slice().iter().all(|&x| x == 0));
        assert_eq!(b.as_slice().as_ptr() as usize % 64, 0);
        let mut w = AlignedU64::default();
        w.reset(9);
        assert_eq!(w.as_slice().len(), 9);
        assert_eq!(w.as_slice().as_ptr() as usize % 64, 0);
        // stale content must not survive a reset
        b.as_mut_slice()[5] = 7;
        b.reset(64);
        assert!(b.as_slice().iter().all(|&x| x == 0));
    }

    #[test]
    fn view_mirrors_state_and_bitmap_matches_satisfaction() {
        let (inst, state) = hotspot(100, 16, 5);
        let view = RoundView::new(&inst, &state);
        view.assert_synced(&inst, &state);
        // resource 0 overloaded (100 > 5) ⇒ unsatisfied; the rest empty
        // with positive cap ⇒ satisfied
        assert!(view.is_unsat(ClassId(0), ResourceId(0)));
        assert!(!view.is_unsat(ClassId(0), ResourceId(1)));
    }

    #[test]
    fn zero_cap_resources_are_always_unsat() {
        let inst = Instance::with_capacities(4, vec![0, 10]).unwrap();
        let state = State::all_on(&inst, ResourceId(1));
        let view = RoundView::new(&inst, &state);
        assert!(view.is_unsat(ClassId(0), ResourceId(0)), "cap-0, load 0");
        assert!(!view.is_unsat(ClassId(0), ResourceId(1)));
    }

    #[test]
    fn shard_kernel_matches_dense_reference() {
        let (inst, state) = hotspot(500, 16, 40);
        let view = RoundView::new(&inst, &state);
        let mut scratch = ShardScratch::new();
        let mut deltas = ShardDeltas::new(inst.num_resources());
        for proto in registry(&inst) {
            for round in 0..4 {
                let mut want = Vec::new();
                decide_range_into(&inst, &state, proto.as_ref(), 7, round, 0, 500, &mut want);
                // sharded arbitrarily, outputs concatenate
                let mut got = Vec::new();
                for (lo, hi) in [(0, 128), (128, 129), (129, 500)] {
                    view.decide_shard_into(
                        &inst,
                        proto.as_ref(),
                        7,
                        round,
                        lo,
                        hi,
                        &mut got,
                        &mut scratch,
                        &mut deltas,
                    );
                }
                assert_eq!(got, want, "{} round {round}", proto.name());
                deltas.advance();
            }
        }
    }

    #[test]
    fn multi_class_kernel_matches_dense_reference() {
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0, 8.0])
            .latency_class(0.5, 40)
            .latency_class(1.0, 60)
            .build()
            .unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let view = RoundView::new(&inst, &state);
        view.assert_synced(&inst, &state);
        let mut scratch = ShardScratch::new();
        let mut deltas = ShardDeltas::new(inst.num_resources());
        for proto in registry(&inst) {
            for round in 0..4 {
                let n = inst.num_users();
                let mut want = Vec::new();
                decide_range_into(&inst, &state, proto.as_ref(), 3, round, 0, n, &mut want);
                let mut got = Vec::new();
                view.decide_shard_into(
                    &inst,
                    proto.as_ref(),
                    3,
                    round,
                    0,
                    n,
                    &mut got,
                    &mut scratch,
                    &mut deltas,
                );
                assert_eq!(got, want, "{} round {round}", proto.name());
                deltas.advance();
            }
        }
    }

    #[test]
    fn delta_merge_tracks_apply_moves() {
        let (inst, mut state) = hotspot(500, 16, 40);
        let mut view = RoundView::new(&inst, &state);
        let proto = SlackDamped::default();
        let mut scratch = ShardScratch::new();
        let mut deltas: Vec<ShardDeltas> = (0..3)
            .map(|_| ShardDeltas::new(inst.num_resources()))
            .collect();
        for round in 0..30u64 {
            let mut moves = Vec::new();
            for (shard, (lo, hi)) in [(0, 200), (200, 400), (400, 500)].iter().enumerate() {
                view.decide_shard_into(
                    &inst,
                    &proto,
                    11,
                    round,
                    *lo,
                    *hi,
                    &mut moves,
                    &mut scratch,
                    &mut deltas[shard],
                );
            }
            state.apply_moves(&inst, &moves);
            for d in &deltas {
                view.merge_loads(d);
            }
            view.apply_assignments(&moves);
            for d in deltas.iter_mut() {
                view.repair_touched(&inst, d);
            }
            view.assert_synced(&inst, &state);
            if state.is_legal(&inst) {
                break;
            }
        }
        assert!(state.is_legal(&inst), "sanity: run converges");
    }

    #[test]
    fn reassign_keeps_view_synced() {
        let (inst, mut state) = hotspot(64, 8, 10);
        let mut view = RoundView::new(&inst, &state);
        for (u, to) in [(0u32, 3u32), (1, 3), (2, 7), (0, 1), (5, 0)] {
            state.reassign(UserId(u), ResourceId(to));
            view.reassign(&inst, UserId(u), ResourceId(to));
            view.assert_synced(&inst, &state);
        }
    }

    #[test]
    fn view_legality_matches_state() {
        let (inst, mut state) = hotspot(300, 16, 24);
        let mut view = RoundView::new(&inst, &state);
        assert_eq!(view.num_unsatisfied(&inst), state.num_unsatisfied(&inst));
        assert!(!view.is_legal());
        let proto = SlackDamped::default();
        let mut scratch = ShardScratch::new();
        let mut deltas = ShardDeltas::new(inst.num_resources());
        let bounds = [(0usize, 128usize), (128, 256), (256, 300)];
        for round in 0..60u64 {
            let mut moves = Vec::new();
            for &(lo, hi) in &bounds {
                view.decide_shard_into(
                    &inst,
                    &proto,
                    5,
                    round,
                    lo,
                    hi,
                    &mut moves,
                    &mut scratch,
                    &mut deltas,
                );
            }
            state.apply_moves(&inst, &moves);
            view.merge_loads(&deltas);
            view.apply_assignments(&moves);
            view.repair_touched(&inst, &mut deltas);
            view.assert_synced(&inst, &state);
            assert_eq!(view.num_unsatisfied(&inst), state.num_unsatisfied(&inst));
            let users: Vec<UserId> = view.unsatisfied_users().collect();
            assert_eq!(users, state.unsatisfied(&inst));
            assert_eq!(view.is_legal(), state.is_legal(&inst));
            if view.is_legal() {
                break;
            }
        }
        assert!(view.is_legal(), "sanity: run converges");
        assert_eq!(view.to_state(&inst), state);
    }

    #[test]
    fn multi_class_view_unsatisfied_matches_state() {
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0, 8.0])
            .latency_class(0.5, 40)
            .latency_class(1.0, 60)
            .build()
            .unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let view = RoundView::new(&inst, &state);
        assert_eq!(view.num_unsatisfied(&inst), state.num_unsatisfied(&inst));
        let users: Vec<UserId> = view.unsatisfied_users().collect();
        assert_eq!(users, state.unsatisfied(&inst));
        assert_eq!(view.is_legal(), state.is_legal(&inst));
    }

    #[test]
    fn shard_deltas_generation_reset() {
        let mut d = ShardDeltas::new(4);
        d.record(ResourceId(0), ResourceId(1), 1);
        d.record(ResourceId(2), ResourceId(1), 1);
        assert_eq!(d.delta_of(0), -1);
        assert_eq!(d.delta_of(1), 2);
        assert_eq!(d.touched(), &[0, 1, 2]);
        d.advance();
        assert_eq!(d.touched(), &[] as &[u32]);
        assert_eq!(d.delta_of(1), 0);
        d.record(ResourceId(3), ResourceId(0), 4);
        assert_eq!(d.delta_of(3), -4);
        assert_eq!(d.delta_of(0), 4);
        assert_eq!(d.touched(), &[3, 0]);
    }

    /// Weights cycling 1..=4 over `n` users, 16 resources with room for the
    /// total demand, everyone on resource 0.
    fn weighted_crowd(n: usize) -> (WeightedInstance, State) {
        let weights: Vec<u32> = (0..n).map(|i| 1 + (i % 4) as u32).collect();
        let total: u32 = weights.iter().sum();
        let inst = WeightedInstance::new(vec![total / 16; 16], weights).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    #[test]
    fn weighted_shard_kernel_matches_range_reference() {
        let (inst, state) = weighted_crowd(300);
        let view = RoundView::new(&inst, &state);
        view.assert_synced(&inst, &state);
        assert_eq!(view.num_unsatisfied(&inst), 300, "users, not weight");
        let mut scratch = ShardScratch::new();
        let mut deltas = ShardDeltas::new(inst.num_resources());
        let protos: [&dyn Protocol; 2] = [&SlackDamped::default(), &ConditionalUniform];
        for proto in protos {
            for round in 0..4 {
                let mut want = Vec::new();
                decide_range_into(&inst, &state, proto, 7, round, 0, 300, &mut want);
                let mut got = Vec::new();
                for (lo, hi) in [(0, 100), (100, 101), (101, 300)] {
                    view.decide_shard_into(
                        &inst,
                        proto,
                        7,
                        round,
                        lo,
                        hi,
                        &mut got,
                        &mut scratch,
                        &mut deltas,
                    );
                }
                assert_eq!(got, want, "{} round {round}", proto.name());
                deltas.advance();
            }
        }
    }

    #[test]
    fn weighted_delta_merge_tracks_apply_moves() {
        let (inst, mut state) = weighted_crowd(300);
        let mut view = RoundView::new(&inst, &state);
        let proto = SlackDamped::default();
        let mut scratch = ShardScratch::new();
        let mut deltas: Vec<ShardDeltas> = (0..2)
            .map(|_| ShardDeltas::new(inst.num_resources()))
            .collect();
        for round in 0..40u64 {
            let mut moves = Vec::new();
            for (shard, (lo, hi)) in [(0, 150), (150, 300)].iter().enumerate() {
                view.decide_shard_into(
                    &inst,
                    &proto,
                    11,
                    round,
                    *lo,
                    *hi,
                    &mut moves,
                    &mut scratch,
                    &mut deltas[shard],
                );
            }
            state.apply_moves(&inst, &moves);
            for d in &deltas {
                view.merge_loads(d);
            }
            view.apply_assignments(&moves);
            for d in deltas.iter_mut() {
                view.repair_touched(&inst, d);
            }
            view.assert_synced(&inst, &state);
            assert_eq!(view.num_unsatisfied(&inst), state.num_unsatisfied(&inst));
            assert_eq!(view.is_legal(), state.is_legal(&inst));
            if state.is_legal(&inst) {
                break;
            }
        }
        assert_eq!(view.to_state(&inst), state);
    }
}
