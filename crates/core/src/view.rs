//! Cache-conscious struct-of-arrays round view — the full-round kernel.
//!
//! A full round walks `n` users and asks each "is your resource
//! satisfying you?". Every executor's full rounds run on this view, one
//! inline shard without a pool and one shard per worker with one. In the
//! dense [`State`] scan (the test reference) that question
//! round-trips through `ResourceId` newtypes, a capacity-table lookup, and
//! a scattered `loads[assign[u]]` read per user — ~memory-bound at
//! `n = 10⁶`. This module restructures the walk around what the CPU
//! actually streams:
//!
//! * **flat arrays, read in place** ([`RoundView`]): the view owns the
//!   round's [`State`] and streams its assignment (and, for multi-class
//!   instances, the [`Instance`]'s per-user class ids) as contiguous
//!   32-bit arrays — sequential prefetchable reads, no copy;
//! * **unsatisfied-resource bitmaps**, the only thing the view adds to
//!   the state: one bit per `(class, resource)`, set iff a user of that
//!   class on that resource would be unsatisfied. At `m = 125k` a class
//!   bitmap is ~15 KiB — it fits L1, so the per-user satisfaction test
//!   collapses to one word fetch and a bit test;
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
//! Bit-identity with the dense reference scan
//! ([`decide_round_into`](crate::step::decide_round_into)) is by
//! construction: the pass-1 filter is *exactly* the "satisfied users do
//! nothing and consume no randomness" gate of [`decide_user`], and pass 2
//! runs the same post-gate kernel ([`decide_unsatisfied_user`]) on
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

/// The round state of full rounds plus its unsatisfied-resource bitmaps
/// (see the module docs).
///
/// Owns the [`State`] it is built from ([`RoundView::from_state`], or
/// [`RoundView::new`] from a copy) and hands it back with
/// [`RoundView::into_state`]; [`RoundView::state`] reads it in between.
/// It is updated incrementally: full rounds via [`RoundView::merge_loads`],
/// [`RoundView::apply_assignments`] and [`RoundView::repair_touched`] on
/// the coordinator, driver churn via [`RoundView::reassign`]. The
/// capacity/alias tables and the users' class ids stay in the
/// [`Instance`], shared by reference with every shard.
pub struct RoundView {
    /// The round state. Shards only read it; the coordinator writes a
    /// round's moves after the barrier.
    state: State,
    /// `classes` bitmaps of `words` words each: bit `r` of bitmap `k` is
    /// set iff a class-`k` user on `r` would be **unsatisfied**.
    unsat: Vec<u64>,
    /// Words per class bitmap.
    words: usize,
    classes: usize,
}

impl RoundView {
    /// Build the view of a copy of `state`, for callers that keep their
    /// own. `O(n + m·K)`.
    pub fn new<I: Demands>(inst: &I, state: &State) -> Self {
        Self::from_state(inst, state.clone())
    }

    /// Take over `state` and build its bitmaps. `O(m·K)`.
    ///
    /// # Panics
    /// Panics if `state` does not have one load per resource of `inst`.
    pub fn from_state<I: Demands>(inst: &I, state: State) -> Self {
        let inst = inst.instance();
        let m = inst.num_resources();
        // the kernel's unchecked bitmap reads rely on every assigned
        // resource being below `m`
        assert_eq!(state.loads.len(), m, "state built for another instance");
        let classes = inst.num_classes();
        let words = m.div_ceil(64);
        let mut v = Self {
            state,
            unsat: vec![0; classes * words],
            words,
            classes,
        };
        for r in 0..m as u32 {
            v.refresh_bits(inst, r);
        }
        v
    }

    /// The round state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Hand the round state back. `O(1)`.
    pub fn into_state(self) -> State {
        self.state
    }

    /// Whether bit `r` of class `k`'s bitmap is set (unsatisfying).
    pub fn is_unsat(&self, k: ClassId, r: ResourceId) -> bool {
        let w = self.unsat[k.0 as usize * self.words + (r.0 >> 6) as usize];
        (w >> (r.0 & 63)) & 1 != 0
    }

    /// Recompute the unsatisfied bit of resource `r` for every class from
    /// the current load.
    #[inline]
    fn refresh_bits(&mut self, inst: &Instance, r: u32) {
        let load = self.state.loads[r as usize];
        let bit = 1u64 << (r & 63);
        for k in 0..self.classes {
            let word = &mut self.unsat[k * self.words + (r >> 6) as usize];
            if inst.satisfies(ClassId(k as u32), ResourceId(r), load) {
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
    /// [`decide_range_into`](crate::step::decide_range_into) on the held
    /// state. `scratch` and `deltas` are this shard's private buffers;
    /// nothing outside them (and `out`) is written.
    ///
    /// # Panics
    /// Panics if `inst` has another class count than the view was built
    /// for.
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
        let base = inst.instance();
        assert_eq!(
            base.num_classes(),
            self.classes,
            "view built for another instance"
        );
        let assign = &self.state.assignment[lo..hi];
        let loads = self.state.loads();
        if proto.acts_when_satisfied() {
            // The filter would drop satisfied users the protocol wants to
            // see; run the unfiltered reference kernel per user instead.
            for (i, &own) in assign.iter().enumerate() {
                let user = UserId((lo + i) as u32);
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
        if self.classes == 1 {
            let bm = &self.unsat[..self.words];
            for (i, &ResourceId(r)) in assign.iter().enumerate() {
                // SAFETY: `r < m` (state invariant, and `from_state`
                // checked the state has `m` loads) so `r >> 6 < words`.
                let w = unsafe { *bm.get_unchecked((r >> 6) as usize) };
                if (w >> (r & 63)) & 1 != 0 {
                    scratch.batch.push((lo + i) as u32);
                }
            }
        } else {
            let class_of = &base.class_of[lo..hi];
            for (i, (&ResourceId(r), &ClassId(k))) in assign.iter().zip(class_of).enumerate() {
                // SAFETY: `k < classes` (instance invariant, and the class
                // count was checked above) and `r < m`, so the flat index
                // is within `classes * words`.
                let w = unsafe {
                    *self
                        .unsat
                        .get_unchecked(k as usize * self.words + (r >> 6) as usize)
                };
                if (w >> (r & 63)) & 1 != 0 {
                    scratch.batch.push((lo + i) as u32);
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
                let own = self.state.assignment[idx as usize];
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
    /// the state. Call once per shard, **all shards before any
    /// [`RoundView::repair_touched`]** — a resource touched by two shards
    /// must see both deltas before its bit is recomputed.
    pub fn merge_loads(&mut self, deltas: &ShardDeltas) {
        for &r in &deltas.touched {
            let l = &mut self.state.loads[r as usize];
            let next = *l as i64 + deltas.delta[r as usize];
            debug_assert!((0..=u32::MAX as i64).contains(&next), "load underflow");
            *l = next as u32;
        }
    }

    /// Apply moves of the round to the assignment: all of them at once, or
    /// one shard's buffer per call, after every shard's
    /// [`RoundView::merge_loads`].
    ///
    /// # Panics
    /// Panics on a move to a resource the state does not have.
    pub fn apply_assignments(&mut self, moves: &[Move]) {
        let m = self.state.loads.len();
        let assign = &mut self.state.assignment;
        for mv in moves {
            debug_assert_eq!(assign[mv.user.index()], mv.from, "stale move");
            // the kernel's unchecked bitmap reads rely on this
            assert!(mv.to.index() < m, "move to a resource out of range");
            assign[mv.user.index()] = mv.to;
        }
    }

    /// The unsatisfied users in increasing order: an `O(n)` walk of the
    /// assignment (and the instance's class ids) probing each user's
    /// resource bit.
    pub fn unsatisfied_users<'a, I: Demands>(
        &'a self,
        inst: &'a I,
    ) -> impl Iterator<Item = UserId> + 'a {
        let class_of = &inst.instance().class_of;
        self.state
            .assignment
            .iter()
            .enumerate()
            .filter(move |&(u, &r)| self.is_unsat(class_of[u], r))
            .map(|(u, _)| UserId(u as u32))
    }

    /// Coordinator merge, phase 2 of 2: recompute the unsatisfied bits of
    /// one shard's touched resources (loads already final) and reset the
    /// shard's deltas for the next round.
    pub fn repair_touched<I: Demands>(&mut self, inst: &I, deltas: &mut ShardDeltas) {
        let inst = inst.instance();
        for &r in &deltas.touched {
            self.refresh_bits(inst, r);
        }
        deltas.advance();
    }

    /// Driver-side single-user reassignment (churn, arrivals, departures):
    /// [`State::reassign`] plus the bits of the two resources it touches.
    /// Unit demand only, like the drivers that call it.
    pub fn reassign(&mut self, inst: &Instance, u: UserId, to: ResourceId) {
        let from = self.state.resource_of(u);
        if from == to {
            return;
        }
        self.state.reassign(u, to);
        self.refresh_bits(inst, from.0);
        self.refresh_bits(inst, to.0);
    }

    /// Consistency check: the loads equal a recount of the assignment, and
    /// every bitmap bit equals `!`[`Instance::satisfies`] at its resource's
    /// load. `O(n + m·K)` — test/debug use only.
    pub fn assert_consistent<I: Demands>(&self, inst: &I) {
        let base = inst.instance();
        assert_eq!(self.state.num_users(), base.num_users(), "user count");
        let mut recount = vec![0u32; base.num_resources()];
        for (u, &r) in self.state.assignment.iter().enumerate() {
            recount[r.index()] += inst.weight(UserId(u as u32));
        }
        assert_eq!(
            self.state.loads, recount,
            "loads drifted from the assignment"
        );
        for k in 0..self.classes {
            for (r, &load) in recount.iter().enumerate() {
                let (k, r) = (ClassId(k as u32), ResourceId(r as u32));
                assert_eq!(
                    self.is_unsat(k, r),
                    !base.satisfies(k, r, load),
                    "bit ({k:?}, {r:?})"
                );
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
    fn view_mirrors_state_and_bitmap_matches_satisfaction() {
        let (inst, state) = hotspot(100, 16, 5);
        let view = RoundView::new(&inst, &state);
        assert_eq!(view.state(), &state);
        view.assert_consistent(&inst);
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
        // 300 users over ten speed-60 resources: the strict class's cap is
        // 30, the lenient class's 60, so in a random placement many
        // resources satisfy one class and not the other
        let inst = InstanceBuilder::new()
            .speeds(vec![60.0; 10])
            .latency_class(0.5, 140)
            .latency_class(1.0, 160)
            .build()
            .unwrap();
        let n = inst.num_users();
        let mut scratch = ShardScratch::new();
        let mut deltas = ShardDeltas::new(inst.num_resources());
        for state in [State::all_on(&inst, ResourceId(0)), State::random(&inst, 5)] {
            let view = RoundView::new(&inst, &state);
            view.assert_consistent(&inst);
            for proto in registry(&inst) {
                for round in 0..4 {
                    let mut want = Vec::new();
                    decide_range_into(&inst, &state, proto.as_ref(), 3, round, 0, n, &mut want);
                    // uneven shards, the last across the class boundary:
                    // the kernel reads the instance's class ids at each
                    // shard's offset
                    let mut got = Vec::new();
                    for (lo, hi) in [(0, 128), (128, 129), (129, n)] {
                        view.decide_shard_into(
                            &inst,
                            proto.as_ref(),
                            3,
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
            assert_eq!(view.state(), &state);
            view.assert_consistent(&inst);
            if state.is_legal(&inst) {
                break;
            }
        }
        assert!(state.is_legal(&inst), "sanity: run converges");
    }

    #[test]
    fn reassign_keeps_view_synced() {
        // twelve users on resource 0 (cap 10): the moves below flip its
        // bit from the `from` side (11 → 10), then from the `to` side
        // (10 → 11), then from the `from` side again
        let (inst, mut state) = hotspot(12, 4, 10);
        let mut view = RoundView::new(&inst, &state);
        for (u, to) in [(0u32, 1u32), (1, 2), (2, 3), (1, 0), (2, 0), (3, 3)] {
            state.reassign(UserId(u), ResourceId(to));
            view.reassign(&inst, UserId(u), ResourceId(to));
            assert_eq!(view.state(), &state);
            view.assert_consistent(&inst);
        }
    }

    #[test]
    fn view_legality_matches_state() {
        let (inst, mut state) = hotspot(300, 16, 24);
        let mut view = RoundView::new(&inst, &state);
        let users: Vec<UserId> = view.unsatisfied_users(&inst).collect();
        assert_eq!(users, state.unsatisfied(&inst));
        assert!(!users.is_empty());
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
            assert_eq!(view.state(), &state);
            view.assert_consistent(&inst);
            let users: Vec<UserId> = view.unsatisfied_users(&inst).collect();
            assert_eq!(users, state.unsatisfied(&inst));
            if users.is_empty() {
                break;
            }
        }
        assert!(state.is_legal(&inst), "sanity: run converges");
        assert_eq!(view.into_state(), state);
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
        let users: Vec<UserId> = view.unsatisfied_users(&inst).collect();
        assert_eq!(users, state.unsatisfied(&inst));
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
        view.assert_consistent(&inst);
        assert_eq!(
            view.unsatisfied_users(&inst).count(),
            300,
            "users, not weight"
        );
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
            assert_eq!(view.state(), &state);
            view.assert_consistent(&inst);
            let users: Vec<UserId> = view.unsatisfied_users(&inst).collect();
            assert_eq!(users, state.unsatisfied(&inst));
            if state.is_legal(&inst) {
                break;
            }
        }
        assert_eq!(view.into_state(), state);
    }
}
