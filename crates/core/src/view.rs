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
//! * a **blocked shard kernel** ([`RoundReads::decide_chunk`]): it
//!   gathers 256 unsatisfied users at a time on the stack, folds their RNG
//!   bases in one call ([`qlb_rng::fold_round_bases`], vectorised at run
//!   time) and decides them in one [`Protocol::decide_block`] call (for
//!   [`SlackDamped`](crate::SlackDamped), in AVX-512 lanes). The engine writes
//!   each mover's new resource into its shard's chunk of the assignment;
//!   the emit mode ([`RoundView::decide_shard_into`]) lists the moves;
//! * **per-shard delta buffers** ([`ShardDeltas`]): shards record net
//!   per-resource load deltas privately; the coordinator merges them after
//!   the barrier ([`RoundView::merge_loads`] / [`RoundView::repair_touched`])
//!   — no shared counters, no atomics, no cross-shard write traffic.
//!
//! Writing in place cannot change a decision: a user's decision reads
//! only its own assignment entry and the start-of-round loads and bitmaps,
//! which no shard writes. Bit-identity with the dense reference scan
//! ([`decide_round_into`](crate::step::decide_round_into)) is by
//! construction: the scan's filter is *exactly* the "satisfied users do
//! nothing and consume no randomness" gate of [`decide_user`], and the
//! block call decides each user draw-for-draw as the post-gate step
//! ([`decide_unsatisfied_user`](crate::step::decide_unsatisfied_user),
//! its default) does on the same `(seed, user, round)` streams. Protocols
//! that act while satisfied bypass the filter and run the unfiltered
//! kernel.
//!
//! The view serves weighted instances too (see [`Demands`]): loads are
//! total demand and shard deltas carry each mover's weight.

use crate::ids::{ClassId, ResourceId, UserId};
use crate::instance::{Demands, Instance};
use crate::protocol::Protocol;
use crate::state::{Move, State};
use crate::step::{decide_ids, decide_user, SHARD_BLOCK};

/// Holds nothing: the blocked kernel keeps its candidates on the stack. It
/// remains because [`RoundView::decide_shard_into`] takes one, and that
/// signature is public API that external benchmark drivers build against.
#[derive(Default)]
pub struct ShardScratch;

impl ShardScratch {
    /// Fresh empty scratch.
    pub fn new() -> Self {
        Self
    }
}

/// A shard-private accumulator of net per-resource load deltas — a
/// wrapping 32-bit delta per resource (exact whenever the load it lands on
/// fits a `u32`) and a bitset of the touched resources, whose words merge,
/// repair and reset walk. After the barrier the coordinator folds every
/// shard's deltas into the [`RoundView`], so pooled rounds need no atomics
/// and no shared cache lines.
pub struct ShardDeltas {
    delta: Vec<i32>,
    touched: Vec<u64>,
}

/// Call `f` with the index of every set bit of `words`, in order.
#[inline]
fn for_each_bit(words: &[u64], mut f: impl FnMut(u32)) {
    for (i, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(i as u32 * 64 + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

impl ShardDeltas {
    /// Deltas over `m` resources, all zero.
    pub fn new(m: usize) -> Self {
        Self {
            delta: vec![0; m],
            touched: vec![0; m.div_ceil(64)],
        }
    }

    /// Record one move of a user with demand `w`.
    ///
    /// # Panics
    /// Panics if either resource is out of range.
    #[inline]
    pub fn record(&mut self, from: ResourceId, to: ResourceId, w: u32) {
        for (r, d) in [(from.0, (w as i32).wrapping_neg()), (to.0, w as i32)] {
            let slot = &mut self.delta[r as usize];
            *slot = slot.wrapping_add(d);
            self.touched[(r >> 6) as usize] |= 1 << (r & 63);
        }
    }

    /// Start a new round: zero the touched deltas and clear the bitset.
    pub fn advance(&mut self) {
        let delta = &mut self.delta;
        for_each_bit(&self.touched, |r| delta[r as usize] = 0);
        self.touched.fill(0);
    }
}

/// The round state of full rounds plus its unsatisfied-resource bitmaps
/// (see the module docs).
///
/// Owns the [`State`] it is built from ([`RoundView::from_state`], or
/// [`RoundView::new`] from a copy) and hands it back with
/// [`RoundView::into_state`]; [`RoundView::state`] reads it in between.
/// Full rounds write their movers in place ([`RoundView::split_round`])
/// before [`RoundView::merge_loads`] and [`RoundView::repair_touched`].
/// The capacity tables and class ids stay in the [`Instance`], shared with
/// every shard.
pub struct RoundView {
    /// The round state. During a round, shards read its loads and write
    /// only their own chunks of its assignment.
    state: State,
    /// `classes` bitmaps of `words` words each: bit `r` of bitmap `k` is
    /// set iff a class-`k` user on `r` would be **unsatisfied**.
    unsat: Vec<u64>,
    words: usize,
    classes: usize,
}

/// What every shard of an in-place round reads: the start-of-round loads
/// and the unsatisfied bitmaps (see [`RoundView::split_round`]).
#[derive(Clone, Copy)]
pub struct RoundReads<'a> {
    loads: &'a [u32],
    unsat: &'a [u64],
}

impl RoundReads<'_> {
    /// The shard kernel (see the module docs) over users
    /// `lo..lo + assign.len()`, whose chunk of the assignment `assign` is:
    /// each decided move goes into `deltas`, then to `moved` with `assign`
    /// and the user's offset in it. Returns the move count and the movers'
    /// total demand. The engine's `moved` writes the new resource into
    /// `assign`; the round ends with every shard's
    /// [`RoundView::merge_loads`], then every [`RoundView::repair_touched`].
    ///
    /// # Panics
    /// Panics if `inst` has another class count than the view was built
    /// for, on a resource out of range in `assign`, or on a move to one
    /// (before `moved` sees it).
    #[allow(clippy::too_many_arguments)]
    pub fn decide_chunk<I: Demands, P: Protocol + ?Sized, A: AsRef<[ResourceId]>>(
        &self,
        inst: &I,
        proto: &P,
        seed: u64,
        round: u64,
        lo: usize,
        mut assign: A,
        deltas: &mut ShardDeltas,
        mut moved: impl FnMut(&mut A, usize, Move),
    ) -> (usize, u64) {
        let (base, words) = (inst.instance(), self.loads.len().div_ceil(64));
        let same_classes = self.unsat.len() == base.num_classes() * words;
        assert!(same_classes, "view built for another instance");
        let mut batch = (0, 0);
        let mut act = |assign: &mut A, i: usize, mv: Move| {
            let w = inst.weight(mv.user);
            deltas.record(mv.from, mv.to, w);
            moved(assign, i, mv);
            batch = (batch.0 + 1, batch.1 + w as u64);
        };
        let len = assign.as_ref().len();
        if proto.acts_when_satisfied() {
            // The filter would drop satisfied users the protocol wants to
            // see; run the unfiltered reference kernel per user instead.
            for i in 0..len {
                let (own, user) = (assign.as_ref()[i], UserId((lo + i) as u32));
                if let Some(mv) = decide_user(inst, self.loads, own, user, proto, seed, round) {
                    act(&mut assign, i, mv);
                }
            }
            return batch;
        }
        let class_of = base.class_range(lo, lo + len);
        let mut ids = [0u32; SHARD_BLOCK];
        let mut next = 0;
        while next < len {
            let count;
            (count, next) = match class_of {
                None => self.gather(assign.as_ref(), |_| 0, lo, next, &mut ids),
                Some(c) => {
                    let class_word = |i: usize| c[i].0 as usize * words;
                    self.gather(assign.as_ref(), class_word, lo, next, &mut ids)
                }
            };
            let ids = &ids[..count];
            decide_ids(
                inst,
                self.loads,
                ids,
                lo,
                &mut assign,
                proto,
                seed,
                round,
                &mut act,
            );
        }
        batch
    }

    /// Gather into `ids`, until it is full, the users from offset `from` of
    /// `assign` (user `lo` first) whose bit is set in the class bitmap at
    /// `class_word(offset)` — exactly the users the dense kernel would not
    /// early-return for. Returns the count and the offset to resume at.
    #[inline]
    fn gather(
        &self,
        assign: &[ResourceId],
        class_word: impl Fn(usize) -> usize,
        lo: usize,
        from: usize,
        ids: &mut [u32; SHARD_BLOCK],
    ) -> (usize, usize) {
        let mut count = 0;
        for (i, &ResourceId(r)) in assign.iter().enumerate().skip(from) {
            // checked: `assign` comes from the caller, so `r` may be out of
            // range
            let w = self.unsat[class_word(i) + (r >> 6) as usize];
            if (w >> (r & 63)) & 1 != 0 {
                ids[count] = (lo + i) as u32;
                count += 1;
                if count == SHARD_BLOCK {
                    return (count, i + 1);
                }
            }
        }
        (count, assign.len())
    }
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

    /// Split the view for one in-place round into the reads every shard
    /// decides against and the whole assignment, which the caller cuts
    /// into one disjoint chunk per shard (`split_at_mut` on the shard
    /// bounds) for [`RoundReads::decide_chunk`].
    pub fn split_round(&mut self) -> (RoundReads<'_>, &mut [ResourceId]) {
        let (loads, unsat) = (&self.state.loads, &self.unsat);
        (RoundReads { loads, unsat }, &mut self.state.assignment)
    }

    /// Decide the users of shard `[lo, hi)` with the kernel's emit mode,
    /// appending migrations to `out` (in user order) and recording their
    /// load effects into `deltas`; the view is not changed. Identical
    /// output to [`decide_range_into`](crate::step::decide_range_into) on
    /// the held state. `scratch` is unused (see [`ShardScratch`]).
    ///
    /// # Panics
    /// As [`RoundReads::decide_chunk`].
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
        _scratch: &mut ShardScratch,
        deltas: &mut ShardDeltas,
    ) {
        let (loads, unsat) = (&self.state.loads, &self.unsat);
        let push = |_: &mut &[ResourceId], _: usize, mv: Move| out.push(mv);
        let assign = &self.state.assignment[lo..hi];
        RoundReads { loads, unsat }
            .decide_chunk(inst, proto, seed, round, lo, assign, deltas, push);
    }

    /// Coordinator merge, phase 1 of 2: fold one shard's load deltas into
    /// the state. Call once per shard, **all shards before any
    /// [`RoundView::repair_touched`]** — a resource touched by two shards
    /// must see both deltas before its bit is recomputed.
    pub fn merge_loads(&mut self, deltas: &ShardDeltas) {
        let loads = &mut self.state.loads;
        for_each_bit(&deltas.touched, |r| {
            let l = &mut loads[r as usize];
            *l = l.wrapping_add_signed(deltas.delta[r as usize]);
        });
    }

    /// Apply the moves of an emit-mode round to the assignment: all of
    /// them at once, or one shard's list per call, after every shard's
    /// [`RoundView::merge_loads`].
    ///
    /// # Panics
    /// Panics on a move to a resource the state does not have.
    pub fn apply_assignments(&mut self, moves: &[Move]) {
        let m = self.state.loads.len();
        let assign = &mut self.state.assignment;
        for mv in moves {
            debug_assert_eq!(assign[mv.user.index()], mv.from, "stale move");
            assert!(mv.to.index() < m, "move to a resource out of range");
            assign[mv.user.index()] = mv.to;
        }
    }

    /// The unsatisfied users in increasing order: an `O(n)` walk of the
    /// assignment probing each user's resource bit for its class.
    pub fn unsatisfied_users<'a, I: Demands>(
        &'a self,
        inst: &'a I,
    ) -> impl Iterator<Item = UserId> + 'a {
        let (base, assign) = (inst.instance(), &self.state.assignment);
        (0..assign.len() as u32)
            .map(UserId)
            .filter(move |&u| self.is_unsat(base.class_of(u), assign[u.index()]))
    }

    /// Coordinator merge, phase 2 of 2: recompute the unsatisfied bits of
    /// one shard's touched resources (loads already final) and reset the
    /// shard's deltas for the next round.
    pub fn repair_touched<I: Demands>(&mut self, inst: &I, deltas: &mut ShardDeltas) {
        for_each_bit(&deltas.touched, |r| self.refresh_bits(inst.instance(), r));
        deltas.advance();
    }

    /// Consistency check: the loads equal a recount of the assignment, and
    /// every bitmap bit equals `!`[`Instance::satisfies`] at its resource's
    /// load. `O(n + m·K)` — test/debug use only. It allocates nothing (it
    /// takes every user's demand off its load, checks that all loads
    /// reached zero and puts the demands back), so debug builds run it
    /// after every full round.
    pub fn assert_consistent<I: Demands>(&mut self, inst: &I) {
        let base = inst.instance();
        assert_eq!(self.state.num_users(), base.num_users(), "user count");
        for k in 0..self.classes {
            for (r, &load) in self.state.loads.iter().enumerate() {
                let (k, r) = (ClassId(k as u32), ResourceId(r as u32));
                assert_eq!(
                    self.is_unsat(k, r),
                    !base.satisfies(k, r, load),
                    "bit ({k:?}, {r:?})"
                );
            }
        }
        let (assign, loads) = (&self.state.assignment, &mut self.state.loads);
        let demands =
            || (0..assign.len()).map(|u| (assign[u].index(), inst.weight(UserId(u as u32))));
        demands().for_each(|(r, w)| loads[r] = loads[r].wrapping_sub(w));
        let drifted = loads.iter().position(|&l| l != 0);
        demands().for_each(|(r, w)| loads[r] = loads[r].wrapping_add(w));
        assert_eq!(drifted, None, "loads drifted from the assignment");
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
        let mut view = RoundView::new(&inst, &state);
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
            let mut view = RoundView::new(&inst, &state);
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
    fn shard_deltas_reset_clears_touched_bits() {
        let mut d = ShardDeltas::new(70);
        d.record(ResourceId(0), ResourceId(65), 1);
        d.record(ResourceId(2), ResourceId(65), 1);
        assert_eq!((d.delta[0], d.delta[65], d.delta[2]), (-1, 2, -1));
        assert_eq!(d.touched, [0b101, 0b10]);
        d.advance();
        assert_eq!(d.touched, [0, 0]);
        assert!(d.delta.iter().all(|&x| x == 0));
        d.record(ResourceId(3), ResourceId(0), 4);
        assert_eq!((d.delta[3], d.delta[0]), (-4, 4));
        assert_eq!(d.touched, [0b1001, 0]);
        // a move and its return leave a touched resource at net zero
        d.record(ResourceId(0), ResourceId(3), 4);
        assert_eq!((d.delta[3], d.delta[0]), (0, 0));
        assert_eq!(d.touched, [0b1001, 0]);
    }

    #[test]
    fn merge_wraps_back_to_exact_loads() {
        // deltas are 32-bit and wrap; a load plus its delta is still exact
        let inst = Instance::with_capacities(4, vec![u32::MAX, u32::MAX]).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let mut view = RoundView::new(&inst, &state);
        let mut d = ShardDeltas::new(2);
        for u in 0..4 {
            d.record(ResourceId(0), ResourceId(1), 1);
            view.state.assignment[u] = ResourceId(1);
        }
        view.merge_loads(&d);
        view.repair_touched(&inst, &mut d);
        assert_eq!(view.state().loads(), &[0, 4]);
        view.assert_consistent(&inst);
    }

    /// Run rounds of `proto` from `state` twice, in place over `bounds` and
    /// by emitting the moves over the same bounds, and check after each
    /// round that both reach the same state and that the in-place counts
    /// match the emitted moves.
    fn in_place_matches_emit<I: Demands>(
        inst: &I,
        state: &State,
        proto: &dyn Protocol,
        bounds: &[(usize, usize)],
    ) {
        let m = inst.instance().num_resources();
        let mut emit = RoundView::new(inst, state);
        let mut in_place = RoundView::new(inst, state);
        let mut emit_deltas: Vec<ShardDeltas> =
            bounds.iter().map(|_| ShardDeltas::new(m)).collect();
        let mut deltas: Vec<ShardDeltas> = bounds.iter().map(|_| ShardDeltas::new(m)).collect();
        let mut scratch = ShardScratch::new();
        for round in 0..6u64 {
            let mut moves = Vec::new();
            for (&(lo, hi), d) in bounds.iter().zip(emit_deltas.iter_mut()) {
                emit.decide_shard_into(inst, proto, 9, round, lo, hi, &mut moves, &mut scratch, d);
            }
            for d in &emit_deltas {
                emit.merge_loads(d);
            }
            emit.apply_assignments(&moves);
            for d in emit_deltas.iter_mut() {
                emit.repair_touched(inst, d);
            }

            let (mut count, mut weight) = (0, 0);
            let (reads, mut rest) = in_place.split_round();
            for (&(lo, hi), d) in bounds.iter().zip(deltas.iter_mut()) {
                let (chunk, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let write = |assign: &mut &mut [ResourceId], i: usize, mv: Move| assign[i] = mv.to;
                let (c, w) = reads.decide_chunk(inst, proto, 9, round, lo, chunk, d, write);
                count += c;
                weight += w;
            }
            for d in &deltas {
                in_place.merge_loads(d);
            }
            for d in deltas.iter_mut() {
                in_place.repair_touched(inst, d);
            }

            let name = proto.name();
            assert_eq!(in_place.state(), emit.state(), "{name} round {round}");
            assert_eq!(count, moves.len(), "{name} round {round}");
            let emitted: u64 = moves.iter().map(|mv| inst.weight(mv.user) as u64).sum();
            assert_eq!(weight, emitted, "{name} round {round}");
            in_place.assert_consistent(inst);
        }
    }

    #[test]
    fn in_place_rounds_match_emitted_rounds() {
        let (inst, state) = hotspot(500, 16, 40);
        for proto in registry(&inst) {
            in_place_matches_emit(
                &inst,
                &state,
                proto.as_ref(),
                &[(0, 128), (128, 129), (129, 500)],
            );
        }
        let multi = InstanceBuilder::new()
            .speeds(vec![60.0; 10])
            .latency_class(0.5, 140)
            .latency_class(1.0, 160)
            .build()
            .unwrap();
        let state = State::random(&multi, 5);
        for proto in registry(&multi) {
            in_place_matches_emit(&multi, &state, proto.as_ref(), &[(0, 150), (150, 300)]);
        }
        let (weighted, state) = weighted_crowd(300);
        in_place_matches_emit(
            &weighted,
            &state,
            &SlackDamped::default(),
            &[(0, 100), (100, 300)],
        );
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
        let mut view = RoundView::new(&inst, &state);
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
