//! Incrementally-maintained active set: who is unsatisfied *right now*.
//!
//! Dense round execution walks all `n` users even when only a handful are
//! still unsatisfied, so the endgame of a run — the long tail where the last
//! few users hunt for room — costs `O(n)` per round. [`ActiveIndex`] makes
//! that tail `O(active)`: it keeps, on flat arrays only,
//!
//! * per-resource **occupant lists** as intrusive doubly-linked lists
//!   (`head[r]`, `next[u]`, `prev[u]`), and
//! * the **unsatisfied set** as a two-level bitset in user order: one bit
//!   per user, one summary bit per nonzero 64-bit word, and a count.
//!
//! Both are maintained under a batch of [`Move`]s by the **recheck rule**:
//! a user's satisfaction depends solely on its own resource's load and its
//! class threshold, so a user who stayed put can flip only on a resource
//! whose load crossed some class's threshold during the batch. Each touched
//! resource's load is recorded at first touch; its occupants are rechecked
//! only if `satisfies(k, r, old) != satisfies(k, r, new)` for some class
//! `k`, and every mover is then rechecked on its own.
//!
//! [`ActiveIndex::active`] and [`ActiveIndex::sorted_active_into`] produce
//! user order by an ordered bit scan, which is what the sparse executor
//! uses to stay bit-identical to the dense one.

use crate::ids::{ClassId, ResourceId, UserId};
use crate::instance::{Demands, Instance};
use crate::state::{Move, State};

/// End of an occupant list.
const NIL: u32 = u32::MAX;

/// Occupant lists plus the unsatisfied set, kept in sync with a [`State`]
/// through [`ActiveIndex::apply_moves`]. Works for unit and weighted
/// instances alike (see [`Demands`]): satisfaction is still a function of
/// the user's resource's load alone.
#[derive(Debug, Clone)]
pub struct ActiveIndex {
    /// `head[r]` = first occupant of resource `r`, or [`NIL`].
    head: Vec<u32>,
    /// `next[u]` = the occupant after `u` on its resource, or [`NIL`].
    next: Vec<u32>,
    /// `prev[u]` = the occupant before `u` on its resource, or [`NIL`].
    prev: Vec<u32>,
    /// Bit `u % 64` of word `u / 64` is set iff `u` is unsatisfied.
    bits: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` is set iff `bits[w] != 0`.
    summary: Vec<u64>,
    /// Number of set bits in `bits`.
    count: usize,
    /// `is_touched[r]` iff `r` is in `touched`.
    is_touched: Vec<bool>,
    /// Resources touched by the current batch, with their load at first
    /// touch (the load before the batch).
    touched: Vec<(ResourceId, u32)>,
}

impl ActiveIndex {
    /// Build the index for `state` in `O(n + m)`, with no per-resource
    /// allocation.
    pub fn new<I: Demands>(inst: &I, state: &State) -> Self {
        let n = state.num_users();
        let m = inst.instance().num_resources();
        let mut head = vec![NIL; m];
        let mut next = vec![NIL; n];
        let mut prev = vec![NIL; n];
        // pushing at the front in reverse user order leaves every list in
        // user order
        for (u, &r) in state.assignment().iter().enumerate().rev() {
            let h = head[r.index()];
            next[u] = h;
            if h != NIL {
                prev[h as usize] = u as u32;
            }
            head[r.index()] = u as u32;
        }
        // one word at a time, so each word is stored once
        let mut bits = vec![0u64; n.div_ceil(64)];
        for (w, word) in bits.iter_mut().enumerate() {
            let lo = w * 64;
            for u in lo..(lo + 64).min(n) {
                if !state.is_satisfied(inst, UserId(u as u32)) {
                    *word |= 1 << (u - lo);
                }
            }
        }
        let mut summary = vec![0u64; bits.len().div_ceil(64)];
        for (w, &word) in bits.iter().enumerate() {
            if word != 0 {
                summary[w / 64] |= 1 << (w % 64);
            }
        }
        let count = bits.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            head,
            next,
            prev,
            bits,
            summary,
            count,
            is_touched: vec![false; m],
            touched: Vec::new(),
        }
    }

    /// Number of currently unsatisfied users.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.count
    }

    /// True iff every user is satisfied — equivalent to
    /// [`State::is_legal`] on the synchronized state, in O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Is `u` currently unsatisfied?
    #[inline]
    pub fn contains(&self, u: UserId) -> bool {
        self.bits[u.index() / 64] & (1 << (u.index() % 64)) != 0
    }

    /// The unsatisfied users in increasing user order, in
    /// `O(n / 4096 + active)`.
    pub fn active(&self) -> impl Iterator<Item = UserId> + '_ {
        ones(&self.summary)
            .flat_map(|w| Ones::at(self.bits[w], w))
            .map(|u| UserId(u as u32))
    }

    /// Users currently on resource `r`, in `O(occupancy)`. The order is
    /// user order after [`ActiveIndex::new`] and arbitrary once users move.
    pub fn occupants(&self, r: ResourceId) -> impl Iterator<Item = UserId> + '_ {
        let mut u = self.head[r.index()];
        std::iter::from_fn(move || {
            (u != NIL).then(|| {
                let cur = u;
                u = self.next[cur as usize];
                UserId(cur)
            })
        })
    }

    /// Fill `buf` with the unsatisfied users in increasing user order —
    /// the collected form of [`ActiveIndex::active`].
    pub fn sorted_active_into(&self, buf: &mut Vec<UserId>) {
        buf.clear();
        buf.reserve(self.count);
        buf.extend(self.active());
    }

    /// Apply a batch of migrations to `state` and bring the index up to
    /// date, in time `O(batch + Σ occupancy of resources whose load
    /// crossed a class threshold)`.
    ///
    /// The batch must have been decided against the current `state`
    /// (synchronous-round semantics), exactly as for [`State::apply_moves`].
    pub fn apply_moves<I: Demands>(&mut self, inst: &I, state: &mut State, moves: &[Move]) {
        for mv in moves {
            self.touch(mv.from, state.load(mv.from));
            self.touch(mv.to, state.load(mv.to));
            self.relocate(mv.user, mv.from, mv.to);
        }
        state.apply_moves(inst, moves);
        self.recheck_crossed(inst, state, None);
        for mv in moves {
            self.set_active(mv.user, !state.is_satisfied(inst, mv.user));
        }
        self.debug_assert_synced(inst, state);
    }

    /// Apply a batch of **driver-side reassignments** (churn: arrivals,
    /// departures, failures re-homing users) to `state` and the index.
    ///
    /// Unlike [`ActiveIndex::apply_moves`], the changes need not reference
    /// start-of-round positions — each entry `(u, to)` re-homes `u` from
    /// wherever it currently is. Cost is `O(batch + Σ occupancy of touched
    /// non-exempt resources whose load crossed a class threshold)`.
    ///
    /// `exempt` marks a resource whose occupants' satisfaction can never
    /// change (an effectively infinite-capacity *parking* resource, as used
    /// by the open-system driver): its occupant list — typically the bulk
    /// of the user population — is never rechecked. The moved users
    /// themselves are always rechecked individually, so a user parked by
    /// this batch leaves the unsatisfied set correctly.
    pub fn apply_reassignments(
        &mut self,
        inst: &Instance,
        state: &mut State,
        changes: &[(UserId, ResourceId)],
        exempt: Option<ResourceId>,
    ) {
        for &(u, to) in changes {
            let from = state.resource_of(u);
            if from == to {
                continue;
            }
            self.touch(from, state.load(from));
            self.touch(to, state.load(to));
            state.reassign(u, to);
            self.relocate(u, from, to);
        }
        self.recheck_crossed(inst, state, exempt);
        for &(u, _) in changes {
            self.set_active(u, !state.is_satisfied(inst, u));
        }
        self.debug_assert_synced(inst, state);
    }

    /// Recheck the occupants of every touched resource but `exempt` whose
    /// load crossed a class threshold, and clear the touched set.
    // `#[inline]` here and on the helpers below: the generic
    // `apply_moves` calling them is instantiated in the caller's crate,
    // where a non-inline private helper stays an opaque call
    #[inline]
    fn recheck_crossed<I: Demands>(&mut self, inst: &I, state: &State, exempt: Option<ResourceId>) {
        let base = inst.instance();
        let touched = std::mem::take(&mut self.touched);
        for &(r, old) in &touched {
            self.is_touched[r.index()] = false;
            let new = state.load(r);
            if Some(r) != exempt && crosses_threshold(base, r, old, new) {
                self.recheck_occupants(base, r, new);
            }
        }
        self.touched = touched;
        self.touched.clear();
    }

    /// Recheck every occupant of `r` at its current `load`.
    #[inline]
    fn recheck_occupants(&mut self, inst: &Instance, r: ResourceId, load: u32) {
        let mut u = self.head[r.index()];
        while u != NIL {
            let k = inst.class_of(UserId(u));
            self.set_active(UserId(u), !inst.satisfies(k, r, load));
            u = self.next[u as usize];
        }
    }

    /// Move `u` from `from`'s occupant list to the front of `to`'s.
    #[inline]
    fn relocate(&mut self, u: UserId, from: ResourceId, to: ResourceId) {
        let i = u.index();
        let (p, nx) = (self.prev[i], self.next[i]);
        if p == NIL {
            debug_assert_eq!(self.head[from.index()], u.0, "occupant list out of sync");
            self.head[from.index()] = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != NIL {
            self.prev[nx as usize] = p;
        }
        let h = self.head[to.index()];
        self.next[i] = h;
        self.prev[i] = NIL;
        if h != NIL {
            self.prev[h as usize] = u.0;
        }
        self.head[to.index()] = u.0;
    }

    /// Record `r`, at its current `load`, as touched — once per batch.
    #[inline]
    fn touch(&mut self, r: ResourceId, load: u32) {
        if !self.is_touched[r.index()] {
            self.is_touched[r.index()] = true;
            self.touched.push((r, load));
        }
    }

    /// Insert into / remove from the unsatisfied set in O(1).
    #[inline]
    fn set_active(&mut self, u: UserId, active: bool) {
        let w = u.index() / 64;
        let bit = 1u64 << (u.index() % 64);
        let old = self.bits[w];
        if (old & bit != 0) == active {
            return;
        }
        let new = old ^ bit;
        self.bits[w] = new;
        let summary_bit = 1u64 << (w % 64);
        if active {
            self.count += 1;
            self.summary[w / 64] |= summary_bit;
        } else {
            self.count -= 1;
            if new == 0 {
                self.summary[w / 64] &= !summary_bit;
            }
        }
    }

    /// In debug builds, recount the unsatisfied set from scratch in `O(n)`
    /// and panic on any divergence — the recheck rule's self-check, in the
    /// style of [`State::debug_assert_invariants`].
    #[inline]
    fn debug_assert_synced<I: Demands>(&self, inst: &I, state: &State) {
        #[cfg(debug_assertions)]
        self.assert_unsat_synced(inst, state);
        #[cfg(not(debug_assertions))]
        let _ = (inst, state);
    }

    /// The unsatisfied set, its summary level and its count all match a
    /// fresh recomputation, in `O(n)`. The test is [`Instance::satisfies`]
    /// written out over flat slices: it runs after every batch in debug
    /// builds, where the calls would not be inlined.
    fn assert_unsat_synced<I: Demands>(&self, inst: &I, state: &State) {
        let base = inst.instance();
        let (assignment, loads) = (state.assignment(), state.loads());
        let (caps, m) = (base.eff_cap_table(), loads.len());
        let single = base.num_classes() == 1;
        let mut bits = vec![0u64; self.bits.len()];
        let mut u = 0;
        while u < assignment.len() {
            let r = assignment[u].0 as usize;
            let k = if single {
                0
            } else {
                base.class_of(UserId(u as u32)).0 as usize
            };
            let c = caps[k * m + r];
            if !(c > 0 && loads[r] <= c) {
                bits[u / 64] |= 1 << (u % 64);
            }
            u += 1;
        }
        if let Some(w) = (0..bits.len()).find(|&w| bits[w] != self.bits[w]) {
            let u = w * 64 + (bits[w] ^ self.bits[w]).trailing_zeros() as usize;
            panic!("unsatisfied set out of sync at u{u}");
        }
        let count: u32 = bits.iter().map(|w| w.count_ones()).sum();
        assert_eq!(self.count, count as usize, "unsatisfied count stale");
        for (w, &word) in bits.iter().enumerate() {
            assert_eq!(
                self.summary[w / 64] & (1 << (w % 64)) != 0,
                word != 0,
                "summary bit of word {w} stale"
            );
        }
    }

    /// Brute-force consistency check against a from-scratch recomputation;
    /// used by property tests and debug assertions. `O(n + m)`.
    ///
    /// # Panics
    /// Panics with a description of the first divergence found.
    pub fn assert_consistent<I: Demands>(&self, inst: &I, state: &State) {
        // occupant lists partition the users according to the assignment
        let mut seen = vec![false; state.num_users()];
        for r in inst.instance().resource_ids() {
            let mut weight = 0u32;
            let mut before = NIL;
            for u in self.occupants(r) {
                assert_eq!(
                    state.resource_of(u),
                    r,
                    "occupant list of {r} holds {u} which is elsewhere"
                );
                assert_eq!(self.prev[u.index()], before, "back link of {u} out of sync");
                assert!(!seen[u.index()], "{u} occupies two lists");
                seen[u.index()] = true;
                weight += inst.weight(u);
                before = u.0;
            }
            assert_eq!(
                weight,
                state.load(r),
                "occupancy of {r} disagrees with load"
            );
        }
        assert!(seen.iter().all(|&s| s), "occupant lists miss a user");
        assert!(self.touched.is_empty(), "touched set left over");
        self.assert_unsat_synced(inst, state);
    }
}

/// Does some class's satisfaction on `r` differ between loads `a` and `b`?
#[inline]
fn crosses_threshold(inst: &Instance, r: ResourceId, a: u32, b: u32) -> bool {
    a != b
        && (0..inst.num_classes() as u32)
            .any(|k| inst.satisfies(ClassId(k), r, a) != inst.satisfies(ClassId(k), r, b))
}

/// Indices of the set bits of `words`, in increasing order.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| Ones::at(word, w))
}

/// The set bits of one word, as indices `64 · w + bit`.
struct Ones {
    word: u64,
    base: usize,
}

impl Ones {
    #[inline]
    fn at(word: u64, w: usize) -> Self {
        Self { word, base: w * 64 }
    }
}

impl Iterator for Ones {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        (self.word != 0).then(|| {
            let bit = self.word.trailing_zeros() as usize;
            self.word &= self.word - 1;
            self.base + bit
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let k = self.word.count_ones() as usize;
        (k, Some(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn inst_state() -> (Instance, State) {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    fn mv(user: u32, from: u32, to: u32) -> Move {
        Move {
            user: UserId(user),
            from: ResourceId(from),
            to: ResourceId(to),
        }
    }

    #[test]
    fn new_matches_brute_force() {
        let (inst, state) = inst_state();
        let idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 8);
        assert!(!idx.is_empty());
        idx.assert_consistent(&inst, &state);

        let legal = State::round_robin(&inst);
        let idx = ActiveIndex::new(&inst, &legal);
        assert!(idx.is_empty());
        idx.assert_consistent(&inst, &legal);
    }

    #[test]
    fn moves_update_both_sides() {
        let (inst, mut state) = inst_state();
        let mut idx = ActiveIndex::new(&inst, &state);
        // move users 0..=2 off the hotspot; r1 ends at load 3 = cap
        let moves: Vec<Move> = (0..3).map(|u| mv(u, 0, 1)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        idx.assert_consistent(&inst, &state);
        assert!(!idx.contains(UserId(0)), "mover landed within capacity");
        assert!(idx.contains(UserId(3)), "hotspot still overloaded");
        assert_eq!(idx.occupants(ResourceId(1)).count(), 3);
    }

    #[test]
    fn emptying_detects_legality() {
        let (inst, mut state) = inst_state();
        let mut idx = ActiveIndex::new(&inst, &state);
        // spread to loads [2, 2, 2, 2]: legal, set drains to empty
        let moves: Vec<Move> = (2..8).map(|u| mv(u, 0, 1 + (u - 2) / 2)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        idx.assert_consistent(&inst, &state);
        assert!(state.is_legal(&inst));
        assert!(idx.is_empty());
        assert_eq!(idx.num_active(), 0);
    }

    #[test]
    fn sorted_iteration_is_user_order() {
        let (inst, mut state) = inst_state();
        let mut idx = ActiveIndex::new(&inst, &state);
        let moves: Vec<Move> = [5u32, 7, 1].iter().map(|&u| mv(u, 0, 2)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        let mut buf = Vec::new();
        idx.sorted_active_into(&mut buf);
        assert_eq!(buf, state.unsatisfied(&inst));
        assert_eq!(idx.active().collect::<Vec<_>>(), buf);
        assert!(!buf.is_empty());
    }

    #[test]
    fn ordered_scan_crosses_words_and_summary_words() {
        // 9000 users span 141 bit words and 3 summary words; the scan
        // must visit exactly the unsatisfied users, in order, across
        // word boundaries and summary words that go empty; r1 has cap 0,
        // so whoever moves there is unsatisfied
        let inst = Instance::with_capacities(9000, vec![9000, 0]).unwrap();
        let mut state = State::all_on(&inst, ResourceId(0));
        let mut idx = ActiveIndex::new(&inst, &state);
        assert!(idx.is_empty());
        let picks = [0u32, 63, 64, 4095, 4096, 4160, 8999];
        let moves: Vec<Move> = picks.iter().map(|&u| mv(u, 0, 1)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        idx.assert_consistent(&inst, &state);
        let got: Vec<u32> = idx.active().map(|u| u.0).collect();
        assert_eq!(got, picks);
        // drain the middle summary word back to empty
        let back: Vec<Move> = [4096u32, 4160].iter().map(|&u| mv(u, 1, 0)).collect();
        idx.apply_moves(&inst, &mut state, &back);
        idx.assert_consistent(&inst, &state);
        let got: Vec<u32> = idx.active().map(|u| u.0).collect();
        assert_eq!(got, [0, 63, 64, 4095, 8999]);
    }

    #[test]
    fn mover_without_threshold_crossing_leaves_and_joins() {
        // cap 3 everywhere; r0 holds 5 (over), r1 holds 1 (under)
        let inst = Instance::uniform(6, 2, 3).unwrap();
        let r = |i| ResourceId(i);
        let mut state = State::new(&inst, vec![r(0), r(0), r(0), r(0), r(0), r(1)]).unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 5);
        // r0 5 → 4 stays over cap, r1 1 → 2 stays under: no threshold is
        // crossed, so only the mover recheck can drop user 0
        idx.apply_moves(&inst, &mut state, &[mv(0, 0, 1)]);
        assert!(!idx.contains(UserId(0)), "mover must leave the set");
        assert_eq!(idx.num_active(), 4);
        idx.assert_consistent(&inst, &state);
        // r1 2 → 1 stays under, r0 4 → 5 stays over: the mover joins
        idx.apply_moves(&inst, &mut state, &[mv(5, 1, 0)]);
        assert!(idx.contains(UserId(5)), "mover must join the set");
        assert_eq!(idx.num_active(), 5);
        idx.assert_consistent(&inst, &state);
    }

    #[test]
    fn only_the_strict_threshold_crossed() {
        // lenient classes 0 and 2 (cap 4) around strict class 1 (cap 2),
        // so a check of either end class alone misses the crossing; users
        // 0–3 and 6 are lenient, users 4–5 strict
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0, 4.0])
            .latency_class(1.0, 4)
            .latency_class(0.5, 2)
            .latency_class(1.0, 1)
            .build()
            .unwrap();
        assert_eq!(inst.cap(ClassId(0), ResourceId(0)), 4);
        assert_eq!(inst.cap(ClassId(1), ResourceId(0)), 2);
        let r = |i| ResourceId(i);
        // r0: lenient 0, strict 4 (load 2, both fine); r1: lenient 1–3 and
        // strict 5 (load 4, only 5 over its cap); r2: lenient 6
        let mut state = State::new(&inst, vec![r(0), r(1), r(1), r(1), r(0), r(1), r(2)]).unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.active().collect::<Vec<_>>(), [UserId(5)]);
        // lenient user 1 joins r0: 2 → 3 crosses the strict cap only, so
        // staying strict user 4 must be rechecked and join the set
        idx.apply_moves(&inst, &mut state, &[mv(1, 1, 0)]);
        assert!(idx.contains(UserId(4)), "strict stayer over its cap");
        assert!(!idx.contains(UserId(1)), "lenient mover within its cap");
        idx.assert_consistent(&inst, &state);
        // and back: 3 → 2 frees user 4 again
        idx.apply_moves(&inst, &mut state, &[mv(0, 0, 2)]);
        assert!(!idx.contains(UserId(4)), "strict stayer back within cap");
        idx.assert_consistent(&inst, &state);
    }

    #[test]
    fn load_that_leaves_and_returns_rechecks_only_movers() {
        // cap 3 everywhere; r0 over at load 4, r1 and r2 under
        let inst = Instance::uniform(7, 3, 3).unwrap();
        let r = |i| ResourceId(i);
        let mut state = State::new(&inst, vec![r(0), r(0), r(0), r(0), r(1), r(2), r(2)]).unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 4);
        // one user leaves r0 and one arrives: r0 ends where it started, so
        // its stayers keep their state; the arriving user must join
        idx.apply_moves(&inst, &mut state, &[mv(0, 0, 1), mv(5, 2, 0)]);
        assert_eq!(state.load(r(0)), 4);
        assert!(idx.contains(UserId(5)), "arrival on an overloaded resource");
        assert!(
            !idx.contains(UserId(0)),
            "departure to a resource with room"
        );
        assert_eq!(idx.num_active(), 4);
        idx.assert_consistent(&inst, &state);

        // the same shape through reassignments, with r0 visiting load 3
        // (within cap) mid-batch before returning to 4
        let batch = [(UserId(1), r(2)), (UserId(0), r(0))];
        idx.apply_reassignments(&inst, &mut state, &batch, None);
        assert_eq!(state.load(r(0)), 4);
        assert!(idx.contains(UserId(0)), "arrival on an overloaded resource");
        assert!(
            !idx.contains(UserId(1)),
            "departure to a resource with room"
        );
        idx.assert_consistent(&inst, &state);
    }

    #[test]
    fn reassignments_update_like_rebuild() {
        // parking trick shape: last resource has effectively infinite cap
        let inst = Instance::with_capacities(8, vec![3, 3, u32::MAX]).unwrap();
        let parking = ResourceId(2);
        let mut state = State::all_on(&inst, parking);
        let mut idx = ActiveIndex::new(&inst, &state);
        assert!(idx.is_empty(), "parked users are satisfied");

        // arrivals: 5 users onto r0 (cap 3) → all 5 unsatisfied
        let arrivals: Vec<(UserId, ResourceId)> =
            (0..5).map(|u| (UserId(u), ResourceId(0))).collect();
        idx.apply_reassignments(&inst, &mut state, &arrivals, Some(parking));
        idx.assert_consistent(&inst, &state);
        assert_eq!(idx.num_active(), 5);

        // mixed batch: two depart back to parking, one hops to r1
        let batch = vec![
            (UserId(0), parking),
            (UserId(1), parking),
            (UserId(2), ResourceId(1)),
        ];
        idx.apply_reassignments(&inst, &mut state, &batch, Some(parking));
        idx.assert_consistent(&inst, &state);
        // r0 now holds users 3, 4 at load 2 ≤ 3; r1 holds user 2 at 1 ≤ 3
        assert!(idx.is_empty());

        // no-op entries (already there) change nothing
        idx.apply_reassignments(
            &inst,
            &mut state,
            &[(UserId(3), ResourceId(0))],
            Some(parking),
        );
        idx.assert_consistent(&inst, &state);
        assert!(idx.is_empty());
    }

    #[test]
    fn multi_class_satisfaction_tracked_per_class() {
        // strict cap 2, lenient cap 4 on both channels
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0])
            .latency_class(0.5, 1)
            .latency_class(1.0, 5)
            .build()
            .unwrap();
        let mut state = State::new(
            &inst,
            vec![
                ResourceId(0), // strict
                ResourceId(0),
                ResourceId(0),
                ResourceId(1),
                ResourceId(1),
                ResourceId(1),
            ],
        )
        .unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        idx.assert_consistent(&inst, &state);
        // load 3 on r0 > strict cap 2, ≤ lenient cap 4: only user 0 active
        assert_eq!(idx.active().collect::<Vec<_>>(), [UserId(0)]);
        // a lenient user joining r0 pushes load to 4: strict still the only
        // unsatisfied one (lenient cap is 4)
        idx.apply_moves(&inst, &mut state, &[mv(3, 1, 0)]);
        idx.assert_consistent(&inst, &state);
        assert_eq!(idx.num_active(), 1);
    }
}
