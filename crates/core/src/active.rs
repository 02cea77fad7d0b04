//! Incrementally-maintained active set: who is unsatisfied *right now*.
//!
//! Dense round execution walks all `n` users even when only a handful are
//! still unsatisfied, so the endgame of a run — the long tail where the last
//! few users hunt for room — costs `O(n)` per round. [`ActiveIndex`] makes
//! that tail `O(active)`: it keeps
//!
//! * per-resource **occupant lists** (who is on each resource), and
//! * the **unsatisfied set** as a swap-remove dense set with a position
//!   index (O(1) insert, remove, and membership; O(active) iteration).
//!
//! Both are maintained under a batch of [`Move`]s in time proportional to
//! the occupancy of the *touched* resources only: a migration changes two
//! congestion values, and a user's satisfaction depends solely on its own
//! resource's congestion, so only occupants of a touched resource can flip.
//!
//! Iteration order of the raw set is arbitrary (swap-remove scrambles it);
//! [`ActiveIndex::sorted_active_into`] produces user order, which is what
//! the sparse executor uses to stay bit-identical to the dense one.

use crate::ids::{ResourceId, UserId};
use crate::instance::{Demands, Instance};
use crate::state::{Move, State};

/// Sentinel for "not in the unsatisfied set".
const NOT_ACTIVE: u32 = u32::MAX;

/// Occupant lists plus the unsatisfied set, kept in sync with a [`State`]
/// through [`ActiveIndex::apply_moves`]. Works for unit and weighted
/// instances alike (see [`Demands`]): satisfaction is still a function of
/// the user's resource's load alone.
#[derive(Debug, Clone)]
pub struct ActiveIndex {
    /// `occupants[r]` = users currently assigned to resource `r`.
    occupants: Vec<Vec<UserId>>,
    /// `pos_in_resource[u]` = index of `u` within its resource's occupant
    /// list.
    pos_in_resource: Vec<u32>,
    /// The unsatisfied users, in arbitrary order.
    unsat: Vec<UserId>,
    /// `unsat_pos[u]` = index of `u` in `unsat`, or [`NOT_ACTIVE`].
    unsat_pos: Vec<u32>,
    /// Generation stamps marking resources touched by the current batch.
    touched_stamp: Vec<u64>,
    /// Scratch list of resources touched by the current batch.
    touched: Vec<ResourceId>,
    /// Current generation for `touched_stamp`.
    generation: u64,
}

impl ActiveIndex {
    /// Build the index for `state` in `O(n + m)`.
    pub fn new<I: Demands>(inst: &I, state: &State) -> Self {
        let n = state.num_users();
        let m = inst.instance().num_resources();
        // pre-size each occupant list from the load vector: one exact
        // allocation per non-empty resource instead of repeated growth
        // (the growth path costs ~5× on states spread over many resources).
        // A weighted load counts demand, not occupants, so it would
        // over-allocate; weighted lists grow instead.
        let mut occupants: Vec<Vec<UserId>> = if I::UNIT {
            state
                .loads()
                .iter()
                .map(|&l| Vec::with_capacity(l as usize))
                .collect()
        } else {
            vec![Vec::new(); m]
        };
        debug_assert_eq!(occupants.len(), m);
        let mut pos_in_resource = vec![0u32; n];
        for (idx, &r) in state.assignment().iter().enumerate() {
            let list = &mut occupants[r.index()];
            pos_in_resource[idx] = list.len() as u32;
            list.push(UserId(idx as u32));
        }
        let mut unsat = Vec::new();
        let mut unsat_pos = vec![NOT_ACTIVE; n];
        for u in inst.instance().users() {
            if !state.is_satisfied(inst, u) {
                unsat_pos[u.index()] = unsat.len() as u32;
                unsat.push(u);
            }
        }
        Self {
            occupants,
            pos_in_resource,
            unsat,
            unsat_pos,
            touched_stamp: vec![0; m],
            touched: Vec::new(),
            generation: 0,
        }
    }

    /// Number of currently unsatisfied users.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.unsat.len()
    }

    /// True iff every user is satisfied — equivalent to
    /// [`State::is_legal`] on the synchronized state, in O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.unsat.is_empty()
    }

    /// Is `u` currently unsatisfied?
    #[inline]
    pub fn contains(&self, u: UserId) -> bool {
        self.unsat_pos[u.index()] != NOT_ACTIVE
    }

    /// The unsatisfied users in **arbitrary** order (O(active) to iterate).
    #[inline]
    pub fn active(&self) -> &[UserId] {
        &self.unsat
    }

    /// Users currently on resource `r`.
    #[inline]
    pub fn occupants(&self, r: ResourceId) -> &[UserId] {
        &self.occupants[r.index()]
    }

    /// Fill `buf` with the unsatisfied users in increasing user order.
    ///
    /// Small active sets are copied and sorted — `O(active · log active)`,
    /// proportional to the active set, never to `n`. When the active set is
    /// a sizeable fraction of `n` (early rounds of a crowded run) an ordered
    /// `O(n)` membership sweep over the position index is cheaper than the
    /// sort, so the method switches over; the produced order is identical.
    pub fn sorted_active_into(&self, buf: &mut Vec<UserId>) {
        buf.clear();
        let active = self.unsat.len();
        // crossover: sort ~ active·log₂(active) vs sweep ~ n reads
        let sweep_cheaper = active
            .checked_mul(usize::BITS as usize - active.leading_zeros() as usize)
            .is_none_or(|sort_work| sort_work / 4 > self.unsat_pos.len());
        if sweep_cheaper {
            buf.extend(
                self.unsat_pos
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p != NOT_ACTIVE)
                    .map(|(u, _)| UserId(u as u32)),
            );
        } else {
            buf.extend_from_slice(&self.unsat);
            buf.sort_unstable();
        }
    }

    /// Apply a batch of migrations to `state` and bring the index up to
    /// date, in time `O(batch + Σ occupancy of touched resources)`.
    ///
    /// The batch must have been decided against the current `state`
    /// (synchronous-round semantics), exactly as for [`State::apply_moves`].
    pub fn apply_moves<I: Demands>(&mut self, inst: &I, state: &mut State, moves: &[Move]) {
        state.apply_moves(inst, moves);

        self.generation += 1;
        debug_assert!(self.touched.is_empty());
        for mv in moves {
            self.relocate(mv.user, mv.from, mv.to);
            self.touch(mv.from);
            self.touch(mv.to);
        }

        // Only occupants of resources whose congestion changed can flip
        // satisfaction; recheck exactly those.
        let touched = std::mem::take(&mut self.touched);
        for &r in &touched {
            for i in 0..self.occupants[r.index()].len() {
                let u = self.occupants[r.index()][i];
                self.set_active(u, !state.is_satisfied(inst, u));
            }
        }
        self.touched = touched;
        self.touched.clear();
    }

    /// Apply a batch of **driver-side reassignments** (churn: arrivals,
    /// departures, failures re-homing users) to `state` and the index.
    ///
    /// Unlike [`ActiveIndex::apply_moves`], the changes need not reference
    /// start-of-round positions — each entry `(u, to)` re-homes `u` from
    /// wherever it currently is. Cost is `O(batch + Σ occupancy of touched
    /// non-exempt resources)`.
    ///
    /// `exempt` marks a resource whose occupants' satisfaction can never
    /// change (an effectively infinite-capacity *parking* resource, as used
    /// by the open-system driver): its occupant list — typically the bulk
    /// of the user population — is skipped during the recheck. The moved
    /// users themselves are always rechecked individually, so a user parked
    /// by this batch leaves the unsatisfied set correctly.
    pub fn apply_reassignments(
        &mut self,
        inst: &Instance,
        state: &mut State,
        changes: &[(UserId, ResourceId)],
        exempt: Option<ResourceId>,
    ) {
        self.generation += 1;
        debug_assert!(self.touched.is_empty());
        for &(u, to) in changes {
            let from = state.resource_of(u);
            if from == to {
                continue;
            }
            state.reassign(u, to);
            self.relocate(u, from, to);
            self.touch(from);
            self.touch(to);
        }

        let touched = std::mem::take(&mut self.touched);
        for &r in &touched {
            if Some(r) == exempt {
                continue;
            }
            for i in 0..self.occupants[r.index()].len() {
                let u = self.occupants[r.index()][i];
                self.set_active(u, !state.is_satisfied(inst, u));
            }
        }
        self.touched = touched;
        self.touched.clear();
        // users that landed on the exempt resource were skipped above
        for &(u, _) in changes {
            self.set_active(u, !state.is_satisfied(inst, u));
        }
    }

    /// Move `u`'s occupancy record from `from` to `to`.
    // `#[inline]` here and on `touch`/`set_active`: the generic
    // `apply_moves` calling them per move is instantiated in the caller's
    // crate, where a non-inline private helper stays an opaque call
    #[inline]
    fn relocate(&mut self, u: UserId, from: ResourceId, to: ResourceId) {
        let p = self.pos_in_resource[u.index()] as usize;
        let list = &mut self.occupants[from.index()];
        debug_assert_eq!(list[p], u, "occupant index out of sync");
        list.swap_remove(p);
        if let Some(&moved) = list.get(p) {
            self.pos_in_resource[moved.index()] = p as u32;
        }
        let dest = &mut self.occupants[to.index()];
        self.pos_in_resource[u.index()] = dest.len() as u32;
        dest.push(u);
    }

    /// Mark `r` touched once per batch.
    #[inline]
    fn touch(&mut self, r: ResourceId) {
        if self.touched_stamp[r.index()] != self.generation {
            self.touched_stamp[r.index()] = self.generation;
            self.touched.push(r);
        }
    }

    /// Insert into / remove from the unsatisfied set in O(1).
    #[inline]
    fn set_active(&mut self, u: UserId, active: bool) {
        let p = self.unsat_pos[u.index()];
        if active {
            if p == NOT_ACTIVE {
                self.unsat_pos[u.index()] = self.unsat.len() as u32;
                self.unsat.push(u);
            }
        } else if p != NOT_ACTIVE {
            self.unsat.swap_remove(p as usize);
            if let Some(&moved) = self.unsat.get(p as usize) {
                self.unsat_pos[moved.index()] = p;
            }
            self.unsat_pos[u.index()] = NOT_ACTIVE;
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
        for (r, list) in self.occupants.iter().enumerate() {
            for (i, &u) in list.iter().enumerate() {
                assert_eq!(
                    state.resource_of(u).index(),
                    r,
                    "occupant list of r{r} holds {u} which is elsewhere"
                );
                assert_eq!(
                    self.pos_in_resource[u.index()] as usize,
                    i,
                    "position index of {u} out of sync"
                );
                assert!(!seen[u.index()], "{u} occupies two lists");
                seen[u.index()] = true;
            }
            assert_eq!(
                list.iter().map(|&u| inst.weight(u)).sum::<u32>(),
                state.load(ResourceId(r as u32)),
                "occupancy of r{r} disagrees with load"
            );
        }
        assert!(seen.iter().all(|&s| s), "occupant lists miss a user");

        // unsatisfied set matches a fresh recomputation
        let mut expected = state.unsatisfied(inst);
        let mut got: Vec<UserId> = self.unsat.clone();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "unsatisfied set out of sync");
        for u in inst.instance().users() {
            let p = self.unsat_pos[u.index()];
            if p == NOT_ACTIVE {
                assert!(!self.unsat.contains(&u));
            } else {
                assert_eq!(self.unsat[p as usize], u, "unsat position of {u} stale");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst_state() -> (Instance, State) {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
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
        let moves: Vec<Move> = (0..3)
            .map(|u| Move {
                user: UserId(u),
                from: ResourceId(0),
                to: ResourceId(1),
            })
            .collect();
        idx.apply_moves(&inst, &mut state, &moves);
        idx.assert_consistent(&inst, &state);
        assert!(!idx.contains(UserId(0)), "mover landed within capacity");
        assert!(idx.contains(UserId(3)), "hotspot still overloaded");
        assert_eq!(idx.occupants(ResourceId(1)).len(), 3);
    }

    #[test]
    fn emptying_detects_legality() {
        let (inst, mut state) = inst_state();
        let mut idx = ActiveIndex::new(&inst, &state);
        // spread to loads [2, 2, 2, 2]: legal, set drains to empty
        let moves: Vec<Move> = (2..8)
            .map(|u| Move {
                user: UserId(u),
                from: ResourceId(0),
                to: ResourceId(1 + ((u - 2) / 2)),
            })
            .collect();
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
        // churn the set so the raw order scrambles
        let moves: Vec<Move> = [5u32, 7, 1]
            .iter()
            .map(|&u| Move {
                user: UserId(u),
                from: ResourceId(0),
                to: ResourceId(2),
            })
            .collect();
        idx.apply_moves(&inst, &mut state, &moves);
        let mut buf = Vec::new();
        idx.sorted_active_into(&mut buf);
        let mut expected = buf.clone();
        expected.sort_unstable();
        assert_eq!(buf, expected);
        assert_eq!(buf, state.unsatisfied(&inst));
        assert!(!buf.is_empty());
    }

    #[test]
    fn sorted_iteration_sweep_path_matches() {
        // 32 users all active: big enough that the ordered membership sweep
        // kicks in instead of the copy-and-sort path
        let inst = Instance::uniform(32, 16, 3).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 32);
        let mut buf = Vec::new();
        idx.sorted_active_into(&mut buf);
        assert_eq!(buf, state.unsatisfied(&inst));
        assert_eq!(buf, inst.users().collect::<Vec<_>>());
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
        use crate::instance::InstanceBuilder;
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
        assert_eq!(idx.active(), &[UserId(0)]);
        // a lenient user joining r0 pushes load to 4: strict still the only
        // unsatisfied one (lenient cap is 4)
        idx.apply_moves(
            &inst,
            &mut state,
            &[Move {
                user: UserId(3),
                from: ResourceId(1),
                to: ResourceId(0),
            }],
        );
        idx.assert_consistent(&inst, &state);
        assert_eq!(idx.num_active(), 1);
    }
}
