//! Dynamic assignment state with incrementally-maintained congestion.

use crate::error::Result;
use crate::ids::{ResourceId, UserId};
use crate::instance::{Demands, Instance};
use qlb_rng::{Rng64, SplitMix64};

/// A migration: `user` leaves `from` for `to`.
///
/// Carrying `from` makes application self-checking (a stale move — one whose
/// user is no longer on `from` — is a bug in an executor) and lets a
/// per-resource consumer apply departures without a global lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The migrating user.
    pub user: UserId,
    /// Resource the user occupied when the decision was made.
    pub from: ResourceId,
    /// Destination resource.
    pub to: ResourceId,
}

/// An assignment of every user to a resource, with per-resource congestion
/// kept incrementally.
///
/// The load of a resource is the total demand on it: the user count in the
/// unit model, the total weight for a weighted instance (see [`Demands`]).
/// Methods taking an instance are generic over [`Demands`]; pass the same
/// instance the state was built for.
///
/// Invariants (checked by `debug_assert_invariants` and the property tests):
/// * `loads[r] = Σ_{u : assignment[u] = r} w_u`,
/// * `Σ_r loads[r] = Σ_u w_u` (`= n` for unit demand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    pub(crate) assignment: Vec<ResourceId>,
    pub(crate) loads: Vec<u32>,
}

impl State {
    // ------------------------------------------------------------------
    // constructors
    // ------------------------------------------------------------------

    /// Build a state from an explicit assignment vector.
    pub fn new<I: Demands>(inst: &I, assignment: Vec<ResourceId>) -> Result<State> {
        let base = inst.instance();
        base.validate_assignment(&assignment)?;
        let mut loads = vec![0u32; base.num_resources()];
        for (u, &r) in assignment.iter().enumerate() {
            loads[r.index()] += inst.weight(UserId(u as u32));
        }
        Ok(State { assignment, loads })
    }

    /// Adversarial start: every user on one resource. This is the hotspot
    /// initial condition used in the convergence lower-bound discussions —
    /// a flash crowd hitting a single server.
    pub fn all_on<I: Demands>(inst: &I, r: ResourceId) -> State {
        let base = inst.instance();
        assert!(r.index() < base.num_resources(), "resource out of range");
        let n = base.num_users();
        let total = if I::UNIT {
            n as u64
        } else {
            base.users().map(|u| inst.weight(u) as u64).sum()
        };
        let mut loads = vec![0u32; base.num_resources()];
        // the per-resource load counters are u32; a silent `as` cast here
        // would wrap for a total demand > u32::MAX and corrupt every
        // load-derived count
        loads[r.index()] = u32::try_from(total)
            .unwrap_or_else(|_| panic!("total demand {total} overflows the u32 load counters"));
        State {
            assignment: vec![r; n],
            loads,
        }
    }

    /// Uniform random placement: each user independently on a uniform
    /// resource (the "birthday" start — the natural uncoordinated initial
    /// condition).
    pub fn random<I: Demands>(inst: &I, seed: u64) -> State {
        let base = inst.instance();
        let m = base.num_resources();
        let mut rng = SplitMix64::new(seed);
        let mut loads = vec![0u32; m];
        let assignment: Vec<ResourceId> = base
            .users()
            .map(|u| {
                let r = ResourceId(rng.uniform_usize(m) as u32);
                loads[r.index()] += inst.weight(u);
                r
            })
            .collect();
        State { assignment, loads }
    }

    /// Deterministic round-robin placement (balanced by construction up to
    /// ±1 per resource). Useful as a near-legal start.
    pub fn round_robin(inst: &Instance) -> State {
        let m = inst.num_resources();
        let mut loads = vec![0u32; m];
        let assignment: Vec<ResourceId> = (0..inst.num_users())
            .map(|u| {
                let r = ResourceId((u % m) as u32);
                loads[r.index()] += 1;
                r
            })
            .collect();
        State { assignment, loads }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Resource currently hosting user `u`.
    #[inline]
    pub fn resource_of(&self, u: UserId) -> ResourceId {
        self.assignment[u.index()]
    }

    /// Congestion (total demand) of resource `r`.
    #[inline]
    pub fn load(&self, r: ResourceId) -> u32 {
        self.loads[r.index()]
    }

    /// All congestions, indexed by resource.
    #[inline]
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// The full assignment vector, indexed by user.
    #[inline]
    pub fn assignment(&self) -> &[ResourceId] {
        &self.assignment
    }

    /// Number of users tracked by this state.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.assignment.len()
    }

    // ------------------------------------------------------------------
    // satisfaction
    // ------------------------------------------------------------------

    /// Is user `u` satisfied (its QoS constraint met at current congestion)?
    #[inline]
    pub fn is_satisfied<I: Demands>(&self, inst: &I, u: UserId) -> bool {
        let base = inst.instance();
        let r = self.assignment[u.index()];
        base.satisfies(base.class_of(u), r, self.loads[r.index()])
    }

    /// Number of unsatisfied users.
    ///
    /// Unit single-class fast path: a user's satisfaction depends only on
    /// its resource's congestion, so every user on an unsatisfying resource
    /// is unsatisfied — sum those congestions in `O(m)`. With weights a
    /// load counts demand, not users, so weighted instances (and
    /// multi-class ones) check users in `O(n)`. This keeps per-round
    /// observability (which reports this count at round start *and* end)
    /// off the `O(n)` scan in the unit model.
    pub fn num_unsatisfied<I: Demands>(&self, inst: &I) -> usize {
        let base = inst.instance();
        if I::UNIT && base.num_classes() == 1 {
            let caps = base.cap_row(crate::ids::ClassId(0));
            return self
                .loads
                .iter()
                .zip(caps)
                .filter(|&(&x, &c)| x > 0 && !(c > 0 && x <= c))
                .map(|(&x, _)| x as usize)
                .sum();
        }
        base.users()
            .filter(|&u| !self.is_satisfied(inst, u))
            .count()
    }

    /// Collect the unsatisfied users (allocates; for hot paths iterate
    /// directly with [`State::is_satisfied`]).
    pub fn unsatisfied<I: Demands>(&self, inst: &I) -> Vec<UserId> {
        inst.instance()
            .users()
            .filter(|&u| !self.is_satisfied(inst, u))
            .collect()
    }

    /// A state is **legal** iff every user is satisfied.
    ///
    /// Single-class fast path: compares each resource's congestion against
    /// its capacity in `O(m)` (sound for weights too: every user on a
    /// resource shares its satisfaction); the general path checks users in
    /// `O(n)`.
    pub fn is_legal<I: Demands>(&self, inst: &I) -> bool {
        let base = inst.instance();
        if base.num_classes() == 1 {
            let caps = base.cap_row(crate::ids::ClassId(0));
            return self
                .loads
                .iter()
                .zip(caps)
                .all(|(&x, &c)| x == 0 || (c > 0 && x <= c));
        }
        base.users().all(|u| self.is_satisfied(inst, u))
    }

    // ------------------------------------------------------------------
    // mutation
    // ------------------------------------------------------------------

    /// Apply a batch of migrations decided against the *current* state.
    ///
    /// All moves observe start-of-round congestion (synchronous-round
    /// semantics): the batch is applied atomically, so the order of moves
    /// within the batch is irrelevant.
    ///
    /// # Panics
    /// In debug builds, panics if a move's `from` disagrees with the state —
    /// that indicates an executor applied a stale decision.
    pub fn apply_moves<I: Demands>(&mut self, inst: &I, moves: &[Move]) {
        for mv in moves {
            debug_assert_eq!(
                self.assignment[mv.user.index()],
                mv.from,
                "stale move for {}",
                mv.user
            );
            let w = inst.weight(mv.user);
            self.assignment[mv.user.index()] = mv.to;
            self.loads[mv.from.index()] -= w;
            self.loads[mv.to.index()] += w;
        }
        self.debug_assert_invariants(inst);
    }

    /// Apply a single migration (sequential dynamics).
    pub fn apply_move(&mut self, inst: &Instance, mv: Move) {
        self.apply_moves(inst, std::slice::from_ref(&mv));
    }

    /// Remove user by swap-remove semantics is *not* supported: the dynamic
    /// churn driver in `qlb-engine` models departures by reassigning, which
    /// keeps ids dense and streams stable. This method re-homes user `u` to
    /// resource `to` unconditionally (used by churn injection). Unit demand
    /// only: the churn, open-system and serve drivers take an [`Instance`].
    pub fn reassign(&mut self, u: UserId, to: ResourceId) {
        let from = self.assignment[u.index()];
        if from != to {
            self.assignment[u.index()] = to;
            self.loads[from.index()] -= 1;
            self.loads[to.index()] += 1;
        }
    }

    /// A 64-bit fingerprint of the congestion vector; used by oscillation
    /// detection. Two states with equal fingerprints almost surely have the
    /// same congestion profile (not necessarily the same assignment — for
    /// anonymous-user dynamics the profile is the relevant object).
    pub fn load_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &x in &self.loads {
            h = qlb_rng::mix64(h ^ x as u64);
        }
        h
    }

    /// Check structural invariants; called after batch application in debug
    /// builds and from property tests.
    pub fn debug_assert_invariants<I: Demands>(&self, inst: &I) {
        #[cfg(debug_assertions)]
        {
            let mut recount = vec![0u32; self.loads.len()];
            for (u, &r) in self.assignment.iter().enumerate() {
                recount[r.index()] += inst.weight(UserId(u as u32));
            }
            assert_eq!(recount, self.loads, "load cache out of sync");
        }
        #[cfg(not(debug_assertions))]
        let _ = inst;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::ids::ClassId;
    use crate::instance::InstanceBuilder;
    use crate::weighted::WeightedInstance;

    fn inst4() -> Instance {
        Instance::uniform(8, 4, 3).unwrap()
    }

    #[test]
    fn new_counts_loads() {
        let inst = inst4();
        let s = State::new(
            &inst,
            vec![
                ResourceId(0),
                ResourceId(0),
                ResourceId(1),
                ResourceId(1),
                ResourceId(1),
                ResourceId(2),
                ResourceId(3),
                ResourceId(3),
            ],
        )
        .unwrap();
        assert_eq!(s.loads(), &[2, 3, 1, 2]);
        assert_eq!(s.num_users(), 8);
        s.debug_assert_invariants(&inst);
    }

    #[test]
    fn num_unsatisfied_fast_path_matches_user_scan() {
        // the single-class O(m) path must agree with the definitional
        // per-user count on crowded, balanced, and zero-capacity shapes
        let inst = inst4(); // caps all 3
        let crowded = State::all_on(&inst, ResourceId(0)); // load 8 > 3
        let spread = State::round_robin(&inst); // loads all 2 ≤ 3
        for s in [&crowded, &spread] {
            let by_users = inst.users().filter(|&u| !s.is_satisfied(&inst, u)).count();
            assert_eq!(s.num_unsatisfied(&inst), by_users);
        }
        assert_eq!(crowded.num_unsatisfied(&inst), 8);
        assert_eq!(spread.num_unsatisfied(&inst), 0);
    }

    #[test]
    fn new_rejects_bad_assignment() {
        let inst = inst4();
        assert!(matches!(
            State::new(&inst, vec![ResourceId(9); 8]),
            Err(Error::BadAssignment { .. })
        ));
        assert!(State::new(&inst, vec![ResourceId(0); 7]).is_err());
    }

    #[test]
    fn all_on_hotspot() {
        let inst = inst4();
        let s = State::all_on(&inst, ResourceId(2));
        assert_eq!(s.loads(), &[0, 0, 8, 0]);
        assert!(!s.is_legal(&inst)); // 8 > cap 3
        assert_eq!(s.num_unsatisfied(&inst), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn all_on_out_of_range_panics() {
        let inst = inst4();
        let _ = State::all_on(&inst, ResourceId(4));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let inst = inst4();
        let a = State::random(&inst, 1);
        let b = State::random(&inst, 1);
        let c = State::random(&inst, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.debug_assert_invariants(&inst);
    }

    #[test]
    fn round_robin_is_balanced() {
        let inst = inst4();
        let s = State::round_robin(&inst);
        assert_eq!(s.loads(), &[2, 2, 2, 2]);
        assert!(s.is_legal(&inst));
    }

    #[test]
    fn legality_single_class() {
        let inst = Instance::with_capacities(4, vec![2, 2]).unwrap();
        let legal = State::new(
            &inst,
            vec![ResourceId(0), ResourceId(0), ResourceId(1), ResourceId(1)],
        )
        .unwrap();
        assert!(legal.is_legal(&inst));
        let illegal = State::new(
            &inst,
            vec![ResourceId(0), ResourceId(0), ResourceId(0), ResourceId(1)],
        )
        .unwrap();
        assert!(!illegal.is_legal(&inst));
        assert_eq!(illegal.num_unsatisfied(&inst), 3);
        assert_eq!(
            illegal.unsatisfied(&inst),
            vec![UserId(0), UserId(1), UserId(2)]
        );
    }

    #[test]
    fn legality_multi_class() {
        // speed-4 resource: strict class cap 2 (T=0.5), lenient cap 4.
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0])
            .latency_class(0.5, 1)
            .latency_class(1.0, 3)
            .build()
            .unwrap();
        // strict user + 2 lenient on r0 → x=3 > 2: strict unsatisfied,
        // lenient satisfied.
        let s = State::new(
            &inst,
            vec![ResourceId(0), ResourceId(0), ResourceId(0), ResourceId(1)],
        )
        .unwrap();
        assert!(!s.is_satisfied(&inst, UserId(0)));
        assert!(s.is_satisfied(&inst, UserId(1)));
        assert!(!s.is_legal(&inst));
        assert_eq!(s.num_unsatisfied(&inst), 1);
        assert_eq!(inst.cap(ClassId(0), ResourceId(0)), 2);
    }

    #[test]
    fn zero_capacity_resource_never_satisfies() {
        let inst = Instance::with_capacities(1, vec![0, 5]).unwrap();
        let s = State::all_on(&inst, ResourceId(0));
        assert!(!s.is_legal(&inst));
        let s = State::all_on(&inst, ResourceId(1));
        assert!(s.is_legal(&inst));
    }

    #[test]
    fn apply_moves_batch() {
        let inst = inst4();
        let mut s = State::all_on(&inst, ResourceId(0));
        let moves = vec![
            Move {
                user: UserId(0),
                from: ResourceId(0),
                to: ResourceId(1),
            },
            Move {
                user: UserId(1),
                from: ResourceId(0),
                to: ResourceId(2),
            },
        ];
        s.apply_moves(&inst, &moves);
        assert_eq!(s.loads(), &[6, 1, 1, 0]);
        assert_eq!(s.resource_of(UserId(0)), ResourceId(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale move")]
    fn stale_move_panics_in_debug() {
        let inst = inst4();
        let mut s = State::all_on(&inst, ResourceId(0));
        s.apply_move(
            &inst,
            Move {
                user: UserId(0),
                from: ResourceId(3), // wrong
                to: ResourceId(1),
            },
        );
    }

    #[test]
    fn reassign_updates_loads() {
        let inst = inst4();
        let mut s = State::all_on(&inst, ResourceId(0));
        s.reassign(UserId(5), ResourceId(3));
        assert_eq!(s.load(ResourceId(0)), 7);
        assert_eq!(s.load(ResourceId(3)), 1);
        // no-op reassign
        s.reassign(UserId(5), ResourceId(3));
        assert_eq!(s.load(ResourceId(3)), 1);
        s.debug_assert_invariants(&inst);
    }

    fn weighted() -> WeightedInstance {
        WeightedInstance::new(vec![10, 4], vec![3, 3, 2, 1]).unwrap()
    }

    #[test]
    fn new_counts_weighted_loads() {
        let inst = weighted();
        let s = State::new(
            &inst,
            vec![ResourceId(0), ResourceId(1), ResourceId(0), ResourceId(1)],
        )
        .unwrap();
        assert_eq!(s.loads(), &[5, 4]);
        s.debug_assert_invariants(&inst);
        assert!(State::new(&inst, vec![ResourceId(2); 4]).is_err());
        assert_eq!(State::all_on(&inst, ResourceId(1)).loads(), &[0, 9]);
        let r = State::random(&inst, 4);
        assert_eq!(r, State::random(&inst, 4));
        assert_ne!(r, State::random(&inst, 5));
        r.debug_assert_invariants(&inst);
    }

    #[test]
    fn weighted_satisfaction_is_total_weight_based() {
        let inst = weighted();
        // all on r1 (cap 4): total 9 > 4 → everyone unsatisfied; the count
        // is of users (4), not of weight (9)
        let s = State::all_on(&inst, ResourceId(1));
        assert_eq!(s.num_unsatisfied(&inst), 4);
        assert_eq!(s.unsatisfied(&inst).len(), 4);
        assert!(!s.is_legal(&inst));
        assert_eq!(crate::potential::overload_potential(inst.instance(), &s), 5);
        // all on r0 (cap 10): total 9 ≤ 10 → legal
        let s = State::all_on(&inst, ResourceId(0));
        assert!(s.is_legal(&inst));
        assert_eq!(s.num_unsatisfied(&inst), 0);
        assert_eq!(crate::potential::overload_potential(inst.instance(), &s), 0);
        // the unit view of the same loads would count weight on r1
        let split = State::new(
            &inst,
            vec![ResourceId(1), ResourceId(0), ResourceId(1), ResourceId(0)],
        )
        .unwrap();
        assert_eq!(split.loads(), &[4, 5]);
        assert_eq!(split.num_unsatisfied(&inst), 2);
    }

    #[test]
    fn weighted_apply_moves_moves_weight() {
        let inst = weighted();
        let mut s = State::all_on(&inst, ResourceId(1));
        s.apply_moves(
            &inst,
            &[Move {
                user: UserId(0), // weight 3
                from: ResourceId(1),
                to: ResourceId(0),
            }],
        );
        assert_eq!(s.load(ResourceId(0)), 3);
        assert_eq!(s.load(ResourceId(1)), 6);
    }

    #[test]
    fn unit_weights_match_unit_model() {
        let wi = WeightedInstance::unit(8, 4, 3).unwrap();
        let ui = inst4();
        let ws = State::all_on(&wi, ResourceId(0));
        let us = State::all_on(&ui, ResourceId(0));
        assert_eq!(ws, us);
        assert_eq!(ws.num_unsatisfied(&wi), us.num_unsatisfied(&ui));
        assert_eq!(State::random(&wi, 9), State::random(&ui, 9));
    }

    #[test]
    fn fingerprint_tracks_load_profile() {
        let inst = inst4();
        let a = State::all_on(&inst, ResourceId(0));
        let b = State::all_on(&inst, ResourceId(1));
        assert_ne!(a.load_fingerprint(), b.load_fingerprint());
        let c = State::all_on(&inst, ResourceId(0));
        assert_eq!(a.load_fingerprint(), c.load_fingerprint());
    }
}
