//! The parked system: a live population over a fixed pool of user slots,
//! the machine under the open-system driver ([`crate::open`]) and the
//! serving core of `qlb-serve`.
//!
//! The free slots live on a parking resource of capacity `u32::MAX`
//! ([`Instance::with_parking`]), where a protocol that never acts while
//! satisfied leaves them. Arrivals and departures re-home slots and reach
//! the [`ActiveIndex`] as one reassignment batch; every round is the
//! [`Stepper`]'s active-set step, `O(churn + unsatisfied)`. Its oracle,
//! [`ParkedReference`], replays the same history, a log of [`ParkedOp`]s,
//! on a plain [`State`] with the dense scan of [`qlb_core::step`].

use crate::run::Executor;
use crate::stepper::Stepper;
use qlb_core::step::decide_round_into;
use qlb_core::{ActiveIndex, ClassId, Instance, Move, Protocol, ResourceId, State, UserId};
use qlb_obs::{timed, Counter, Event, Phase, Sink};

/// The parking instance, its state, the index of its unsatisfied users,
/// the stepper of its rounds, its free slots and its change batch.
pub struct ParkedSystem {
    inst: Instance,
    parking: ResourceId,
    state: State,
    index: ActiveIndex,
    stepper: Stepper,
    /// Free slots per class, LIFO: the unplaced slots start in ascending
    /// id, so the first arrivals take the highest ids.
    free: Vec<Vec<UserId>>,
    changes: Vec<(UserId, ResourceId)>,
}

impl ParkedSystem {
    /// The system over `inst`, whose last resource is the parking one, in
    /// `state`, whose slots on the parking resource are the free ones. The
    /// executor sets only the width of the stepper's pool ([`Stepper::new`]),
    /// and the rounds' coins derive from `seed`. `O(pool + m)`.
    ///
    /// # Panics
    /// Panics on a pooled executor with zero threads.
    pub fn new(
        inst: Instance,
        state: State,
        executor: Executor,
        seed: u64,
        shard_timing: bool,
    ) -> Self {
        let parking = ResourceId(inst.num_resources() as u32 - 1);
        let mut free = vec![Vec::new(); inst.num_classes()];
        for u in inst.users().filter(|&u| state.resource_of(u) == parking) {
            free[inst.class_of(u).index()].push(u);
        }
        let stepper = Stepper::new(executor, inst.num_users(), seed, shard_timing);
        Self {
            index: stepper.build_index(&inst, &state),
            inst,
            parking,
            state,
            stepper,
            free,
            changes: Vec::new(),
        }
    }

    /// Pop up to `count` free slots of `class` and re-home each onto the
    /// resource `to` returns, called right after its slot's pop. Returns
    /// the slots in pop order.
    pub fn arrive(
        &mut self,
        class: ClassId,
        count: usize,
        mut to: impl FnMut() -> ResourceId,
    ) -> impl ExactSizeIterator<Item = UserId> + '_ {
        self.changes.clear();
        let free = &mut self.free[class.index()];
        for u in std::iter::from_fn(|| free.pop()).take(count) {
            self.changes.push((u, to()));
        }
        self.rehome();
        self.changes.iter().map(|&(u, _)| u)
    }

    /// Park `users`, none of them free, pushing each in order onto its
    /// class's free stack. Returns how many departed.
    pub fn depart(&mut self, users: impl IntoIterator<Item = UserId>) -> usize {
        self.changes.clear();
        for u in users {
            self.changes.push((u, self.parking));
            self.free[self.inst.class_of(u).index()].push(u);
        }
        self.rehome();
        self.changes.len()
    }

    /// Zero `r`'s capacity for every class, then rebuild the index against
    /// the drained instance, `O(pool + m)`.
    ///
    /// # Panics
    /// Panics if `r` is the parking resource or out of range.
    pub fn drain(&mut self, r: ResourceId) {
        assert_ne!(r, self.parking, "the parking resource cannot drain");
        self.inst = self.inst.with_resource_drained(r);
        self.index = self.stepper.build_index(&self.inst, &self.state);
    }

    /// Decide and apply protocol round `round` over the unsatisfied users,
    /// leaving the index synced for the next churn, and emit its
    /// `RoundStart`/`RoundEnd` events and counters. Returns its moves in
    /// user order. `proto` must never act while satisfied.
    pub fn round<P: Protocol + ?Sized, S: Sink>(
        &mut self,
        proto: &P,
        round: u64,
        sink: &mut S,
    ) -> &[Move] {
        debug_assert!(!proto.acts_when_satisfied());
        if S::ENABLED {
            let active = self.index.num_active() as u64;
            sink.event(Event::RoundStart { round, active });
        }
        let (inst, state, index) = (&self.inst, &mut self.state, &mut self.index);
        let moves = self
            .stepper
            .step_sparse(inst, state, index, proto, round, true, sink);
        timed(sink, Phase::Apply, || {
            index.apply_staged(inst, state, moves);
            index.sync(inst, state);
        });
        debug_assert!(moves.iter().all(|mv| mv.from != self.parking));
        if S::ENABLED {
            let migrations = moves.len() as u64;
            sink.add(Counter::Rounds, 1);
            sink.add(Counter::SparseRounds, 1);
            sink.add(Counter::Migrations, migrations);
            let (unsatisfied, overload) = (index.num_active() as u64, None);
            sink.event(Event::RoundEnd {
                round,
                migrations,
                unsatisfied,
                overload,
            });
        }
        moves
    }

    /// Apply the change batch to the state and the index.
    fn rehome(&mut self) {
        self.index
            .apply_reassignments(&self.inst, &mut self.state, &self.changes);
    }

    /// The parking-augmented instance, drained where [`Self::drain`] was.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The live state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The unsatisfied users.
    pub fn index(&self) -> &ActiveIndex {
        &self.index
    }

    /// Free slots of `class`.
    pub fn free(&self, class: ClassId) -> usize {
        self.free[class.index()].len()
    }
}

/// One entry of a parked system's history.
#[derive(Debug, Clone)]
pub enum ParkedOp {
    /// Re-home each user onto its resource (arrivals and departures).
    Reassign(Vec<(UserId, ResourceId)>),
    /// Zero a resource's capacity.
    Drain(ResourceId),
    /// Protocol round with this number.
    Round(u64),
}

/// The parked system's reference: a plain [`State`] that replays
/// [`ParkedOp`]s with the dense scan ([`decide_round_into`] and
/// [`State::apply_moves`]) and drains through
/// [`Instance::with_resource_drained`], sharing no index, stepper or kernel
/// with [`ParkedSystem`].
pub struct ParkedReference {
    /// The parking instance, drained as the log says.
    pub inst: Instance,
    /// The replayed state.
    pub state: State,
    /// The seed of the rounds' coins.
    pub seed: u64,
}

impl ParkedReference {
    /// Replay `op`; returns the migrations it made (a round's moves).
    pub fn apply<P: Protocol + ?Sized>(&mut self, proto: &P, op: &ParkedOp) -> usize {
        let mut moves = Vec::new();
        match op {
            ParkedOp::Reassign(changes) => {
                for &(u, r) in changes {
                    self.state.reassign(u, r);
                }
            }
            ParkedOp::Drain(r) => self.inst = self.inst.with_resource_drained(*r),
            ParkedOp::Round(round) => {
                decide_round_into(
                    &self.inst,
                    &self.state,
                    proto,
                    self.seed,
                    *round,
                    &mut moves,
                );
                self.state.apply_moves(&self.inst, &moves);
            }
        }
        moves.len()
    }

    /// Unsatisfied users, counted on the state.
    pub fn num_unsatisfied(&self) -> u64 {
        self.state.num_unsatisfied(&self.inst) as u64
    }
}
