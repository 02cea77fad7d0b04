//! The round stepper: the one place a round's decide kernel is chosen.
//!
//! A round of the paper is the same step in every driver: each
//! unsatisfied user samples a target and flips its coin against the
//! start-of-round loads. [`Stepper`] runs that step for the closed loop,
//! the open-system driver and the serving core's tick. It owns everything
//! the kernel choice needs — the optional [`WorkerPool`] and the reusable
//! move and sorted-active buffers — and, while full rounds run, the round
//! state itself: the driver's [`State`], moved into a [`RoundView`] that
//! adds only the unsatisfied-resource bitmaps. A driver only says *which*
//! users decide (the active set, or everyone); full rounds are applied by
//! the stepper to the one copy it holds, active-set rounds by the driver
//! to its own state.
//!
//! Full rounds run one kernel, [`RoundView::decide_shard_into`]: over the
//! pool's shards, or inline as one shard without a pool. The dense scan
//! [`decide_round_into`](qlb_core::step::decide_round_into) is not run
//! here; it is the reference the tests compare the kernel against.

use crate::pool::{pool_for, shard_chunk, shards_for, WorkerPool};
use crate::run::Executor;
use qlb_core::step::{decide_active_into, decide_shard_into, decide_users_into};
use qlb_core::{
    ActiveIndex, Demands, IndexShard, Move, Protocol, RoundView, ShardDeltas, ShardScratch, State,
    UserId,
};
use qlb_obs::{timed, Phase, Sink};
use std::sync::Mutex;
use std::time::Instant;

/// Below this many active users (as of the last sync) an active-set round
/// runs on the coordinator instead of dispatching to the pool. With the
/// vectorised base fold a sequential sparse decision costs 14–15 ns
/// (`decide_active_into` on `sim-crowded` seed-1 states after rounds 2, 5,
/// 10 and 20, on a shared 2-vCPU Sapphire Rapids host with AVX-512; 19–20
/// ns before, with the scalar fold), so 1024 of them cost about 15 µs,
/// less than one condvar wake and join (a pooled round's `ForkJoin`
/// averages about 55 µs there). A threshold of 4096 or 16384 made no difference that
/// stood out of that host's noise, so it stays at 1024. Purely a cost
/// decision — the shard outputs concatenate in user order either way, so
/// the trajectory is unaffected.
const SPARSE_POOL_MIN_ACTIVE: usize = 1024;

/// Decides one synchronous round for any driver.
///
/// * [`Stepper::decide_active`] decides the unsatisfied users of a synced
///   [`ActiveIndex`]: the sorted set split evenly by count across the pool
///   when there is one and the set holds at least 1024 users, sequentially
///   otherwise. The open driver and the serving core use it.
/// * `Stepper::step_sparse` is the closed loop's active-set step: every
///   shard of an index built by `Stepper::build_index` syncs with the
///   previous batch and then decides its own users, one shard per pool
///   worker (see [`run`](crate::run::run)).
/// * `Stepper::full_round` decides **and applies** a round of all `n`
///   users on the state handed over by `Stepper::hold`, which the stepper
///   keeps inside a [`RoundView`]: the SoA kernel decides, sharded across
///   the pool or as one inline shard without one, and the shards' deltas
///   fold back into the state in place. `Stepper::view` reads it between
///   rounds, and `Stepper::release` hands the [`State`] back.
///
/// Each returns the round's moves in user order, byte-identical whichever
/// kernel ran, and records [`Phase::Decide`] (plus [`Phase::Compute`] and
/// [`Phase::ForkJoin`] for pooled rounds) on the sink.
pub struct Stepper {
    seed: u64,
    shard_timing: bool,
    pool: Option<WorkerPool>,
    /// The round state of full rounds, between `Stepper::hold` and
    /// `Stepper::release`.
    held: Option<ViewShards>,
    sorted: Vec<UserId>,
    moves: Vec<Move>,
}

impl Stepper {
    /// A stepper for `executor` over `n` users whose coins derive from
    /// `seed`. The pooled executors get a pool sized to the shards `n`
    /// fills (none when one shard covers it); `shard_timing` forwards
    /// per-shard profiles of pooled rounds to the sink.
    ///
    /// # Panics
    /// Panics on a pooled executor with zero threads.
    pub fn new(executor: Executor, n: usize, seed: u64, shard_timing: bool) -> Self {
        Self {
            seed,
            shard_timing,
            pool: pool_for(executor, n),
            held: None,
            sorted: Vec::new(),
            moves: Vec::new(),
        }
    }

    /// Take over `state` for `Stepper::full_round`s: move it into a
    /// [`RoundView`] ([`RoundView::from_state`], `O(m·K)`: only the
    /// bitmaps are built), with one shard slot per pool shard (one without
    /// a pool).
    ///
    /// # Panics
    /// Panics if the stepper already holds a state.
    pub(crate) fn hold<I: Demands>(&mut self, inst: &I, state: State) {
        assert!(self.held.is_none(), "the stepper already holds a state");
        let shards = self.pool.as_ref().map_or(1, WorkerPool::threads);
        let m = inst.instance().num_resources();
        self.held = Some(ViewShards {
            view: RoundView::from_state(inst, state),
            slots: (0..shards)
                .map(|_| Mutex::new((ShardDeltas::new(m), ShardScratch::new())))
                .collect(),
        });
    }

    /// Hand the held state back ([`RoundView::into_state`], `O(1)`),
    /// dropping the bitmaps and the shard slots.
    ///
    /// # Panics
    /// Panics if the stepper holds no state.
    pub(crate) fn release(&mut self) -> State {
        let held = self.held.take().expect("the stepper holds no state");
        held.view.into_state()
    }

    /// The held round state.
    ///
    /// # Panics
    /// Panics if the stepper holds no state.
    pub(crate) fn view(&self) -> &RoundView {
        &self.held.as_ref().expect("the stepper holds no state").view
    }

    /// The held round state, for a driver's reassignments
    /// ([`RoundView::reassign`]).
    ///
    /// # Panics
    /// Panics if the stepper holds no state.
    pub(crate) fn view_mut(&mut self) -> &mut RoundView {
        &mut self.held.as_mut().expect("the stepper holds no state").view
    }

    /// Build the closed loop's [`ActiveIndex`] of `state` with one shard
    /// per pool shard, each shard built on its own worker.
    pub(crate) fn build_index<I: Demands>(&self, inst: &I, state: &State) -> ActiveIndex {
        let shards = self.pool.as_ref().map_or(1, WorkerPool::threads);
        ActiveIndex::build_with(inst, state, shards, |shards, build| {
            match self.pool.as_ref() {
                Some(pool) => pool.run_each(shards, build),
                None => shards.iter_mut().for_each(build),
            }
        })
    }

    /// Decide round `round` for the users `index` holds unsatisfied, each
    /// against `state`'s loads. `index` must be synced with `state`.
    ///
    /// The pooled split is by count, not by index shard: the open driver
    /// and the serving core take arrivals from the high end of the user
    /// range, so their unsatisfied users crowd into the last user ranges.
    pub fn decide_active<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        state: &State,
        index: &ActiveIndex,
        proto: &P,
        round: u64,
        sink: &mut S,
    ) -> &[Move] {
        debug_assert!(self.held.is_none(), "the driver holds the state");
        let seed = self.seed;
        match self.pool.as_ref() {
            Some(pool) if index.num_active() >= SPARSE_POOL_MIN_ACTIVE => {
                index.sorted_active_into(&mut self.sorted);
                let (users, len) = (&self.sorted, self.sorted.len());
                let chunk = shard_chunk(len, pool.threads());
                // wake only the shards the batch fills
                pool.decide_round_observed_on(
                    |shard, out| {
                        let lo = (shard * chunk).min(len);
                        let hi = ((shard + 1) * chunk).min(len);
                        if lo < hi {
                            decide_users_into(inst, state, &users[lo..hi], proto, seed, round, out);
                        }
                    },
                    &mut self.moves,
                    sink,
                    self.shard_timing,
                    shards_for(len, pool.threads()),
                );
            }
            _ => {
                let moves = &mut self.moves;
                timed(sink, Phase::Decide, || {
                    decide_active_into(inst, state, index, proto, seed, round, moves)
                });
            }
        }
        &self.moves
    }

    /// The closed loop's active-set step: every shard of `index` (built by
    /// [`Stepper::build_index`]) syncs with the batch last passed to
    /// [`ActiveIndex::apply_staged`], then — with `decide` — decides round
    /// `round` for its users and stages the moves for its next sync. One
    /// pool dispatch, or inline below `SPARSE_POOL_MIN_ACTIVE`.
    ///
    /// The step records a round's phases only when it decided one: a step
    /// without `decide`, or one whose sync left no user unsatisfied, is
    /// index maintenance and records its wall time as [`Phase::Apply`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_sparse<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        state: &State,
        index: &mut ActiveIndex,
        proto: &P,
        round: u64,
        decide: bool,
        sink: &mut S,
    ) -> &[Move] {
        debug_assert!(self.held.is_none(), "the driver holds the state");
        let (seed, shard_timing) = (self.seed, self.shard_timing);
        let nonempty = index.num_nonempty_shards();
        let pool = self.pool.as_ref().filter(|pool| {
            (2..=pool.threads()).contains(&nonempty) && index.num_active() >= SPARSE_POOL_MIN_ACTIVE
        });

        let moves = &mut self.moves;
        moves.clear();
        index.step_shards(|crossed, shards| {
            let shards = &mut shards[..nonempty];
            let fill = |shard: &mut IndexShard, out: &mut Vec<Move>| {
                shard.sync(inst, state, crossed);
                if decide {
                    let start = out.len();
                    decide_shard_into(inst, state, shard, proto, seed, round, out);
                    shard.stage(&out[start..]);
                }
            };
            let t0 = S::ENABLED.then(Instant::now);
            let max_ns = match pool {
                Some(pool) => pool.decide_each_on(shards, fill, moves, S::ENABLED),
                None => {
                    shards.iter_mut().for_each(|shard| fill(shard, moves));
                    0
                }
            };
            if let Some(t0) = t0 {
                let wall = t0.elapsed().as_nanos() as u64;
                let decided = decide && shards.iter().any(|shard| shard.num_active() > 0);
                match pool {
                    Some(pool) if decided => {
                        pool.observe(sink, wall, max_ns, shards.len(), shard_timing)
                    }
                    _ if decided => sink.time(Phase::Decide, wall),
                    _ => sink.time(Phase::Apply, wall),
                }
            }
        });
        &self.moves
    }

    /// Decide round `round` for all users of the held state and apply the
    /// moves to it, recording [`Phase::Apply`] for the apply.
    ///
    /// # Panics
    /// Panics if the stepper holds no state.
    pub(crate) fn full_round<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        proto: &P,
        round: u64,
        sink: &mut S,
    ) -> &[Move] {
        let vs = self.held.as_mut().expect("the stepper holds no state");
        let pool = self.pool.as_ref();
        vs.full_round(
            inst,
            proto,
            self.seed,
            round,
            pool,
            &mut self.moves,
            sink,
            self.shard_timing,
        );
        if cfg!(debug_assertions) {
            vs.view.assert_consistent(inst);
        }
        &self.moves
    }
}

/// Why locking a shard slot can fail: a worker panicked in the decide
/// kernel while it held the slot.
const POISONED: &str = "a decide worker panicked holding its shard slot";

/// The full-round state: the [`RoundView`] holding the round's [`State`]
/// plus one `(deltas, scratch)` slot per shard. During a pooled dispatch
/// each shard locks only its own slot (uncontended by construction);
/// between dispatches the coordinator folds the slots back into the view.
struct ViewShards {
    view: RoundView,
    slots: Vec<Mutex<(ShardDeltas, ShardScratch)>>,
}

impl ViewShards {
    /// One full round: decide all `n` users via the SoA two-pass kernel
    /// (with a pool, sharded on cache-line boundaries, waking only
    /// non-empty shards; without one, as one shard on the caller), then
    /// merge the per-shard deltas so the held state is the post-round one.
    /// The move list in `buf` is byte-identical to the dense reference
    /// scan's.
    #[allow(clippy::too_many_arguments)]
    fn full_round<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        proto: &P,
        seed: u64,
        round: u64,
        pool: Option<&WorkerPool>,
        buf: &mut Vec<Move>,
        sink: &mut S,
        shard_timing: bool,
    ) {
        let n = inst.instance().num_users();
        let threads = pool.map_or(1, WorkerPool::threads);
        let chunk = shard_chunk(n, threads);
        let (view, slots) = (&self.view, &self.slots);
        let fill = |shard: usize, out: &mut Vec<Move>| {
            let lo = (shard * chunk).min(n);
            let hi = ((shard + 1) * chunk).min(n);
            if lo < hi {
                let mut slot = slots[shard].lock().expect(POISONED);
                let (deltas, scratch) = &mut *slot;
                view.decide_shard_into(inst, proto, seed, round, lo, hi, out, scratch, deltas);
            }
        };
        match pool {
            Some(pool) => {
                let active = shards_for(n, threads);
                pool.decide_round_observed_on(fill, buf, sink, shard_timing, active);
            }
            None => timed(sink, Phase::Decide, || {
                buf.clear();
                fill(0, buf);
            }),
        }
        // Coordinator merge, ordered per the RoundView contract: every
        // shard's loads first, then the assignment writes, then the bit
        // repair of each shard's touched set (which needs final loads).
        timed(sink, Phase::Apply, || {
            for slot in &self.slots {
                self.view.merge_loads(&slot.lock().expect(POISONED).0);
            }
            self.view.apply_assignments(buf);
            for slot in &self.slots {
                self.view
                    .repair_touched(inst, &mut slot.lock().expect(POISONED).0);
            }
        });
    }
}
