//! The round stepper: the one place a round's decide kernel is chosen.
//!
//! A round of the paper is the same step in every driver: each
//! unsatisfied user samples a target and flips its coin against the
//! start-of-round loads. [`Stepper`] runs that step for the closed loop,
//! the open-system driver and the serving core's tick. It owns everything
//! the kernel choice needs — the optional [`WorkerPool`] and the reusable
//! move buffer — and, while full rounds run, the round state itself: the
//! driver's [`State`], moved into a [`RoundView`] that adds only the
//! unsatisfied-resource bitmaps. A driver only says *which* users decide
//! (the active set, or everyone); full rounds are applied by the stepper
//! to the one copy it holds, active-set rounds by the driver to its own
//! state.
//!
//! Full rounds run one kernel, [`RoundView::decide_shard_into`], and
//! active-set rounds another, [`decide_shard_into`] over the shards of an
//! [`ActiveIndex`] built by [`Stepper::build_index`]: over the pool's
//! shards, or inline without a pool. The dense scan and the sorted-set
//! kernels of [`qlb_core::step`] are not run here; they are the references
//! the tests compare the kernels against.

use crate::pool::{pool_for, shard_chunk, shards_for, WorkerPool};
use crate::run::Executor;
use qlb_core::step::decide_shard_into;
use qlb_core::{
    ActiveIndex, Demands, IndexShard, Move, Protocol, RoundView, ShardDeltas, ShardScratch, State,
};
use qlb_obs::{timed, Phase, Sink};
use std::sync::Mutex;
use std::time::Instant;

/// Below this many active users (as of the last sync) an active-set round
/// runs on the coordinator instead of dispatching to the pool. With the
/// vectorised base fold a sequential sparse decision costs 14–15 ns
/// (`decide_active_into`, which runs [`decide_shard_into`] over the shards
/// in order as an inline step does, on `sim-crowded` seed-1 states after
/// rounds 2, 5, 10 and 20, on a shared 2-vCPU Sapphire Rapids host with
/// AVX-512; 19–20 ns before, with the scalar fold), so 1024 of them cost
/// about 15 µs, less than one condvar wake and join (a pooled round's
/// `ForkJoin` averages about 55 µs there). A threshold of 4096 or 16384
/// made no difference that stood out of that host's noise, so it stays at
/// 1024. Purely a cost decision — the shard outputs concatenate in user
/// order either way, so the trajectory is unaffected.
const SPARSE_POOL_MIN_ACTIVE: usize = 1024;

/// A pooled active-set step (at least `SPARSE_POOL_MIN_ACTIVE` users)
/// first moves the shard bounds to the unsatisfied users
/// ([`ActiveIndex::resplit`]) when the busiest shard holds more than this
/// multiple of the mean, and the new bounds would cut it by as much. On a
/// 2-shard open run (8192 cap-10 resources, 327 680 users, ρ = 0.95 at
/// departure probability 0.05, 200 rounds) 1.5 re-splits once, at round
/// 19 with 1041 users unsatisfied, and the shards stay within it after;
/// 1.25 re-splits again at round 32. A rebuild costs 2.8–3.7 ms there,
/// about two rounds of that run, on a shared 2-vCPU host. Purely a cost
/// decision, from counts alone: bounds decide which worker scans a user,
/// never what it decides.
const RESPLIT_IMBALANCE: f64 = 1.5;

/// Decides one synchronous round for any driver.
///
/// * `Stepper::step_sparse` is the active-set step: every shard of an
///   index built by `Stepper::build_index` syncs with the previous batch
///   and then decides its own users, one shard per pool worker. The closed
///   loop defers each batch's sync to the next step (see
///   [`run`](crate::run::run)); the open driver and the serving core sync
///   eagerly, since their churn between rounds needs a synced index.
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

    /// Build an [`ActiveIndex`] of `state` for `Stepper::step_sparse`: one
    /// shard per pool shard, each built on its own worker, or one shard
    /// without a pool.
    pub fn build_index<I: Demands>(&self, inst: &I, state: &State) -> ActiveIndex {
        let shards = self.pool.as_ref().map_or(1, WorkerPool::threads);
        ActiveIndex::build_with(inst, state, shards, |shards, build| {
            match self.pool.as_ref() {
                Some(pool) => pool.run_each(shards, build),
                None => shards.iter_mut().for_each(build),
            }
        })
    }

    /// The active-set step: every shard of `index` (built by
    /// [`Stepper::build_index`]) syncs with the batch last passed to
    /// [`ActiveIndex::apply_staged`], then — with `decide` — decides round
    /// `round` for its users and stages the moves for its next sync. One
    /// pool dispatch, or inline below `SPARSE_POOL_MIN_ACTIVE` users. The
    /// caller applies the moves with [`ActiveIndex::apply_staged`]; an index
    /// synced before the step makes the step's sync a no-op.
    ///
    /// A pooled step first moves the shard bounds to the unsatisfied users
    /// when they crowd into a few shards (see `RESPLIT_IMBALANCE`),
    /// recording the rebuild as [`Phase::Apply`]; debug builds check the
    /// rebuilt index against a recount. The step records a round's phases
    /// only when it decided one: a step without `decide`, or one whose sync
    /// left no user unsatisfied, is index maintenance and records its wall
    /// time as [`Phase::Apply`].
    #[allow(clippy::too_many_arguments)]
    pub fn step_sparse<I: Demands, P: Protocol + ?Sized, S: Sink>(
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
        let crowded = index.num_active() >= SPARSE_POOL_MIN_ACTIVE;
        let pool = self.pool.as_ref().filter(|_| crowded);
        if let Some(pool) = pool {
            let t0 = S::ENABLED.then(Instant::now);
            let moved = index.resplit(inst, state, RESPLIT_IMBALANCE, |shards, build| {
                pool.run_each(shards, build)
            });
            if let (true, Some(t0)) = (moved, t0) {
                sink.time(Phase::Apply, t0.elapsed().as_nanos() as u64);
            }
            if moved && cfg!(debug_assertions) {
                index.assert_consistent(inst, state);
            }
        }

        let moves = &mut self.moves;
        moves.clear();
        index.step_shards(|crossed, shards| {
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
