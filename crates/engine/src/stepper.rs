//! The round stepper: the one place a round's decide kernel is chosen.
//!
//! A round of the paper is the same step in every driver: each
//! unsatisfied user samples a target and flips its coin against the
//! start-of-round loads. [`Stepper`] runs that step for the closed loop
//! and for the parked system ([`crate::parked`]) under the open-system
//! driver and the serving core's tick. It owns everything
//! the kernel choice needs — the optional [`WorkerPool`] and the reusable
//! move buffer — and, while full rounds run, the round state itself: the
//! driver's [`State`], moved into a [`RoundView`] that adds only the
//! unsatisfied-resource bitmaps, and the view's shards. A driver only says
//! *which* users decide (the active set, or everyone); full rounds are
//! applied by the stepper to the one copy it holds, active-set rounds by
//! the driver to its own state.
//!
//! Full rounds run one kernel,
//! [`RoundReads::decide_chunk`](qlb_core::RoundReads::decide_chunk), and
//! active-set rounds another, [`decide_shard_into`] over the shards of an
//! [`ActiveIndex`] built by [`Stepper::build_index`]: over the pool's
//! shards, or inline without a pool. Both decide their 256-user blocks
//! through one batched call, [`Protocol::decide_block`]. Both dispatch the
//! same way: each pool
//! shard works one item that owns its state — for a full round, a user
//! range's load deltas and its chunk of the assignment, into which it
//! writes its movers, so no move list exists; an active-set round's
//! buffers concatenate into one list, which the driver applies. The dense
//! scan and the sorted-set kernels of [`qlb_core::step`] are the tests'
//! references, not run here.

use crate::pool::{pool_for, shard_bounds, WorkerPool};
use crate::run::Executor;
use qlb_core::step::decide_shard_into;
use qlb_core::{
    ActiveIndex, Demands, IndexShard, Move, Protocol, ResourceId, RoundView, ShardDeltas, State,
};
use qlb_obs::{timed, Phase, Sink};
use std::time::Instant;

/// Below this many active users (as of the last sync) an active-set round
/// runs on the coordinator instead of dispatching to the pool. With the
/// batched slack-damped decision in AVX-512 lanes a sequential sparse
/// decision costs 6.3–7.1 ns (`decide_active_into`, which runs
/// [`decide_shard_into`] over the shards in order as an inline step does,
/// on `sim-crowded` seed-1 states after rounds 2, 5, 10 and 20, on a
/// shared 2-vCPU Sapphire Rapids host; 14–15 ns with the per-user loop
/// and the vectorised base fold, 19–20 ns with the scalar fold), so 1024
/// of them cost about 7 µs, still well under one condvar wake and join (a
/// pooled round's `ForkJoin` averages about 55 µs there). A threshold of
/// 4096 or 16384 again made no difference that stood out of that host's
/// noise (`SparseThreaded(2)` runs over the eight `sim-crowded` seeds,
/// three alternations: 12.4–13.0 ms per run for each threshold), so 1024
/// stays the crossover. Purely a cost decision — the inline step decides
/// the shards in order and the pooled one concatenates their outputs in
/// shard order, both user order, so the trajectory is unaffected.
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
///   [`run`](crate::run::run)); the parked system syncs eagerly, since its
///   churn between rounds needs a synced index.
/// * `Stepper::full_round` decides **and applies** a round of all `n`
///   users on the state handed over by `Stepper::hold`, which the stepper
///   keeps inside a [`RoundView`]: each shard (one per pool worker, or one
///   inline) writes its movers into its own chunk of the assignment and
///   their load effects into its own deltas, which the coordinator then
///   folds into the loads and bitmaps. `Stepper::view` reads the state
///   between rounds; `Stepper::release` hands it back.
///
/// The active-set step returns the round's moves in user order, a full
/// round their count and weight ([`FullBatch`]); both are the same
/// whichever kernel ran, and both record [`Phase::Decide`] (plus
/// [`Phase::Compute`] and [`Phase::ForkJoin`] for pooled rounds).
pub struct Stepper {
    seed: u64,
    shard_timing: bool,
    pool: Option<WorkerPool>,
    /// The round state of full rounds, between `Stepper::hold` and
    /// `Stepper::release`.
    held: Option<ViewShards>,
    /// The concatenated moves of the last active-set step.
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
    /// bitmaps are built), with one view shard per pool shard (one without
    /// a pool). Everything the rounds use is allocated here, so a full
    /// round allocates nothing.
    ///
    /// # Panics
    /// Panics if the stepper already holds a state.
    pub fn hold<I: Demands>(&mut self, inst: &I, state: State) {
        assert!(self.held.is_none(), "the stepper already holds a state");
        let threads = self.pool.as_ref().map_or(1, WorkerPool::threads);
        let base = inst.instance();
        let m = base.num_resources();
        let shards = shard_bounds(base.num_users(), threads)
            .into_iter()
            .map(|(lo, hi)| ViewShard {
                lo,
                hi,
                deltas: ShardDeltas::new(m),
                batch: (0, 0),
            })
            .collect::<Vec<_>>();
        self.held = Some(ViewShards {
            view: RoundView::from_state(inst, state),
            work: Vec::with_capacity(shards.len()),
            shards,
        });
    }

    /// Hand the held state back ([`RoundView::into_state`], `O(1)`),
    /// dropping the bitmaps and the view shards with their buffers.
    ///
    /// # Panics
    /// Panics if the stepper holds no state.
    pub fn release(&mut self) -> State {
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
    /// moves to it, recording [`Phase::Apply`] for the merge.
    ///
    /// # Panics
    /// Panics if the stepper holds no state.
    pub fn full_round<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        proto: &P,
        round: u64,
        sink: &mut S,
    ) -> FullBatch {
        let held = self.held.as_mut().expect("the stepper holds no state");
        let seed = self.seed;
        let (reads, mut rest) = held.view.split_round();
        let mut work = recycle(std::mem::take(&mut held.work));
        for shard in held.shards.iter_mut() {
            let (assign, tail) = rest.split_at_mut(shard.hi - shard.lo);
            rest = tail;
            work.push((shard, assign));
        }
        let write = |assign: &mut &mut [ResourceId], i: usize, mv: Move| assign[i] = mv.to;
        let decide = |(shard, assign): &mut (&mut ViewShard, &mut [ResourceId])| {
            let (lo, deltas) = (shard.lo, &mut shard.deltas);
            shard.batch =
                reads.decide_chunk(inst, proto, seed, round, lo, &mut **assign, deltas, write);
        };
        match self.pool.as_ref() {
            Some(pool) => {
                let t0 = S::ENABLED.then(Instant::now);
                let max_ns = pool.run_each_timed(&mut work, &decide, S::ENABLED);
                if let Some(t0) = t0 {
                    let wall = t0.elapsed().as_nanos() as u64;
                    pool.observe(sink, wall, max_ns, work.len(), self.shard_timing);
                }
            }
            None => timed(sink, Phase::Decide, || work.iter_mut().for_each(decide)),
        }
        held.work = recycle(work);
        // every shard's loads before any bit repair, which needs final loads
        let (view, shards) = (&mut held.view, &mut held.shards);
        timed(sink, Phase::Apply, || {
            for shard in shards.iter() {
                view.merge_loads(&shard.deltas);
            }
            for shard in shards.iter_mut() {
                view.repair_touched(inst, &mut shard.deltas);
            }
        });
        if cfg!(debug_assertions) {
            held.view.assert_consistent(inst);
        }
        let (len, weight) = held.shards.iter().fold((0, 0), |(len, weight), shard| {
            (len + shard.batch.0, weight + shard.batch.1)
        });
        FullBatch { len, weight }
    }
}

/// An empty vector on `v`'s allocation, for items of another lifetime: a
/// `collect` over a vector's own `into_iter` reuses its buffer when the item
/// layouts match, so the per-round work list allocates nothing.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!()).collect()
}

/// The full-round state: the [`RoundView`] holding the round's [`State`],
/// its shards in user order, and the buffer of each round's list pairing
/// every shard with its chunk of the assignment (empty between rounds).
struct ViewShards {
    view: RoundView,
    shards: Vec<ViewShard>,
    work: Vec<(&'static mut ViewShard, &'static mut [ResourceId])>,
}

/// One full-round shard: the users `lo..hi`, the load deltas only their
/// decisions write, and their last round's move count and moved weight.
struct ViewShard {
    lo: usize,
    hi: usize,
    deltas: ShardDeltas,
    batch: (usize, u64),
}

/// The size of a full round's batch, whose moves went into the held state
/// in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FullBatch {
    /// The number of moves.
    pub len: usize,
    /// The movers' total demand: the move count for unit demand.
    pub weight: u64,
}
