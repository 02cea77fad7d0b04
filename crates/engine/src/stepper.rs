//! The round stepper: the one place a round's decide kernel is chosen.
//!
//! A round of the paper is the same step in every driver: each
//! unsatisfied user samples a target and flips its coin against the
//! start-of-round loads. [`Stepper`] runs that step for the closed loop,
//! the open-system driver and the serving core's tick. It owns everything
//! the kernel choice needs — the optional [`WorkerPool`], the lazily built
//! struct-of-arrays view of pooled full rounds, and the reusable move and
//! sorted-active buffers — so a driver only says *which* users decide
//! (the active set, or everyone) and then applies the returned moves its
//! own way.

use crate::pool::{pool_for, shard_chunk, shards_for, WorkerPool};
use crate::run::Executor;
use qlb_core::step::{decide_active_into, decide_round_into, decide_users_into};
use qlb_core::{
    ActiveIndex, Demands, Instance, Move, Protocol, ResourceId, RoundView, ShardDeltas,
    ShardScratch, State, UserId,
};
use qlb_obs::{timed, Phase, Sink};
use std::sync::Mutex;

/// Below this many active users a pooled sparse round decides sequentially:
/// the per-user kernel is ~100 ns, so a sub-1024 batch is cheaper than one
/// condvar dispatch. Purely a cost decision — shard outputs concatenate in
/// user order either way, so the trajectory is unaffected.
const SPARSE_POOL_MIN_ACTIVE: usize = 1024;

/// Below this many moves the shard-owned executor applies the batch on the
/// coordinator instead of waking the pool a second time: the in-place write
/// is ~5 ns/move, so a small batch is cheaper than one dispatch round-trip.
/// Purely a cost decision — both paths write the same cells.
const OWNED_APPLY_MIN_BATCH: usize = 4096;

/// Decides one synchronous round for any driver.
///
/// * [`Stepper::decide_active`] decides the unsatisfied users of an
///   [`ActiveIndex`]: sharded over the pool when there is one and the set
///   holds at least 1024 users, sequentially otherwise.
/// * [`Stepper::decide_round`] decides all `n` users: over the SoA
///   [`RoundView`] sharded across the pool when there is one, by the dense
///   reference scan otherwise.
///
/// Both return the round's moves in user order, byte-identical whichever
/// kernel ran, and record [`Phase::Decide`] (plus [`Phase::Compute`] and
/// [`Phase::ForkJoin`] for pooled rounds) on the sink.
pub struct Stepper {
    seed: u64,
    shard_timing: bool,
    pool: Option<WorkerPool>,
    /// SoA view of pooled full rounds: built at the first one and kept in
    /// step by them and by [`Stepper::reassign`]; an active-set round
    /// drops it, since the index's apply does not mirror into it.
    view: Option<ViewShards>,
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
            view: None,
            sorted: Vec::new(),
            moves: Vec::new(),
        }
    }

    /// The worker pool, if rounds are sharded.
    #[inline]
    pub(crate) fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
    }

    /// Decide round `round` for the users `index` holds unsatisfied, each
    /// against `state`'s loads.
    pub fn decide_active<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        state: &State,
        index: &ActiveIndex,
        proto: &P,
        round: u64,
        sink: &mut S,
    ) -> &[Move] {
        self.view = None;
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
                let (moves, sorted) = (&mut self.moves, &mut self.sorted);
                timed(sink, Phase::Decide, || {
                    decide_active_into(inst, state, index, proto, seed, round, moves, sorted)
                });
            }
        }
        &self.moves
    }

    /// Decide round `round` for all users of `state`.
    pub fn decide_round<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        state: &State,
        proto: &P,
        round: u64,
        sink: &mut S,
    ) -> &[Move] {
        let seed = self.seed;
        match self.pool.as_ref() {
            Some(pool) => {
                let vs = self
                    .view
                    .get_or_insert_with(|| ViewShards::new(inst, state, pool.threads()));
                if cfg!(debug_assertions) {
                    vs.view.assert_synced(inst, state);
                }
                vs.decide_round(
                    inst,
                    proto,
                    seed,
                    round,
                    pool,
                    &mut self.moves,
                    sink,
                    self.shard_timing,
                    false,
                );
            }
            None => {
                let moves = &mut self.moves;
                timed(sink, Phase::Decide, || {
                    decide_round_into(inst, state, proto, seed, round, moves)
                });
            }
        }
        &self.moves
    }

    /// Mirror a reassignment the driver made to its state (an arrival or a
    /// departure) into the SoA view, if one is live.
    #[inline]
    pub fn reassign(&mut self, inst: &Instance, user: UserId, to: ResourceId) {
        if let Some(vs) = self.view.as_mut() {
            vs.view.reassign(inst, user, to);
        }
    }
}

/// The pooled full-round path's owned state: the struct-of-arrays
/// [`RoundView`] plus one `(deltas, scratch)` slot per shard. During a
/// dispatch each shard locks only its own slot (uncontended by
/// construction); between dispatches the coordinator folds the slots back
/// into the view.
pub(crate) struct ViewShards {
    pub(crate) view: RoundView,
    slots: Vec<Mutex<(ShardDeltas, ShardScratch)>>,
}

impl ViewShards {
    pub(crate) fn new<I: Demands>(inst: &I, state: &State, shards: usize) -> Self {
        let m = inst.instance().num_resources();
        Self {
            view: RoundView::new(inst, state),
            slots: (0..shards)
                .map(|_| Mutex::new((ShardDeltas::new(m), ShardScratch::new())))
                .collect(),
        }
    }

    /// One pooled full round: decide all `n` users via the SoA two-pass
    /// kernel (sharded on cache-line boundaries, waking only non-empty
    /// shards), then merge the per-shard deltas so the view mirrors the
    /// post-round state. The move list in `buf` is byte-identical to the
    /// sequential scan's.
    ///
    /// With `owned_apply`, large migration batches are applied **by the
    /// workers themselves**, each writing only its own cache-line-aligned
    /// user range of the interior-mutable assignment array. The decide
    /// dispatch drains shards in order and each shard emits moves in user
    /// order, so `buf` is globally sorted by user index — each worker
    /// recovers its slice with two binary searches.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide_round<I: Demands, P: Protocol + ?Sized, S: Sink>(
        &mut self,
        inst: &I,
        proto: &P,
        seed: u64,
        round: u64,
        pool: &WorkerPool,
        buf: &mut Vec<Move>,
        sink: &mut S,
        shard_timing: bool,
        owned_apply: bool,
    ) {
        let n = inst.instance().num_users();
        let chunk = shard_chunk(n, pool.threads());
        let active = shards_for(n, pool.threads());
        let (view, slots) = (&self.view, &self.slots);
        pool.decide_round_observed_on(
            |shard, out| {
                let lo = (shard * chunk).min(n);
                let hi = ((shard + 1) * chunk).min(n);
                if lo < hi {
                    let mut slot = slots[shard].lock().unwrap();
                    let (deltas, scratch) = &mut *slot;
                    view.decide_shard_into(inst, proto, seed, round, lo, hi, out, scratch, deltas);
                }
            },
            buf,
            sink,
            shard_timing,
            active,
        );
        // Coordinator merge, ordered per the RoundView contract: every
        // shard's loads first, then the assignment writes, then the bit
        // repair of each shard's touched set (which needs final loads).
        timed(sink, Phase::Apply, || {
            for slot in &self.slots {
                self.view.merge_loads(&slot.lock().unwrap().0);
            }
            if owned_apply && buf.len() >= OWNED_APPLY_MIN_BATCH {
                let view = &self.view;
                let moves: &[Move] = buf;
                pool.run_on(
                    &|shard| {
                        let lo = (shard * chunk).min(n);
                        let hi = ((shard + 1) * chunk).min(n);
                        if lo < hi {
                            let start = moves.partition_point(|mv| mv.user.index() < lo);
                            let end = moves.partition_point(|mv| mv.user.index() < hi);
                            view.apply_shard_assignments(lo, hi, &moves[start..end]);
                        }
                    },
                    active,
                );
            } else {
                self.view.apply_assignments(buf);
            }
            for slot in &self.slots {
                self.view.repair_touched(inst, &mut slot.lock().unwrap().0);
            }
        });
    }
}
