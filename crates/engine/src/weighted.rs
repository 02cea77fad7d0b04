//! Round loop for the weighted model.
//!
//! Mirrors the unit model's executor family ([`crate::run`]): a dense
//! reference loop, a sparse active-set loop over
//! [`WeightedActiveIndex`], and pooled variants of both sharded over the
//! persistent [`WorkerPool`]. All four produce bit-identical trajectories;
//! the weighted model has no `acts_when_satisfied` escape hatch, so the
//! sparse executors are sound for **every** weighted protocol and need no
//! dense fallback.

use crate::pool::{pool_for, shard_chunk, shards_for, WorkerPool};
use crate::run::{Executor, SPARSE_POOL_MIN_ACTIVE};
use qlb_core::weighted::{
    decide_weighted_round_into, decide_weighted_users_into, WeightedActiveIndex, WeightedInstance,
    WeightedProtocol, WeightedRoundView, WeightedState,
};
use qlb_core::{Move, ShardDeltas, ShardScratch, UserId};
use qlb_obs::{timed, Counter, Event, Gauge, NoopSink, Phase, Sink};
use std::sync::Mutex;
use std::time::Instant;

/// The weighted pooled dense decide path's owned state: the SoA
/// [`WeightedRoundView`] plus one `(deltas, scratch)` slot per shard —
/// the weighted mirror of the unit model's `ViewShards` in [`crate::run`].
struct WeightedViewShards {
    view: WeightedRoundView,
    slots: Vec<Mutex<(ShardDeltas, ShardScratch)>>,
}

impl WeightedViewShards {
    fn new(inst: &WeightedInstance, state: &WeightedState, shards: usize) -> Self {
        Self {
            view: WeightedRoundView::new(inst, state),
            slots: (0..shards)
                .map(|_| Mutex::new((ShardDeltas::new(inst.num_resources()), ShardScratch::new())))
                .collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn decide_round<P: WeightedProtocol + ?Sized, S: Sink>(
        &mut self,
        inst: &WeightedInstance,
        proto: &P,
        seed: u64,
        round: u64,
        pool: &WorkerPool,
        buf: &mut Vec<Move>,
        sink: &mut S,
        shard_timing: bool,
    ) {
        let n = inst.num_users();
        let chunk = shard_chunk(n, pool.threads());
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
            shards_for(n, pool.threads()),
        );
        timed(sink, Phase::Apply, || {
            for slot in &self.slots {
                self.view.merge_loads(&slot.lock().unwrap().0);
            }
            self.view.apply_assignments(buf);
            for slot in &self.slots {
                self.view.repair_touched(inst, &mut slot.lock().unwrap().0);
            }
        });
    }
}

/// Configuration of one weighted run.
#[derive(Debug, Clone, Copy)]
pub struct WeightedConfig {
    /// Seed of the run; all randomness is derived from it.
    pub seed: u64,
    /// Round budget; the run stops unconverged when exhausted.
    pub max_rounds: u64,
    /// Round-execution strategy (default [`Executor::Dense`]).
    pub executor: Executor,
    /// Sample the `k` hottest resources (by weighted load) at each observed
    /// round end (0 = off).
    pub topk_resources: usize,
    /// Record per-shard compute/wake profiles on observed pooled rounds
    /// (default on).
    pub shard_timing: bool,
}

impl WeightedConfig {
    /// Plain config: given seed and round budget, dense executor.
    pub fn new(seed: u64, max_rounds: u64) -> Self {
        Self {
            seed,
            max_rounds,
            executor: Executor::Dense,
            topk_resources: 0,
            shard_timing: true,
        }
    }

    /// Select the round-execution strategy.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Sample the `k` hottest resources at each observed round end
    /// (0 disables).
    pub fn with_topk_resources(mut self, k: usize) -> Self {
        self.topk_resources = k;
        self
    }

    /// Toggle per-shard compute/wake profiling of observed pooled rounds.
    pub fn with_shard_timing(mut self, on: bool) -> Self {
        self.shard_timing = on;
        self
    }
}

/// Result of a weighted run.
#[derive(Debug, Clone)]
pub struct WeightedOutcome {
    /// True iff a legal state was reached within the budget.
    pub converged: bool,
    /// Rounds executed.
    pub rounds: u64,
    /// Total migrations.
    pub migrations: u64,
    /// Total *weight* moved (`Σ` over migrations of the mover's demand) —
    /// the transfer-cost metric of the weighted model.
    pub weight_moved: u64,
    /// Final state.
    pub state: WeightedState,
}

/// Run a weighted protocol until legal or out of rounds, using the
/// executor selected by [`WeightedConfig::executor`]. The decisions are
/// order-independent exactly as in the unit model, so every executor
/// produces the same trajectory: sparse rounds cost `O(active)` instead of
/// `O(n)` (with the same dense warm-up / batch-size switch rule as
/// [`crate::run()`]), and the threaded variants shard rounds over a
/// persistent [`WorkerPool`].
///
/// # Panics
/// Panics on a pooled executor with zero threads.
pub fn run_weighted<P: WeightedProtocol + ?Sized>(
    inst: &WeightedInstance,
    state: WeightedState,
    proto: &P,
    config: WeightedConfig,
) -> WeightedOutcome {
    run_weighted_observed(inst, state, proto, config, &mut NoopSink)
}

/// [`run_weighted`] with an observability sink attached: per-round events,
/// the weight-moved counter, and decide/apply/convergence phase timings;
/// pooled rounds split the decide phase into [`Phase::Compute`] and
/// [`Phase::ForkJoin`]. Derived data only — trajectories are bit-identical
/// to [`run_weighted`].
///
/// # Panics
/// Panics on a pooled executor with zero threads.
pub fn run_weighted_observed<P: WeightedProtocol + ?Sized, S: Sink>(
    inst: &WeightedInstance,
    mut state: WeightedState,
    proto: &P,
    config: WeightedConfig,
    sink: &mut S,
) -> WeightedOutcome {
    let pool = pool_for(config.executor, inst.num_users());
    let pool = pool.as_ref();
    let use_sparse = config.executor.is_sparse();
    let n = inst.num_users().max(1);
    let unsat0 = state.num_unsatisfied(inst);
    // sparse regime from the start ⇒ build the index immediately; otherwise
    // warm up dense and switch when batches shrink (identical decisions
    // either way, so the trajectory is unaffected)
    let mut active: Option<WeightedActiveIndex> =
        (use_sparse && unsat0 * 8 < n).then(|| WeightedActiveIndex::new(inst, &state));
    if S::ENABLED && active.is_some() {
        sink.add(Counter::ExecutorSwitches, 1);
        sink.event(Event::ExecutorSwitch {
            round: 0,
            sparse: true,
        });
    }
    let mut moves: Vec<Move> = Vec::new();
    let mut scratch: Vec<UserId> = Vec::new();
    // SoA view of the dense pooled rounds; dropped at the switch to the
    // sparse index
    let mut warmup_view: Option<WeightedViewShards> = None;
    let mut rounds = 0u64;
    let mut migrations = 0u64;
    let mut weight_moved = 0u64;
    let mut converged = unsat0 == 0;
    // carried from round end to the next round start: one unsatisfied scan
    // per round, not two
    let mut entering = unsat0 as u64;

    while !converged && rounds < config.max_rounds {
        if S::ENABLED {
            sink.event(Event::RoundStart {
                round: rounds,
                active: entering,
            });
        }
        match active.as_ref() {
            Some(index) => {
                let t0 = S::ENABLED.then(Instant::now);
                index.sorted_active_into(&mut scratch);
                let len = scratch.len();
                match pool {
                    Some(pool) if len >= SPARSE_POOL_MIN_ACTIVE => {
                        let chunk = shard_chunk(len, pool.threads());
                        let (state_ref, scratch_ref) = (&state, &scratch);
                        // wake only the shards the batch fills
                        pool.decide_round_observed_on(
                            |shard, out| {
                                let lo = (shard * chunk).min(len);
                                let hi = ((shard + 1) * chunk).min(len);
                                if lo < hi {
                                    decide_weighted_users_into(
                                        inst,
                                        state_ref,
                                        &scratch_ref[lo..hi],
                                        proto,
                                        config.seed,
                                        rounds,
                                        out,
                                    );
                                }
                            },
                            &mut moves,
                            sink,
                            config.shard_timing,
                            shards_for(len, pool.threads()),
                        );
                    }
                    _ => {
                        moves.clear();
                        decide_weighted_users_into(
                            inst,
                            &state,
                            &scratch,
                            proto,
                            config.seed,
                            rounds,
                            &mut moves,
                        );
                        if let Some(t0) = t0 {
                            sink.time(Phase::Decide, t0.elapsed().as_nanos() as u64);
                        }
                    }
                }
                if S::ENABLED {
                    sink.add(Counter::SparseRounds, 1);
                }
            }
            None => {
                match pool {
                    Some(pool) => {
                        let vs = warmup_view.get_or_insert_with(|| {
                            WeightedViewShards::new(inst, &state, pool.threads())
                        });
                        if cfg!(debug_assertions) {
                            vs.view.assert_synced(inst, &state);
                        }
                        vs.decide_round(
                            inst,
                            proto,
                            config.seed,
                            rounds,
                            pool,
                            &mut moves,
                            sink,
                            config.shard_timing,
                        );
                    }
                    None => {
                        timed(sink, Phase::Decide, || {
                            decide_weighted_round_into(
                                inst,
                                &state,
                                proto,
                                config.seed,
                                rounds,
                                &mut moves,
                            )
                        });
                    }
                }
                if S::ENABLED {
                    sink.add(Counter::DenseRounds, 1);
                }
            }
        }
        if S::ENABLED {
            sink.event(Event::MigrationBatch {
                round: rounds,
                size: moves.len() as u64,
            });
        }
        let batch_weight = moves.iter().map(|mv| inst.weight(mv.user)).sum::<u64>();
        weight_moved += batch_weight;
        match active.as_mut() {
            Some(index) => timed(sink, Phase::Apply, || {
                index.apply_moves(inst, &mut state, &moves)
            }),
            None => {
                timed(sink, Phase::Apply, || state.apply_moves(inst, &moves));
                // batch size tracks the active count for the damped
                // kernels; once it shrinks, the index starts paying off
                if use_sparse && moves.len() * 8 < n {
                    active = Some(WeightedActiveIndex::new(inst, &state));
                    warmup_view = None;
                    if S::ENABLED {
                        sink.add(Counter::ExecutorSwitches, 1);
                        sink.event(Event::ExecutorSwitch {
                            round: rounds + 1,
                            sparse: true,
                        });
                    }
                }
            }
        }
        migrations += moves.len() as u64;
        rounds += 1;
        converged = timed(sink, Phase::Convergence, || match active.as_ref() {
            Some(index) => index.is_empty(),
            None => state.is_legal(inst),
        });
        if S::ENABLED {
            let unsatisfied = match active.as_ref() {
                Some(index) => index.num_active() as u64,
                None if converged => 0,
                None => state.num_unsatisfied(inst) as u64,
            };
            sink.add(Counter::Rounds, 1);
            sink.add(Counter::Migrations, moves.len() as u64);
            sink.add(Counter::WeightMoved, batch_weight);
            sink.set(Gauge::Unsatisfied, unsatisfied);
            if let Some(index) = active.as_ref() {
                sink.set(Gauge::ActiveSetSize, index.num_active() as u64);
            }
            sink.event(Event::RoundEnd {
                round: rounds - 1,
                migrations: moves.len() as u64,
                unsatisfied,
                overload: None,
            });
            if config.topk_resources > 0 {
                let entries = qlb_obs::top_k_entries(state.loads(), config.topk_resources);
                sink.topk(rounds - 1, &entries);
            }
            entering = unsatisfied;
        }
    }
    debug_assert_eq!(converged, state.is_legal(inst));
    WeightedOutcome {
        converged,
        rounds,
        migrations,
        weight_moved,
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_core::weighted::{WeightedConditional, WeightedSlackDamped};
    use qlb_core::ResourceId;

    #[test]
    fn weighted_crowd_converges() {
        // 96 users of weight 2, caps 6 × 64 resources → γ = 2
        let inst = WeightedInstance::new(vec![6; 64], vec![2; 96]).unwrap();
        let state = WeightedState::all_on(&inst, ResourceId(0));
        let out = run_weighted(
            &inst,
            state,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(3, 10_000),
        );
        assert!(out.converged, "took {} rounds", out.rounds);
        assert!(out.state.is_legal(&inst));
        assert_eq!(out.weight_moved, out.migrations * 2);
    }

    #[test]
    fn mixed_weights_converge_with_slack() {
        let mut weights = vec![1u32; 120];
        weights.extend(vec![4u32; 30]); // total 240
        let inst = WeightedInstance::new(vec![10; 36], weights).unwrap(); // cap 360
        let state = WeightedState::all_on(&inst, ResourceId(0));
        let out = run_weighted(
            &inst,
            state,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(5, 100_000),
        );
        assert!(out.converged, "took {} rounds", out.rounds);
    }

    #[test]
    fn already_legal_is_zero_rounds() {
        let inst = WeightedInstance::new(vec![10, 10], vec![5, 5]).unwrap();
        let state = WeightedState::new(&inst, vec![ResourceId(0), ResourceId(1)]).unwrap();
        let out = run_weighted(
            &inst,
            state,
            &WeightedConditional,
            WeightedConfig::new(1, 100),
        );
        assert!(out.converged);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.weight_moved, 0);
    }

    #[test]
    fn budget_respected() {
        let inst = WeightedInstance::new(vec![4; 16], vec![2; 24]).unwrap();
        let state = WeightedState::all_on(&inst, ResourceId(0));
        let out = run_weighted(
            &inst,
            state,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(1, 1),
        );
        assert_eq!(out.rounds, 1);
        assert!(!out.converged);
    }

    #[test]
    fn deterministic() {
        let inst = WeightedInstance::new(vec![8; 32], vec![3; 48]).unwrap();
        let s = WeightedState::all_on(&inst, ResourceId(0));
        let a = run_weighted(
            &inst,
            s.clone(),
            &WeightedSlackDamped::default(),
            WeightedConfig::new(9, 10_000),
        );
        let b = run_weighted(
            &inst,
            s,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(9, 10_000),
        );
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn unit_weights_reproduce_unit_model_run() {
        use qlb_core::{Instance, SlackDamped, State};
        let n = 128;
        let m = 16;
        let cap = 10;
        let wi = WeightedInstance::unit(n, m, cap as u64).unwrap();
        let ui = Instance::uniform(n, m, cap).unwrap();
        let w_out = run_weighted(
            &wi,
            WeightedState::all_on(&wi, ResourceId(0)),
            &WeightedSlackDamped::default(),
            WeightedConfig::new(7, 10_000),
        );
        let u_out = crate::run(
            &ui,
            State::all_on(&ui, ResourceId(0)),
            &SlackDamped::default(),
            crate::RunConfig::new(7, 10_000),
        );
        assert_eq!(w_out.rounds, u_out.rounds);
        assert_eq!(w_out.migrations, u_out.migrations);
        let unit_loads: Vec<u64> = u_out.state.loads().iter().map(|&x| x as u64).collect();
        assert_eq!(w_out.state.loads(), &unit_loads[..]);
    }

    #[test]
    fn every_executor_matches_dense_exactly() {
        let mut weights = vec![1u32; 80];
        weights.extend(vec![4u32; 20]);
        let inst = WeightedInstance::new(vec![8; 24], weights).unwrap();
        let s = WeightedState::all_on(&inst, ResourceId(0));
        let protos: [&dyn WeightedProtocol; 2] =
            [&WeightedSlackDamped::default(), &WeightedConditional];
        for proto in protos {
            let dense = run_weighted(&inst, s.clone(), proto, WeightedConfig::new(11, 10_000));
            for exec in [
                Executor::Sparse,
                Executor::Threaded(3),
                Executor::SparseThreaded(4),
            ] {
                let other = run_weighted(
                    &inst,
                    s.clone(),
                    proto,
                    WeightedConfig::new(11, 10_000).with_executor(exec),
                );
                let name = proto.name();
                assert_eq!(dense.converged, other.converged, "{name} {exec:?}");
                assert_eq!(dense.rounds, other.rounds, "{name} {exec:?}");
                assert_eq!(dense.migrations, other.migrations, "{name} {exec:?}");
                assert_eq!(dense.weight_moved, other.weight_moved, "{name} {exec:?}");
                assert_eq!(dense.state, other.state, "{name} {exec:?}");
            }
        }
    }

    #[test]
    fn observed_run_samples_topk_and_shard_profile() {
        use qlb_obs::Recorder;
        let inst = WeightedInstance::new(vec![8; 32], vec![3; 48]).unwrap();
        let state = WeightedState::all_on(&inst, ResourceId(0));
        let mut rec = Recorder::default();
        let out = run_weighted_observed(
            &inst,
            state,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(9, 10_000)
                .with_executor(Executor::Threaded(3))
                .with_topk_resources(4),
            &mut rec,
        );
        assert!(out.converged);
        let samples = rec.topk_series().samples();
        assert!(!samples.is_empty(), "no top-k samples retained");
        // samples are taken at round end: descending by load, ≤ k entries
        let (round0, entries0) = &samples[0];
        assert_eq!(*round0, 0);
        assert!(!entries0.is_empty() && entries0.len() <= 4);
        assert!(entries0.windows(2).all(|w| w[0].load >= w[1].load));
        // dense pooled rounds were profiled per shard
        let st = rec.shard_timers();
        assert!(!st.is_empty(), "no shard profile recorded");
        assert_eq!(st.num_shards(), 3);
    }

    #[test]
    fn sparse_observed_counts_round_split() {
        use qlb_obs::Recorder;
        // endgame-shaped start: 3 weight-2 users on each of 64 cap-8
        // resources (satisfied), plus 2 extra crowding resource 0 — only
        // r0's 5 occupants are unsatisfied, so the run starts sparse
        let inst = WeightedInstance::new(vec![8; 64], vec![2; 194]).unwrap();
        let mut assignment: Vec<ResourceId> = (0..192).map(|i| ResourceId(i / 3)).collect();
        assignment.extend([ResourceId(0), ResourceId(0)]);
        let state = WeightedState::new(&inst, assignment).unwrap();
        let mut rec = Recorder::default();
        let out = run_weighted_observed(
            &inst,
            state,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(3, 10_000).with_executor(Executor::Sparse),
            &mut rec,
        );
        assert!(out.converged);
        assert_eq!(
            rec.counter(Counter::DenseRounds) + rec.counter(Counter::SparseRounds),
            out.rounds
        );
        assert!(rec.counter(Counter::SparseRounds) > 0, "never went sparse");
        assert_eq!(rec.counter(Counter::WeightMoved), out.weight_moved);
    }

    #[test]
    fn threads_beyond_users_collapse_to_sequential() {
        let inst = WeightedInstance::new(vec![4; 4], vec![2; 6]).unwrap();
        let state = WeightedState::all_on(&inst, ResourceId(0));
        let out = run_weighted(
            &inst,
            state,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(2, 10_000).with_executor(Executor::Threaded(64)),
        );
        assert!(out.converged);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let inst = WeightedInstance::new(vec![4; 4], vec![2; 6]).unwrap();
        let state = WeightedState::all_on(&inst, ResourceId(0));
        let _ = run_weighted(
            &inst,
            state,
            &WeightedSlackDamped::default(),
            WeightedConfig::new(2, 10).with_executor(Executor::Threaded(0)),
        );
    }
}
