//! The closed-system round loop and its executors.
//!
//! One loop serves the unit and the weighted model: every entry point is
//! generic over [`Demands`], so a plain [`Instance`](qlb_core::Instance)
//! runs the unit model and a [`qlb_core::weighted::WeightedInstance`] the
//! weighted one.

use crate::stale::{run_stale, Staleness};
use crate::stepper::Stepper;
pub use qlb_core::step::RunOutcome;
use qlb_core::{overload_potential_loads, ActiveIndex, Demands, Move, Protocol, State};
use qlb_obs::{timed, Counter, Event, Gauge, NoopSink, Phase, Sink, UserWalk};

/// Which round-execution strategy [`run`] uses.
///
/// All executors produce **bit-identical trajectories** (same seed ⇒ same
/// rounds, migrations, and final state); they differ only in cost:
///
/// * [`Executor::Dense`] walks all `n` users each round with the SoA
///   [`RoundView`](qlb_core::RoundView) kernel as one shard —
///   `O(n)`/round, sound for every protocol;
/// * [`Executor::Sparse`] walks only the unsatisfied users via an
///   incrementally-maintained [`ActiveIndex`] — `O(active)`/round, a large
///   win in the endgame where few users remain unsatisfied. Unsound only
///   for protocols that act while satisfied
///   ([`Protocol::acts_when_satisfied`]); [`run`] detects those and falls
///   back to dense automatically;
/// * [`Executor::Threaded`] shards that kernel over a persistent
///   [`WorkerPool`](crate::pool::WorkerPool) — `O(n / threads)`/round critical path, with one
///   condvar dispatch (not `threads` thread spawns) of overhead per round;
/// * [`Executor::SparseThreaded`] composes both: the active-set walk is
///   sharded over the pool while it is large and runs sequentially once it
///   is small — `O(active / threads)`/round, the same dense fallback rule
///   as [`Executor::Sparse`].
///
/// The pooled executors size their pool to the shards the population
/// actually fills, and run sequentially when one shard covers it. No
/// executor is the reference: the tests and E10 compare each of them with
/// the dense loop [`qlb_core::step::reference_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Full `O(n)` scan per round.
    #[default]
    Dense,
    /// Active-set scan, `O(unsatisfied)` per round, with automatic dense
    /// fallback where unsound.
    Sparse,
    /// Full scan sharded over a persistent pool of this many threads.
    Threaded(usize),
    /// Active-set scan sharded over a persistent pool of this many threads
    /// (with the same automatic dense fallback as [`Executor::Sparse`]).
    SparseThreaded(usize),
}

impl Executor {
    /// True for the active-set executors.
    pub(crate) fn is_sparse(self) -> bool {
        matches!(self, Executor::Sparse | Executor::SparseThreaded(_))
    }
}

/// Configuration of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of the run; all randomness is derived from it.
    pub seed: u64,
    /// Round budget; the run stops unconverged when exhausted.
    pub max_rounds: u64,
    /// Round-execution strategy (default [`Executor::Dense`]).
    pub executor: Executor,
    /// Sample the `k` hottest resources at each observed round end
    /// (0 = off). Flows to [`qlb_obs::Sink::topk`]; the recording sinks
    /// retain a decimated series.
    pub topk_resources: usize,
    /// Record per-shard compute/wake profiles on observed pooled rounds
    /// (default on; irrelevant for sequential executors and disabled
    /// sinks).
    pub shard_timing: bool,
    /// What the users observe (default: the fresh loads). A stale run
    /// decides every user each round, on one thread, whatever the
    /// executor; see [`RunConfig::with_staleness`].
    pub staleness: Staleness,
}

impl RunConfig {
    /// Plain config: given seed, round budget, dense executor.
    pub fn new(seed: u64, max_rounds: u64) -> Self {
        Self {
            seed,
            max_rounds,
            executor: Executor::Dense,
            topk_resources: 0,
            shard_timing: true,
            staleness: Staleness::default(),
        }
    }

    /// Let users decide on stale loads: each observes a snapshot up to
    /// `max_delay` rounds old, and each snapshot slice is lost with
    /// probability `loss`, leaving the previous round's loads in its
    /// place. The snapshots are split into
    /// [`USER_BLOCKS`](crate::USER_BLOCKS) ×
    /// [`RESOURCE_BLOCKS`](crate::RESOURCE_BLOCKS) slices per round, and a
    /// run keeps the last `min(max_delay, rounds) + 1` snapshots of each
    /// user block, `USER_BLOCKS · m` loads a round. With both values zero
    /// the run is the fresh one.
    ///
    /// # Panics
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn with_staleness(mut self, max_delay: u64, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability out of range");
        self.staleness = Staleness { max_delay, loss };
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

    /// Select the round-execution strategy.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }
}

/// Run a protocol until legal or out of rounds, using the executor
/// selected by [`RunConfig::executor`] (dense by default).
///
/// The loop reuses one move buffer, so steady-state execution performs no
/// allocation. A per-round [`Trace`](crate::Trace) is a sink: pass it to
/// [`run_observed`].
///
/// The sparse executors keep an [`ActiveIndex`] of the unsatisfied users
/// and per-resource occupant lists. Applying a round's migrations changes
/// the congestion of the touched resources only, and a user's satisfaction
/// depends solely on its own resource's congestion — so the set is updated
/// by rechecking just the occupants of touched resources, and convergence
/// is set emptiness. Crowded rounds (most users unsatisfied, as from a
/// hotspot start) are a loss for the index, so the sparse executors run
/// **dense warm-up rounds** while batches stay large and build the index
/// once a round's batch drops below `n / 8`. Both phases decide
/// identically: decisions are pure functions of `(seed, user, round)` and
/// start-of-round loads, satisfied users consume no randomness, and the
/// active set is walked in user order.
///
/// The index has one shard — a user range — per pool shard, and a pooled
/// step first moves the range bounds to the unsatisfied users when they
/// crowd into a few shards ([`Stepper::step_sparse`]). An active-set
/// round is one step in which every shard first syncs with the previous
/// round's batch (relocating its movers, rechecking its occupants of the
/// resources whose load crossed a threshold, rechecking its movers) and
/// then decides its own unsatisfied users; between steps the coordinator
/// only applies the batch to the state. So a round ends — its convergence
/// check and `RoundEnd` event — once the next step has synced, and a run
/// whose budget ends in the sparse phase closes with one sync-only step,
/// which is not a round.
///
/// The pooled executors run on one [`WorkerPool`](crate::pool::WorkerPool)
/// created per run, so
/// every round is an epoch bump on parked workers, not a thread spawn.
///
/// `inst` is an [`Instance`](qlb_core::Instance) (unit demand) or a
/// weighted instance: the executors, index and view are the same, loads
/// count demand, and [`RunOutcome::weight_moved`] reports the demand moved.
///
/// # Panics
/// Panics on a pooled executor with zero threads.
pub fn run<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: State,
    proto: &P,
    config: RunConfig,
) -> RunOutcome {
    run_observed(inst, state, proto, config, &mut NoopSink)
}

/// [`run`] with an observability sink attached.
///
/// The sink is monomorphized into the round loop (no `dyn`): with the
/// default [`NoopSink`] every emission site compiles away and this is
/// exactly [`run`]. With a recording sink (e.g. [`qlb_obs::Recorder`]) the
/// loop emits per-round events (round start/end, migration batch,
/// convergence check, executor switch), counters, gauges, and
/// decide/apply/convergence phase timings; pooled rounds additionally
/// split the decide phase into [`Phase::Compute`] and [`Phase::ForkJoin`].
/// Weighted runs also count [`Counter::WeightMoved`]. A
/// [`Trace`](crate::Trace) is the sink that keeps the per-round series;
/// `&mut (&mut trace, &mut recorder)` feeds it and a recorder at once.
/// Observability is derived data only — the trajectory is bit-identical
/// either way (property-tested).
///
/// # Panics
/// Panics on a pooled executor with zero threads.
pub fn run_observed<I: Demands, P: Protocol + ?Sized, S: Sink>(
    inst: &I,
    state: State,
    proto: &P,
    config: RunConfig,
    sink: &mut S,
) -> RunOutcome {
    let stale = !config.staleness.is_fresh();
    let sparse = if config.executor.is_sparse() && (stale || proto.acts_when_satisfied()) {
        // the active set would be unsound; record the decision and run dense
        if S::ENABLED {
            sink.event(Event::ExecutorSwitch {
                round: 0,
                sparse: false,
            });
        }
        false
    } else {
        config.executor.is_sparse()
    };
    if stale {
        return run_stale(inst, state, proto, config, sink);
    }

    let n = inst.instance().num_users();
    let mut stepper = Stepper::new(config.executor, n, config.seed, config.shard_timing);
    let n = n.max(1);
    let unsat0 = state.num_unsatisfied(inst);
    // Start sparse only if the initial state is already in the sparse
    // regime; otherwise warm up with full rounds, during which the stepper
    // holds the state. The active-set rounds own the state with the index.
    let mut active: Option<(ActiveIndex, State)> = None;
    if sparse && unsat0 * 8 < n {
        active = Some((stepper.build_index(inst, &state), state));
        if S::ENABLED {
            sink.add(Counter::ExecutorSwitches, 1);
            sink.event(Event::ExecutorSwitch {
                round: 0,
                sparse: true,
            });
        }
    } else {
        stepper.hold(inst, state);
    }
    let mut rounds = 0u64;
    let mut migrations = 0u64;
    let mut weight_moved = 0u64;
    let mut converged = unsat0 == 0;
    // carried between rounds (see `emit_round_end`): start count == the
    // previous round's end count
    let mut entering = unsat0 as u64;
    // an active-set round whose end waits for the shards' sync: its batch
    // size and weight
    let mut open_round: Option<(u64, u64)> = None;

    loop {
        let Some((index, state)) = active.as_mut() else {
            if converged || rounds >= config.max_rounds {
                break;
            }
            if S::ENABLED {
                sink.event(Event::RoundStart {
                    round: rounds,
                    active: entering,
                });
            }
            let moves = stepper.full_round(inst, proto, rounds, sink);
            let batch = moves.len as u64;
            let batch_weight = moves.weight;
            if S::ENABLED {
                sink.add(Counter::DenseRounds, 1);
                sink.event(Event::MigrationBatch {
                    round: rounds,
                    size: batch,
                });
            }
            // batch size tracks the active count for the damped kernels;
            // once it shrinks, the index starts paying off. The stepper
            // hands the state back for it, and the build is part of the
            // switching round's apply.
            if sparse && batch * 8 < n as u64 {
                timed(sink, Phase::Apply, || {
                    let state = stepper.release();
                    active = Some((stepper.build_index(inst, &state), state));
                });
                if S::ENABLED {
                    sink.add(Counter::ExecutorSwitches, 1);
                    sink.event(Event::ExecutorSwitch {
                        round: rounds + 1,
                        sparse: true,
                    });
                }
            }
            rounds += 1;
            migrations += batch;
            weight_moved += batch_weight;
            converged = timed(sink, Phase::Convergence, || match active.as_ref() {
                Some((index, _)) => index.is_empty(),
                None => stepper.view().state().is_legal(inst),
            });
            if S::ENABLED {
                // the index tracks the unsatisfied set exactly, so when it
                // is live the count is O(1); full rounds count
                let (unsatisfied, loads) = match active.as_ref() {
                    Some((index, state)) => (index.num_active() as u64, state.loads()),
                    None => {
                        let state = stepper.view().state();
                        (state.num_unsatisfied(inst) as u64, state.loads())
                    }
                };
                let users = |f: &mut dyn FnMut(u32)| match active.as_ref() {
                    Some((index, _)) => index.active().for_each(|u| f(u.0)),
                    None => stepper.view().unsatisfied_users(inst).for_each(|u| f(u.0)),
                };
                let topk = config.topk_resources;
                emit_round_end(
                    inst,
                    loads,
                    sink,
                    rounds - 1,
                    batch,
                    batch_weight,
                    converged,
                    unsatisfied,
                    &users,
                    topk,
                );
                entering = unsatisfied;
                if let Some((index, _)) = active.as_ref() {
                    sink.set(Gauge::ActiveSetSize, index.num_active() as u64);
                }
            }
            continue;
        };

        // An active-set round. The shards first sync with the previous
        // round's batch — which ends that round — and then decide this one,
        // in one step; a sync after the last budgeted round decides nothing.
        // A step that decides no round records its time as `Apply`.
        if open_round.is_none() && (converged || rounds >= config.max_rounds) {
            break;
        }
        let decide = rounds < config.max_rounds;
        let moves = stepper.step_sparse(inst, state, index, proto, rounds, decide, sink);
        if let Some((batch, batch_weight)) = open_round.take() {
            converged = timed(sink, Phase::Convergence, || index.is_empty());
            if S::ENABLED {
                let unsatisfied = index.num_active() as u64;
                let topk = config.topk_resources;
                emit_round_end(
                    inst,
                    state.loads(),
                    sink,
                    rounds - 1,
                    batch,
                    batch_weight,
                    converged,
                    unsatisfied,
                    &|f| index.active().for_each(|u| f(u.0)),
                    topk,
                );
                entering = unsatisfied;
                sink.set(Gauge::ActiveSetSize, unsatisfied);
            }
            if converged || !decide {
                debug_assert!(moves.is_empty(), "a legal state decided moves");
                break;
            }
        }
        if S::ENABLED {
            sink.event(Event::RoundStart {
                round: rounds,
                active: entering,
            });
            sink.add(Counter::SparseRounds, 1);
            sink.event(Event::MigrationBatch {
                round: rounds,
                size: moves.len() as u64,
            });
        }
        timed(sink, Phase::Apply, || {
            index.apply_staged(inst, state, moves)
        });
        let batch = moves.len() as u64;
        let batch_weight = moved_weight(inst, moves);
        rounds += 1;
        migrations += batch;
        weight_moved += batch_weight;
        open_round = Some((batch, batch_weight));
    }

    let state = match active {
        Some((_, state)) => state,
        None => stepper.release(),
    };
    debug_assert_eq!(converged, state.is_legal(inst));
    RunOutcome {
        converged,
        rounds,
        migrations,
        weight_moved,
        state,
    }
}

/// Total demand of a round's movers: the batch size for unit demand.
#[inline]
pub(crate) fn moved_weight<I: Demands>(inst: &I, moves: &[Move]) -> u64 {
    if I::UNIT {
        moves.len() as u64
    } else {
        moves.iter().map(|mv| inst.weight(mv.user) as u64).sum()
    }
}

/// Emit the post-round counters, gauges, and events. Everything here is
/// *derived* from the post-round congestion vector — it must never feed
/// back into decisions. `unsatisfied` is passed in (the caller usually has
/// it for free: the sparse index knows it in O(1), and the dense loops
/// reuse it as the next round's `RoundStart` active count, halving the
/// scans). `batch` is the round's migration count and `weight` the demand
/// it moved; weighted runs count the latter as [`Counter::WeightMoved`].
/// `users` walks the users left unsatisfied, for
/// [`Sink::unsatisfied_users`]. With `topk > 0` the `topk` hottest
/// resources are offered to the sink as a congestion sample.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_round_end<I: Demands, S: Sink>(
    inst: &I,
    loads: &[u32],
    sink: &mut S,
    round: u64,
    batch: u64,
    weight: u64,
    converged: bool,
    unsatisfied: u64,
    users: &UserWalk<'_>,
    topk: usize,
) {
    let base = inst.instance();
    let overload = (base.num_classes() == 1).then(|| overload_potential_loads(base, loads));
    sink.add(Counter::Rounds, 1);
    sink.add(Counter::Migrations, batch);
    if !I::UNIT {
        sink.add(Counter::WeightMoved, weight);
    }
    sink.set(Gauge::Unsatisfied, unsatisfied);
    if let Some(phi) = overload {
        sink.set(Gauge::Overload, phi);
    }
    sink.event(Event::RoundEnd {
        round,
        migrations: batch,
        unsatisfied,
        overload,
    });
    sink.unsatisfied_users(round, users);
    sink.event(Event::ConvergenceCheck { round, converged });
    if topk > 0 {
        sink.topk(round, &qlb_obs::top_k_entries(loads, topk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use qlb_core::weighted::WeightedInstance;
    use qlb_core::{BlindUniform, ConditionalUniform, Instance, ResourceId, SlackDamped};
    use qlb_obs::Recorder;

    fn hotspot(n: usize, m: usize, cap: u32) -> (Instance, State) {
        let inst = Instance::uniform(n, m, cap).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    #[test]
    fn already_legal_returns_immediately() {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let state = State::round_robin(&inst);
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(1, 100),
        );
        assert!(out.converged);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.migrations, 0);
    }

    #[test]
    fn slack_damped_converges_from_hotspot() {
        let (inst, state) = hotspot(256, 32, 10); // slack factor 1.25
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(7, 10_000),
        );
        assert!(out.converged, "did not converge in {} rounds", out.rounds);
        assert!(out.state.is_legal(&inst));
        assert!(out.rounds < 200, "took {} rounds", out.rounds);
        assert!(out.migrations >= 256 - 10); // most users had to leave r0
    }

    #[test]
    fn round_budget_respected() {
        let (inst, state) = hotspot(256, 32, 10);
        let out = run(&inst, state, &SlackDamped::default(), RunConfig::new(7, 1));
        assert!(!out.converged);
        assert_eq!(out.rounds, 1);
    }

    /// A run with a settling-time trace attached.
    fn traced<I: Demands, P: Protocol + ?Sized>(
        inst: &I,
        state: &State,
        proto: &P,
        cfg: RunConfig,
    ) -> (RunOutcome, Trace) {
        let mut trace = Trace::with_settling_times(inst, state);
        let out = run_observed(inst, state.clone(), proto, cfg, &mut trace);
        (out, trace)
    }

    #[test]
    fn trace_has_initial_plus_per_round_entries() {
        let (inst, state) = hotspot(64, 8, 10);
        let cfg = RunConfig::new(3, 10_000);
        let mut trace = Trace::new(&inst, &state);
        let out = run_observed(&inst, state, &SlackDamped::default(), cfg, &mut trace);
        assert_eq!(trace.rounds.len() as u64, out.rounds + 1);
        assert_eq!(trace.rounds[0].round, 0);
        assert_eq!(trace.rounds[0].unsatisfied, 64);
        // overload is non-increasing in a *typical* damped run from a
        // hotspot? Not guaranteed per-round; assert the endpoint instead.
        assert_eq!(trace.rounds.last().unwrap().unsatisfied, 0);
        // migrations in trace sum to outcome total
        let total: u64 = trace.rounds.iter().map(|r| r.migrations).sum();
        assert_eq!(total, out.migrations);
    }

    #[test]
    fn user_times_recorded() {
        let (inst, state) = hotspot(64, 8, 10);
        let cfg = RunConfig::new(3, 10_000);
        let (out, trace) = traced(&inst, &state, &SlackDamped::default(), cfg);
        let times = trace.settling_times();
        assert_eq!(times.len(), 64);
        assert!(times.iter().all(|&t| t <= out.rounds));
        assert!(times.iter().any(|&t| t > 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (inst, s1) = hotspot(128, 16, 10);
        let s2 = s1.clone();
        let a = run(
            &inst,
            s1,
            &SlackDamped::default(),
            RunConfig::new(9, 10_000),
        );
        let b = run(
            &inst,
            s2,
            &SlackDamped::default(),
            RunConfig::new(9, 10_000),
        );
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn threaded_more_threads_than_users() {
        let (inst, state) = hotspot(4, 2, 3);
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(2, 1_000).with_executor(Executor::Threaded(16)),
        );
        assert!(out.converged);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let (inst, state) = hotspot(4, 2, 3);
        let _ = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(2, 10).with_executor(Executor::Threaded(0)),
        );
    }

    /// Documents the **blocking phenomenon** of multi-class instances:
    /// satisfied lenient users never move, so they can squat capacity that
    /// strict users need, and the protocol cannot reach the (existing!)
    /// legal state. Convergence in the heterogeneous model needs per-class
    /// headroom: enough resources whose *total* load stays below the strict
    /// class's effective capacity.
    #[test]
    fn multi_class_blocking_prevents_convergence() {
        use qlb_core::InstanceBuilder;
        // One channel, speed 4: strict cap 2, lenient cap 4. One strict +
        // three lenient users on a second identical channel would be legal
        // (strict alone on ch0, lenient trio on ch1), but from the mixed
        // start the lenient users are satisfied (load 4 ≤ 4) and never
        // move, so the strict user (load 4 > 2 everywhere it can see the
        // crowd) can never be satisfied on ch0 — and ch1 hosts the other
        // crowd half. Construct the fully blocked variant: both channels
        // at lenient-satisfying load above the strict cap.
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0])
            .latency_class(0.5, 1) // strict: cap 2
            .latency_class(1.0, 5) // lenient: cap 4
            .build()
            .unwrap();
        // A legal state exists — note it must MIX classes (strict + one
        // lenient on ch0 at load 2; four lenient on ch1 at load 4), which
        // is why the segregating greedy cannot find it:
        let legal = State::new(
            &inst,
            vec![
                ResourceId(0), // strict
                ResourceId(0), // lenient sharing under the strict cap
                ResourceId(1),
                ResourceId(1),
                ResourceId(1),
                ResourceId(1),
            ],
        )
        .unwrap();
        assert!(legal.is_legal(&inst));
        // Blocked start: strict + 2 lenient on ch0 (load 3 > strict cap 2,
        // lenient fine), 3 lenient on ch1 (load 3 ≤ 4): every lenient user
        // is satisfied, and no channel has room at the strict cap.
        let assignment = vec![
            ResourceId(0), // strict
            ResourceId(0),
            ResourceId(0),
            ResourceId(1),
            ResourceId(1),
            ResourceId(1),
        ];
        let state = State::new(&inst, assignment).unwrap();
        // ...but the protocol cannot reach it: the strict user finds no
        // channel with room at its cap, and nobody else ever moves.
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(3, 2_000),
        );
        assert!(!out.converged);
        assert_eq!(out.migrations, 0, "no migration is ever possible");
        assert_eq!(out.state.num_unsatisfied(&inst), 1);
    }

    #[test]
    fn pooled_observed_splits_decide_phase() {
        let (inst, s1) = hotspot(300, 16, 24);
        let mut rec = Recorder::default();
        let out = run_observed(
            &inst,
            s1,
            &SlackDamped::default(),
            RunConfig::new(5, 10_000).with_executor(Executor::Threaded(4)),
            &mut rec,
        );
        assert!(out.converged);
        let t = rec.timers();
        assert_eq!(t.histogram(Phase::Decide).count(), out.rounds);
        assert_eq!(t.histogram(Phase::Compute).count(), out.rounds);
        assert_eq!(t.histogram(Phase::ForkJoin).count(), out.rounds);
        // Decide = Compute + ForkJoin per round, so the totals must agree
        // up to per-sample rounding.
        let decide = t.total_ns(Phase::Decide);
        let split = t.total_ns(Phase::Compute) + t.total_ns(Phase::ForkJoin);
        assert!(split <= decide + out.rounds && decide <= split + out.rounds);
    }

    #[test]
    fn sparse_threaded_more_threads_than_active_users() {
        let (inst, state) = hotspot(6, 3, 3);
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(2, 1_000).with_executor(Executor::SparseThreaded(16)),
        );
        assert!(out.converged);
    }

    #[test]
    fn sparse_already_legal_returns_immediately() {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let state = State::round_robin(&inst);
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(1, 100).with_executor(Executor::Sparse),
        );
        assert!(out.converged);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.migrations, 0);
    }

    #[test]
    fn blind_uniform_converges_with_huge_slack_only() {
        // with enormous slack blind scattering works...
        let inst = Instance::uniform(32, 32, 32).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let out = run(&inst, state, &BlindUniform, RunConfig::new(5, 10_000));
        assert!(out.converged);
    }

    #[test]
    fn observed_run_is_bit_identical_and_records() {
        let (inst, s1) = hotspot(256, 32, 10);
        let plain = run(
            &inst,
            s1.clone(),
            &SlackDamped::default(),
            RunConfig::new(7, 10_000),
        );
        let mut rec = Recorder::default();
        let observed = run_observed(
            &inst,
            s1,
            &SlackDamped::default(),
            RunConfig::new(7, 10_000),
            &mut rec,
        );
        assert_eq!(plain.rounds, observed.rounds);
        assert_eq!(plain.migrations, observed.migrations);
        assert_eq!(plain.state, observed.state);
        // the recorder agrees with the outcome
        assert_eq!(rec.counter(Counter::Rounds), observed.rounds);
        assert_eq!(rec.counter(Counter::Migrations), observed.migrations);
        assert_eq!(rec.gauge(Gauge::Unsatisfied), 0);
        assert_eq!(
            rec.timers().histogram(Phase::Decide).count(),
            observed.rounds
        );
        // one RoundEnd event per round, in order
        let round_ends: Vec<u64> = rec
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                Event::RoundEnd { round, .. } => Some(round),
                _ => None,
            })
            .collect();
        assert_eq!(round_ends.len() as u64, observed.rounds);
        assert!(round_ends.windows(2).all(|w| w[0] + 1 == w[1]));
        // unit runs move one unit of demand per migration, uncounted
        assert_eq!(observed.weight_moved, observed.migrations);
        assert_eq!(rec.counter(Counter::WeightMoved), 0);
    }

    #[test]
    fn observed_sparse_emits_executor_switch() {
        let (inst, s1) = hotspot(256, 32, 10);
        let mut rec = Recorder::default();
        let out = run_observed(
            &inst,
            s1.clone(),
            &SlackDamped::default(),
            RunConfig::new(7, 10_000).with_executor(Executor::Sparse),
            &mut rec,
        );
        assert!(out.converged);
        assert_eq!(
            out.state,
            run(
                &inst,
                s1,
                &SlackDamped::default(),
                RunConfig::new(7, 10_000)
            )
            .state
        );
        assert_eq!(rec.counter(Counter::ExecutorSwitches), 1);
        assert!(rec
            .events()
            .iter()
            .any(|(_, e)| matches!(e, Event::ExecutorSwitch { sparse: true, .. })));
        // warm-up rounds + sparse rounds partition the run
        assert_eq!(
            rec.counter(Counter::DenseRounds) + rec.counter(Counter::SparseRounds),
            out.rounds
        );
    }

    /// `n` users of weight `w` on `m` resources of capacity `cap`, all on
    /// resource 0.
    fn weighted_hotspot(m: usize, cap: u32, weights: Vec<u32>) -> (WeightedInstance, State) {
        let inst = WeightedInstance::new(vec![cap; m], weights).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    #[test]
    fn weighted_runs_converge_and_count_weight() {
        // 96 users of weight 2, caps 6 × 64 resources → γ = 2
        let (inst, state) = weighted_hotspot(64, 6, vec![2; 96]);
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(3, 10_000),
        );
        assert!(out.converged, "took {} rounds", out.rounds);
        assert!(out.state.is_legal(&inst));
        assert_eq!(out.weight_moved, out.migrations * 2);

        let mut weights = vec![1u32; 120];
        weights.extend(vec![4u32; 30]); // total 240, cap 360
        let (inst, state) = weighted_hotspot(36, 10, weights);
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(5, 100_000),
        );
        assert!(out.converged, "took {} rounds", out.rounds);

        let inst = WeightedInstance::new(vec![10, 10], vec![5, 5]).unwrap();
        let legal = State::new(&inst, vec![ResourceId(0), ResourceId(1)]).unwrap();
        let out = run(&inst, legal, &ConditionalUniform, RunConfig::new(1, 100));
        assert!(out.converged);
        assert_eq!((out.rounds, out.weight_moved), (0, 0));

        let (inst, state) = weighted_hotspot(16, 4, vec![2; 24]);
        let out = run(&inst, state, &SlackDamped::default(), RunConfig::new(1, 1));
        assert_eq!(out.rounds, 1);
        assert!(!out.converged);
    }

    #[test]
    fn unit_weights_reproduce_unit_model_run() {
        let wi = WeightedInstance::unit(128, 16, 10).unwrap();
        let (ui, start) = hotspot(128, 16, 10);
        for exec in [Executor::Dense, Executor::Threaded(2)] {
            let cfg = RunConfig::new(7, 10_000).with_executor(exec);
            let w = run(&wi, start.clone(), &SlackDamped::default(), cfg);
            let u = run(&ui, start.clone(), &SlackDamped::default(), cfg);
            assert_eq!((w.rounds, w.migrations), (u.rounds, u.migrations));
            assert_eq!(w.weight_moved, u.weight_moved);
            assert_eq!(w.state, u.state);
        }
    }

    #[test]
    fn weighted_observed_run_emits_the_full_event_set() {
        let (inst, s1) = weighted_hotspot(32, 8, vec![3; 48]);
        let mut rec = Recorder::default();
        let cfg = RunConfig::new(9, 10_000)
            .with_executor(Executor::Threaded(3))
            .with_topk_resources(4);
        let out = run_observed(&inst, s1, &SlackDamped::default(), cfg, &mut rec);
        assert!(out.converged);
        assert_eq!(rec.counter(Counter::WeightMoved), out.weight_moved);
        assert_eq!(out.weight_moved, 3 * out.migrations);
        // overload is the weighted Σ(W − c)⁺ and reaches 0 at convergence
        let overloads: Vec<Option<u64>> = rec
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                Event::RoundEnd { overload, .. } => Some(overload),
                _ => None,
            })
            .collect();
        assert_eq!(overloads.len() as u64, out.rounds);
        assert_eq!(overloads.last(), Some(&Some(0)));
        let checks = rec
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, Event::ConvergenceCheck { .. }))
            .count();
        assert_eq!(checks as u64, out.rounds);
        // top-k samples are descending by weighted load, ≤ k entries
        let samples = rec.topk_series().samples();
        let (round0, entries0) = &samples[0];
        assert_eq!(*round0, 0);
        assert!(!entries0.is_empty() && entries0.len() <= 4);
        assert!(entries0.windows(2).all(|w| w[0].load >= w[1].load));
        assert_eq!(rec.shard_timers().num_shards(), 3);
    }

    #[test]
    fn weighted_sparse_start_counts_round_split() {
        // endgame-shaped start: 3 weight-2 users on each of 64 cap-8
        // resources (satisfied), plus 2 extra crowding resource 0 — only
        // r0's 5 occupants are unsatisfied, so the run starts sparse
        let inst = WeightedInstance::new(vec![8; 64], vec![2; 194]).unwrap();
        let mut assignment: Vec<ResourceId> = (0..192).map(|i| ResourceId(i / 3)).collect();
        assignment.extend([ResourceId(0), ResourceId(0)]);
        let state = State::new(&inst, assignment).unwrap();
        let mut rec = Recorder::default();
        let cfg = RunConfig::new(3, 10_000).with_executor(Executor::Sparse);
        let out = run_observed(&inst, state, &SlackDamped::default(), cfg, &mut rec);
        assert!(out.converged);
        assert_eq!(
            rec.counter(Counter::DenseRounds) + rec.counter(Counter::SparseRounds),
            out.rounds
        );
        assert!(rec.counter(Counter::SparseRounds) > 0, "never went sparse");
        assert_eq!(rec.counter(Counter::WeightMoved), out.weight_moved);
    }
}
