//! The closed-system round loop and its executors.
//!
//! One loop serves the unit and the weighted model: every entry point is
//! generic over [`Demands`], so a plain [`Instance`](qlb_core::Instance)
//! runs the unit model and a [`qlb_core::weighted::WeightedInstance`] the
//! weighted one.

use crate::pool::WorkerPool;
use crate::stepper::{Stepper, ViewShards};
use crate::trace::Trace;
use qlb_core::{overload_potential_loads, ActiveIndex, Demands, Move, Protocol, State};
use qlb_obs::{timed, Counter, Event, Gauge, NoopSink, Phase, Sink};

/// Which round-execution strategy [`run`] uses.
///
/// All executors produce **bit-identical trajectories** (same seed ⇒ same
/// rounds, migrations, and final state); they differ only in cost:
///
/// * [`Executor::Dense`] walks all `n` users each round — `O(n)`/round,
///   the reference executor, sound for every protocol;
/// * [`Executor::Sparse`] walks only the unsatisfied users via an
///   incrementally-maintained [`ActiveIndex`] — `O(active)`/round, a large
///   win in the endgame where few users remain unsatisfied. Unsound only
///   for protocols that act while satisfied
///   ([`Protocol::acts_when_satisfied`]); [`run`] detects those and falls
///   back to dense automatically;
/// * [`Executor::Threaded`] shards the dense scan over a persistent
///   [`WorkerPool`] — `O(n / threads)`/round critical path, with one
///   condvar dispatch (not `threads` thread spawns) of overhead per round;
/// * [`Executor::SparseThreaded`] composes both: the active-set walk is
///   sharded over the pool while it is large and runs sequentially once it
///   is small — `O(active / threads)`/round, the same dense fallback rule
///   as [`Executor::Sparse`].
///
/// The pooled executors size their pool to the shards the population
/// actually fills, and run sequentially when one shard covers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Full `O(n)` scan per round (reference).
    #[default]
    Dense,
    /// Active-set scan, `O(unsatisfied)` per round, with automatic dense
    /// fallback where unsound.
    Sparse,
    /// Dense scan sharded over a persistent pool of this many threads.
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
    /// Record a per-round [`Trace`].
    pub record_trace: bool,
    /// Track per-user settling times (needs `record_trace`; O(n)/round).
    pub track_user_times: bool,
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
}

impl RunConfig {
    /// Plain config: given seed, round budget, no tracing, dense executor.
    pub fn new(seed: u64, max_rounds: u64) -> Self {
        Self {
            seed,
            max_rounds,
            record_trace: false,
            track_user_times: false,
            executor: Executor::Dense,
            topk_resources: 0,
            shard_timing: true,
        }
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

    /// Enable per-round tracing.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enable per-user settling-time tracking (implies tracing).
    pub fn with_user_times(mut self) -> Self {
        self.record_trace = true;
        self.track_user_times = true;
        self
    }

    /// Select the round-execution strategy.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// True iff a legal state was reached within the round budget.
    pub converged: bool,
    /// Rounds executed (0 if the initial state was already legal).
    pub rounds: u64,
    /// Total migrations applied.
    pub migrations: u64,
    /// Total demand moved (`Σ` over migrations of the mover's weight) —
    /// the transfer cost of the weighted model; equals `migrations` for
    /// unit demand.
    pub weight_moved: u64,
    /// The final state.
    pub state: State,
    /// Per-round trace if requested.
    pub trace: Option<Trace>,
}

/// Run a protocol until legal or out of rounds, using the executor
/// selected by [`RunConfig::executor`] (dense by default).
///
/// The loop reuses one move buffer, so steady-state execution performs no
/// allocation; with tracing enabled, the trace grows by one entry per round.
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
/// The pooled executors run on one [`WorkerPool`] created per run, so
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
/// Weighted runs also count [`Counter::WeightMoved`].
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
    let sparse = config.executor.is_sparse();
    let n = inst.instance().num_users();
    let stepper = Stepper::new(config.executor, n, config.seed, config.shard_timing);
    // per-round trace entries need the dense State the owned loop drops
    if let (Some(pool), false, false) = (stepper.pool(), sparse, config.record_trace) {
        return run_pooled_owned(inst, state, proto, config, sink, pool);
    }
    run_core(inst, state, proto, config, sink, stepper, sparse)
}

/// The **shard-owned** pooled round loop of untraced [`Executor::Threaded`]
/// runs: no dense [`State`] is kept at all. The struct-of-arrays
/// [`RoundView`](qlb_core::RoundView) (in the [`Stepper`]'s view type) is
/// built once from the start state, the workers decide against it and
/// apply their own ranges in place, and the coordinator holds only the `m` per-resource loads plus the per-(class, resource)
/// unsatisfied bitmaps. Steady-state rounds are **zero-copy and
/// zero-allocation** (asserted in the memory bench); memory cost beyond
/// the view is `O(moves)` for the round's batch.
///
/// Trajectory is bit-identical to the stepper's pooled full rounds — same
/// decide kernel, same merge order, same cells written — the only
/// difference is *who* writes the assignment array.
fn run_pooled_owned<I: Demands, P: Protocol + ?Sized, S: Sink>(
    inst: &I,
    state: State,
    proto: &P,
    config: RunConfig,
    sink: &mut S,
    pool: &WorkerPool,
) -> RunOutcome {
    debug_assert!(!config.record_trace, "traced runs keep the dense state");
    let mut vs = ViewShards::new(inst, &state, pool.threads());
    drop(state); // from here the view IS the state

    let mut moves: Vec<Move> = Vec::new();
    let mut rounds = 0u64;
    let mut migrations = 0u64;
    let mut weight_moved = 0u64;
    let mut converged = vs.view.is_legal();
    let mut entering = if S::ENABLED && !converged {
        vs.view.num_unsatisfied(inst) as u64
    } else {
        0
    };

    while !converged && rounds < config.max_rounds {
        if S::ENABLED {
            sink.event(Event::RoundStart {
                round: rounds,
                active: entering,
            });
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
            true,
        );
        if S::ENABLED {
            sink.add(Counter::DenseRounds, 1);
            sink.event(Event::MigrationBatch {
                round: rounds,
                size: moves.len() as u64,
            });
        }
        let batch_weight = moved_weight(inst, &moves);
        migrations += moves.len() as u64;
        weight_moved += batch_weight;
        rounds += 1;
        converged = timed(sink, Phase::Convergence, || vs.view.is_legal());
        if S::ENABLED {
            let unsatisfied = if converged {
                0
            } else {
                vs.view.num_unsatisfied(inst) as u64
            };
            emit_round_end(
                inst,
                vs.view.loads(),
                sink,
                rounds - 1,
                moves.len() as u64,
                batch_weight,
                converged,
                unsatisfied,
                config.topk_resources,
            );
            entering = unsatisfied;
        }
    }

    RunOutcome {
        converged,
        rounds,
        migrations,
        weight_moved,
        state: vs.view.to_state(inst),
        trace: None,
    }
}

/// The round loop of every executor except the shard-owned one: full
/// rounds and, when `sparse`, active-set rounds once the batches shrink
/// (see [`run`]); `stepper` picks each round's kernel.
fn run_core<I: Demands, P: Protocol + ?Sized, S: Sink>(
    inst: &I,
    mut state: State,
    proto: &P,
    config: RunConfig,
    sink: &mut S,
    mut stepper: Stepper,
    sparse: bool,
) -> RunOutcome {
    let sparse = if sparse && proto.acts_when_satisfied() {
        // the active set would be unsound; record the decision and run dense
        if S::ENABLED {
            sink.event(Event::ExecutorSwitch {
                round: 0,
                sparse: false,
            });
        }
        false
    } else {
        sparse
    };

    let mut trace = config.record_trace.then(Trace::default);
    if let Some(t) = trace.as_mut() {
        t.record(inst, &state, 0, 0);
        if config.track_user_times {
            t.record_user_times(inst, &state, 0);
        }
    }

    let n = inst.instance().num_users().max(1);
    let unsat0 = state.num_unsatisfied(inst);
    // start sparse only if the initial state is already in the sparse
    // regime; otherwise warm up with dense rounds
    let mut active: Option<ActiveIndex> =
        (sparse && unsat0 * 8 < n).then(|| ActiveIndex::new(inst, &state));
    if S::ENABLED && active.is_some() {
        sink.add(Counter::ExecutorSwitches, 1);
        sink.event(Event::ExecutorSwitch {
            round: 0,
            sparse: true,
        });
    }
    let mut rounds = 0u64;
    let mut migrations = 0u64;
    let mut weight_moved = 0u64;
    let mut converged = unsat0 == 0;
    // carried between rounds (see `emit_round_end`): start count == the
    // previous round's end count
    let mut entering = unsat0 as u64;

    while !converged && rounds < config.max_rounds {
        if S::ENABLED {
            sink.event(Event::RoundStart {
                round: rounds,
                active: entering,
            });
        }
        let moves = match active.as_mut() {
            Some(index) => {
                let moves = stepper.decide_active(inst, &state, index, proto, rounds, sink);
                if S::ENABLED {
                    sink.add(Counter::SparseRounds, 1);
                    sink.event(Event::MigrationBatch {
                        round: rounds,
                        size: moves.len() as u64,
                    });
                }
                timed(sink, Phase::Apply, || {
                    index.apply_moves(inst, &mut state, moves)
                });
                moves
            }
            None => {
                let moves = stepper.decide_round(inst, &state, proto, rounds, sink);
                if S::ENABLED {
                    sink.add(Counter::DenseRounds, 1);
                    sink.event(Event::MigrationBatch {
                        round: rounds,
                        size: moves.len() as u64,
                    });
                }
                timed(sink, Phase::Apply, || state.apply_moves(inst, moves));
                // batch size tracks the active count for the damped
                // kernels; once it shrinks, the index starts paying off
                if sparse && moves.len() * 8 < n {
                    active = Some(ActiveIndex::new(inst, &state));
                    if S::ENABLED {
                        sink.add(Counter::ExecutorSwitches, 1);
                        sink.event(Event::ExecutorSwitch {
                            round: rounds + 1,
                            sparse: true,
                        });
                    }
                }
                moves
            }
        };
        let batch_weight = moved_weight(inst, moves);
        migrations += moves.len() as u64;
        weight_moved += batch_weight;
        rounds += 1;
        if let Some(t) = trace.as_mut() {
            t.record(inst, &state, rounds, moves.len() as u64);
            if config.track_user_times {
                t.record_user_times(inst, &state, rounds);
            }
        }
        converged = timed(sink, Phase::Convergence, || match active.as_ref() {
            Some(index) => index.is_empty(),
            None => state.is_legal(inst),
        });
        if S::ENABLED {
            // the index tracks the unsatisfied set exactly, so when it is
            // live the count is O(1); dense rounds scan
            let unsatisfied = match active.as_ref() {
                Some(index) => index.num_active() as u64,
                None if converged => 0,
                None => state.num_unsatisfied(inst) as u64,
            };
            emit_round_end(
                inst,
                state.loads(),
                sink,
                rounds - 1,
                moves.len() as u64,
                batch_weight,
                converged,
                unsatisfied,
                config.topk_resources,
            );
            entering = unsatisfied;
            if let Some(index) = active.as_ref() {
                sink.set(Gauge::ActiveSetSize, index.num_active() as u64);
            }
        }
    }

    debug_assert_eq!(converged, state.is_legal(inst));
    RunOutcome {
        converged,
        rounds,
        migrations,
        weight_moved,
        state,
        trace,
    }
}

/// Total demand of a round's movers: the batch size for unit demand.
#[inline]
fn moved_weight<I: Demands>(inst: &I, moves: &[Move]) -> u64 {
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
/// With `topk > 0` the `topk` hottest resources are offered to the sink as
/// a congestion sample.
#[allow(clippy::too_many_arguments)]
fn emit_round_end<I: Demands, S: Sink>(
    inst: &I,
    loads: &[u32],
    sink: &mut S,
    round: u64,
    batch: u64,
    weight: u64,
    converged: bool,
    unsatisfied: u64,
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
    sink.event(Event::ConvergenceCheck { round, converged });
    if topk > 0 {
        sink.topk(round, &qlb_obs::top_k_entries(loads, topk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn trace_has_initial_plus_per_round_entries() {
        let (inst, state) = hotspot(64, 8, 10);
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(3, 10_000).with_trace(),
        );
        let trace = out.trace.unwrap();
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
        let out = run(
            &inst,
            state,
            &SlackDamped::default(),
            RunConfig::new(3, 10_000).with_user_times(),
        );
        let trace = out.trace.unwrap();
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
    fn threaded_matches_sequential_exactly() {
        let (inst, s1) = hotspot(500, 16, 40);
        for threads in [1, 2, 3, 8] {
            let seq = run(
                &inst,
                s1.clone(),
                &SlackDamped::default(),
                RunConfig::new(11, 10_000),
            );
            let par = run(
                &inst,
                s1.clone(),
                &SlackDamped::default(),
                RunConfig::new(11, 10_000).with_executor(Executor::Threaded(threads)),
            );
            assert_eq!(seq.rounds, par.rounds, "threads={threads}");
            assert_eq!(seq.migrations, par.migrations, "threads={threads}");
            assert_eq!(seq.state, par.state, "threads={threads}");
        }
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

    /// Asserts two runs took the same trajectory, traces included.
    fn assert_same_run(a: &RunOutcome, b: &RunOutcome, label: &str) {
        assert_eq!(a.converged, b.converged, "{label}");
        assert_eq!(a.rounds, b.rounds, "{label}");
        assert_eq!(a.migrations, b.migrations, "{label}");
        assert_eq!(a.state, b.state, "{label}");
        let (at, bt) = (a.trace.as_ref(), b.trace.as_ref());
        assert_eq!(at.map(|t| &t.rounds), bt.map(|t| &t.rounds), "{label}");
        assert_eq!(
            at.map(|t| &t.last_unsatisfied),
            bt.map(|t| &t.last_unsatisfied),
            "{label}"
        );
    }

    #[test]
    fn sparse_matches_dense_exactly() {
        let (inst, s1) = hotspot(500, 16, 40);
        for proto in qlb_core::registry(&inst) {
            let cfg = RunConfig::new(11, 2_000).with_user_times();
            let dense = run(&inst, s1.clone(), proto.as_ref(), cfg);
            let sparse = run(
                &inst,
                s1.clone(),
                proto.as_ref(),
                cfg.with_executor(Executor::Sparse),
            );
            assert!(dense.trace.is_some(), "{}", proto.name());
            assert_same_run(&dense, &sparse, proto.name());
        }
    }

    #[test]
    fn pooled_executors_match_sequential_exactly() {
        let (inst, s1) = hotspot(500, 16, 40);
        for proto in qlb_core::registry(&inst) {
            let name = proto.name();
            // untraced Threaded runs take the shard-owned loop, traced ones
            // the shared loop with a dense state
            for cfg in [
                RunConfig::new(11, 2_000),
                RunConfig::new(11, 2_000).with_user_times(),
            ] {
                let dense = run(&inst, s1.clone(), proto.as_ref(), cfg);
                for exec in [
                    Executor::Sparse,
                    Executor::Threaded(3),
                    Executor::SparseThreaded(2),
                    Executor::SparseThreaded(8),
                ] {
                    let pooled = run(&inst, s1.clone(), proto.as_ref(), cfg.with_executor(exec));
                    let label = format!("{name} {exec:?} traced={}", cfg.record_trace);
                    assert_same_run(&dense, &pooled, &label);
                }
            }
        }
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
    fn config_executor_selects_sparse() {
        let (inst, s1) = hotspot(128, 16, 10);
        let dense = run(
            &inst,
            s1.clone(),
            &SlackDamped::default(),
            RunConfig::new(9, 10_000),
        );
        let sparse = run(
            &inst,
            s1,
            &SlackDamped::default(),
            RunConfig::new(9, 10_000).with_executor(Executor::Sparse),
        );
        assert!(dense.converged && sparse.converged);
        assert_eq!(dense.rounds, sparse.rounds);
        assert_eq!(dense.migrations, sparse.migrations);
        assert_eq!(dense.state, sparse.state);
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

    #[test]
    fn observed_threaded_matches_sequential() {
        let (inst, s1) = hotspot(200, 16, 16);
        // untraced Threaded runs take the shard-owned loop, traced ones the
        // shared loop; both must emit exactly the dense event stream
        for cfg in [
            RunConfig::new(3, 10_000),
            RunConfig::new(3, 10_000).with_trace(),
        ] {
            let mut seq_rec = Recorder::default();
            let seq = run_observed(
                &inst,
                s1.clone(),
                &SlackDamped::default(),
                cfg,
                &mut seq_rec,
            );
            let mut rec = Recorder::default();
            let par = run_observed(
                &inst,
                s1.clone(),
                &SlackDamped::default(),
                cfg.with_executor(Executor::Threaded(3)),
                &mut rec,
            );
            assert_eq!(seq.state, par.state);
            assert_eq!(rec.counter(Counter::Rounds), par.rounds);
            let events = |r: &Recorder| r.events().iter().map(|(_, e)| e).collect::<Vec<_>>();
            assert_eq!(events(&rec), events(&seq_rec));
        }
    }

    /// `n` users of weight `w` on `m` resources of capacity `cap`, all on
    /// resource 0.
    fn weighted_hotspot(m: usize, cap: u32, weights: Vec<u32>) -> (WeightedInstance, State) {
        let inst = WeightedInstance::new(vec![cap; m], weights).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    /// 80 users of weight 1 and 20 of weight 4 (Σw = 160) on 24 × cap 8.
    fn mixed_weights() -> Vec<u32> {
        let mut weights = vec![1u32; 80];
        weights.extend(vec![4u32; 20]);
        weights
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
    fn weighted_executors_match_dense_exactly() {
        let (inst, s1) = weighted_hotspot(24, 8, mixed_weights());
        let protos: [&dyn Protocol; 2] = [&SlackDamped::default(), &ConditionalUniform];
        for proto in protos {
            let name = proto.name();
            for cfg in [
                RunConfig::new(11, 10_000),
                RunConfig::new(11, 10_000).with_user_times(),
            ] {
                let dense = run(&inst, s1.clone(), proto, cfg);
                for exec in [
                    Executor::Sparse,
                    Executor::Threaded(3),
                    Executor::Threaded(64),
                    Executor::SparseThreaded(4),
                ] {
                    let other = run(&inst, s1.clone(), proto, cfg.with_executor(exec));
                    let label = format!("{name} {exec:?} traced={}", cfg.record_trace);
                    assert_same_run(&dense, &other, &label);
                    assert_eq!(dense.weight_moved, other.weight_moved, "{label}");
                }
            }
        }
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
