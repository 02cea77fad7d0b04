//! Open system: users arrive and depart while the protocol runs.
//!
//! The paper's model is closed (`n` fixed); the natural open-system
//! question is whether the protocol keeps *almost everyone* satisfied under
//! continuous arrivals and departures, as long as the offered load stays
//! below capacity. We model it with the **parking trick**: the instance is
//! augmented with one virtual resource of effectively infinite capacity
//! where inactive users "live". Parked users are always satisfied, so they
//! never act; arrivals are reassignments out of parking onto a uniformly
//! random real resource, departures are reassignments back. The protocol
//! itself is unchanged and unaware of the driver — exactly how churn would
//! hit a deployed system.
//!
//! The driver supports the full [`Executor`] family, and refuses protocols
//! that act while satisfied: they would move parked users. The sparse
//! executors are the natural fit here: the steady-state active population
//! is usually a small fraction of the user pool, so `O(pool)` dense rounds
//! are almost entirely wasted scans of parked (always-satisfied) users.
//! Arrivals and departures are fed to the [`ActiveIndex`] as reassignment
//! deltas, and each round is the stepper's active-set step, as in the
//! closed loop. The parking resource's infinite capacity keeps its
//! occupants satisfied at any load, so its occupant list is never
//! rechecked and the index work of a round is `O(churn + active)` instead
//! of `O(pool)`. Arrivals take the top of the user range, so the step moves
//! the index's shard bounds to them.
//!
//! [`reference_open_run`] is the driver's reference: the same run on a
//! plain [`State`] with the dense scan, which every executor's series must
//! equal.

use crate::run::Executor;
use crate::stepper::Stepper;
use qlb_core::step::decide_round_into;
use qlb_core::{ActiveIndex, Instance, Protocol, ResourceId, State, UserId};
use qlb_obs::{timed, Counter, Event, Gauge, NoopSink, Phase, Sink};
use qlb_rng::{Rng64, SplitMix64};

/// Configuration of an open-system run.
#[derive(Debug, Clone, Copy)]
pub struct OpenConfig {
    /// Seed for the driver (arrivals/departures) and the protocol.
    pub seed: u64,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Arrivals injected per round (deterministic rate; fractional rates
    /// accumulate, e.g. `1.5` injects 1 and 2 on alternating rounds).
    pub arrivals_per_round: f64,
    /// Per-round departure probability of each active user.
    pub departure_prob: f64,
    /// Rounds to discard before computing steady-state statistics.
    pub warmup: u64,
    /// Round-execution strategy (default [`Executor::Dense`]; every
    /// executor produces a bit-identical series).
    pub executor: Executor,
    /// Sample the `k` hottest *real* resources (parking excluded) at each
    /// observed round end (0 = off).
    pub topk_resources: usize,
    /// Record per-shard compute/wake profiles on observed pooled rounds
    /// (default on).
    pub shard_timing: bool,
}

impl OpenConfig {
    /// Plain config: given seed, rounds, and rates; no warmup discard,
    /// dense executor.
    pub fn new(seed: u64, rounds: u64, arrivals_per_round: f64, departure_prob: f64) -> Self {
        Self {
            seed,
            rounds,
            arrivals_per_round,
            departure_prob,
            warmup: 0,
            executor: Executor::Dense,
            topk_resources: 0,
            shard_timing: true,
        }
    }

    /// Set the warmup rounds discarded from steady-state statistics.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Select the round-execution strategy.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Sample the `k` hottest real resources at each observed round end
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

/// Per-round observation of an open-system run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRoundStats {
    /// Round index.
    pub round: u64,
    /// Active (non-parked) users after arrivals/departures.
    pub active: u64,
    /// Unsatisfied users after the protocol round.
    pub unsatisfied: u64,
}

/// Result of an open-system run.
#[derive(Debug, Clone)]
pub struct OpenOutcome {
    /// Per-round series.
    pub series: Vec<OpenRoundStats>,
    /// Mean unsatisfied fraction among active users over the post-warmup
    /// rounds (0 when no users were active).
    pub mean_unsatisfied_frac: f64,
    /// Worst post-warmup unsatisfied fraction.
    pub max_unsatisfied_frac: f64,
    /// Mean active population post-warmup.
    pub mean_active: f64,
}

/// Run an open system over `base_caps` real resources with a user pool of
/// `pool` users (the maximum concurrently active population; arrivals stall
/// when the pool is exhausted).
///
/// # Panics
/// Panics on nonsensical rates (negative arrivals, departure probability
/// outside `[0, 1]`), on empty `base_caps`, on a protocol that acts while
/// satisfied, and on a threaded executor with zero threads.
pub fn run_open_system<P: Protocol + ?Sized>(
    base_caps: &[u32],
    pool: usize,
    proto: &P,
    cfg: OpenConfig,
) -> OpenOutcome {
    run_open_system_observed(base_caps, pool, proto, cfg, &mut NoopSink)
}

/// [`run_open_system`] with an observability sink attached: per-round
/// arrival/departure events and counters, the active-population gauge, and
/// decide/apply phase timings. Derived data only — the trajectory is
/// bit-identical to the unobserved driver.
///
/// # Panics
/// Panics where [`run_open_system`] does. A protocol that acts while
/// satisfied ([`Protocol::acts_when_satisfied`]) is refused because it
/// would move parked users, which breaks the parking model.
pub fn run_open_system_observed<P: Protocol + ?Sized, S: Sink>(
    base_caps: &[u32],
    pool: usize,
    proto: &P,
    cfg: OpenConfig,
    sink: &mut S,
) -> OpenOutcome {
    let (inst, parking) = parking_instance(base_caps, pool, proto, &cfg);
    let m = base_caps.len();
    let state = State::all_on(&inst, parking);
    let mut stepper = Stepper::new(cfg.executor, pool, cfg.seed, cfg.shard_timing);
    // An open system starts all-parked (zero unsatisfied), so the index is
    // built upfront — there is no crowded warm-up phase to skip. The sparse
    // executors own the state with the index; the others hand it to the
    // stepper, whose full rounds apply to it.
    let mut sparse: Option<(ActiveIndex, State)> = None;
    if cfg.executor.is_sparse() {
        sparse = Some((stepper.build_index(&inst, &state), state));
        if S::ENABLED {
            sink.add(Counter::ExecutorSwitches, 1);
            sink.event(Event::ExecutorSwitch {
                round: 0,
                sparse: true,
            });
        }
    } else {
        stepper.hold(&inst, state);
    }

    // Parked users as a LIFO stack; active set as a boolean map.
    let mut parked: Vec<UserId> = inst.users().collect();
    let mut active = vec![false; pool];
    let mut active_count = 0u64;

    let mut driver_rng = SplitMix64::new(qlb_rng::mix64_pair(cfg.seed, OPEN_SALT));
    let mut arrival_credit = 0.0f64;
    let mut changes: Vec<(UserId, ResourceId)> = Vec::new();
    // arrivals and departures re-home users through the index, or on the
    // state the stepper holds
    let rehome =
        |sparse: &mut Option<(ActiveIndex, State)>, stepper: &mut Stepper, changes: &[_]| {
            match sparse {
                Some((index, state)) => index.apply_reassignments(&inst, state, changes),
                None => {
                    for &(u, r) in changes {
                        stepper.view_mut().reassign(&inst, u, r);
                    }
                }
            }
        };
    let mut series = Vec::with_capacity(cfg.rounds as usize);

    for round in 0..cfg.rounds {
        // Arrivals.
        arrival_credit += cfg.arrivals_per_round;
        let mut arrived = 0u64;
        changes.clear();
        while arrival_credit >= 1.0 {
            arrival_credit -= 1.0;
            let Some(u) = parked.pop() else { break };
            active[u.index()] = true;
            changes.push((u, ResourceId(driver_rng.uniform_usize(m) as u32)));
            arrived += 1;
        }
        rehome(&mut sparse, &mut stepper, &changes);
        active_count += arrived;
        // Departures. The flag scan visits every pool slot, but the
        // bernoulli draw is consumed only for active users, so the driver
        // stream is independent of the pool layout.
        let mut departed = 0u64;
        changes.clear();
        for (idx, is_active) in active.iter_mut().enumerate() {
            if *is_active && driver_rng.bernoulli(cfg.departure_prob) {
                let u = UserId(idx as u32);
                *is_active = false;
                changes.push((u, parking));
                parked.push(u);
                departed += 1;
            }
        }
        rehome(&mut sparse, &mut stepper, &changes);
        active_count -= departed;
        if S::ENABLED {
            if arrived > 0 {
                sink.add(Counter::Arrivals, arrived);
                sink.event(Event::Arrivals {
                    round,
                    count: arrived,
                });
            }
            if departed > 0 {
                sink.add(Counter::Departures, departed);
                sink.event(Event::Departures {
                    round,
                    count: departed,
                });
            }
        }
        if S::ENABLED {
            sink.event(Event::RoundStart {
                round,
                active: match sparse.as_ref() {
                    Some((index, _)) => index.num_active() as u64,
                    None => stepper.view().state().num_unsatisfied(&inst) as u64,
                },
            });
        }
        // One protocol round (parked users are satisfied and never act).
        let migrations = match sparse.as_mut() {
            Some((index, state)) => {
                let moves = stepper.step_sparse(&inst, state, index, proto, round, true, sink);
                if S::ENABLED {
                    sink.add(Counter::SparseRounds, 1);
                }
                // the next arrivals need a synced index: sync on the spot
                timed(sink, Phase::Apply, || {
                    index.apply_staged(&inst, state, moves);
                    index.sync(&inst, state);
                });
                debug_assert!(moves.iter().all(|mv| mv.from != parking));
                moves.len() as u64
            }
            None => {
                if S::ENABLED {
                    sink.add(Counter::DenseRounds, 1);
                }
                let parked = stepper.view().state().loads()[parking.index()];
                let moves = stepper.full_round(&inst, proto, round, sink);
                // parked users never act, so nobody leaves the parking
                // resource: its load can only grow
                debug_assert!(
                    stepper.view().state().loads()[parking.index()] >= parked,
                    "a parked user moved"
                );
                moves.len as u64
            }
        };

        let unsatisfied = match sparse.as_ref() {
            Some((index, _)) => index.num_active() as u64,
            None => stepper.view().state().num_unsatisfied(&inst) as u64,
        };
        if S::ENABLED {
            sink.add(Counter::Rounds, 1);
            sink.add(Counter::Migrations, migrations);
            sink.set(Gauge::ActiveUsers, active_count);
            sink.set(Gauge::Unsatisfied, unsatisfied);
            if let Some((index, _)) = sparse.as_ref() {
                sink.set(Gauge::ActiveSetSize, index.num_active() as u64);
            }
            sink.event(Event::RoundEnd {
                round,
                migrations,
                unsatisfied,
                overload: None,
            });
            if cfg.topk_resources > 0 {
                // Slice off the parking resource (index m): its load is the
                // parked population and would swamp any congestion sample.
                let loads = match sparse.as_ref() {
                    Some((_, state)) => state.loads(),
                    None => stepper.view().state().loads(),
                };
                let loads = &loads[..m];
                sink.topk(round, &qlb_obs::top_k_entries(loads, cfg.topk_resources));
            }
        }
        series.push(OpenRoundStats {
            round,
            active: active_count,
            unsatisfied,
        });
    }

    // Steady-state statistics.
    let post: Vec<&OpenRoundStats> = series.iter().filter(|s| s.round >= cfg.warmup).collect();
    let frac = |s: &OpenRoundStats| {
        if s.active == 0 {
            0.0
        } else {
            s.unsatisfied as f64 / s.active as f64
        }
    };
    let mean_unsatisfied_frac = if post.is_empty() {
        0.0
    } else {
        post.iter().map(|s| frac(s)).sum::<f64>() / post.len() as f64
    };
    let max_unsatisfied_frac = post.iter().map(|s| frac(s)).fold(0.0, f64::max);
    let mean_active = if post.is_empty() {
        0.0
    } else {
        post.iter().map(|s| s.active as f64).sum::<f64>() / post.len() as f64
    };

    OpenOutcome {
        series,
        mean_unsatisfied_frac,
        max_unsatisfied_frac,
        mean_active,
    }
}

/// Salt separating the arrival/departure driver stream from protocol
/// streams: changing the churn pattern never perturbs protocol coins.
pub(crate) const OPEN_SALT: u64 = 0x4f50_454e; // "OPEN"

/// The open system's instance: `base_caps` plus the parking resource at
/// index `m`, over a pool of `pool` users; and the parking resource. Checks
/// what both the driver and its reference refuse.
fn parking_instance<P: Protocol + ?Sized>(
    base_caps: &[u32],
    pool: usize,
    proto: &P,
    cfg: &OpenConfig,
) -> (Instance, ResourceId) {
    assert!(cfg.arrivals_per_round >= 0.0, "negative arrival rate");
    assert!(
        (0.0..=1.0).contains(&cfg.departure_prob),
        "departure probability out of range"
    );
    assert!(
        !proto.acts_when_satisfied(),
        "the open driver needs a protocol that never acts while satisfied ({} does)",
        proto.name()
    );
    let inst = Instance::with_capacities(0, base_caps.to_vec())
        .expect("non-empty capacities")
        .with_parking(&[pool])
        .expect("a pool within the 32-bit user-id space");
    (inst, ResourceId(base_caps.len() as u32))
}

/// The open driver's reference: [`run_open_system`]'s per-round series,
/// computed on a plain [`State`] with the dense scan of
/// [`qlb_core::step`] ([`decide_round_into`] and [`State::apply_moves`])
/// and no executor, index or view. It draws the same parking instance,
/// driver stream and protocol coins, so every executor's series must
/// equal it; the tests, E14 and the `open_sparse` bench gate compare them.
///
/// # Panics
/// Panics on nonsensical rates, on empty `base_caps` and on a protocol that
/// acts while satisfied, as [`run_open_system`] does.
pub fn reference_open_run<P: Protocol + ?Sized>(
    base_caps: &[u32],
    pool: usize,
    proto: &P,
    cfg: OpenConfig,
) -> Vec<OpenRoundStats> {
    let (inst, parking) = parking_instance(base_caps, pool, proto, &cfg);
    let m = base_caps.len();
    let mut state = State::all_on(&inst, parking);
    let mut parked: Vec<UserId> = inst.users().collect();
    let mut active = vec![false; pool];
    let mut rng = SplitMix64::new(qlb_rng::mix64_pair(cfg.seed, OPEN_SALT));
    let (mut credit, mut moves) = (0.0, Vec::new());
    let mut series = Vec::with_capacity(cfg.rounds as usize);
    for round in 0..cfg.rounds {
        credit += cfg.arrivals_per_round;
        while credit >= 1.0 {
            credit -= 1.0;
            let Some(u) = parked.pop() else { break };
            active[u.index()] = true;
            state.reassign(u, ResourceId(rng.uniform_usize(m) as u32));
        }
        for (idx, on) in active.iter_mut().enumerate() {
            if *on && rng.bernoulli(cfg.departure_prob) {
                *on = false;
                state.reassign(UserId(idx as u32), parking);
                parked.push(UserId(idx as u32));
            }
        }
        decide_round_into(&inst, &state, proto, cfg.seed, round, &mut moves);
        state.apply_moves(&inst, &moves);
        series.push(OpenRoundStats {
            round,
            active: (pool - parked.len()) as u64,
            unsatisfied: state.num_unsatisfied(&inst) as u64,
        });
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_core::SlackDamped;

    fn cfg(rounds: u64, lambda: f64, mu: f64) -> OpenConfig {
        OpenConfig::new(11, rounds, lambda, mu).with_warmup(rounds / 4)
    }

    #[test]
    fn topk_samples_exclude_parking_resource() {
        use qlb_obs::Recorder;
        let caps = [4u32; 16];
        let mut rec = Recorder::default();
        let _ = run_open_system_observed(
            &caps,
            200,
            &SlackDamped::default(),
            cfg(60, 4.0, 0.05).with_topk_resources(3),
            &mut rec,
        );
        let samples = rec.topk_series().samples();
        assert!(!samples.is_empty(), "no top-k samples retained");
        for (_, entries) in samples {
            assert!(!entries.is_empty() && entries.len() <= 3);
            for e in entries {
                // the parking resource (index m = caps.len()) must never
                // appear in a congestion sample
                assert!((e.resource as usize) < caps.len(), "parking sampled");
            }
        }
    }

    #[test]
    fn underloaded_system_stays_mostly_satisfied() {
        // capacity 64 × 10 = 640; steady-state active ≈ λ/μ = 8/0.05 = 160
        let out = run_open_system(
            &[10u32; 64],
            1000,
            &SlackDamped::default(),
            cfg(400, 8.0, 0.05),
        );
        assert!(out.mean_active > 100.0, "mean active {}", out.mean_active);
        assert!(
            out.mean_unsatisfied_frac < 0.05,
            "unsatisfied fraction {}",
            out.mean_unsatisfied_frac
        );
    }

    #[test]
    fn zero_arrivals_is_empty_and_satisfied() {
        let out = run_open_system(&[5u32; 4], 10, &SlackDamped::default(), cfg(50, 0.0, 0.1));
        assert_eq!(out.mean_active, 0.0);
        assert_eq!(out.mean_unsatisfied_frac, 0.0);
        assert!(out.series.iter().all(|s| s.unsatisfied == 0));
    }

    #[test]
    fn pool_exhaustion_caps_arrivals() {
        let out = run_open_system(&[100u32; 4], 8, &SlackDamped::default(), cfg(100, 5.0, 0.0));
        // no departures: active saturates at the pool size
        assert!(out.series.last().unwrap().active == 8);
    }

    #[test]
    fn fractional_rates_accumulate() {
        let out = run_open_system(
            &[100u32; 4],
            100,
            &SlackDamped::default(),
            cfg(10, 0.5, 0.0),
        );
        // 10 rounds × 0.5 → 5 arrivals
        assert_eq!(out.series.last().unwrap().active, 5);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_open_system(&[10u32; 8], 100, &SlackDamped::default(), cfg(60, 2.0, 0.1));
        let b = run_open_system(&[10u32; 8], 100, &SlackDamped::default(), cfg(60, 2.0, 0.1));
        assert_eq!(a.series, b.series);
    }

    #[test]
    #[should_panic(expected = "never acts while satisfied")]
    fn protocols_acting_while_satisfied_rejected() {
        let drift = crate::stale::tests::Drift;
        let _ = run_open_system(&[8u32; 8], 100, &drift, cfg(80, 3.0, 0.1));
    }

    #[test]
    #[should_panic(expected = "non-empty capacities")]
    fn empty_capacities_rejected() {
        let _ = run_open_system(&[], 10, &SlackDamped::default(), cfg(10, 1.0, 0.1));
    }

    #[test]
    #[should_panic(expected = "departure probability")]
    fn bad_departure_prob_rejected() {
        let _ = run_open_system(&[1u32], 1, &SlackDamped::default(), cfg(1, 0.0, 1.5));
    }
}
