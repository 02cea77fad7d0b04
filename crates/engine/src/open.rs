//! Open system: users arrive and depart while the protocol runs.
//!
//! The paper's model is closed (`n` fixed); the natural open-system
//! question is whether the protocol keeps *almost everyone* satisfied under
//! continuous arrivals and departures, as long as the offered load stays
//! below capacity. The driver runs a [`ParkedSystem`]: arrivals re-home
//! free slots onto uniformly random real resources and departures park
//! them, while the protocol, unchanged and unaware of the driver, keeps
//! re-converging — exactly how churn would hit a deployed system. The
//! driver itself is only those draws and the statistics. Every round is the
//! parked system's active-set round, whose executor sets only the pool
//! width, and protocols that act while satisfied are refused: they would
//! move parked users.
//!
//! [`reference_open_run`] is the driver's reference: the same run replayed
//! by [`ParkedReference`] on a plain [`State`], which every executor's
//! series must equal.

use crate::parked::{ParkedOp, ParkedReference, ParkedSystem};
use crate::run::Executor;
use qlb_core::{ClassId, Instance, Protocol, ResourceId, State, UserId};
use qlb_obs::{Counter, Event, Gauge, NoopSink, Sink};
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
    /// Pool width of the rounds (default [`Executor::Dense`]). Every
    /// executor runs the same active-set rounds and produces a
    /// bit-identical series: `Dense` and `Sparse` run them without a pool,
    /// `Threaded(t)` and `SparseThreaded(t)` on `t` threads.
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
    let mut sys = ParkedSystem::new(inst, state, cfg.executor, cfg.seed, cfg.shard_timing);
    // Arrived and not departed. Not the users off the parking resource: the
    // protocol samples it like any other, so active users can move there.
    let mut active = vec![false; pool];
    let mut driver_rng = SplitMix64::new(qlb_rng::mix64_pair(cfg.seed, OPEN_SALT));
    let mut arrival_credit = 0.0f64;
    let mut series = Vec::with_capacity(cfg.rounds as usize);

    for round in 0..cfg.rounds {
        // Arrivals: one per whole credit while free slots last; the credit
        // of the first arrival the pool cannot take is spent too.
        arrival_credit += cfg.arrivals_per_round;
        let (free, mut arrivals) = (sys.free(ClassId(0)), 0);
        while arrival_credit >= 1.0 {
            arrival_credit -= 1.0;
            if arrivals == free {
                break;
            }
            arrivals += 1;
        }
        let to = || ResourceId(driver_rng.uniform_usize(m) as u32);
        for u in sys.arrive(ClassId(0), arrivals, to) {
            active[u.index()] = true;
        }
        // Departures, in ascending user id. The flag scan visits every
        // pool slot, but the bernoulli draw is consumed only for active
        // users, so the driver stream is independent of the pool layout.
        let leaving = active.iter_mut().enumerate().filter_map(|(idx, on)| {
            let leaves = *on && driver_rng.bernoulli(cfg.departure_prob);
            *on &= !leaves;
            leaves.then_some(UserId(idx as u32))
        });
        let departed = sys.depart(leaving) as u64;
        if S::ENABLED {
            if arrivals > 0 {
                let count = arrivals as u64;
                sink.add(Counter::Arrivals, count);
                sink.event(Event::Arrivals { round, count });
            }
            if departed > 0 {
                let count = departed;
                sink.add(Counter::Departures, count);
                sink.event(Event::Departures { round, count });
            }
        }
        // One protocol round (parked users are satisfied and never act).
        sys.round(proto, round, sink);

        let active_count = (pool - sys.free(ClassId(0))) as u64;
        let unsatisfied = sys.index().num_active() as u64;
        if S::ENABLED {
            sink.set(Gauge::ActiveUsers, active_count);
            sink.set(Gauge::Unsatisfied, unsatisfied);
            sink.set(Gauge::ActiveSetSize, unsatisfied);
            if cfg.topk_resources > 0 {
                // Slice off the parking resource (index m): its load is the
                // parked population and would swamp any congestion sample.
                let loads = &sys.state().loads()[..m];
                sink.topk(round, &qlb_obs::top_k_entries(loads, cfg.topk_resources));
            }
        }
        series.push(OpenRoundStats {
            round,
            active: active_count,
            unsatisfied,
        });
    }

    // Steady-state statistics (all 0 when no round is past the warmup).
    let post: Vec<&OpenRoundStats> = series.iter().filter(|s| s.round >= cfg.warmup).collect();
    let frac = |s: &&OpenRoundStats| s.unsatisfied as f64 / s.active.max(1) as f64;
    let rounds = post.len().max(1) as f64;
    let mean_unsatisfied_frac = post.iter().map(frac).sum::<f64>() / rounds;
    let max_unsatisfied_frac = post.iter().map(frac).fold(0.0, f64::max);
    let mean_active = post.iter().map(|s| s.active as f64).sum::<f64>() / rounds;

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
/// computed by [`ParkedReference`] on a plain [`State`] with the dense scan
/// of [`qlb_core::step`] and no executor, index or stepper. It draws the
/// same parking instance, driver stream and protocol coins, and feeds each
/// round's arrivals and departures to the reference as one reassignment
/// batch, so every executor's series must equal it; the tests, E14 and the
/// `open_sparse` bench gate compare them.
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
    let state = State::all_on(&inst, parking);
    let seed = cfg.seed;
    let mut reference = ParkedReference { inst, state, seed };
    let mut parked: Vec<UserId> = (0..pool as u32).map(UserId).collect();
    let mut active = vec![false; pool];
    let mut rng = SplitMix64::new(qlb_rng::mix64_pair(cfg.seed, OPEN_SALT));
    let mut credit = 0.0;
    let mut series = Vec::with_capacity(cfg.rounds as usize);
    for round in 0..cfg.rounds {
        let mut changes = Vec::new();
        credit += cfg.arrivals_per_round;
        while credit >= 1.0 {
            credit -= 1.0;
            let Some(u) = parked.pop() else { break };
            active[u.index()] = true;
            changes.push((u, ResourceId(rng.uniform_usize(m) as u32)));
        }
        for (idx, on) in active.iter_mut().enumerate() {
            if *on && rng.bernoulli(cfg.departure_prob) {
                *on = false;
                changes.push((UserId(idx as u32), parking));
                parked.push(UserId(idx as u32));
            }
        }
        reference.apply(proto, &ParkedOp::Reassign(changes));
        reference.apply(proto, &ParkedOp::Round(round));
        series.push(OpenRoundStats {
            round,
            active: (pool - parked.len()) as u64,
            unsatisfied: reference.num_unsatisfied(),
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
