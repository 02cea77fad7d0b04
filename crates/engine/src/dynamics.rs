//! Churn: perturbation and re-convergence driving (experiment E6).
//!
//! The robustness claim [reconstructed T4] says the protocol re-converges
//! quickly after a batch of users is displaced (arrivals, departures, or
//! failures that re-home users). We model churn as *uniform re-placement*:
//! a fraction `φ` of users is torn from its resource and dropped on a
//! uniformly random one — equivalent to `φ·n` departures followed by `φ·n`
//! oblivious arrivals, the standard worst-case-neutral churn model.

use crate::run::{run_observed, Executor, RunConfig, RunOutcome};
use qlb_core::{Instance, Protocol, ResourceId, State};
use qlb_obs::{Counter, Event, NoopSink, Sink};
use qlb_rng::{Rng64, SplitMix64};

/// Re-home a uniform random `fraction` of users to uniformly random
/// resources. Returns the number of users actually displaced.
///
/// Deterministic in `seed`; independent of protocol streams (different
/// derivation path), so churn never perturbs protocol randomness.
pub fn perturb_uniform(inst: &Instance, state: &mut State, fraction: f64, seed: u64) -> usize {
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
    let mut rng = SplitMix64::new(qlb_rng::mix64_pair(seed, 0xC0FF_EE00));
    let m = inst.num_resources();
    let mut displaced = 0usize;
    for u in inst.users() {
        if rng.bernoulli(fraction) {
            let to = ResourceId(rng.uniform_usize(m) as u32);
            state.reassign(u, to);
            displaced += 1;
        }
    }
    displaced
}

/// Configuration of a churn experiment episode.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Seed for both the initial convergence and the churn episodes.
    pub seed: u64,
    /// Fraction of users displaced per episode.
    pub fraction: f64,
    /// Number of churn episodes.
    pub episodes: u32,
    /// Round budget per re-convergence.
    pub max_rounds_per_episode: u64,
    /// Executor used for each re-convergence run (default
    /// [`Executor::Dense`]). Churn repair keeps the sparse executor's
    /// [`qlb_core::ActiveIndex`] sound: every re-convergence starts from
    /// the post-perturbation state, so the index is rebuilt fresh each
    /// episode — the trajectory is bit-identical either way
    /// (property-tested).
    pub executor: Executor,
}

/// Result of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Rounds needed to re-converge after each episode (length =
    /// `episodes`); an entry equals the budget if re-convergence failed.
    pub recovery_rounds: Vec<u64>,
    /// True iff every episode re-converged within budget.
    pub all_recovered: bool,
    /// Users displaced per episode.
    pub displaced: Vec<usize>,
    /// Final state after the last episode.
    pub state: State,
}

/// Drive repeated churn episodes: starting from a **legal** state, displace
/// a fraction of users, let the protocol re-converge, repeat.
///
/// # Panics
/// Panics if the initial state is not legal (establish one first with
/// `qlb_core::greedy_assign` or a converging run).
pub fn run_with_churn<P: Protocol + ?Sized>(
    inst: &Instance,
    state: State,
    proto: &P,
    config: ChurnConfig,
) -> ChurnOutcome {
    run_with_churn_observed(inst, state, proto, config, &mut NoopSink)
}

/// [`run_with_churn`] with an observability sink attached: each episode
/// emits an [`Event::ChurnEpisode`] and bumps the churn-episode /
/// displaced-user counters; the per-episode re-convergence runs feed the
/// sink through [`run_observed`]. Derived data only — trajectories are
/// bit-identical to the unobserved driver.
///
/// # Panics
/// Panics if the initial state is not legal.
pub fn run_with_churn_observed<P: Protocol + ?Sized, S: Sink>(
    inst: &Instance,
    state: State,
    proto: &P,
    config: ChurnConfig,
    sink: &mut S,
) -> ChurnOutcome {
    assert!(state.is_legal(inst), "churn driver needs a legal start");
    let mut state = state;
    let mut recovery_rounds = Vec::with_capacity(config.episodes as usize);
    let mut displaced = Vec::with_capacity(config.episodes as usize);
    let mut all_recovered = true;

    for episode in 0..config.episodes {
        let ep_seed = qlb_rng::mix64_pair(config.seed, episode as u64 + 1);
        let moved = perturb_uniform(inst, &mut state, config.fraction, ep_seed);
        displaced.push(moved);
        if S::ENABLED {
            sink.add(Counter::ChurnEpisodes, 1);
            sink.add(Counter::DisplacedUsers, moved as u64);
            sink.event(Event::ChurnEpisode {
                episode: episode as u64,
                displaced: moved as u64,
            });
        }
        let out: RunOutcome = run_observed(
            inst,
            state,
            proto,
            RunConfig::new(ep_seed, config.max_rounds_per_episode).with_executor(config.executor),
            sink,
        );
        recovery_rounds.push(out.rounds);
        all_recovered &= out.converged;
        state = out.state;
    }

    ChurnOutcome {
        recovery_rounds,
        all_recovered,
        displaced,
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_core::{greedy_assign, SlackDamped};

    #[test]
    fn perturb_zero_fraction_is_noop() {
        let inst = Instance::uniform(32, 8, 5).unwrap();
        let mut state = State::round_robin(&inst);
        let before = state.clone();
        assert_eq!(perturb_uniform(&inst, &mut state, 0.0, 1), 0);
        assert_eq!(state, before);
    }

    #[test]
    fn perturb_full_fraction_touches_everyone() {
        let inst = Instance::uniform(32, 8, 5).unwrap();
        let mut state = State::round_robin(&inst);
        assert_eq!(perturb_uniform(&inst, &mut state, 1.0, 1), 32);
        state.debug_assert_invariants(&inst);
    }

    #[test]
    fn perturb_is_deterministic() {
        let inst = Instance::uniform(64, 8, 10).unwrap();
        let mut a = State::round_robin(&inst);
        let mut b = State::round_robin(&inst);
        perturb_uniform(&inst, &mut a, 0.3, 99);
        perturb_uniform(&inst, &mut b, 0.3, 99);
        assert_eq!(a, b);
        let mut c = State::round_robin(&inst);
        perturb_uniform(&inst, &mut c, 0.3, 100);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn perturb_rejects_bad_fraction() {
        let inst = Instance::uniform(4, 2, 3).unwrap();
        let mut state = State::round_robin(&inst);
        perturb_uniform(&inst, &mut state, 1.5, 0);
    }

    #[test]
    fn churn_episodes_recover() {
        let inst = Instance::uniform(128, 16, 10).unwrap(); // γ = 1.25
        let legal = greedy_assign(&inst).unwrap();
        let out = run_with_churn(
            &inst,
            legal,
            &SlackDamped::default(),
            ChurnConfig {
                seed: 5,
                fraction: 0.1,
                episodes: 5,
                max_rounds_per_episode: 10_000,
                executor: Executor::Dense,
            },
        );
        assert!(out.all_recovered);
        assert_eq!(out.recovery_rounds.len(), 5);
        assert!(out.state.is_legal(&inst));
        assert!(out.displaced.iter().all(|&d| d <= 128));
        // small perturbations should recover fast
        assert!(out.recovery_rounds.iter().all(|&r| r < 100));
    }

    #[test]
    #[should_panic(expected = "legal start")]
    fn churn_requires_legal_start() {
        let inst = Instance::uniform(16, 2, 2).unwrap();
        let bad = State::all_on(&inst, ResourceId(0));
        let _ = run_with_churn(
            &inst,
            bad,
            &SlackDamped::default(),
            ChurnConfig {
                seed: 1,
                fraction: 0.1,
                episodes: 1,
                max_rounds_per_episode: 10,
                executor: Executor::Dense,
            },
        );
    }

    #[test]
    fn bigger_churn_needs_no_fewer_rounds_on_average() {
        let inst = Instance::uniform(256, 32, 10).unwrap();
        let legal = greedy_assign(&inst).unwrap();
        let small = run_with_churn(
            &inst,
            legal.clone(),
            &SlackDamped::default(),
            ChurnConfig {
                seed: 2,
                fraction: 0.02,
                episodes: 10,
                max_rounds_per_episode: 10_000,
                executor: Executor::Dense,
            },
        );
        let large = run_with_churn(
            &inst,
            legal,
            &SlackDamped::default(),
            ChurnConfig {
                seed: 2,
                fraction: 0.5,
                episodes: 10,
                max_rounds_per_episode: 10_000,
                executor: Executor::Dense,
            },
        );
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(mean(&large.recovery_rounds) >= mean(&small.recovery_rounds));
    }
}
