//! # qlb-bench — Criterion benchmarks
//!
//! Three bench binaries (see `benches/`):
//!
//! * `tables` — one Criterion group per paper table/figure (E1–E12), each
//!   timing the experiment's core measurement loop at quick scale so
//!   regressions in any experiment path are caught;
//! * `kernels` — micro-benchmarks of the hot protocol kernels (decision
//!   rounds, sampling, state application);
//! * `substrates` — the supporting machinery (RNG streams, max-flow,
//!   greedy/best-response baselines, topology and analysis kernels).
//!
//! Shared scenario builders live here so benches and (future) profiling
//! binaries agree on what "the standard workload" is. The [`checks`]
//! module holds the measurement kernels shared between the `sparse`/`obs`
//! benches and the `qlb-bench-check` regression gate.

pub mod checks;

use qlb_core::{Instance, State};
use qlb_workload::{CapacityDist, Placement, Scenario};

/// The standard single-class benchmark workload: `γ = 1.25`, capacity-10
/// resources, hotspot start.
pub fn standard_scenario(n: usize) -> Scenario {
    Scenario::single_class(
        format!("bench-n{n}"),
        n,
        (n / 8).max(1),
        CapacityDist::Constant { cap: 10 },
        1.25,
        Placement::Hotspot,
    )
}

/// Build the standard instance/state pair for benches.
pub fn standard_pair(n: usize, seed: u64) -> (Instance, State) {
    standard_scenario(n).build(seed).expect("feasible")
}

/// A mid-run, half-converged state: more representative of steady-state
/// kernel cost than the degenerate all-on-one start.
pub fn half_converged(n: usize, seed: u64) -> (Instance, State) {
    let (inst, state) = standard_pair(n, seed);
    let out = qlb_engine::run(
        &inst,
        state,
        &qlb_core::SlackDamped::default(),
        qlb_engine::RunConfig::new(seed, 3),
    );
    (inst, out.state)
}

/// An **endgame** state: run the slack-damped protocol from the hotspot
/// start until at most `max_active_frac · n` users remain unsatisfied
/// (but the state is still illegal unless `max_active_frac == 0`). This
/// is the regime where dense `O(n)` rounds waste almost all their work and
/// the sparse active-set executor should shine.
pub fn endgame_pair(n: usize, seed: u64, max_active_frac: f64) -> (Instance, State) {
    let (inst, mut state) = standard_pair(n, seed);
    let proto = qlb_core::SlackDamped::default();
    let target = ((n as f64) * max_active_frac).ceil() as usize;
    let mut moves = Vec::new();
    let mut round = 0u64;
    while state.num_unsatisfied(&inst) > target {
        qlb_core::step::decide_round_into(&inst, &state, &proto, seed, round, &mut moves);
        state.apply_moves(&inst, &moves);
        round += 1;
        assert!(round < 1_000_000, "endgame never reached at n = {n}");
    }
    (inst, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_core::ResourceId;

    #[test]
    fn standard_pair_is_hotspot() {
        let (inst, state) = standard_pair(256, 1);
        assert_eq!(state.load(ResourceId(0)) as usize, 256);
        assert_eq!(inst.total_capacity(), 320);
    }

    #[test]
    fn endgame_reaches_target_fraction() {
        let (inst, state) = endgame_pair(512, 1, 0.01);
        assert!(state.num_unsatisfied(&inst) <= 6);
        state.debug_assert_invariants(&inst);
    }

    #[test]
    fn half_converged_made_progress() {
        let (inst, state) = half_converged(256, 1);
        assert!(state.load(ResourceId(0)) < 256);
        assert!(!state.is_legal(&inst) || state.is_legal(&inst)); // state is valid either way
        state.debug_assert_invariants(&inst);
    }
}
