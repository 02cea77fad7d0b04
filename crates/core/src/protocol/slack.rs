//! The paper's protocol: slack-proportional damped migration.

use super::{Decision, LocalView, Protocol};
use qlb_rng::{Rng64, RoundStream};

/// **Slack-damped migration** — the main protocol \[reconstructed\].
///
/// An unsatisfied user that samples resource `q` migrates with probability
///
/// ```text
///   p(q) = damping · (c_q − x_q) / c_q      if x_q < c_q,   else 0,
/// ```
///
/// where `x_q` is the start-of-round congestion and `c_q` the effective
/// capacity for the user's class.
///
/// With weighted users (`x_q` is then total demand) the user stays put,
/// before any coin, unless its weight `w` fits: `c_q − x_q ≥ w`. The coin
/// stays demand-independent, so the expected *weight* inflow into `q` is
/// still proportional to its free capacity; a demand-proportional coin
/// would let heavy users starve. For `w = 1` the fit check is the
/// `x_q < c_q` condition above, so the unit rule is unchanged.
///
/// ### Why this damping
///
/// Suppose `u` users are unsatisfied and sample uniformly among `m`
/// resources. The expected inflow into `q` is
///
/// ```text
///   E[in(q)] = (u / m) · p(q) = damping · (u/m) · (c_q − x_q)/c_q .
/// ```
///
/// With `damping ≤ 1` and `u ≤ Σ_r c_r` (always true when the instance is
/// feasible — there are at most `n ≤ Σ c_r` users in total), resources with
/// little free capacity receive proportionally little inflow, so in
/// expectation no resource is pushed past capacity by the crowd. Combined
/// with the fact that *satisfied users never move* (progress is never
/// destroyed, only created), the number of unsatisfied users contracts
/// geometrically when the slack factor is bounded away from 1 — the
/// `O(log n)`-round shape that experiments E1–E3 verify.
///
/// The `damping` knob (default 1) exists for the ablation benchmark: values
/// `< 1` trade per-round progress for extra safety margin, values `> 1` are
/// clamped per-decision to probability 1 and progressively reintroduce
/// herding.
#[derive(Debug, Clone, Copy)]
pub struct SlackDamped {
    /// Multiplier on the migration probability; default 1.0.
    pub damping: f64,
}

impl Default for SlackDamped {
    fn default() -> Self {
        Self { damping: 1.0 }
    }
}

impl SlackDamped {
    /// Protocol with an explicit damping multiplier.
    ///
    /// # Panics
    /// Panics if `damping` is not positive and finite.
    pub fn with_damping(damping: f64) -> Self {
        assert!(
            damping > 0.0 && damping.is_finite(),
            "damping must be positive and finite"
        );
        Self { damping }
    }

    /// The migration probability for a target with congestion `load` and
    /// capacity `cap` (exposed for tests and for the analysis docs).
    #[inline]
    pub fn migration_probability(&self, load: u32, cap: u32) -> f64 {
        if load >= cap || cap == 0 {
            return 0.0;
        }
        let p = self.damping * (cap - load) as f64 / cap as f64;
        p.min(1.0)
    }
}

impl Protocol for SlackDamped {
    fn name(&self) -> &'static str {
        "slack-damped"
    }

    fn decide(&self, view: &LocalView, rng: &mut RoundStream) -> Decision {
        if view.target.id == view.own.id || view.target.slack() < view.weight {
            return Decision::Stay;
        }
        let p = self.migration_probability(view.target.load, view.target.cap);
        if rng.bernoulli(p) {
            Decision::Move
        } else {
            Decision::Stay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{move_frequency, view};
    use super::*;

    #[test]
    fn probability_formula() {
        let p = SlackDamped::default();
        assert_eq!(p.migration_probability(0, 10), 1.0);
        assert_eq!(p.migration_probability(5, 10), 0.5);
        assert_eq!(p.migration_probability(9, 10), 0.1);
        assert_eq!(p.migration_probability(10, 10), 0.0);
        assert_eq!(p.migration_probability(15, 10), 0.0);
        assert_eq!(p.migration_probability(0, 0), 0.0);
    }

    #[test]
    fn damping_scales_and_clamps() {
        let half = SlackDamped::with_damping(0.5);
        assert_eq!(half.migration_probability(5, 10), 0.25);
        let double = SlackDamped::with_damping(2.0);
        assert_eq!(double.migration_probability(5, 10), 1.0); // clamped
        assert_eq!(double.migration_probability(8, 10), 0.4);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn bad_damping_rejected() {
        let _ = SlackDamped::with_damping(0.0);
    }

    #[test]
    fn empirical_move_frequency_matches_probability() {
        let p = SlackDamped::default();
        // target at half capacity → p = 0.5
        let freq = move_frequency(&p, &view(9, 2, 5, 10), 40_000);
        assert!((freq - 0.5).abs() < 0.01, "freq {freq}");
        // empty target → always move
        let freq = move_frequency(&p, &view(9, 2, 0, 10), 1_000);
        assert!((freq - 1.0).abs() < 1e-9);
        // full target → never move
        let freq = move_frequency(&p, &view(9, 2, 10, 10), 1_000);
        assert_eq!(freq, 0.0);
    }

    #[test]
    fn self_sample_is_a_stay() {
        let p = SlackDamped::default();
        let mut v = view(9, 2, 0, 10);
        v.target.id = v.own.id;
        let mut rng = RoundStream::new(1, 1, 1);
        assert_eq!(p.decide(&v, &mut rng), Decision::Stay);
        assert_eq!(rng.draws(), 0, "stay on self-sample consumes no coin");
    }

    #[test]
    fn nonfitting_demand_stays_without_coin() {
        let p = SlackDamped::default();
        let mut v = view(20, 10, 8, 10); // target slack 2
        v.weight = 3;
        let mut rng = RoundStream::new(1, 1, 1);
        assert_eq!(p.decide(&v, &mut rng), Decision::Stay);
        assert_eq!(rng.draws(), 0, "fit check consumes no randomness");
        // a fitting demand flips the coin
        v.weight = 2;
        let _ = p.decide(&v, &mut rng);
        assert_eq!(rng.draws(), 1);
        // and moves with the demand-independent probability slack/cap
        let mut v = view(20, 10, 5, 10);
        v.weight = 2;
        let freq = move_frequency(&p, &v, 40_000);
        assert!((freq - 0.5).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn full_target_consumes_no_coin() {
        // bernoulli(0.0) is deterministic and must not consume randomness,
        // keeping draw counts identical across executors.
        let p = SlackDamped::default();
        let mut rng = RoundStream::new(1, 1, 1);
        let _ = p.decide(&view(9, 2, 10, 10), &mut rng);
        assert_eq!(rng.draws(), 0);
    }
}
