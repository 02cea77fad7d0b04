//! The conditional strawman: migrate iff the sample currently has room.

use super::{Decision, LocalView, Protocol};
use qlb_rng::RoundStream;

/// **Conditional uniform migration**: move iff the sampled resource had
/// room (`x_q < c_q`) at the start of the round — for a weighted user of
/// demand `w`, iff its demand fit (`c_q − x_q ≥ w`).
///
/// Smarter than [`super::BlindUniform`] — it never targets a visibly full
/// resource — but it ignores *how many other users see the same gap*. When
/// `u` unsatisfied users all observe the one resource with slack `1`, all of
/// them move, the resource ends up with overload `u − 1`, and the process
/// thrashes: the classical herding pathology that motivates probabilistic
/// damping (experiment E4 exhibits the blow-up).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConditionalUniform;

impl Protocol for ConditionalUniform {
    fn name(&self) -> &'static str {
        "conditional-uniform"
    }

    fn decide(&self, view: &LocalView, _rng: &mut RoundStream) -> Decision {
        if view.target.id != view.own.id && view.target.slack() >= view.weight {
            Decision::Move
        } else {
            Decision::Stay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::view;
    use super::*;

    #[test]
    fn moves_only_into_room() {
        let p = ConditionalUniform;
        let mut rng = RoundStream::new(1, 1, 1);
        assert_eq!(p.decide(&view(9, 2, 1, 2), &mut rng), Decision::Move);
        assert_eq!(p.decide(&view(9, 2, 2, 2), &mut rng), Decision::Stay);
        assert_eq!(p.decide(&view(9, 2, 5, 2), &mut rng), Decision::Stay);
        // zero-capacity target is never entered
        assert_eq!(p.decide(&view(9, 2, 0, 0), &mut rng), Decision::Stay);
    }

    #[test]
    fn self_sample_is_a_stay() {
        let p = ConditionalUniform;
        let mut v = view(9, 2, 0, 5);
        v.target.id = v.own.id;
        let mut rng = RoundStream::new(1, 1, 1);
        assert_eq!(p.decide(&v, &mut rng), Decision::Stay);
    }

    #[test]
    fn moves_iff_demand_fits() {
        let p = ConditionalUniform;
        let mut v = view(20, 10, 8, 10); // target slack 2
        let mut rng = RoundStream::new(1, 1, 1);
        v.weight = 2;
        assert_eq!(p.decide(&v, &mut rng), Decision::Move);
        v.weight = 3;
        assert_eq!(p.decide(&v, &mut rng), Decision::Stay);
        assert_eq!(rng.draws(), 0);
    }

    #[test]
    fn deterministic_kernel_consumes_no_randomness() {
        let p = ConditionalUniform;
        let mut rng = RoundStream::new(1, 1, 1);
        let _ = p.decide(&view(9, 2, 1, 2), &mut rng);
        assert_eq!(rng.draws(), 0);
    }
}
