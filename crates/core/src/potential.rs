//! Lyapunov (potential) functions used in the convergence analysis.
//!
//! The drift arguments behind the convergence theorems track how fast these
//! quantities fall; the experiment harness reports their per-round traces
//! (experiment E3) so the geometric decay claimed for the damped protocol is
//! directly visible.

use crate::ids::ClassId;
use crate::instance::Instance;
use crate::state::State;

/// The **overload potential** `Φ(x) = Σ_r max(0, x_r − c_r)`:
/// the number of users that must still leave overloaded resources before
/// the state can be legal. `Φ = 0 ⟺ legal` (single-class instances).
///
/// This is the primary Lyapunov function of the reconstructed main theorem:
/// the slack-damped protocol contracts `E[Φ]` by a constant factor per
/// round when the slack factor is bounded away from 1.
///
/// # Panics
/// Panics on multi-class instances, where per-resource overload is not
/// well-defined (use [`unsatisfied_potential`] instead).
pub fn overload_potential(inst: &Instance, state: &State) -> u64 {
    overload_potential_loads(inst, state.loads())
}

/// [`overload_potential`] computed from a raw congestion vector — a
/// pooled full round keeps per-resource loads in its view without a dense
/// [`State`], and its observability needs the same Lyapunov trace.
///
/// # Panics
/// Panics on multi-class instances (see [`overload_potential`]).
pub fn overload_potential_loads(inst: &Instance, loads: &[u32]) -> u64 {
    assert_eq!(
        inst.num_classes(),
        1,
        "overload potential is defined for single-class instances"
    );
    let caps = inst.cap_row(ClassId(0));
    loads
        .iter()
        .zip(caps)
        .map(|(&x, &c)| (x as u64).saturating_sub(c as u64))
        .sum()
}

/// The worst overload `max_r (x_r − c_r)⁺` — how deep the most congested
/// resource is beyond its capacity. Single-class instances only.
///
/// # Panics
/// Panics on multi-class instances.
pub fn max_overload(inst: &Instance, state: &State) -> u64 {
    assert_eq!(inst.num_classes(), 1, "max overload is single-class only");
    let caps = inst.cap_row(ClassId(0));
    state
        .loads()
        .iter()
        .zip(caps)
        .map(|(&x, &c)| (x as u64).saturating_sub(c as u64))
        .max()
        .unwrap_or(0)
}

/// Number of unsatisfied users — the class-agnostic progress measure, valid
/// for every model flavour. Zero iff the state is legal.
pub fn unsatisfied_potential(inst: &Instance, state: &State) -> u64 {
    state.num_unsatisfied(inst) as u64
}

/// The **quadratic potential** `Σ_r x_r²`.
///
/// Strictly decreases under any migration from a more- to a less-loaded
/// resource (`x_from ≥ x_to + 2`), which makes it the standard witness that
/// sequential best-response dynamics terminate on identical resources.
pub fn quadratic_potential(state: &State) -> u64 {
    state.loads().iter().map(|&x| (x as u64) * (x as u64)).sum()
}

/// **Rosenthal's potential** `Σ_r Σ_{j=1..x_r} j = Σ_r x_r(x_r+1)/2` for the
/// unit-latency congestion game underlying the model; sequential
/// better-response steps strictly decrease it.
pub fn rosenthal_potential(state: &State) -> u64 {
    state
        .loads()
        .iter()
        .map(|&x| {
            let x = x as u64;
            x * (x + 1) / 2
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ResourceId;
    use crate::instance::{Instance, InstanceBuilder};

    #[test]
    fn overload_zero_iff_legal() {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let legal = State::round_robin(&inst);
        assert_eq!(overload_potential(&inst, &legal), 0);
        assert!(legal.is_legal(&inst));

        let hotspot = State::all_on(&inst, ResourceId(0));
        assert_eq!(overload_potential(&inst, &hotspot), 5); // 8 - 3
        assert_eq!(max_overload(&inst, &hotspot), 5);
        assert!(!hotspot.is_legal(&inst));
    }

    #[test]
    fn overload_sums_over_resources() {
        let inst = Instance::with_capacities(10, vec![2, 2, 100]).unwrap();
        // 5 on r0, 5 on r1: overload (5-2)+(5-2) = 6
        let mut assignment = vec![ResourceId(0); 5];
        assignment.extend(vec![ResourceId(1); 5]);
        let s = State::new(&inst, assignment).unwrap();
        assert_eq!(overload_potential(&inst, &s), 6);
        assert_eq!(max_overload(&inst, &s), 3);
    }

    #[test]
    #[should_panic(expected = "single-class")]
    fn overload_rejects_multi_class() {
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0])
            .latency_class(1.0, 1)
            .latency_class(2.0, 1)
            .build()
            .unwrap();
        let s = State::all_on(&inst, ResourceId(0));
        let _ = overload_potential(&inst, &s);
    }

    #[test]
    fn unsatisfied_potential_matches_count() {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let hotspot = State::all_on(&inst, ResourceId(0));
        assert_eq!(unsatisfied_potential(&inst, &hotspot), 8);
        let legal = State::round_robin(&inst);
        assert_eq!(unsatisfied_potential(&inst, &legal), 0);
    }

    #[test]
    fn quadratic_decreases_on_balancing_move() {
        let inst = Instance::uniform(4, 2, 4).unwrap();
        let unbalanced = State::new(
            &inst,
            vec![ResourceId(0), ResourceId(0), ResourceId(0), ResourceId(1)],
        )
        .unwrap();
        let balanced = State::new(
            &inst,
            vec![ResourceId(0), ResourceId(0), ResourceId(1), ResourceId(1)],
        )
        .unwrap();
        assert!(quadratic_potential(&balanced) < quadratic_potential(&unbalanced));
        assert_eq!(quadratic_potential(&unbalanced), 9 + 1);
        assert_eq!(quadratic_potential(&balanced), 4 + 4);
    }

    #[test]
    fn rosenthal_values() {
        let inst = Instance::uniform(3, 2, 4).unwrap();
        let s = State::new(&inst, vec![ResourceId(0), ResourceId(0), ResourceId(1)]).unwrap();
        // r0: 1+2 = 3, r1: 1 → 4
        assert_eq!(rosenthal_potential(&s), 4);
    }

    #[test]
    fn potentials_on_empty_state() {
        let inst = Instance::uniform(0, 3, 1).unwrap();
        let s = State::round_robin(&inst);
        assert_eq!(overload_potential(&inst, &s), 0);
        assert_eq!(max_overload(&inst, &s), 0);
        assert_eq!(quadratic_potential(&s), 0);
        assert_eq!(rosenthal_potential(&s), 0);
    }
}
