//! Offline baselines for the weighted model.

use super::instance::WeightedInstance;
use crate::error::{Error, Result};
use crate::ids::{ResourceId, UserId};
use crate::instance::Demands;
use crate::state::State;

/// The counting bound `Σ w ≤ Σ c`: necessary, far from sufficient (bin
/// packing): two weight-3 users do not fit into three capacity-2 bins.
pub fn weight_counting_feasible(inst: &WeightedInstance) -> bool {
    inst.total_weight() <= inst.total_capacity()
}

/// First-fit-decreasing (best-fit flavour): place users in decreasing
/// weight order, each into the resource with the **least remaining slack
/// that still fits** (best fit minimizes fragmentation on heterogeneous
/// capacities).
///
/// Success proves feasibility; failure does not refute it (bin-packing
/// decision is NP-hard). For unit weights this degenerates to the exact
/// counting criterion, like the unit-model greedy.
pub fn first_fit_decreasing(inst: &WeightedInstance) -> Result<State> {
    let mut order: Vec<UserId> = inst.users().collect();
    // decreasing weight; ties by id for determinism
    order.sort_by_key(|&u| (std::cmp::Reverse(inst.weight(u)), u.0));

    let mut remaining: Vec<u32> = inst.caps().to_vec();
    let mut assignment = vec![ResourceId(0); inst.num_users()];
    for u in order {
        let w = inst.weight(u);
        // best fit: smallest remaining ≥ w
        let slot = remaining
            .iter()
            .enumerate()
            .filter(|(_, &rem)| rem >= w)
            .min_by_key(|(r, &rem)| (rem, *r))
            .map(|(r, _)| r);
        match slot {
            Some(r) => {
                remaining[r] -= w;
                assignment[u.index()] = ResourceId(r as u32);
            }
            None => {
                return Err(Error::Infeasible {
                    detail: format!(
                        "best-fit-decreasing could not place user {u} of weight {w} \
                         (failure does not prove infeasibility)"
                    ),
                });
            }
        }
    }
    let state = State::new(inst, assignment)?;
    debug_assert!(state.is_legal(inst));
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_bound() {
        let inst = WeightedInstance::new(vec![2, 2, 2], vec![3, 3]).unwrap();
        assert!(weight_counting_feasible(&inst)); // 6 ≤ 6
        assert!(first_fit_decreasing(&inst).is_err()); // but nothing fits
    }

    #[test]
    fn ffd_packs_exactly() {
        // caps 10, 10; weights 7,3,6,4 → {7,3} and {6,4}
        let inst = WeightedInstance::new(vec![10, 10], vec![7, 3, 6, 4]).unwrap();
        let s = first_fit_decreasing(&inst).unwrap();
        assert!(s.is_legal(&inst));
        assert_eq!(s.loads().iter().sum::<u32>(), 20);
        assert!(s.loads().iter().all(|&l| l == 10));
    }

    #[test]
    fn ffd_unit_weights_exact() {
        let inst = WeightedInstance::unit(12, 4, 3).unwrap();
        assert!(first_fit_decreasing(&inst).is_ok());
        let inst = WeightedInstance::unit(13, 4, 3).unwrap();
        assert!(first_fit_decreasing(&inst).is_err());
    }

    #[test]
    fn ffd_prefers_tight_fits() {
        // one big item (8) and two small (2, 2); caps 8 and 4.
        // best-fit: 8 → cap-8 resource; 2,2 → cap-4 resource.
        let inst = WeightedInstance::new(vec![8, 4], vec![8, 2, 2]).unwrap();
        let s = first_fit_decreasing(&inst).unwrap();
        assert_eq!(s.load(ResourceId(0)), 8);
        assert_eq!(s.load(ResourceId(1)), 4);
    }

    #[test]
    fn ffd_deterministic() {
        let inst = WeightedInstance::new(vec![9, 9, 9], vec![4, 4, 4, 3, 3, 2]).unwrap();
        let a = first_fit_decreasing(&inst).unwrap();
        let b = first_fit_decreasing(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ffd_empty_users() {
        let inst = WeightedInstance::new(vec![5], vec![]).unwrap();
        let s = first_fit_decreasing(&inst).unwrap();
        assert!(s.is_legal(&inst));
    }
}
