//! The weighted problem description.

use crate::error::{Error, Result};
use crate::ids::UserId;
use crate::instance::{Demands, Instance};

/// A weighted QoS load-balancing instance: a single-class [`Instance`]
/// (per-resource capacities) plus per-user demands.
///
/// Loads stay `u32`: the constructor rejects a total demand above
/// `u32::MAX`, and no resource can carry more than the total.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedInstance {
    inst: Instance,
    weights: Vec<u32>,
}

impl WeightedInstance {
    /// Build from capacities and user weights.
    ///
    /// # Errors
    /// * [`Error::NoResources`] without resources;
    /// * [`Error::BadParameter`] for zero weights (a zero-demand user is
    ///   meaningless and would break the fit-check semantics), more users
    ///   than 32-bit ids, or a total demand above `u32::MAX`.
    pub fn new(caps: Vec<u32>, weights: Vec<u32>) -> Result<Self> {
        if let Some(i) = weights.iter().position(|&w| w == 0) {
            return Err(Error::BadParameter {
                detail: format!("user u{i} has zero weight"),
            });
        }
        // user ids are 32-bit; a larger pool would wrap the `as u32` id
        // derivations in the kernels
        if u32::try_from(weights.len()).is_err() {
            return Err(Error::BadParameter {
                detail: format!("{} users exceed the 32-bit user-id space", weights.len()),
            });
        }
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        if u32::try_from(total).is_err() {
            return Err(Error::BadParameter {
                detail: format!("total demand {total} overflows the u32 load counters"),
            });
        }
        let inst = Instance::with_capacities(weights.len(), caps)?;
        Ok(Self { inst, weights })
    }

    /// Uniform caps, unit weights: coincides with `Instance::uniform`
    /// semantics (used by the equivalence tests).
    pub fn unit(n: usize, m: usize, cap: u32) -> Result<Self> {
        Self::new(vec![cap; m], vec![1; n])
    }

    /// Number of users.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.weights.len()
    }

    /// Number of resources.
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.inst.num_resources()
    }

    /// All capacities.
    #[inline]
    pub fn caps(&self) -> &[u32] {
        self.inst.eff_cap_table()
    }

    /// Total capacity `Σ_r c_r`.
    pub fn total_capacity(&self) -> u64 {
        self.inst.total_capacity()
    }

    /// Total demand `Σ_i w_i`.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|&w| w as u64).sum()
    }

    /// Slack factor `γ = Σ c / Σ w`.
    ///
    /// # Panics
    /// Panics for zero total weight.
    pub fn slack_factor(&self) -> f64 {
        let w = self.total_weight();
        assert!(w > 0, "slack factor undefined without demand");
        self.total_capacity() as f64 / w as f64
    }

    /// Largest user demand (0 for an empty instance).
    pub fn max_weight(&self) -> u32 {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over user ids.
    pub fn users(&self) -> impl ExactSizeIterator<Item = UserId> {
        self.inst.users()
    }
}

impl Demands for WeightedInstance {
    const UNIT: bool = false;

    #[inline]
    fn instance(&self) -> &Instance {
        &self.inst
    }

    #[inline]
    fn weight(&self, u: UserId) -> u32 {
        self.weights[u.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ResourceId;

    #[test]
    fn accessors() {
        let inst = WeightedInstance::new(vec![10, 20], vec![3, 5, 1]).unwrap();
        assert_eq!(inst.num_users(), 3);
        assert_eq!(inst.num_resources(), 2);
        assert_eq!(inst.instance().capacity(ResourceId(1)), 20);
        assert_eq!(inst.caps(), &[10, 20]);
        assert_eq!(inst.weight(UserId(1)), 5);
        assert_eq!(inst.total_capacity(), 30);
        assert_eq!(inst.total_weight(), 9);
        assert_eq!(inst.max_weight(), 5);
        assert!((inst.slack_factor() - 30.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_rejected() {
        assert!(matches!(
            WeightedInstance::new(vec![1], vec![1, 0]),
            Err(Error::BadParameter { .. })
        ));
    }

    #[test]
    fn no_resources_rejected() {
        assert_eq!(
            WeightedInstance::new(vec![], vec![1]).unwrap_err(),
            Error::NoResources
        );
    }

    #[test]
    fn total_demand_beyond_u32_rejected() {
        // Σw = u32::MAX fits the load counters; one more unit does not
        let fits = WeightedInstance::new(vec![1], vec![u32::MAX]).unwrap();
        assert_eq!(fits.total_weight(), u32::MAX as u64);
        assert!(matches!(
            WeightedInstance::new(vec![1], vec![u32::MAX, 1]),
            Err(Error::BadParameter { .. })
        ));
    }

    #[test]
    fn unit_matches_uniform_semantics() {
        let w = WeightedInstance::unit(10, 4, 3).unwrap();
        assert_eq!(w.total_capacity(), 12);
        assert_eq!(w.total_weight(), 10);
        assert_eq!(w.max_weight(), 1);
        assert_eq!(w.instance(), &Instance::uniform(10, 4, 3).unwrap());
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn slack_factor_empty_panics() {
        let inst = WeightedInstance::new(vec![5], vec![]).unwrap();
        let _ = inst.slack_factor();
    }
}
