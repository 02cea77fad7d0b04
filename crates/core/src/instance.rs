//! The static problem description: resources, users, QoS classes.
//!
//! Everything a protocol may legally know about the world is derived from
//! the **effective-capacity table** `eff_cap[class][resource]`: a user of
//! class `k` on resource `r` is satisfied iff the congestion `x_r` satisfies
//! `x_r ≤ eff_cap[k][r]`. The table unifies the three model flavours:
//!
//! * **homogeneous capacities** (the paper's base model): one class,
//!   `eff_cap[0][r] = c_r`;
//! * **latency thresholds** (heterogeneous QoS): class `k` has threshold
//!   `T_k`, resource `r` speed `s_r`, and `eff_cap[k][r] = ⌊T_k · s_r⌋`
//!   (latency `x/s ≤ T ⟺ x ≤ ⌊T·s⌋`);
//! * **eligibility**: class `k` may only use a permitted subset of
//!   resources; `eff_cap[k][r] = c_r` if permitted, else `0`. This flavour
//!   admits an *exact* polynomial feasibility oracle via max-flow (see
//!   `qlb-flow`), whereas exact feasibility for general latency thresholds
//!   is (weakly) NP-hard — a subset-sum argument, documented in `DESIGN.md`.
//!
//! The table is stored flat (`Vec<u32>`, stride `m`) so the satisfaction
//! check on the hot path is one multiply-add plus one load.

use crate::error::{Error, Result};
use crate::ids::{ClassId, ResourceId, UserId};
use serde::{Deserialize, Serialize};

/// A resource: a server/link/channel with a processing speed.
///
/// The speed only matters through the derived effective capacities; it is
/// retained for reporting and for workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Resource {
    /// Processing speed `s_r > 0`; latency at congestion `x` is `x / s_r`.
    pub speed: f64,
}

/// A QoS class: a group of users sharing a latency threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosClass {
    /// Latency threshold `T_k > 0`; smaller is stricter.
    pub threshold: f64,
}

/// An immutable QoS load-balancing instance.
///
/// Construct via [`Instance::uniform`], [`Instance::with_capacities`], or
/// the general [`InstanceBuilder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    resources: Vec<Resource>,
    classes: Vec<QosClass>,
    /// Number of users `n`.
    n: usize,
    /// `class_of[u]` = QoS class of user `u`, for multi-class instances
    /// only: a one-class instance holds no per-user array (every user is
    /// class 0), which saves 4 B per user.
    pub(crate) class_of: Vec<ClassId>,
    /// Flattened `eff_cap[k * m + r]`.
    eff_cap: Vec<u32>,
}

impl Instance {
    // ------------------------------------------------------------------
    // constructors
    // ------------------------------------------------------------------

    /// The paper's base model: `n` users, `m` identical resources of
    /// capacity `cap` each, a single QoS class.
    ///
    /// ```
    /// use qlb_core::Instance;
    /// let inst = Instance::uniform(100, 10, 13).unwrap();
    /// assert_eq!(inst.total_capacity(), 130);
    /// assert!(inst.counting_feasible());
    /// ```
    pub fn uniform(n: usize, m: usize, cap: u32) -> Result<Instance> {
        Self::with_capacities(n, vec![cap; m])
    }

    /// Single-class instance with per-resource capacities `caps`.
    ///
    /// Resource speeds are set to `caps[r]` and the class threshold to 1, so
    /// the latency view (`x_r / s_r ≤ 1`) and the capacity view
    /// (`x_r ≤ c_r`) coincide.
    pub fn with_capacities(n: usize, caps: Vec<u32>) -> Result<Instance> {
        if caps.is_empty() {
            return Err(Error::NoResources);
        }
        let resources = caps.iter().map(|&c| Resource { speed: c as f64 }).collect();
        Ok(Instance {
            resources,
            classes: vec![QosClass { threshold: 1.0 }],
            n,
            class_of: Vec::new(),
            eff_cap: caps,
        })
    }

    /// Augment this instance with one **parking** resource of effectively
    /// infinite capacity (`u32::MAX` for every class), appended at index
    /// `m`, and optionally grow the user pool by `extra[k]` users of class
    /// `k` (appended after the existing users, so existing user ids are
    /// unchanged).
    ///
    /// This is the open-system "parking trick" as an instance transform:
    /// users assigned to the parking resource are always satisfied and
    /// never act, so a driver can model arrivals as reassignments out of
    /// parking and departures as reassignments back — see
    /// `qlb-engine::open` and the `qlb-serve` daemon.
    ///
    /// # Errors
    /// [`Error::BadParameter`] if `extra` is non-empty and its length is
    /// not the class count.
    pub fn with_parking(&self, extra: &[usize]) -> Result<Instance> {
        let kk = self.num_classes();
        if !extra.is_empty() && extra.len() != kk {
            return Err(Error::BadParameter {
                detail: format!("extra has {} entries for {kk} classes", extra.len()),
            });
        }
        let m = self.num_resources();
        let grown: usize = self.num_users() + extra.iter().sum::<usize>();
        if u32::try_from(grown).is_err() {
            return Err(Error::BadParameter {
                detail: format!("{grown} users exceed the 32-bit user-id space"),
            });
        }
        let mut resources = self.resources.clone();
        resources.push(Resource {
            speed: u32::MAX as f64,
        });
        // Re-flatten row-major with the parking column appended per class.
        let mut eff_cap = Vec::with_capacity(kk * (m + 1));
        for k in 0..kk {
            eff_cap.extend_from_slice(&self.eff_cap[k * m..(k + 1) * m]);
            eff_cap.push(u32::MAX);
        }
        let mut class_of = self.class_of.clone();
        if kk > 1 {
            for (k, &count) in extra.iter().enumerate() {
                class_of.extend(std::iter::repeat_n(ClassId(k as u32), count));
            }
        }
        Ok(Instance {
            resources,
            classes: self.classes.clone(),
            n: grown,
            class_of,
            eff_cap,
        })
    }

    /// A copy of this instance with resource `r` drained: its effective
    /// capacity is zeroed for **every** class, so no user is ever satisfied
    /// there and load-aware protocols never migrate onto it. Occupants of a
    /// drained resource become unsatisfied and the sampling protocol walks
    /// them off — this is how `qlb-serve` retires a resource without a
    /// dedicated migration code path.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn with_resource_drained(&self, r: ResourceId) -> Instance {
        let m = self.num_resources();
        assert!(r.index() < m, "resource {} out of range", r.index());
        let mut drained = self.clone();
        for k in 0..self.num_classes() {
            drained.eff_cap[k * m + r.index()] = 0;
        }
        drained
    }

    // ------------------------------------------------------------------
    // dimensions
    // ------------------------------------------------------------------

    /// Number of users `n`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.n
    }

    /// Number of resources `m`.
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of QoS classes `K` (1 in the homogeneous model).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    // ------------------------------------------------------------------
    // hot-path accessors
    // ------------------------------------------------------------------

    /// Effective capacity of resource `r` for class `k`: the largest
    /// congestion at which a class-`k` user on `r` is still satisfied.
    /// `0` means the resource can never satisfy that class.
    #[inline]
    pub fn cap(&self, k: ClassId, r: ResourceId) -> u32 {
        debug_assert!(k.index() < self.num_classes());
        debug_assert!(r.index() < self.num_resources());
        self.eff_cap[k.index() * self.num_resources() + r.index()]
    }

    /// The full effective-capacity row of class `k` (length `m`).
    #[inline]
    pub fn cap_row(&self, k: ClassId) -> &[u32] {
        let m = self.num_resources();
        &self.eff_cap[k.index() * m..(k.index() + 1) * m]
    }

    /// The whole flattened effective-capacity table (`K · m` entries,
    /// row-major by class). This is the raw input format of the oracles in
    /// `qlb-flow`.
    #[inline]
    pub fn eff_cap_table(&self) -> &[u32] {
        &self.eff_cap
    }

    /// Capacity of `r` in the single-class view (class 0). For multi-class
    /// instances this is the capacity as seen by class 0.
    #[inline]
    pub fn capacity(&self, r: ResourceId) -> u32 {
        self.cap(ClassId(0), r)
    }

    /// QoS class of user `u`.
    #[inline]
    pub fn class_of(&self, u: UserId) -> ClassId {
        if self.classes.len() == 1 {
            debug_assert!(u.index() < self.n, "{u} out of range");
            ClassId(0)
        } else {
            self.class_of[u.index()]
        }
    }

    /// The class ids of users `lo..hi`, or `None` for a one-class
    /// instance, whose users are all class 0.
    #[inline]
    pub(crate) fn class_range(&self, lo: usize, hi: usize) -> Option<&[ClassId]> {
        (self.classes.len() > 1).then(|| &self.class_of[lo..hi])
    }

    /// A class-`k` user is satisfied on `r` at congestion `load` iff
    /// `load ≤ eff_cap[k][r]` and the resource is usable at all.
    #[inline]
    pub fn satisfies(&self, k: ClassId, r: ResourceId, load: u32) -> bool {
        let c = self.cap(k, r);
        c > 0 && load <= c
    }

    // ------------------------------------------------------------------
    // metadata accessors
    // ------------------------------------------------------------------

    /// The resource descriptors.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// The QoS class descriptors.
    pub fn classes(&self) -> &[QosClass] {
        &self.classes
    }

    /// Iterator over all user ids.
    pub fn users(&self) -> impl ExactSizeIterator<Item = UserId> {
        (0..self.num_users() as u32).map(UserId)
    }

    /// Iterator over all resource ids.
    pub fn resource_ids(&self) -> impl ExactSizeIterator<Item = ResourceId> {
        (0..self.num_resources() as u32).map(ResourceId)
    }

    /// Number of users in each class (length `K`).
    pub fn class_sizes(&self) -> Vec<usize> {
        if self.num_classes() == 1 {
            return vec![self.n];
        }
        let mut sizes = vec![0usize; self.num_classes()];
        for &k in &self.class_of {
            sizes[k.index()] += 1;
        }
        sizes
    }

    // ------------------------------------------------------------------
    // feasibility accounting
    // ------------------------------------------------------------------

    /// Total capacity available to class `k`: `Σ_r eff_cap[k][r]`.
    pub fn total_capacity_for(&self, k: ClassId) -> u64 {
        self.cap_row(k).iter().map(|&c| c as u64).sum()
    }

    /// Total capacity in the single-class view.
    pub fn total_capacity(&self) -> u64 {
        self.total_capacity_for(ClassId(0))
    }

    /// Absolute slack `Δ = Σ_r c_r − n` of the single-class view
    /// (negative means infeasible).
    pub fn slack(&self) -> i64 {
        self.total_capacity() as i64 - self.num_users() as i64
    }

    /// Slack factor `γ = Σ_r c_r / n` of the single-class view.
    ///
    /// # Panics
    /// Panics if the instance has no users.
    pub fn slack_factor(&self) -> f64 {
        assert!(self.num_users() > 0, "slack factor undefined for n = 0");
        self.total_capacity() as f64 / self.num_users() as f64
    }

    /// Exact feasibility test for single-class instances:
    /// a legal state exists iff `Σ_r c_r ≥ n`.
    ///
    /// For multi-class instances this method returns the class-0 counting
    /// condition only; use [`Instance::counting_feasible`] (necessary
    /// condition) or the exact oracles in `qlb-flow`.
    pub fn single_class_feasible(&self) -> bool {
        self.total_capacity() >= self.num_users() as u64
    }

    /// The *counting bound*: a necessary condition for feasibility.
    ///
    /// For every subset `S` of classes, the users of `S` can only be served
    /// by capacity usable by *some* class in `S`, hence
    /// `Σ_{k∈S} n_k ≤ Σ_r max_{k∈S} eff_cap[k][r]` must hold. With one
    /// class this is exact; with several it is necessary but not sufficient
    /// (experiment E11 quantifies the gap against the exact flow oracle).
    ///
    /// Runs in `O(2^K · m)`; `K` is small (≤ 16 enforced by the builder).
    pub fn counting_feasible(&self) -> bool {
        let kk = self.num_classes();
        debug_assert!(kk <= 16);
        let sizes = self.class_sizes();
        let m = self.num_resources();
        for mask in 1u32..(1 << kk) {
            let need: u64 = (0..kk)
                .filter(|k| mask & (1 << k) != 0)
                .map(|k| sizes[k] as u64)
                .sum();
            let mut have = 0u64;
            for r in 0..m {
                let best = (0..kk)
                    .filter(|k| mask & (1 << k) != 0)
                    .map(|k| self.eff_cap[k * m + r])
                    .max()
                    .unwrap_or(0);
                have += best as u64;
            }
            if need > have {
                return false;
            }
        }
        true
    }

    /// Validate an assignment vector: correct length, indices in range.
    pub fn validate_assignment(&self, assignment: &[ResourceId]) -> Result<()> {
        if assignment.len() != self.num_users() {
            return Err(Error::BadAssignment {
                detail: format!(
                    "assignment has {} entries for {} users",
                    assignment.len(),
                    self.num_users()
                ),
            });
        }
        for (u, &r) in assignment.iter().enumerate() {
            if r.index() >= self.num_resources() {
                return Err(Error::BadAssignment {
                    detail: format!("user u{u} assigned to out-of-range {r}"),
                });
            }
        }
        Ok(())
    }
}

/// Per-user demand on top of an [`Instance`]: the one model behind the
/// unit and the weighted runs.
///
/// A user of demand `w_u` adds `w_u` to its resource's load, and is
/// satisfied iff that total load is within its effective capacity. The
/// unit model is the special case `w_u = 1`: [`Instance`] implements this
/// trait with a constant weight and `UNIT = true`, so the generic state,
/// index, view and round kernels compile to the unit code exactly.
/// `WeightedInstance` (in `crate::weighted`) carries a weight vector.
///
/// Protocols still receive the plain [`Instance`] (via
/// [`Demands::instance`]) plus the acting user's weight in its
/// `LocalView`, which keeps `dyn Protocol` usable.
pub trait Demands: Sync {
    /// True iff every user has demand 1 — a compile-time switch for the
    /// `O(m)` paths that count users by summing loads.
    const UNIT: bool;

    /// The capacities, classes and user count.
    fn instance(&self) -> &Instance;

    /// Demand of user `u`.
    fn weight(&self, u: UserId) -> u32;
}

impl Demands for Instance {
    const UNIT: bool = true;

    #[inline]
    fn instance(&self) -> &Instance {
        self
    }

    #[inline]
    fn weight(&self, _u: UserId) -> u32 {
        1
    }
}

/// Builder for multi-class instances.
///
/// ```
/// use qlb_core::{InstanceBuilder, ClassId, ResourceId};
///
/// // 3 fast and 3 slow servers; a strict and a lenient class.
/// let inst = InstanceBuilder::new()
///     .speeds(vec![8.0, 8.0, 8.0, 2.0, 2.0, 2.0])
///     .latency_class(1.0, 10) // 10 users must see latency ≤ 1.0
///     .latency_class(4.0, 20) // 20 users tolerate latency ≤ 4.0
///     .build()
///     .unwrap();
/// assert_eq!(inst.num_users(), 30);
/// assert_eq!(inst.num_classes(), 2);
/// // strict class: ⌊1.0·8⌋ = 8 on fast, ⌊1.0·2⌋ = 2 on slow
/// assert_eq!(inst.cap(ClassId(0), ResourceId(0)), 8);
/// assert_eq!(inst.cap(ClassId(0), ResourceId(3)), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    speeds: Vec<f64>,
    /// (threshold, user count, permitted predicate threshold on speed)
    classes: Vec<BuilderClass>,
}

#[derive(Debug, Clone)]
struct BuilderClass {
    threshold: f64,
    count: usize,
    /// Eligibility flavour: minimum speed required; `None` = pure latency.
    min_speed: Option<f64>,
    /// Eligibility flavour: fixed capacity override (use resource speed as
    /// capacity when `None`).
    fixed_cap_from_speed: bool,
}

impl InstanceBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the resource speeds (defines `m`).
    pub fn speeds(mut self, speeds: Vec<f64>) -> Self {
        self.speeds = speeds;
        self
    }

    /// Add a latency-threshold class: `count` users that are satisfied on
    /// `r` iff `x_r ≤ ⌊threshold · s_r⌋`.
    pub fn latency_class(mut self, threshold: f64, count: usize) -> Self {
        self.classes.push(BuilderClass {
            threshold,
            count,
            min_speed: None,
            fixed_cap_from_speed: false,
        });
        self
    }

    /// Add an eligibility class: `count` users that may only use resources
    /// with `s_r ≥ min_speed`, where every permitted resource offers its
    /// full integer capacity `⌊s_r⌋`. This is the flavour with an exact
    /// polynomial feasibility oracle (`qlb-flow`).
    pub fn eligibility_class(mut self, min_speed: f64, count: usize) -> Self {
        self.classes.push(BuilderClass {
            threshold: 1.0,
            count,
            min_speed: Some(min_speed),
            fixed_cap_from_speed: true,
        });
        self
    }

    /// Finalize. Users are laid out class-contiguously: class 0 first.
    ///
    /// # Errors
    /// * [`Error::NoResources`] if no speeds were given;
    /// * [`Error::BadParameter`] for non-positive speeds/thresholds, zero
    ///   classes, or more than 16 classes (the counting bound enumerates
    ///   class subsets).
    pub fn build(self) -> Result<Instance> {
        if self.speeds.is_empty() {
            return Err(Error::NoResources);
        }
        if self.classes.is_empty() {
            return Err(Error::BadParameter {
                detail: "at least one class is required".into(),
            });
        }
        if self.classes.len() > 16 {
            return Err(Error::BadParameter {
                detail: format!("{} classes exceed the supported 16", self.classes.len()),
            });
        }
        // user ids and load counters are 32-bit: reject sizes that would
        // silently wrap in the `as u32` id derivations downstream
        let n: usize = self.classes.iter().map(|c| c.count).sum();
        if u32::try_from(n).is_err() {
            return Err(Error::BadParameter {
                detail: format!("{n} users exceed the 32-bit user-id space"),
            });
        }
        if u32::try_from(self.speeds.len()).is_err() {
            return Err(Error::BadParameter {
                detail: format!(
                    "{} resources exceed the 32-bit resource-id space",
                    self.speeds.len()
                ),
            });
        }
        for &s in &self.speeds {
            if s <= 0.0 || s.is_nan() || !s.is_finite() {
                return Err(Error::BadParameter {
                    detail: format!("speed {s} must be positive and finite"),
                });
            }
        }
        let m = self.speeds.len();
        let kk = self.classes.len();
        let mut eff_cap = Vec::with_capacity(kk * m);
        for c in &self.classes {
            if c.threshold <= 0.0 || c.threshold.is_nan() || !c.threshold.is_finite() {
                return Err(Error::BadParameter {
                    detail: format!("threshold {} must be positive and finite", c.threshold),
                });
            }
            for &s in &self.speeds {
                let permitted = c.min_speed.is_none_or(|min| s >= min);
                let cap = if !permitted {
                    0
                } else if c.fixed_cap_from_speed {
                    s.floor() as u32
                } else {
                    (c.threshold * s).floor().min(u32::MAX as f64) as u32
                };
                eff_cap.push(cap);
            }
        }
        let mut class_of = Vec::new();
        if self.classes.len() > 1 {
            for (k, c) in self.classes.iter().enumerate() {
                class_of.extend(std::iter::repeat_n(ClassId(k as u32), c.count));
            }
        }
        Ok(Instance {
            resources: self.speeds.iter().map(|&s| Resource { speed: s }).collect(),
            classes: self
                .classes
                .iter()
                .map(|c| QosClass {
                    threshold: c.threshold,
                })
                .collect(),
            n,
            class_of,
            eff_cap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_basics() {
        let inst = Instance::uniform(100, 10, 13).unwrap();
        assert_eq!(inst.num_users(), 100);
        assert_eq!(inst.num_resources(), 10);
        assert_eq!(inst.num_classes(), 1);
        assert_eq!(inst.total_capacity(), 130);
        assert_eq!(inst.slack(), 30);
        assert!((inst.slack_factor() - 1.3).abs() < 1e-12);
        assert!(inst.single_class_feasible());
        assert!(inst.counting_feasible());
        for r in inst.resource_ids() {
            assert_eq!(inst.capacity(r), 13);
        }
    }

    #[test]
    fn empty_resources_rejected() {
        assert_eq!(
            Instance::with_capacities(5, vec![]).unwrap_err(),
            Error::NoResources
        );
    }

    #[test]
    fn zero_users_allowed() {
        let inst = Instance::uniform(0, 3, 2).unwrap();
        assert_eq!(inst.num_users(), 0);
        assert!(inst.single_class_feasible());
    }

    #[test]
    fn infeasible_counting() {
        let inst = Instance::uniform(100, 10, 5).unwrap(); // cap 50 < 100
        assert!(!inst.single_class_feasible());
        assert!(!inst.counting_feasible());
        assert_eq!(inst.slack(), -50);
    }

    #[test]
    fn heterogeneous_capacities() {
        let inst = Instance::with_capacities(10, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(inst.total_capacity(), 10);
        assert_eq!(inst.slack(), 0);
        assert_eq!(inst.capacity(ResourceId(2)), 3);
    }

    #[test]
    fn latency_classes_effective_caps() {
        let inst = InstanceBuilder::new()
            .speeds(vec![8.0, 2.0])
            .latency_class(1.0, 4)
            .latency_class(2.5, 6)
            .build()
            .unwrap();
        // class 0: floor(1.0*8)=8, floor(1.0*2)=2
        assert_eq!(inst.cap(ClassId(0), ResourceId(0)), 8);
        assert_eq!(inst.cap(ClassId(0), ResourceId(1)), 2);
        // class 1: floor(2.5*8)=20, floor(2.5*2)=5
        assert_eq!(inst.cap(ClassId(1), ResourceId(0)), 20);
        assert_eq!(inst.cap(ClassId(1), ResourceId(1)), 5);
        // users laid out class-contiguously
        assert_eq!(inst.class_of(UserId(0)), ClassId(0));
        assert_eq!(inst.class_of(UserId(3)), ClassId(0));
        assert_eq!(inst.class_of(UserId(4)), ClassId(1));
        assert_eq!(inst.class_sizes(), vec![4, 6]);
    }

    #[test]
    fn eligibility_class_zeroes_forbidden_resources() {
        let inst = InstanceBuilder::new()
            .speeds(vec![8.0, 2.0])
            .eligibility_class(4.0, 3)
            .build()
            .unwrap();
        assert_eq!(inst.cap(ClassId(0), ResourceId(0)), 8);
        assert_eq!(inst.cap(ClassId(0), ResourceId(1)), 0);
        assert!(!inst.satisfies(ClassId(0), ResourceId(1), 0));
        assert!(inst.satisfies(ClassId(0), ResourceId(0), 8));
        assert!(!inst.satisfies(ClassId(0), ResourceId(0), 9));
    }

    #[test]
    fn counting_bound_multi_class() {
        // 2 resources of speed 4; strict class needs cap 4 each, both
        // classes together need 10 > 8 → infeasible by counting.
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0])
            .latency_class(1.0, 5)
            .latency_class(1.0, 5)
            .build()
            .unwrap();
        assert!(!inst.counting_feasible());

        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0])
            .latency_class(1.0, 4)
            .latency_class(1.0, 4)
            .build()
            .unwrap();
        assert!(inst.counting_feasible());
    }

    #[test]
    fn counting_bound_uses_max_over_subset() {
        // One resource speed 10. Strict class cap 5 (T=0.5), lenient cap 10.
        // 10 lenient users alone: fits (10 ≤ 10). Subset {strict}: 0 ≤ 5.
        // Subset {both}: 10 ≤ max(5,10) = 10. Feasible by counting.
        let inst = InstanceBuilder::new()
            .speeds(vec![10.0])
            .latency_class(0.5, 0)
            .latency_class(1.0, 10)
            .build()
            .unwrap();
        assert!(inst.counting_feasible());
    }

    #[test]
    fn builder_rejects_bad_params() {
        assert!(InstanceBuilder::new().build().is_err());
        assert!(InstanceBuilder::new().speeds(vec![1.0]).build().is_err());
        assert!(InstanceBuilder::new()
            .speeds(vec![0.0])
            .latency_class(1.0, 1)
            .build()
            .is_err());
        assert!(InstanceBuilder::new()
            .speeds(vec![1.0])
            .latency_class(-1.0, 1)
            .build()
            .is_err());
        let mut b = InstanceBuilder::new().speeds(vec![1.0]);
        for _ in 0..17 {
            b = b.latency_class(1.0, 1);
        }
        assert!(b.build().is_err());
    }

    #[test]
    fn validate_assignment_errors() {
        let inst = Instance::uniform(3, 2, 5).unwrap();
        assert!(inst.validate_assignment(&[ResourceId(0); 3]).is_ok());
        assert!(inst.validate_assignment(&[ResourceId(0); 2]).is_err());
        assert!(inst
            .validate_assignment(&[ResourceId(0), ResourceId(1), ResourceId(2)])
            .is_err());
    }

    #[test]
    fn cap_row_slices_are_per_class() {
        let inst = InstanceBuilder::new()
            .speeds(vec![1.0, 2.0, 3.0])
            .latency_class(1.0, 1)
            .latency_class(2.0, 1)
            .build()
            .unwrap();
        assert_eq!(inst.cap_row(ClassId(0)), &[1, 2, 3]);
        assert_eq!(inst.cap_row(ClassId(1)), &[2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "slack factor undefined")]
    fn slack_factor_panics_on_empty() {
        let inst = Instance::uniform(0, 1, 1).unwrap();
        let _ = inst.slack_factor();
    }

    #[test]
    fn with_parking_appends_infinite_resource_and_users() {
        let inst = InstanceBuilder::new()
            .speeds(vec![1.0, 2.0, 3.0])
            .latency_class(1.0, 2)
            .latency_class(2.0, 1)
            .build()
            .unwrap();
        let parked = inst.with_parking(&[3, 0]).unwrap();
        let m = inst.num_resources();
        assert_eq!(parked.num_resources(), m + 1);
        assert_eq!(parked.num_users(), 6);
        assert_eq!(parked.num_classes(), 2);
        // existing capacities carry over per class, parking is u32::MAX
        assert_eq!(parked.cap_row(ClassId(0)), &[1, 2, 3, u32::MAX]);
        assert_eq!(parked.cap_row(ClassId(1)), &[2, 4, 6, u32::MAX]);
        // existing user classes unchanged; extras appended to class 0
        assert_eq!(parked.class_of(UserId(0)), ClassId(0));
        assert_eq!(parked.class_of(UserId(2)), ClassId(1));
        assert_eq!(parked.class_of(UserId(5)), ClassId(0));
        // parking satisfies every class at any load
        let parking = ResourceId(m as u32);
        assert!(parked.satisfies(ClassId(0), parking, u32::MAX));
        assert!(parked.satisfies(ClassId(1), parking, u32::MAX));
        // class-count mismatch is rejected
        assert!(inst.with_parking(&[1]).is_err());
        // empty extra keeps the pool size
        assert_eq!(inst.with_parking(&[]).unwrap().num_users(), 3);
    }

    #[test]
    fn with_resource_drained_zeroes_every_class() {
        let inst = InstanceBuilder::new()
            .speeds(vec![1.0, 2.0, 3.0])
            .latency_class(1.0, 1)
            .latency_class(2.0, 1)
            .build()
            .unwrap();
        let drained = inst.with_resource_drained(ResourceId(1));
        assert_eq!(drained.cap_row(ClassId(0)), &[1, 0, 3]);
        assert_eq!(drained.cap_row(ClassId(1)), &[2, 0, 6]);
        assert!(!drained.satisfies(ClassId(0), ResourceId(1), 0));
        // the original is untouched
        assert_eq!(inst.cap(ClassId(0), ResourceId(1)), 2);
    }
}
