//! Target-restricted wrapper: confine a kernel's sampling to a prefix of
//! the resource set.
//!
//! Open-system drivers augment the instance with a virtual **parking**
//! resource of infinite capacity at index `m` (see
//! [`Instance::with_parking`](crate::Instance::with_parking)). The default
//! [`Protocol::sample_target`] samples uniformly over *all*
//! `inst.num_resources()` resources — including parking — so an unwrapped
//! kernel would occasionally "migrate" a live user into the parking lot,
//! silently removing it from service. [`RestrictTargets`] fixes the
//! sampling universe to the first `real` resources while delegating every
//! decision to the inner kernel, preserving the executor draw-order
//! contract (one uniform draw for the target, then the kernel's coins).
//! Blocks go to the inner kernel's [`Protocol::decide_block`] with `real`
//! as their sampling universe, so a wrapped [`SlackDamped`](super::SlackDamped)
//! decides in its batched pass.

use super::{Decision, LocalView, Protocol, SamplingStrategy, UserBlock};
use crate::ids::{ClassId, ResourceId};
use crate::instance::Instance;
use qlb_rng::{Rng64, RoundStream};

/// A [`Protocol`] adaptor that samples targets uniformly from the first
/// `real` resources only, delegating the migration decision (and round
/// gating) to the wrapped kernel.
///
/// Only uniform-sampling kernels can be wrapped: a capacity-proportional
/// sampler owns its target distribution, and silently replacing it would
/// change the protocol. The constructor enforces this.
#[derive(Debug, Clone)]
pub struct RestrictTargets<P: Protocol + ?Sized> {
    real: usize,
    inner: Box<P>,
}

impl<P: Protocol + ?Sized> RestrictTargets<P> {
    /// Wrap `inner`, restricting target sampling to resources `0..real`.
    ///
    /// # Panics
    /// Panics if `real` is zero or if `inner` does not use
    /// [`SamplingStrategy::Uniform`].
    pub fn new(inner: Box<P>, real: usize) -> Self {
        assert!(real > 0, "need at least one sampleable resource");
        assert!(
            inner.sampling() == SamplingStrategy::Uniform,
            "RestrictTargets only wraps uniform-sampling kernels (got {})",
            inner.name()
        );
        Self { real, inner }
    }

    /// The size of the restricted sampling universe.
    pub fn real_resources(&self) -> usize {
        self.real
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol + ?Sized> RestrictTargets<P> {
    /// The per-user rule, borrowed.
    fn borrowed(&self) -> Restricted<'_, P> {
        Restricted {
            inner: &self.inner,
            real: self.real,
        }
    }
}

impl<P: Protocol + ?Sized> Protocol for RestrictTargets<P> {
    fn name(&self) -> &'static str {
        self.borrowed().name()
    }

    fn sampling(&self) -> SamplingStrategy {
        self.borrowed().sampling()
    }

    fn sample_target(&self, inst: &Instance, own: ResourceId, rng: &mut RoundStream) -> ResourceId {
        self.borrowed().sample_target(inst, own, rng)
    }

    fn decide(&self, view: &LocalView, rng: &mut RoundStream) -> Decision {
        self.borrowed().decide(view, rng)
    }

    fn is_active(&self, class: ClassId, round: u64) -> bool {
        self.borrowed().is_active(class, round)
    }

    fn acts_when_satisfied(&self) -> bool {
        self.borrowed().acts_when_satisfied()
    }

    /// The inner kernel's block decision over the universe `0..real`, or
    /// over an enclosing wrapper's universe, whose sampling replaces this
    /// one's.
    fn decide_block(&self, block: &UserBlock<'_>, targets: &mut [ResourceId], moves: &mut [bool]) {
        let universe = block.universe.or(Some(self.real));
        let block = UserBlock { universe, ..*block };
        self.inner.decide_block(&block, targets, moves)
    }
}

/// `inner` with its target drawn uniformly from resources `0..real`: the
/// per-user rule of [`RestrictTargets`], over a borrowed kernel, and what
/// the default [`Protocol::decide_block`] runs per user of a block with a
/// fixed [`UserBlock::universe`].
pub(super) struct Restricted<'a, P: ?Sized> {
    pub(super) inner: &'a P,
    pub(super) real: usize,
}

impl<P: Protocol + ?Sized> Protocol for Restricted<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sampling(&self) -> SamplingStrategy {
        SamplingStrategy::Uniform
    }

    fn sample_target(&self, _: &Instance, _: ResourceId, rng: &mut RoundStream) -> ResourceId {
        ResourceId(rng.uniform_usize(self.real) as u32)
    }

    fn decide(&self, view: &LocalView, rng: &mut RoundStream) -> Decision {
        self.inner.decide(view, rng)
    }

    fn is_active(&self, class: ClassId, round: u64) -> bool {
        self.inner.is_active(class, round)
    }

    fn acts_when_satisfied(&self) -> bool {
        self.inner.acts_when_satisfied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BlindUniform, SlackDamped, SlackDampedCapacitySampling};

    #[test]
    fn samples_stay_inside_the_real_prefix() {
        // 8 real resources + 1 parking at index 8
        let inst = Instance::uniform(16, 9, 100).unwrap();
        let p: RestrictTargets<dyn Protocol> =
            RestrictTargets::new(Box::new(SlackDamped::default()), 8);
        for round in 0..200 {
            let mut rng = RoundStream::new(42, 3, round);
            let t = p.sample_target(&inst, ResourceId(0), &mut rng);
            assert!(t.index() < 8, "sampled parking at round {round}");
        }
    }

    #[test]
    fn delegates_decide_to_inner_kernel() {
        let p = RestrictTargets::new(Box::new(BlindUniform), 4);
        let v = crate::protocol::test_support::view(5, 4, 0, 4);
        let mut rng = RoundStream::new(1, 1, 1);
        // blind always moves
        assert_eq!(p.decide(&v, &mut rng), Decision::Move);
        assert_eq!(p.name(), BlindUniform.name());
        assert!(!p.acts_when_satisfied());
    }

    #[test]
    #[should_panic(expected = "uniform-sampling")]
    fn rejects_capacity_samplers() {
        let inst = Instance::uniform(4, 4, 5).unwrap();
        let _ = RestrictTargets::new(Box::new(SlackDampedCapacitySampling::new(&inst)), 4);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_universe() {
        let _ = RestrictTargets::new(Box::new(SlackDamped::default()), 0);
    }
}
