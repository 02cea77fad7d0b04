//! Migration protocol kernels.
//!
//! A protocol is the *local decision rule* of a user: given only the
//! congestion/capacity of its own resource and of one sampled resource, and
//! a private stream of random bits, decide whether to migrate. The kernels
//! are pure (no internal mutability), `Sync`, and consume randomness in a
//! **fixed draw order** — first the target sample, then the migration coin —
//! so that every executor reproduces identical trajectories from the same
//! seed (see `qlb-rng`).
//!
//! Implemented kernels, in increasing sophistication:
//!
//! | Kernel | Rule | Why it is here |
//! |---|---|---|
//! | [`BlindUniform`] | always move to the sample | strawman: herds and oscillates |
//! | [`ConditionalUniform`] | move iff the sample currently has room | still herds under concurrency |
//! | [`SlackDamped`] | move with probability `1 − x_q/c_q` | the paper's protocol \[reconstructed\] |
//! | [`SlackDampedCapacitySampling`] | as above, samples ∝ capacity | variant for skewed capacities |
//! | [`ThresholdLevels`] | slack-damped + round-robin class gating | heterogeneous QoS classes |
//!
//! The damping intuition: if `u` unsatisfied users each sample uniformly and
//! migrate to resource `q` with probability `(c_q − x_q)/c_q`, the expected
//! inflow into `q` is `u/m · (c_q − x_q)/c_q` — proportional to the free
//! capacity — so no resource overshoots in expectation, which is exactly the
//! property the herding strawmen lack.

mod blind;
mod block;
mod capacity_sampling;
mod conditional;
mod levels;
mod participation;
mod restricted;
mod slack;

pub use blind::BlindUniform;
pub use block::UserBlock;
pub use capacity_sampling::SlackDampedCapacitySampling;
pub use conditional::ConditionalUniform;
pub use levels::ThresholdLevels;
pub use participation::PartialParticipation;
pub use restricted::RestrictTargets;
pub use slack::SlackDamped;

use crate::ids::{ClassId, ResourceId, UserId};
use crate::instance::Instance;
use qlb_rng::{Rng64, RoundStream};

/// What a user sees about one resource: congestion plus the effective
/// capacity *for this user's class*. Nothing else is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceView {
    /// Which resource this view describes.
    pub id: ResourceId,
    /// Congestion (number of users, or their total demand for a weighted
    /// instance) at the start of the round.
    pub load: u32,
    /// Effective capacity for the observing user's class; `0` = unusable.
    pub cap: u32,
}

impl ResourceView {
    /// Free capacity `(c − x)⁺`.
    #[inline]
    pub fn slack(&self) -> u32 {
        self.cap.saturating_sub(self.load)
    }

    /// Would a user arriving here (alone) be satisfied, given start-of-round
    /// congestion? True iff `load < cap`.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.load < self.cap
    }
}

/// Everything a kernel may condition on: the acting user, the round, its own
/// resource and the sampled resource. Constructed by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalView {
    /// The acting user.
    pub user: UserId,
    /// The user's QoS class.
    pub class: ClassId,
    /// The user's demand: 1 in the unit model. A user fits on a resource
    /// iff its weight is at most the resource's slack.
    pub weight: u32,
    /// Synchronous round number.
    pub round: u64,
    /// The resource the user currently occupies.
    pub own: ResourceView,
    /// The resource the user sampled this round.
    pub target: ResourceView,
}

/// The outcome of a kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Remain on the current resource this round.
    Stay,
    /// Migrate to the sampled resource.
    Move,
}

/// How a protocol samples its candidate target resource.
///
/// Exposed so executors can report it and workload docs can reference it;
/// the actual sampling happens in [`Protocol::sample_target`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniform over all `m` resources.
    Uniform,
    /// Proportional to effective capacity of the user's class.
    CapacityProportional,
}

/// A migration protocol: the local decision rule executed by every
/// unsatisfied user once per round.
///
/// ## Executor contract (what makes runs reproducible)
///
/// For an unsatisfied user `u` in round `t` of run `seed`, the executor
/// creates `RoundStream::new(seed, u, t)` and calls, in order:
/// 1. [`Protocol::sample_target`] — consumes the stream's first draw(s);
/// 2. [`Protocol::decide`] — consumes subsequent draws.
///
/// Satisfied users consume **no** randomness. Executors must not reorder or
/// interleave draws; every `qlb-engine` executor follows this contract,
/// which is what experiment E10 verifies.
///
/// Production rounds decide through [`Protocol::decide_block`], whose
/// default runs exactly these steps per user.
pub trait Protocol: Sync {
    /// Short stable name used in tables and benchmark ids.
    fn name(&self) -> &'static str;

    /// The sampling strategy this protocol uses (for reporting).
    fn sampling(&self) -> SamplingStrategy {
        SamplingStrategy::Uniform
    }

    /// Sample the candidate target resource for this round.
    ///
    /// The default implementation samples uniformly from all `m` resources
    /// (the sample may equal the user's own resource — the kernel then
    /// naturally stays, which matches the anonymous sampling model).
    fn sample_target(
        &self,
        inst: &Instance,
        view_of_own: ResourceId,
        rng: &mut RoundStream,
    ) -> ResourceId {
        let _ = view_of_own;
        ResourceId(rng.uniform_usize(inst.num_resources()) as u32)
    }

    /// Decide whether to migrate, given the local view.
    fn decide(&self, view: &LocalView, rng: &mut RoundStream) -> Decision;

    /// Round gating for class-staged protocols: a user of class `k` only
    /// acts in rounds where this returns true. Default: always active.
    fn is_active(&self, class: ClassId, round: u64) -> bool {
        let _ = (class, round);
        true
    }

    /// Whether *satisfied* users also invoke the kernel. The paper's
    /// protocols never move satisfied users (default `false`); diffusion
    /// variants (e.g. topology-restricted balancing in `qlb-topo`) opt in
    /// to let satisfied users drift toward less-loaded neighbours, which is
    /// what unclogs sparse topologies. When `true`, satisfied users consume
    /// randomness like everyone else (the executors stay deterministic).
    fn acts_when_satisfied(&self) -> bool {
        false
    }

    /// Decide a block of unsatisfied users (see [`UserBlock`]): set
    /// `moves[i]` iff user `i` migrates this round, and then `targets[i]`
    /// to its new resource (the sampled target). A user that stays gets
    /// `moves[i] = false` and an unspecified `targets[i]`.
    ///
    /// The default runs [`decide_unsatisfied_user`] on each user, drawing
    /// its target over `0..k` instead of calling
    /// [`Protocol::sample_target`] when the block fixes a universe
    /// `Some(k)`. An override must decide draw-for-draw the same.
    ///
    /// # Panics
    /// Panics if `targets` or `moves` is shorter than the block, or if a
    /// per-user slice of the block is.
    ///
    /// [`decide_unsatisfied_user`]: crate::step::decide_unsatisfied_user
    fn decide_block(&self, block: &UserBlock<'_>, targets: &mut [ResourceId], moves: &mut [bool]) {
        block::decide_each(self, block, targets, moves)
    }
}

/// Instantiate every registered kernel for `inst`, boxed for uniform
/// iteration — the single source of truth for "all protocols" in executor
/// equivalence tests and experiments.
///
/// [`SlackDampedCapacitySampling`] needs a positive total capacity and is
/// skipped for degenerate instances. None of the registered kernels act
/// while satisfied, so all of them are sound under the sparse executor;
/// kernels that do opt in (e.g. graph diffusion in `qlb-topo`) live outside
/// this registry and fall back to dense execution automatically.
pub fn registry(inst: &Instance) -> Vec<Box<dyn Protocol>> {
    let mut kernels: Vec<Box<dyn Protocol>> = vec![
        Box::new(BlindUniform),
        Box::new(ConditionalUniform),
        Box::new(SlackDamped::default()),
        Box::new(ThresholdLevels::new(inst.num_classes().max(1) as u32)),
        Box::new(PartialParticipation::new(SlackDamped::default(), 0.5)),
    ];
    if inst.cap_row(ClassId(0)).iter().any(|&c| c > 0) {
        kernels.push(Box::new(SlackDampedCapacitySampling::new(inst)));
    }
    kernels
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Build a `LocalView` quickly in kernel unit tests.
    pub fn view(own_load: u32, own_cap: u32, tgt_load: u32, tgt_cap: u32) -> LocalView {
        LocalView {
            user: UserId(0),
            class: ClassId(0),
            weight: 1,
            round: 0,
            own: ResourceView {
                id: ResourceId(0),
                load: own_load,
                cap: own_cap,
            },
            target: ResourceView {
                id: ResourceId(1),
                load: tgt_load,
                cap: tgt_cap,
            },
        }
    }

    /// Empirical migration frequency of a kernel on a fixed view.
    pub fn move_frequency<P: Protocol>(p: &P, v: &LocalView, trials: u64) -> f64 {
        let mut moves = 0u64;
        for t in 0..trials {
            let mut rng = RoundStream::new(0xFEED, 7, t);
            if p.decide(v, &mut rng) == Decision::Move {
                moves += 1;
            }
        }
        moves as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::view;
    use super::*;

    #[test]
    fn resource_view_slack_and_room() {
        let v = ResourceView {
            id: ResourceId(0),
            load: 3,
            cap: 5,
        };
        assert_eq!(v.slack(), 2);
        assert!(v.has_room());
        let full = ResourceView {
            id: ResourceId(0),
            load: 5,
            cap: 5,
        };
        assert_eq!(full.slack(), 0);
        assert!(!full.has_room());
        let over = ResourceView {
            id: ResourceId(0),
            load: 7,
            cap: 5,
        };
        assert_eq!(over.slack(), 0);
        assert!(!over.has_room());
    }

    #[test]
    fn default_sampler_is_uniform_over_m() {
        let inst = Instance::uniform(10, 8, 2).unwrap();
        let p = SlackDamped::default();
        let mut counts = vec![0u32; 8];
        for u in 0..80_000u64 {
            let mut rng = RoundStream::new(3, u, 0);
            let r = p.sample_target(&inst, ResourceId(0), &mut rng);
            counts[r.index()] += 1;
        }
        let expected = 10_000.0;
        for &c in &counts {
            assert!(((c as f64 - expected) / expected).abs() < 0.05);
        }
    }

    #[test]
    fn draw_order_is_stable() {
        // The contract: sample_target consumes exactly one draw for uniform
        // protocols, so decide sees the second draw. Freeze this.
        let inst = Instance::uniform(10, 8, 2).unwrap();
        let p = SlackDamped::default();
        let mut rng = RoundStream::new(3, 5, 9);
        let _ = p.sample_target(&inst, ResourceId(0), &mut rng);
        assert_eq!(rng.draws(), 1);
        // Half-full target (p = 0.5) forces the migration coin: exactly one
        // more draw.
        let v = view(9, 2, 1, 2);
        let _ = p.decide(&v, &mut rng);
        assert_eq!(rng.draws(), 2);
    }
}
