//! The paper's protocol: slack-proportional damped migration.

use super::block::{decide_each, decide_one};
use super::{Decision, LocalView, Protocol, UserBlock};
use crate::ids::{ClassId, ResourceId};
use qlb_rng::{unit_f64, Rng64, RoundStream};

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
/// herding. It is set only through [`SlackDamped::with_damping`], which
/// keeps it positive and finite.
///
/// ### Block decisions
///
/// [`Protocol::decide_block`] decides a whole block in one branch-free
/// pass: draws 0 and 1 of every user, the target by Lemire's method from a
/// 64×32-bit high product, the fit test and the coin, with gathered loads
/// and capacities. A user whose draw 0 lands in Lemire's rejection zone
/// (the low product word below the sampling range) is redone by the
/// per-user step, which redraws. The pass is compiled for AVX-512F/DQ/VL
/// (eight or sixteen lanes per instruction) and picked at run time; on any
/// other CPU the block runs the per-user default, since the pass compiled
/// for AVX2 or baseline x86-64 is no faster than it.
#[derive(Debug, Clone, Copy)]
pub struct SlackDamped {
    /// Multiplier on the migration probability; default 1.0.
    damping: f64,
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

    /// The multiplier on the migration probability.
    pub fn damping(&self) -> f64 {
        self.damping
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

    fn decide_block(&self, block: &UserBlock<'_>, targets: &mut [ResourceId], moves: &mut [bool]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: the CPU supports AVX-512F, DQ and VL (checked above).
            return unsafe { decide_avx512(self.damping, block, targets, moves) };
        }
        decide_each(self, block, targets, moves)
    }
}

/// The target a lane writes when its draw 0 needs Lemire's rejection step;
/// never a resource, since the sampling range fits a `u32`.
const REJECTED: u32 = u32::MAX;

/// [`lanes`] compiled for AVX-512F, DQ and VL; call only on a CPU that has
/// all three.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn decide_avx512(
    damping: f64,
    block: &UserBlock<'_>,
    targets: &mut [ResourceId],
    moves: &mut [bool],
) {
    lanes(damping, block, targets, moves)
}

/// [`lanes`] for baseline code generation. Production never picks it (it
/// is no faster than the per-user default); it lets every CPU test the
/// pass.
#[cfg(test)]
fn decide_plain(
    damping: f64,
    block: &UserBlock<'_>,
    targets: &mut [ResourceId],
    moves: &mut [bool],
) {
    lanes(damping, block, targets, moves)
}

/// The one body of the block pass, inlined into each compiled path: the
/// branch-free loop over the block ([`pass`]), then the per-user step for
/// the users whose draw 0 it could not use.
#[inline(always)]
fn lanes(damping: f64, block: &UserBlock<'_>, targets: &mut [ResourceId], moves: &mut [bool]) {
    let inst = block.inst;
    let m = inst.num_resources();
    assert_eq!(block.loads.len(), m, "one load per resource");
    let range = block.universe.unwrap_or(m);
    assert!(
        range > 0 && range <= m,
        "sampling range outside the resources"
    );
    assert!(
        range as u64 <= u64::from(u32::MAX),
        "sampling range past u32"
    );
    let len = block.len();
    let (targets, moves) = (&mut targets[..len], &mut moves[..len]);
    let rejected = if inst.num_classes() == 1 {
        pass(
            damping,
            block,
            range,
            inst.cap_row(ClassId(0)),
            |_| 0,
            targets,
            moves,
        )
    } else {
        let (users, class_of) = (block.users, &inst.class_of);
        let max = users.iter().copied().max().unwrap_or(0);
        assert!(
            len == 0 || (max as usize) < class_of.len(),
            "user out of range"
        );
        // SAFETY: every user id indexes `class_of` (checked above).
        let row = |i: usize| unsafe { class_of.get_unchecked(users[i] as usize) }.index() * m;
        pass(
            damping,
            block,
            range,
            inst.eff_cap_table(),
            row,
            targets,
            moves,
        )
    };
    if rejected {
        for (i, (target, moved)) in targets.iter_mut().zip(moves.iter_mut()).enumerate() {
            if target.0 == REJECTED {
                let to = decide_one(&SlackDamped { damping }, block, i);
                (*target, *moved) = (to.unwrap_or(block.own[i]), to.is_some());
            }
        }
    }
}

/// Decide every user of `block` as [`SlackDamped::decide`] after a uniform
/// target draw over `0..range` would, without a branch: `caps[row(i) + r]`
/// is user `i`'s capacity on `r`. A user whose draw 0 falls where
/// Lemire's method may reject gets [`REJECTED`] as its target; returns
/// whether any did.
#[inline(always)]
fn pass(
    damping: f64,
    block: &UserBlock<'_>,
    range: usize,
    caps: &[u32],
    row: impl Fn(usize) -> usize,
    targets: &mut [ResourceId],
    moves: &mut [bool],
) -> bool {
    let (len, loads, n) = (block.len(), block.loads, range as u64);
    let (own, bases, weights) = (
        &block.own[..len],
        &block.bases[..len],
        &block.weights[..len],
    );
    let mut rejected = false;
    for i in 0..len {
        let (x0, x1) = (
            RoundStream::draw(bases[i], 0),
            RoundStream::draw(bases[i], 1),
        );
        // Lemire's x0 · n as two 32×32-bit products (n < 2³²): the high
        // word is the target, the low word decides on rejection
        let (a, b) = ((x0 & 0xffff_ffff) * n, (x0 >> 32) * n);
        let mid = (b & 0xffff_ffff) + (a >> 32);
        let (hi, lo) = ((b >> 32) + (mid >> 32), (mid << 32) | (a & 0xffff_ffff));
        let reject = lo < n;
        rejected |= reject;
        let t = hi as usize;
        debug_assert!(t < range && row(i) + t < caps.len());
        // SAFETY: `t < range ≤ m = loads.len()` (asserted by `lanes`), and
        // `row(i) + t` indexes `caps`: `row(i)` is 0 with one cap row, else
        // `k · m` for the user's class `k < K`, an `Instance` invariant, in
        // the `K · m` table
        let (load, cap) = unsafe { (*loads.get_unchecked(t), *caps.get_unchecked(row(i) + t)) };
        let slack = cap.saturating_sub(load);
        let fits = hi as u32 != own[i].0 && weights[i] <= slack;
        // the coin of `migration_probability` and `bernoulli`: a draw
        // below 1 always passes a clamped p ≥ 1, and never p = 0
        let p = damping * slack as f64 / cap as f64;
        let coin = unit_f64(x1);
        moves[i] = fits & (coin < p);
        targets[i] = ResourceId(if reject { REJECTED } else { hi as u32 });
    }
    rejected
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{move_frequency, view};
    use super::*;
    use crate::ids::UserId;
    use crate::instance::{Demands, Instance, InstanceBuilder};
    use crate::protocol::RestrictTargets;
    use crate::step::decide_unsatisfied_user;
    use qlb_rng::{unmix64, SplitMix64};

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
    fn bad_damping_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let panic = std::panic::catch_unwind(|| SlackDamped::with_damping(bad))
                .expect_err(&format!("damping {bad} accepted"));
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                msg.contains("damping"),
                "damping {bad}: panicked with {msg:?}"
            );
        }
        assert_eq!(SlackDamped::with_damping(2.5).damping(), 2.5);
        assert_eq!(SlackDamped::default().damping(), 1.0);
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

    /// A draw 0 whose Lemire product over `0..n` has low word `k·2⁶⁴ mod n`
    /// below `n` and high word `k`: in the rejection zone whenever `n` is
    /// not a power of two and `k·2⁶⁴ mod n` is below `2⁶⁴ mod n`.
    fn rejection_draw(n: u64, k: u64) -> u64 {
        ((k as u128 * (1u128 << 64)).div_ceil(n as u128)) as u64
    }

    /// Demands whose weights come from a vector, for any class layout.
    struct Weighted<'a> {
        inst: &'a Instance,
        weights: Vec<u32>,
    }

    impl Demands for Weighted<'_> {
        const UNIT: bool = false;
        fn instance(&self) -> &Instance {
            self.inst
        }
        fn weight(&self, u: UserId) -> u32 {
            self.weights[u.index()]
        }
    }

    /// One random block case: the instance and everything a block holds.
    #[derive(Debug)]
    struct Case {
        inst: Instance,
        damping: f64,
        loads: Vec<u32>,
        users: Vec<u32>,
        own: Vec<ResourceId>,
        bases: Vec<u64>,
        /// Every user's demand, indexed by user id.
        weights: Vec<u32>,
        universe: Option<usize>,
    }

    /// A random case: up to 12 resources, cap 0 wherever the speed is 0.5
    /// (and, for the half-threshold class, below speed 2); 1–3 classes of
    /// 20 users; loads around the capacities; damping 0.25, 1 or 2.5; up to
    /// 80 users (five 16-lane steps and a tail) with weights 1–4, on
    /// resources as likely as not to be their own sample when `m` is
    /// small; a third of draws 0 built to land in or at the edge of
    /// Lemire's rejection zone.
    fn case(rng: &mut SplitMix64) -> Case {
        let m = 1 + rng.uniform(12) as usize;
        let speeds = (0..m)
            .map(|_| match rng.uniform(4) {
                0 => 0.5,
                _ => 1.0 + rng.uniform(6) as f64,
            })
            .collect();
        let classes = 1 + rng.uniform(3) as usize;
        let builder = InstanceBuilder::new().speeds(speeds);
        let inst = [1.0, 0.5, 2.0][..classes]
            .iter()
            .fold(builder, |b, &t| b.latency_class(t, 20))
            .build()
            .unwrap();
        let universe = (rng.uniform(2) == 0).then(|| 1 + rng.uniform(m as u64) as usize);
        let range = universe.unwrap_or(m) as u64;
        let len = rng.uniform(81) as usize;
        let users: Vec<u32> = (0..len)
            .map(|_| rng.uniform(20 * classes as u64) as u32)
            .collect();
        let bases = (0..len)
            .map(|_| match rng.uniform(3) {
                0 => unmix64(rejection_draw(range, 1 + rng.uniform(range))),
                _ => rng.next_u64(),
            })
            .collect();
        Case {
            damping: [0.25, 1.0, 2.5][rng.uniform(3) as usize],
            loads: (0..m).map(|_| rng.uniform(9) as u32).collect(),
            own: (0..len)
                .map(|_| ResourceId(rng.uniform(m as u64) as u32))
                .collect(),
            weights: (0..inst.num_users())
                .map(|_| 1 + rng.uniform(4) as u32)
                .collect(),
            inst,
            users,
            bases,
            universe,
        }
    }

    /// The block decision `decide` of case `c` against
    /// [`decide_unsatisfied_user`] (through [`RestrictTargets`] when the
    /// block fixes a universe), user by user.
    fn check_block(
        name: &str,
        c: &Case,
        decide: impl Fn(&UserBlock<'_>, &mut [ResourceId], &mut [bool]),
    ) {
        let weights: Vec<u32> = c.users.iter().map(|&u| c.weights[u as usize]).collect();
        let block = UserBlock {
            inst: &c.inst,
            round: 7,
            loads: &c.loads,
            users: &c.users,
            own: &c.own,
            bases: &c.bases,
            weights: &weights,
            universe: c.universe,
        };
        let len = c.users.len();
        let (mut targets, mut moves) = (vec![ResourceId(0); len], vec![true; len]);
        decide(&block, &mut targets, &mut moves);
        let demands = Weighted {
            inst: &c.inst,
            weights: c.weights.clone(),
        };
        let proto = SlackDamped::with_damping(c.damping);
        let restricted = c.universe.map(|k| RestrictTargets::new(Box::new(proto), k));
        for i in 0..len {
            let (user, own) = (UserId(c.users[i]), c.own[i]);
            let mut rng = RoundStream::from_base(c.bases[i]);
            let want = match &restricted {
                None => decide_unsatisfied_user(&demands, &c.loads, own, user, &proto, 7, &mut rng),
                Some(p) => decide_unsatisfied_user(&demands, &c.loads, own, user, p, 7, &mut rng),
            };
            let got = moves[i].then_some(targets[i]);
            assert_eq!(got, want.map(|mv| mv.to), "{name}: user {i} of {c:?}");
        }
    }

    /// Every compiled instance of the block pass the CPU runs, the
    /// dispatching `decide_block`, and a `RestrictTargets` forwarding to it
    /// decide each user exactly as the per-user step does.
    #[test]
    fn every_block_path_matches_per_user_step() {
        let mut rng = SplitMix64::new(0x5eed);
        for _ in 0..3000 {
            let c = case(&mut rng);
            let d = c.damping;
            check_block("plain", &c, |b, t, m| decide_plain(d, b, t, m));
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
            {
                // SAFETY: the CPU supports AVX-512F, DQ and VL (checked above).
                check_block("avx512", &c, |b, t, m| unsafe { decide_avx512(d, b, t, m) });
            }
            let proto = SlackDamped::with_damping(d);
            check_block("decide_block", &c, |b, t, m| proto.decide_block(b, t, m));
            if let Some(k) = c.universe {
                let wrapped = RestrictTargets::new(Box::new(proto), k);
                check_block("restricted", &c, |b, t, m| {
                    wrapped.decide_block(
                        &UserBlock {
                            universe: None,
                            ..*b
                        },
                        t,
                        m,
                    )
                });
            }
        }
    }

    #[test]
    fn rejection_draws_land_in_the_zone() {
        // 2⁶⁴ mod 10 = 6: k = 1 leaves a low word of 4, k = 3 one of 2;
        // 2⁶⁴ mod 12 = 4 and 2⁶⁴ mod 7 = 2
        for (n, k) in [(10u64, 1u64), (10, 3), (12, 3), (7, 3)] {
            let x = rejection_draw(n, k);
            let product = x as u128 * n as u128;
            let (hi, lo) = ((product >> 64) as u64, product as u64);
            assert_eq!(hi, k);
            assert!(lo < n.wrapping_neg() % n, "n {n} k {k}: lo {lo}");
            assert_eq!(RoundStream::from_base(unmix64(x)).next_u64(), x);
        }
    }
}
