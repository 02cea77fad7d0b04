//! Property-based tests of the weighted extension.

use proptest::prelude::*;
use qoslb::core::potential::overload_potential;
use qoslb::core::step::decide_round;
use qoslb::core::weighted::{first_fit_decreasing, weight_counting_feasible, WeightedInstance};
use qoslb::flow::brute_force_feasible;
use qoslb::prelude::*;

fn small_weighted() -> impl Strategy<Value = (WeightedInstance, State, u64)> {
    (
        1usize..=10,                                 // m
        proptest::collection::vec(1u32..=5, 1..=24), // weights
        2u32..=16,                                   // base cap
        0u64..=u64::MAX,                             // seed
    )
        .prop_map(|(m, weights, base, seed)| {
            // capacities sized for feasibility with margin
            let total: u32 = weights.iter().sum();
            let cap = base.max(total.div_ceil(m as u32) + 5);
            let inst = WeightedInstance::new(vec![cap; m], weights).unwrap();
            let state = State::random(&inst, seed);
            (inst, state, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Total weight is conserved by any number of protocol rounds.
    #[test]
    fn weight_conservation((inst, state, seed) in small_weighted()) {
        let out = run(&inst, state, &SlackDamped::default(), RunConfig::new(seed, 50));
        let total: u32 = out.state.loads().iter().sum();
        prop_assert_eq!(total as u64, inst.total_weight());
        out.state.debug_assert_invariants(&inst);
    }

    /// Every decided move starts at the user's true resource, targets a
    /// different resource where the demand fits, and only unsatisfied
    /// users move.
    #[test]
    fn weighted_moves_are_valid((inst, state, seed) in small_weighted()) {
        let moves = decide_round(&inst, &state, &SlackDamped::default(), seed, 0);
        for mv in &moves {
            prop_assert_eq!(mv.from, state.resource_of(mv.user));
            prop_assert_ne!(mv.to, mv.from);
            prop_assert!(!state.is_satisfied(&inst, mv.user));
            let w = inst.weight(mv.user);
            prop_assert!(state.load(mv.to) + w <= inst.caps()[mv.to.index()], "demand doesn't fit");
        }
    }

    /// The weighted run with generous slack converges and ends legal;
    /// weight_moved is consistent with migrations.
    #[test]
    fn weighted_runs_converge((inst, state, seed) in small_weighted()) {
        let out = run(&inst, state, &SlackDamped::default(), RunConfig::new(seed, 20_000));
        prop_assert!(out.converged, "generous slack must converge");
        prop_assert!(out.state.is_legal(&inst));
        prop_assert_eq!(overload_potential(inst.instance(), &out.state), 0);
        // each migration moves ≥ 1 and ≤ max_weight
        prop_assert!(out.weight_moved >= out.migrations);
        prop_assert!(out.weight_moved <= out.migrations * inst.max_weight().max(1) as u64);
    }

    /// Best-fit-decreasing success implies true feasibility (checked by
    /// brute force on a single-class table), and it never succeeds where
    /// the counting bound fails.
    #[test]
    fn bfd_is_sound(
        m in 1usize..4,
        weights in proptest::collection::vec(1u32..=4, 1..=8),
        cap in 1u32..=8,
    ) {
        let inst = WeightedInstance::new(vec![cap; m], weights.clone()).unwrap();
        let bfd = first_fit_decreasing(&inst);
        if bfd.is_ok() {
            prop_assert!(weight_counting_feasible(&inst));
        }
        // brute-force ground truth via the unit-table trick is only valid
        // for unit weights; instead verify BFD's produced state directly:
        if let Ok(state) = bfd {
            prop_assert!(state.is_legal(&inst));
        }
    }

    /// Unit-weight instances: the weighted brute-force feasibility notion
    /// matches the single-class counting criterion.
    #[test]
    fn unit_weight_feasibility_matches_counting(
        n in 0usize..8,
        caps in proptest::collection::vec(0u32..4, 1..4),
    ) {
        let m = caps.len();
        let counting = n as u64 <= caps.iter().map(|&c| c as u64).sum::<u64>();
        let brute = brute_force_feasible(&[n], &caps, m);
        prop_assert_eq!(counting, brute);
        // and BFD agrees on the weighted side
        let winst = WeightedInstance::new(caps.clone(), vec![1; n]).unwrap();
        prop_assert_eq!(first_fit_decreasing(&winst).is_ok(), counting);
    }
}

#[test]
fn weighted_blocking_analogue() {
    // Fragmentation blocking: a big job can be starved by *satisfied*
    // small jobs even though a legal packing exists. Caps [3, 4, 4]; jobs:
    // one w=4 and four w=1. Legal: big alone on r1 (4 ≤ 4), smalls on r2.
    // Blocked start: big alone on r0 (load 4 > cap 3 — unsatisfied even
    // alone), two smalls on each of r1/r2 (satisfied, never move, slack 2
    // each): no 4-hole exists or ever opens.
    let inst = WeightedInstance::new(vec![3, 4, 4], vec![4, 1, 1, 1, 1]).unwrap();
    let legal = State::new(
        &inst,
        vec![
            ResourceId(1),
            ResourceId(2),
            ResourceId(2),
            ResourceId(2),
            ResourceId(2),
        ],
    )
    .unwrap();
    assert!(legal.is_legal(&inst));
    let blocked = State::new(
        &inst,
        vec![
            ResourceId(0),
            ResourceId(1),
            ResourceId(1),
            ResourceId(2),
            ResourceId(2),
        ],
    )
    .unwrap();
    let out = run(
        &inst,
        blocked,
        &SlackDamped::default(),
        RunConfig::new(3, 2_000),
    );
    assert!(!out.converged);
    assert_eq!(out.migrations, 0, "no 4-hole ever opens");
    assert_eq!(out.state.num_unsatisfied(&inst), 1);
}

// ---------------------------------------------------------------------
// golden weighted trajectories
// ---------------------------------------------------------------------

/// What a golden run pins: the trajectory's totals, a hash of the final
/// assignment and the per-round `RoundEnd.unsatisfied` series.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    rounds: u64,
    migrations: u64,
    weight_moved: u64,
    digest: u64,
    unsatisfied: Vec<u64>,
}

/// `(instance, protocol, rounds, migrations, weight_moved, digest,
/// unsatisfied series)`.
type GoldenCase = (
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    &'static [u64],
);

const GOLDEN_SEED: u64 = 5;
const GOLDEN_BUDGET: u64 = 2_000;

/// E13's weight generator: draws until the total demand is `w_total`.
fn golden_weights(heavy: bool, w_total: u64, seed: u64) -> Vec<u32> {
    use qoslb::rng::{Rng64, SplitMix64};
    let mut rng = SplitMix64::new(qoslb::rng::mix64_pair(seed, 0xE13));
    let mut out = Vec::new();
    let mut acc = 0u64;
    while acc < w_total {
        let w = if heavy {
            if rng.bernoulli(0.2) {
                8
            } else {
                1
            }
        } else {
            1 + rng.uniform(4) as u32
        };
        let w = w.min((w_total - acc) as u32).max(1);
        out.push(w);
        acc += w as u64;
    }
    out
}

/// The golden instances: E13's quick uniform 1..4 and heavy-tailed mixes
/// (Σw = 1024, 64 resources of capacity 20) and a 1/4 mix of 4000 users
/// (Σw = 7000, 730 resources of capacity 12), all from a hotspot start.
fn golden_case(instance: &str) -> (WeightedInstance, State) {
    let (caps, weights) = match instance {
        "uniform 1..4" => (vec![20; 64], golden_weights(false, 1024, 0)),
        "heavy-tailed" => (vec![20; 64], golden_weights(true, 1024, 0)),
        "mixed 1/4" => (
            vec![12; 730],
            (0..4000).map(|i| if i % 4 == 0 { 4 } else { 1 }).collect(),
        ),
        other => unreachable!("unknown golden instance {other}"),
    };
    let inst = WeightedInstance::new(caps, weights).unwrap();
    let start = State::all_on(&inst, ResourceId(0));
    (inst, start)
}

/// FNV-1a over the final assignment.
fn golden_digest(resources: impl Iterator<Item = ResourceId>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in resources {
        for b in r.0.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn golden_run(instance: &str, protocol: &str, executor: Executor) -> Golden {
    use qoslb::obs::Event;
    let (inst, start) = golden_case(instance);
    let (damped, conditional) = (SlackDamped::default(), ConditionalUniform);
    let proto: &dyn Protocol = match protocol {
        "slack-damped" => &damped,
        "conditional" => &conditional,
        other => unreachable!("unknown golden protocol {other}"),
    };
    let mut rec = Recorder::default();
    let cfg = RunConfig::new(GOLDEN_SEED, GOLDEN_BUDGET).with_executor(executor);
    let out = run_observed(&inst, start, proto, cfg, &mut rec);
    Golden {
        rounds: out.rounds,
        migrations: out.migrations,
        weight_moved: out.weight_moved,
        digest: golden_digest(inst.users().map(|u| out.state.resource_of(u))),
        unsatisfied: rec
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                Event::RoundEnd { unsatisfied, .. } => Some(unsatisfied),
                _ => None,
            })
            .collect(),
    }
}

/// Pinned weighted trajectories: three instances × both weighted
/// protocols × the dense and sparse pooled executors. The literals were
/// generated from the weighted model's first, self-contained
/// implementation; every later implementation must reproduce them.
#[test]
fn golden_weighted_trajectories() {
    #[rustfmt::skip]
    let cases: [GoldenCase; 6] = [
        ("uniform 1..4", "slack-damped", 7, 460, 1204, 0x04759af485254a86, &[157, 74, 28, 8, 7, 6, 0]),
        ("uniform 1..4", "conditional", 5, 633, 1607, 0x0717d593915d529f, &[157, 134, 91, 15, 0]),
        ("heavy-tailed", "slack-damped", 8, 560, 1248, 0x0cc4e2b0fe1ee4a0, &[199, 108, 55, 31, 21, 9, 7, 0]),
        ("heavy-tailed", "conditional", 6, 685, 1442, 0x92f69f3701ab3360, &[199, 125, 61, 28, 7, 0]),
        ("mixed 1/4", "slack-damped", 15, 4723, 8488, 0x6a844d4b935893e5, &[1602, 726, 338, 166, 91, 65, 32, 12, 12, 12, 12, 4, 4, 4, 0]),
        ("mixed 1/4", "conditional", 7, 5962, 10258, 0x29582ff6fc552187, &[1602, 1032, 545, 174, 15, 4, 0]),
    ];
    for (instance, protocol, rounds, migrations, weight_moved, digest, unsatisfied) in cases {
        let want = Golden {
            rounds,
            migrations,
            weight_moved,
            digest,
            unsatisfied: unsatisfied.to_vec(),
        };
        for executor in [Executor::Dense, Executor::SparseThreaded(2)] {
            let got = golden_run(instance, protocol, executor);
            assert_eq!(got, want, "{instance} {protocol} {executor:?}");
        }
    }
}
