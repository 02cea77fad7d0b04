//! Deterministic-replay tests: the same `(scenario, seed)` must reproduce
//! the same trajectory across executors, across repeated runs in one
//! process, and across process invocations (pinned fingerprints).

use qoslb::engine::{run, Executor, RunConfig};
use qoslb::prelude::*;

fn fingerprint(state: &State) -> u64 {
    state.load_fingerprint()
}

fn build(seed: u64) -> (Instance, State) {
    Scenario::single_class(
        "replay",
        512,
        64,
        CapacityDist::UniformRange { lo: 4, hi: 16 },
        1.25,
        Placement::Hotspot,
    )
    .build(seed)
    .expect("feasible")
}

#[test]
fn same_seed_same_everything() {
    let (inst, s) = build(123);
    let a = run(
        &inst,
        s.clone(),
        &SlackDamped::default(),
        RunConfig::new(123, 10_000),
    );
    let b = run(
        &inst,
        s,
        &SlackDamped::default(),
        RunConfig::new(123, 10_000),
    );
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(fingerprint(&a.state), fingerprint(&b.state));
    assert_eq!(a.state, b.state);
}

#[test]
fn different_seed_different_trajectory() {
    let (inst, s) = build(123);
    let a = run(
        &inst,
        s.clone(),
        &SlackDamped::default(),
        RunConfig::new(123, 10_000),
    );
    let (inst2, s2) = build(124);
    let c = run(
        &inst2,
        s2,
        &SlackDamped::default(),
        RunConfig::new(124, 10_000),
    );
    // capacities differ (sampled), so states differ with overwhelming
    // probability; compare fingerprints defensively
    assert!(
        a.rounds != c.rounds
            || a.migrations != c.migrations
            || fingerprint(&a.state) != fingerprint(&c.state),
        "seeds 123 and 124 produced identical trajectories"
    );
    let _ = inst;
}

#[test]
fn executors_replay_each_other() {
    let (inst, s) = build(7);
    let proto = SlackDamped::default();
    let seq = run(&inst, s.clone(), &proto, RunConfig::new(7, 10_000));
    for threads in [2usize, 5] {
        let par = run(
            &inst,
            s.clone(),
            &proto,
            RunConfig::new(7, 10_000).with_executor(Executor::Threaded(threads)),
        );
        assert_eq!(fingerprint(&par.state), fingerprint(&seq.state));
    }
    let sparse = run(
        &inst,
        s.clone(),
        &proto,
        RunConfig::new(7, 10_000).with_executor(Executor::SparseThreaded(3)),
    );
    assert_eq!(fingerprint(&sparse.state), fingerprint(&seq.state));
    // a stale run decides every user in order, whatever the executor
    let stale = RunConfig::new(7, 10_000).with_staleness(3, 0.25);
    let a = run(&inst, s.clone(), &proto, stale);
    let b = run(
        &inst,
        s,
        &proto,
        stale.with_executor(Executor::SparseThreaded(2)),
    );
    assert_eq!((a.rounds, a.migrations), (b.rounds, b.migrations));
    assert_eq!(a.state, b.state);
}

/// Cross-process pin: these values were produced by this crate and must
/// never change silently — a change means the RNG layout, the kernel's
/// draw order, or the round semantics changed, which silently invalidates
/// every recorded experiment. Update deliberately or not at all.
#[test]
fn golden_trajectory_pinned() {
    let (inst, s) = build(42);
    let out = run(
        &inst,
        s,
        &SlackDamped::default(),
        RunConfig::new(42, 10_000),
    );
    assert!(out.converged);
    let golden = (out.rounds, out.migrations, fingerprint(&out.state));
    // Printed by a reference run; see test source history.
    let expected: (u64, u64, u64) = golden_expected();
    assert_eq!(golden, expected, "golden trajectory drifted");
}

fn golden_expected() -> (u64, u64, u64) {
    // The pinned values live in a separate fn so the update procedure is a
    // one-line diff. Regenerate with:
    //   cargo test --test replay -- --nocapture golden_print
    (GOLDEN.0, GOLDEN.1, GOLDEN.2)
}

/// Reference values for `golden_trajectory_pinned` (rounds, migrations,
/// final-state load fingerprint) for scenario "replay"/seed 42.
const GOLDEN: (u64, u64, u64) = include!("golden_replay.txt");

#[test]
fn golden_print() {
    let (inst, s) = build(42);
    let out = run(
        &inst,
        s,
        &SlackDamped::default(),
        RunConfig::new(42, 10_000),
    );
    println!(
        "GOLDEN = ({}, {}, 0x{:016x})",
        out.rounds,
        out.migrations,
        fingerprint(&out.state)
    );
}

/// Randomized cross-executor equivalence: for arbitrary instances and
/// pool shardings, the pooled executors replay the sequential engine
/// exactly, and a stale run replays itself under any of them.
#[test]
fn random_shardings_always_replay_engine() {
    use qoslb::rng::{Rng64, SplitMix64};
    let mut rng = SplitMix64::new(0xEAC4);
    for case in 0..12 {
        let m = 2 + rng.uniform_usize(14);
        let n = m + rng.uniform_usize(m * 12);
        let cap = 1 + rng.uniform(12) as u32;
        let inst = Instance::with_capacities(n, vec![cap; m]).unwrap();
        let state = State::random(&inst, rng.next_u64());
        let seed = rng.next_u64();
        let max_rounds = 3 + rng.uniform(40);
        let threads = 1 + rng.uniform_usize(6);
        let (max_delay, loss) = (rng.uniform(5), rng.uniform(4) as f64 / 4.0);
        let cfg = RunConfig::new(seed, max_rounds);
        let stale = cfg.with_staleness(max_delay, loss);
        let proto = SlackDamped::default();

        for config in [cfg, stale] {
            let want = run(&inst, state.clone(), &proto, config);
            for exec in [
                Executor::Threaded(threads),
                Executor::SparseThreaded(threads),
            ] {
                let got = run(&inst, state.clone(), &proto, config.with_executor(exec));
                let label = format!("case {case} {exec:?} D={max_delay} p={loss}");
                assert_eq!(want.rounds, got.rounds, "{label}");
                assert_eq!(want.migrations, got.migrations, "{label}");
                assert_eq!(want.state, got.state, "{label}");
            }
        }
    }
}
