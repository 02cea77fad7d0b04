//! The differential harness: every driver, on every executor, replays its
//! reference loop bit for bit.
//!
//! One table crosses
//!
//! * instance families: unit (hotspot, random start), multi-class, the
//!   weighted lift (demand `1 + i mod w`, capacities scaled by the mean
//!   demand), seeded random small instances of each, and the open driver's
//!   parking instance;
//! * drivers: the closed loop, the churn driver, the open driver, the
//!   serving core's ops and ticks, and the stale-observation mode as an
//!   executor-independence row;
//! * protocols: the whole registry, plus graph diffusion (which acts while
//!   satisfied) for the closed loop's dense fallback;
//! * executors: `Dense`, `Sparse`, and `Threaded` / `SparseThreaded` at 1, 2,
//!   3 and 8 threads (and 128 on the small instances, wider than any of
//!   them), and the serving core at 0, 1, 2, 3 and 8 threads;
//! * budgets: cuts inside the full-round phase, at the round the sparse
//!   executors switch to the active set, and inside the active-set phase.
//!
//! The expected side of every case shares no kernel with the executors:
//! [`reference_run`], the dense scan of `qlb_core::step` on a plain
//! `State`, with the settling-time trace its per-round hook implies, for
//! the closed and churn drivers; [`reference_open_run`] for the open
//! driver; [`ParkedReference`], which `reference_open_run` also feeds, over
//! the serving core's recorded op log. Each case checks its outcome and its
//! trace against the oracle, and its event stream: without
//! `ExecutorSwitch`, the stream equals the `Dense` run's, whose `RoundEnd` series equals the oracle's per-round
//! series. A run with no sink must end where the observed one does (at
//! the closed rows' full budgets, and on the churn, stale and small open
//! rows). Stale runs decide sequentially whatever the executor, so their
//! row checks that every executor replays the `Dense` stale run.
//!
//! The tests assert that the table reaches each regime it claims: a
//! sharded active-set round, crowded open rounds on the pool, a budget cut
//! in each phase, and the closed loop's recorded dense fallback. Debug
//! builds also check the stepper's view against a recount every full
//! round, and its index after every re-split of the shard bounds.

use qoslb::core::step::{decide_user, reference_run};
use qoslb::core::weighted::WeightedInstance;
use qoslb::engine::open::reference_open_run;
use qoslb::engine::{
    perturb_uniform, run_open_system, run_open_system_observed, run_with_churn,
    run_with_churn_observed, ChurnConfig, OpenConfig, ParkedOp, ParkedReference, RoundStats,
};
use qoslb::obs::{Counter, Event, Phase};
use qoslb::prelude::*;
use qoslb::rng::{mix64_pair, unmix64, Rng64, RoundStream, SplitMix64};
use qoslb::topo::{Graph, GraphDiffusion};
use qoslb::workload::calibrate_slack;

/// `Dense`, `Sparse`, and both pooled executors at 1, 2, 3 and 8 threads.
fn executors() -> Vec<Executor> {
    let mut all = vec![Executor::Dense, Executor::Sparse];
    for t in [1, 2, 3, 8] {
        all.extend([Executor::Threaded(t), Executor::SparseThreaded(t)]);
    }
    all
}

/// [`executors`] plus pools of 128 threads, wider than any small instance:
/// the excess shards must collapse away.
fn wide_executors() -> Vec<Executor> {
    let mut all = executors();
    all.extend([Executor::Threaded(128), Executor::SparseThreaded(128)]);
    all
}

/// The regimes a test's rows reached; each test asserts the ones it claims.
#[derive(Default)]
struct Reached {
    /// An active-set round sharded over the pool.
    sharded_sparse: bool,
    /// Budgets ending inside the full-round phase, at the switch round,
    /// and inside the active-set phase.
    cut_full: bool,
    cut_switch: bool,
    cut_sparse: bool,
    /// A sparse executor that recorded its fallback to full rounds.
    fallback: bool,
    /// An open round with ≥ 1024 users unsatisfied, and an active-set open
    /// round sharded over the pool.
    crowded_open: bool,
    pooled_open: bool,
}

/// The recorded events, with the executor's switch announcements dropped.
fn events(rec: &Recorder) -> Vec<Event> {
    assert_eq!(rec.events().dropped(), 0, "event ring wrapped");
    rec.events()
        .iter()
        .map(|(_, e)| e)
        .filter(|e| !matches!(e, Event::ExecutorSwitch { .. }))
        .collect()
}

/// The recorded `RoundEnd` events.
fn round_ends(events: &[Event]) -> Vec<Event> {
    let end = |e: &&Event| matches!(e, Event::RoundEnd { .. });
    events.iter().filter(end).copied().collect()
}

/// The `RoundEnd` events a trace's per-round entries stand for.
fn ends_of(rounds: &[RoundStats]) -> impl Iterator<Item = Event> + '_ {
    rounds.iter().skip(1).map(|r| Event::RoundEnd {
        round: r.round - 1,
        migrations: r.migrations,
        unsatisfied: r.unsatisfied,
        overload: r.overload,
    })
}

/// Asserts two runs took the same trajectory.
fn assert_same_run(want: &RunOutcome, got: &RunOutcome, label: &str) {
    assert_eq!(want.converged, got.converged, "{label}: converged");
    assert_eq!(want.rounds, got.rounds, "{label}: rounds");
    assert_eq!(want.migrations, got.migrations, "{label}: migrations");
    assert_eq!(want.weight_moved, got.weight_moved, "{label}: weight moved");
    assert_eq!(want.state, got.state, "{label}: state");
}

/// The closed loop's oracle: [`reference_run`] cut at `budget`, and the
/// settling-time trace its per-round hook implies, counted on each round's
/// `State` with no sink involved.
fn oracle<I: Demands>(
    inst: &I,
    start: &State,
    proto: &dyn Protocol,
    seed: u64,
    budget: u64,
) -> (RunOutcome, Trace) {
    let base = inst.instance();
    let entry = |round, state: &State, migrations| RoundStats {
        round,
        unsatisfied: state.num_unsatisfied(inst) as u64,
        overload: (base.num_classes() == 1).then(|| overload_potential(base, state)),
        migrations,
    };
    let mut trace = Trace {
        rounds: vec![entry(0, start, 0)],
        last_unsatisfied: vec![None; base.num_users()],
    };
    let settle = |trace: &mut Trace, state: &State, round| {
        for u in base.users().filter(|&u| !state.is_satisfied(inst, u)) {
            trace.last_unsatisfied[u.index()] = Some(round);
        }
    };
    settle(&mut trace, start, 0);
    let want = reference_run(inst, start.clone(), proto, seed, budget, |s, moves| {
        let round = trace.rounds.len() as u64;
        trace.rounds.push(entry(round, s, moves.len() as u64));
        settle(&mut trace, s, round);
    });
    (want, trace)
}

/// A closed-loop row: one instance and start, run from one seed with a
/// round budget.
struct Closed<'a, I> {
    name: &'a str,
    inst: &'a I,
    start: &'a State,
    seed: u64,
    budget: u64,
}

impl<I: Demands> Closed<'_, I> {
    /// Run each of `protos` on every executor of `execs` (`Dense` first)
    /// at the row's budget, and at budgets cut inside each phase of the
    /// sparse executors' run, checking each case against the oracle.
    fn check(&self, protos: &[Box<dyn Protocol>], execs: &[Executor], reached: &mut Reached) {
        assert_eq!(
            execs[0],
            Executor::Dense,
            "the Dense run's events are the reference"
        );
        for proto in protos {
            let proto = proto.as_ref();
            let sparse = self.case(proto, self.budget, execs, reached);
            // the sparse run's switch round and active-set rounds place the cuts
            let switch = sparse.events().iter().find_map(|(_, e)| match e {
                Event::ExecutorSwitch {
                    round,
                    sparse: true,
                } => Some(round),
                _ => None,
            });
            let Some(switch) = switch else { continue };
            let rounds = sparse.counter(Counter::Rounds);
            let active_rounds = sparse.counter(Counter::SparseRounds);
            let mut budgets = vec![1, switch, switch + active_rounds / 2];
            budgets.retain(|&b| b >= 1 && b < rounds);
            budgets.dedup();
            for b in budgets {
                // where the sparse run stood when its budget ran out
                let cut = self.case(proto, b, execs, reached);
                let switched = cut.counter(Counter::ExecutorSwitches) > 0;
                let phase = match (switched, cut.counter(Counter::SparseRounds)) {
                    (false, _) => &mut reached.cut_full,
                    (true, 0) => &mut reached.cut_switch,
                    (true, _) => &mut reached.cut_sparse,
                };
                *phase = true;
            }
        }
    }

    /// One budget across `execs`; returns the `Sparse` run's recorder.
    fn case(
        &self,
        proto: &dyn Protocol,
        budget: u64,
        execs: &[Executor],
        reached: &mut Reached,
    ) -> Recorder {
        let (inst, start, seed) = (self.inst, self.start, self.seed);
        let (want, want_trace) = oracle(inst, start, proto, seed, budget);
        let mut dense: Option<Vec<Event>> = None;
        let mut sparse = None;
        for &exec in execs {
            let label = format!("{} {} {exec:?} budget {budget}", self.name, proto.name());
            let cfg = RunConfig::new(seed, budget).with_executor(exec);
            let mut rec = Recorder::default();
            let mut trace = Trace::with_settling_times(inst, start);
            let out = run_observed(inst, start.clone(), proto, cfg, &mut (&mut rec, &mut trace));
            assert_same_run(&want, &out, &label);
            assert_eq!(trace.rounds, want_trace.rounds, "{label}: trace");
            let settling = &want_trace.last_unsatisfied;
            assert_eq!(&trace.last_unsatisfied, settling, "{label}: settling");
            if budget == self.budget {
                // a cut ends a prefix of this run
                let plain = run(inst, start.clone(), proto, cfg);
                assert_same_run(&want, &plain, &format!("{label} (no sink)"));
            }

            let evs = events(&rec);
            let want_events = dense.get_or_insert_with(|| {
                let ends = round_ends(&evs).into_iter();
                assert!(
                    ends.eq(ends_of(&want_trace.rounds)),
                    "{label}: RoundEnd series"
                );
                evs.clone()
            });
            assert_eq!(&evs, want_events, "{label}: events");
            assert_eq!(rec.counter(Counter::Rounds), out.rounds, "{label}");
            assert_eq!(rec.counter(Counter::Migrations), out.migrations, "{label}");
            let split = rec.counter(Counter::DenseRounds) + rec.counter(Counter::SparseRounds);
            assert_eq!(split, out.rounds, "{label}: round split");
            // the closing sync of an active-set phase is not a round
            let decides = rec.timers().histogram(Phase::Decide).count();
            assert_eq!(decides, out.rounds, "{label}: Decide samples");

            let switches: Vec<bool> = rec
                .events()
                .iter()
                .filter_map(|(_, e)| match e {
                    Event::ExecutorSwitch { sparse, .. } => Some(sparse),
                    _ => None,
                })
                .collect();
            if proto.acts_when_satisfied()
                && matches!(exec, Executor::Sparse | Executor::SparseThreaded(_))
            {
                // announced once, first, and the run stays in full rounds
                let first = rec.events().iter().next().map(|(_, e)| e);
                let fallback = Event::ExecutorSwitch {
                    round: 0,
                    sparse: false,
                };
                assert_eq!(first, Some(fallback), "{label}: fallback");
                assert_eq!(switches, [false], "{label}: fallback");
                reached.fallback = true;
            }
            assert!(switches.len() <= 1, "{label}: {switches:?}");
            if let Executor::SparseThreaded(t) = exec {
                // one Compute sample per pooled round: more than the full
                // rounds means an active-set round ran on the pool
                let compute = rec.timers().histogram(Phase::Compute).count();
                if t > 1 && compute > rec.counter(Counter::DenseRounds) {
                    reached.sharded_sparse = true;
                }
            }
            if exec == Executor::Sparse {
                sparse = Some(rec);
            }
        }
        sparse.unwrap_or_default()
    }
}

/// `n` users on `m` resources of capacity `cap`, all on resource 0.
fn hotspot(n: usize, m: usize, cap: u32) -> (Instance, State) {
    let inst = Instance::uniform(n, m, cap).unwrap();
    let start = State::all_on(&inst, ResourceId(0));
    (inst, start)
}

/// Lift a single-class instance into the weighted model: user `i` gets
/// demand `1 + (i mod weight_max)` and capacities scale by the mean demand
/// (the `qlb-sim --driver weighted` lift).
fn lift(inst: &Instance, start: &State, weight_max: u32) -> (WeightedInstance, State) {
    let n = inst.num_users();
    let weights: Vec<u32> = (0..n).map(|i| 1 + (i as u32 % weight_max)).collect();
    let total_w: u64 = weights.iter().map(|&w| w as u64).sum();
    let caps: Vec<u32> = inst
        .cap_row(ClassId(0))
        .iter()
        .map(|&c| ((c as u64) * total_w).div_ceil(n as u64) as u32)
        .collect();
    let winst = WeightedInstance::new(caps, weights).unwrap();
    let wstart = State::new(&winst, start.assignment().to_vec()).unwrap();
    (winst, wstart)
}

/// Two QoS classes over shared channels: strict (cap 6 a channel) and
/// lenient (cap 12), all on channel 0.
fn two_classes() -> (Instance, State) {
    let inst = InstanceBuilder::new()
        .speeds(vec![12.0; 24])
        .latency_class(0.5, 400)
        .latency_class(1.0, 500)
        .build()
        .unwrap();
    let start = State::all_on(&inst, ResourceId(0));
    (inst, start)
}

/// A random feasible single-class instance of 2–64 users on 1–12 resources
/// with jittered capacities, from a random start.
fn small_unit(rng: &mut SplitMix64) -> (Instance, State) {
    let n = 2 + rng.uniform_usize(63);
    let m = 1 + rng.uniform_usize(12);
    let base = 1 + rng.uniform(8) as u32;
    let mut caps: Vec<u32> = (0..m).map(|_| base + rng.uniform(7) as u32).collect();
    if caps.iter().map(|&c| c as usize).sum::<usize>() < n {
        calibrate_slack(&mut caps, n, 1.25);
    }
    let inst = Instance::with_capacities(n, caps).unwrap();
    let start = State::random(&inst, rng.next_u64());
    (inst, start)
}

/// A random instance of 2–3 latency classes of 1–24 users each, with
/// thresholds from {1, 1/2, 1/4} in a rotated order over speeds 4–16, from
/// a random start.
fn small_classes(rng: &mut SplitMix64) -> (Instance, State) {
    let speeds = (0..1 + rng.uniform_usize(8)).map(|_| 4.0 + rng.uniform(13) as f64);
    let mut builder = InstanceBuilder::new().speeds(speeds.collect());
    let rot = rng.uniform_usize(3);
    for k in 0..2 + rng.uniform_usize(2) {
        builder = builder.latency_class([1.0, 0.5, 0.25][(k + rot) % 3], 1 + rng.uniform_usize(24));
    }
    let inst = builder.build().unwrap();
    let start = State::random(&inst, rng.next_u64());
    (inst, start)
}

/// Every registry protocol for `inst`, and graph diffusion on the complete
/// graph, which acts while satisfied.
fn protocols(inst: &Instance) -> Vec<Box<dyn Protocol>> {
    let mut all = registry(inst);
    all.push(Box::new(GraphDiffusion::new(Graph::complete(
        inst.num_resources(),
    ))));
    all
}

#[test]
fn closed_unit() {
    // The hotspot is large enough that pooled full rounds shard (8 threads
    // ⇒ 208-user shards). From the random start (~5 000 of 12 000 users
    // unsatisfied) the sparse executors switch to the active set after one
    // to five full rounds, and its first rounds still hold over 1024
    // users, so the pooled executors shard them; every protocol converges
    // there within 30 rounds.
    let mut reached = Reached::default();
    let (hot, hot_start) = hotspot(1600, 32, 120);
    let hotspot = Closed {
        name: "hotspot",
        inst: &hot,
        start: &hot_start,
        seed: 13,
        budget: 400,
    };
    hotspot.check(&protocols(&hot), &executors(), &mut reached);
    let spread = Instance::uniform(12_000, 1_200, 11).unwrap();
    let spread_start = State::random(&spread, 5);
    let row = Closed {
        name: "spread",
        inst: &spread,
        start: &spread_start,
        budget: 30,
        ..hotspot
    };
    // blind scattering moves every unsatisfied user, so its batches never
    // drop below n/8: it never reaches the active set, and the hotspot
    // row already runs its full rounds
    let mut protos = registry(&spread);
    protos.retain(|p| p.name() != "blind-uniform");
    row.check(&protos, &executors(), &mut reached);
    assert!(reached.sharded_sparse, "no sharded active-set round");
    assert!(reached.cut_full, "no budget cut inside the full rounds");
    assert!(reached.cut_switch, "no budget cut at the switch round");
    assert!(reached.cut_sparse, "no budget cut in the active-set rounds");
    assert!(reached.fallback, "no recorded dense fallback");
}

#[test]
fn closed_multi_class() {
    // the kernel's per-class bitmap indexing is live on two classes; from
    // the hotspot, satisfied lenient users block the strict ones, so no
    // protocol converges and the budget ends every run
    let mut reached = Reached::default();
    let (inst, start) = two_classes();
    let row = Closed {
        name: "two classes",
        inst: &inst,
        start: &start,
        seed: 29,
        budget: 20,
    };
    row.check(&protocols(&inst), &executors(), &mut reached);
    assert!(reached.cut_sparse && reached.fallback);
}

#[test]
fn closed_weighted() {
    // the unit hotspot's weighted lift, and a 1/4 demand mix
    let mut reached = Reached::default();
    let (hot, hot_start) = hotspot(1600, 32, 120);
    let (lifted, lifted_start) = lift(&hot, &hot_start, 4);
    let mut weights = vec![1u32; 1200];
    weights.extend([4u32; 300]);
    let mixed = WeightedInstance::new(vec![60; 48], weights).unwrap();
    let mixed_start = State::all_on(&mixed, ResourceId(0));
    for (name, inst, start) in [
        ("lifted hotspot", &lifted, &lifted_start),
        ("1/4 mix", &mixed, &mixed_start),
    ] {
        let row = Closed {
            name,
            inst,
            start,
            seed: 23,
            budget: 30,
        };
        row.check(&protocols(inst.instance()), &executors(), &mut reached);
    }
    assert!(reached.cut_sparse && reached.fallback);
}

#[test]
fn closed_random_small() {
    // seeded random instances of every family, each with a random budget
    // besides the cuts; pools wider than the instance
    let mut reached = Reached::default();
    let mut rng = SplitMix64::new(0xD1FF);
    for case in 0..10 {
        let (unit, unit_start) = small_unit(&mut rng);
        let (classes, classes_start) = small_classes(&mut rng);
        let (lifted, lifted_start) = lift(&unit, &unit_start, 1 + rng.uniform(5) as u32);
        let (seed, budget) = (rng.next_u64(), 1 + rng.uniform(100));
        let name = format!("case {case}");
        let row = Closed {
            name: &name,
            inst: &unit,
            start: &unit_start,
            seed,
            budget,
        };
        row.check(&protocols(&unit), &wide_executors(), &mut reached);
        let row = Closed {
            inst: &classes,
            start: &classes_start,
            ..row
        };
        row.check(&protocols(&classes), &wide_executors(), &mut reached);
        let row = Closed {
            name: &name,
            inst: &lifted,
            start: &lifted_start,
            seed,
            budget,
        };
        row.check(
            &protocols(lifted.instance()),
            &wide_executors(),
            &mut reached,
        );
    }
    assert!(reached.cut_full && reached.cut_switch && reached.cut_sparse);
    assert!(reached.fallback, "no recorded dense fallback");
}

/// The run seed whose stream for `user` in round 0 starts with draw `x`.
fn seed_with_first_draw(user: u64, x: u64) -> u64 {
    let seed = RoundStream::seed_of_base(unmix64(x), user, 0);
    assert_eq!(RoundStream::new(seed, user, 0).next_u64(), x);
    seed
}

#[test]
fn closed_rejection_zone() {
    // A seed built so that user 0's round-0 target draw falls in the
    // rejection zone of Lemire's method over m = 30 (2⁶⁴ mod 30 = 16: a
    // low product word below 16 redraws), with a target the redraw does
    // not repeat. A batched kernel has to hand that user to the per-user
    // step. From the hotspot round 0 is a full round on every executor;
    // from the near-legal start (11 of 200 users unsatisfied) the sparse
    // executors decide it on the active set.
    let mut reached = Reached::default();
    let (inst, hot_start) = hotspot(200, 30, 10);
    let mut near = State::round_robin(&inst).assignment().to_vec();
    near[..11].fill(ResourceId(0));
    let near_start = State::new(&inst, near).unwrap();
    for (name, start) in [
        ("rejection hotspot", &hot_start),
        ("rejection near-legal", &near_start),
    ] {
        assert!(!start.is_satisfied(&inst, UserId(0)));
        let proto = SlackDamped::default();
        let seed = (1..30u64)
            .map(|k| ((k as u128) << 64).div_ceil(30) as u64)
            .filter(|&x| ((x as u128 * 30) as u64) < 16)
            .map(|x| {
                (
                    seed_with_first_draw(0, x),
                    ResourceId(((x as u128 * 30) >> 64) as u32),
                )
            })
            .find(|&(seed, first)| {
                let mv = decide_user(
                    &inst,
                    start.loads(),
                    ResourceId(0),
                    UserId(0),
                    &proto,
                    seed,
                    0,
                );
                mv.is_none_or(|mv| mv.to != first)
            })
            .map(|(seed, _)| seed)
            .expect("a rejection draw whose redraw changes the decision");
        let row = Closed {
            name,
            inst: &inst,
            start,
            seed,
            budget: 60,
        };
        row.check(&protocols(&inst), &executors(), &mut reached);
    }
    assert!(reached.fallback, "no recorded dense fallback");
}

/// The churn driver's oracle: each episode displaces users exactly as the
/// driver does, then [`reference_run`] re-converges from the seed the
/// driver derives for it. Returns the final state, each episode's
/// recovery rounds and displaced count, and the `RoundEnd` series.
fn churn_oracle(
    inst: &Instance,
    legal: &State,
    proto: &dyn Protocol,
    cfg: ChurnConfig,
) -> (State, Vec<u64>, Vec<usize>, Vec<Event>) {
    let mut state = legal.clone();
    let (mut recovery, mut displaced, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    for episode in 0..cfg.episodes {
        let ep_seed = mix64_pair(cfg.seed, episode as u64 + 1);
        displaced.push(perturb_uniform(inst, &mut state, cfg.fraction, ep_seed));
        let budget = cfg.max_rounds_per_episode;
        let (out, trace) = oracle(inst, &state, proto, ep_seed, budget);
        recovery.push(out.rounds);
        ends.extend(ends_of(&trace.rounds));
        state = out.state;
    }
    (state, recovery, displaced, ends)
}

#[test]
fn churn_driver() {
    let inst = Instance::uniform(1600, 200, 10).unwrap();
    let legal = greedy_assign(&inst).unwrap();
    let mut rng = SplitMix64::new(0xC4A2);
    let mut rows = vec![(inst, legal, 0.2)];
    for _ in 0..8 {
        let (small, small_start) = small_unit(&mut rng);
        let settled = run(
            &small,
            small_start,
            &SlackDamped::default(),
            RunConfig::new(3, 5_000),
        );
        if settled.converged {
            rows.push((small, settled.state, rng.uniform(5) as f64 / 4.0));
        }
    }
    assert!(rows.len() > 4, "too few small churn rows settled");
    for (inst, legal, fraction) in &rows {
        for proto in registry(inst) {
            let cfg = |executor| ChurnConfig {
                seed: 41,
                fraction: *fraction,
                episodes: 3,
                max_rounds_per_episode: 40,
                executor,
            };
            let (state, recovery, displaced, ends) =
                churn_oracle(inst, legal, proto.as_ref(), cfg(Executor::Dense));
            let mut dense: Option<Vec<Event>> = None;
            for exec in executors() {
                let label = format!("n={} {} {exec:?}", inst.num_users(), proto.name());
                let mut rec = Recorder::default();
                let proto = proto.as_ref();
                let out = run_with_churn_observed(inst, legal.clone(), proto, cfg(exec), &mut rec);
                assert_eq!(out.state, state, "{label}");
                assert_eq!(out.recovery_rounds, recovery, "{label}");
                assert_eq!(out.displaced, displaced, "{label}");
                let plain = run_with_churn(inst, legal.clone(), proto, cfg(exec));
                assert_eq!(plain.state, state, "{label} (no sink)");
                let evs = events(&rec);
                let want = dense.get_or_insert_with(|| {
                    assert_eq!(round_ends(&evs), ends, "{label}: RoundEnd series");
                    evs.clone()
                });
                assert_eq!(&evs, want, "{label}: events");
            }
        }
    }
}

/// An open-driver row: fleet capacities, pool size and run config.
type OpenRow = (Vec<u32>, usize, OpenConfig);

/// Run every registry protocol on every executor of the open driver and
/// check each series and event stream against [`reference_open_run`];
/// with `plain_too`, also each run with no sink.
fn check_open(rows: &[OpenRow], plain_too: bool, reached: &mut Reached) {
    for (caps, pool, cfg) in rows {
        let (caps, pool, cfg) = (caps.as_slice(), *pool, *cfg);
        for proto in registry(&Instance::with_capacities(4, caps.to_vec()).unwrap()) {
            let want = reference_open_run(caps, pool, proto.as_ref(), cfg);
            reached.crowded_open |= want.iter().any(|s| s.unsatisfied >= 1024);
            let mut dense: Option<Vec<Event>> = None;
            for exec in executors() {
                let label = format!("pool {pool} {} {exec:?}", proto.name());
                let cfg = cfg.with_executor(exec);
                let mut rec = Recorder::default();
                let out = run_open_system_observed(caps, pool, proto.as_ref(), cfg, &mut rec);
                assert_eq!(out.series, want, "{label}");
                if plain_too {
                    let plain = run_open_system(caps, pool, proto.as_ref(), cfg);
                    assert_eq!(plain.series, want, "{label} (no sink)");
                }
                let evs = events(&rec);
                let want_events = dense.get_or_insert_with(|| {
                    let ends = evs.iter().filter_map(|e| match *e {
                        Event::RoundEnd {
                            round, unsatisfied, ..
                        } => Some((round, unsatisfied)),
                        _ => None,
                    });
                    let series = want.iter().map(|s| (s.round, s.unsatisfied));
                    assert!(ends.eq(series), "{label}: RoundEnd series");
                    evs.clone()
                });
                assert_eq!(&evs, want_events, "{label}: events");
                if matches!(exec, Executor::SparseThreaded(t) if t > 1) {
                    // an open sparse executor runs no full round: every
                    // Compute sample is an active-set round on the pool
                    reached.pooled_open |= rec.timers().histogram(Phase::Compute).count() > 0;
                }
            }
        }
    }
}

#[test]
fn open_churn() {
    // churn-heavy shapes: the 400-user pool mixes arrival batches,
    // departures and migrations; the 3 000-user pool holds about 2 000
    // active users past round 50
    let rows = [
        (vec![8; 24], 400, OpenConfig::new(11, 150, 6.0, 0.08)),
        (vec![8; 32], 3000, OpenConfig::new(17, 120, 40.0, 0.02)),
    ];
    check_open(&rows, false, &mut Reached::default());
}

#[test]
fn open_crowded_pooled() {
    // 400 arrivals a round against 2 048 slots leave over 1 024 users
    // unsatisfied at the top of the 8 192-user pool, where arrivals land,
    // so pooled active-set rounds run and the index bounds follow the
    // arrivals
    let mut reached = Reached::default();
    let rows = [(vec![8; 256], 8192, OpenConfig::new(11, 30, 400.0, 0.02))];
    check_open(&rows, false, &mut reached);
    assert!(reached.crowded_open, "no round with ≥ 1024 unsatisfied");
    assert!(reached.pooled_open, "no pooled active-set open round");
}

#[test]
fn open_random_small() {
    // random fleets of 4–23 resources of capacity 2–11, pools of at least
    // the fleet capacity, and random rates
    let mut rng = SplitMix64::new(0x0BE2);
    let rows: Vec<OpenRow> = (0..8)
        .map(|_| {
            let caps: Vec<u32> = (0..4 + rng.uniform_usize(20))
                .map(|_| 2 + rng.uniform(10) as u32)
                .collect();
            let pool = caps.iter().map(|&c| c as usize).sum::<usize>().max(32);
            let arrivals = 0.5 + 7.5 * rng.uniform(1000) as f64 / 1000.0;
            let departure = 0.01 + 0.24 * rng.uniform(1000) as f64 / 1000.0;
            let cfg = OpenConfig::new(rng.next_u64(), 120, arrivals, departure);
            (caps, pool, cfg)
        })
        .collect();
    check_open(&rows, true, &mut Reached::default());
}

#[test]
fn stale_executor_independence() {
    // a stale run decides every user in order on one thread, whatever the
    // executor: each replays the `Dense` stale run and its events
    let (hot, hot_start) = hotspot(1600, 32, 120);
    let mut rng = SplitMix64::new(0x57A1);
    let mut rows = vec![(
        hot,
        hot_start,
        RunConfig::new(7, 400).with_staleness(3, 0.25),
    )];
    for _ in 0..8 {
        let (inst, start) = small_unit(&mut rng);
        let (seed, budget) = (rng.next_u64(), 3 + rng.uniform(40));
        let (delay, loss) = (rng.uniform(5), rng.uniform(4) as f64 / 4.0);
        rows.push((
            inst,
            start,
            RunConfig::new(seed, budget).with_staleness(delay, loss),
        ));
    }
    for (inst, start, cfg) in &rows {
        for proto in protocols(inst) {
            let mut dense: Option<(RunOutcome, Vec<Event>)> = None;
            for exec in wide_executors() {
                let label = format!("n={} {} {exec:?}", inst.num_users(), proto.name());
                let cfg = cfg.with_executor(exec);
                let mut rec = Recorder::default();
                let out = run_observed(inst, start.clone(), proto.as_ref(), cfg, &mut rec);
                let plain = run(inst, start.clone(), proto.as_ref(), cfg);
                assert_same_run(&out, &plain, &format!("{label} (no sink)"));
                let evs = events(&rec);
                let (want, want_events) = dense.get_or_insert_with(|| (out.clone(), evs.clone()));
                assert_same_run(want, &out, &label);
                assert_eq!(&evs, want_events, "{label}: events");
            }
        }
    }
}

/// What moved between two states, as a reassignment batch.
fn reassignments(before: &State, after: &State) -> Vec<(UserId, ResourceId)> {
    let pairs = before.assignment().iter().zip(after.assignment());
    let moved = pairs.enumerate().filter(|(_, (a, b))| a != b);
    moved.map(|(u, (_, &b))| (UserId(u as u32), b)).collect()
}

#[test]
fn serve_core() {
    // The serving core on every thread count against `ParkedReference`
    // over the ops it recorded: places of weight 1–4, departures of random
    // tickets, one drain and ticks under a varying backlog, some with a
    // heartbeat. As in `pooled_ticks_match_sequential_ticks`, the hotspot
    // start leaves 6 000 users unsatisfied, and a burst of 30 groups of 100
    // slots, each group on one resource, over 3 000 at the top of the
    // 10 000-slot pool, so pooled ticks run and move the index bounds.
    let sc = Scenario::single_class(
        "serve-diff",
        6000,
        400,
        CapacityDist::Constant { cap: 20 },
        2.0,
        Placement::Hotspot,
    );
    let (mut crowded, mut pooled) = (false, false);
    let mut want_events: Option<Vec<Event>> = None;
    for threads in [0, 1, 2, 3, 8] {
        let mut core =
            ServeCore::from_scenario(&sc, 3, 4000, ServeConfig::new(3).with_threads(threads))
                .unwrap();
        let inner: Box<dyn Protocol> = Box::new(SlackDamped::default());
        let proto = RestrictTargets::new(inner, core.num_resources());
        let (inst, state) = (core.instance().clone(), core.state().clone());
        let mut reference = ParkedReference {
            inst,
            state,
            seed: 3,
        };
        let mut tickets: Vec<UserId> = (0..6000).map(UserId).collect();
        let (mut rng, mut rec, mut migrations) = (SplitMix64::new(0x5E4E), Recorder::default(), 0);
        for step in 0..400 {
            let label = format!("threads={threads} step {step}");
            let (before, mut tick) = (core.state().clone(), None);
            let draw = rng.uniform(20);
            let ops = if step == 200 {
                let r = ResourceId(rng.uniform(core.num_resources() as u64) as u32);
                core.drain(r, &mut rec).unwrap();
                vec![ParkedOp::Drain(r)]
            } else if (250..280).contains(&step) || (8..14).contains(&draw) {
                let weight = match step {
                    250..280 => 100,
                    _ => 1 + rng.uniform(4) as u32,
                };
                if let Ok(p) = core.place(ClassId(0), weight, &mut rec) {
                    tickets.push(p.user);
                }
                vec![ParkedOp::Reassign(reassignments(&before, core.state()))]
            } else if draw < 8 {
                let (pending, first) = (rng.uniform_usize(40), core.round());
                crowded |= core.unsatisfied() >= 1024;
                let out = core.tick(pending, draw == 0, &mut rec);
                tick = Some((out, core.tick_budget(pending)));
                (first..core.round()).map(ParkedOp::Round).collect()
            } else {
                // half the time the newest ticket, whose group may still
                // crowd its resource: its departure uncrowds the others
                let newest = tickets.len() - 1;
                let i = if draw < 17 {
                    rng.uniform_usize(newest)
                } else {
                    newest
                };
                let ticket = tickets.swap_remove(i);
                core.depart(ticket, &mut rec).unwrap();
                vec![ParkedOp::Reassign(reassignments(&before, core.state()))]
            };
            for op in &ops {
                migrations += reference.apply(&proto, op) as u64;
            }
            let unsatisfied = reference.num_unsatisfied();
            // (the states' Debug output would run to megabytes)
            assert!(core.state() == &reference.state, "{label}: state");
            assert_eq!(core.unsatisfied(), unsatisfied, "{label}");
            assert_eq!(core.migrations_total(), migrations, "{label}");
            if let Some((out, budget)) = tick {
                assert_eq!(out.unsatisfied, unsatisfied, "{label}");
                if out.rounds < budget {
                    assert_eq!(unsatisfied, 0, "{label}: the tick stopped early");
                }
            }
        }
        let evs = events(&rec);
        assert_eq!(
            &evs,
            want_events.get_or_insert_with(|| evs.clone()),
            "threads={threads}"
        );
        if threads > 1 {
            pooled |= rec.timers().histogram(Phase::Compute).count() > 0;
        }
    }
    assert!(crowded, "no tick with ≥ 1024 unsatisfied");
    assert!(pooled, "no pooled serve tick");
}
