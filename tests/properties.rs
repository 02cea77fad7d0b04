//! Property-based tests of the model's core invariants (proptest).

use proptest::prelude::*;
use qoslb::core::potential::unsatisfied_potential;
use qoslb::core::step::{decide_round, decide_shard_into, reference_run};
use qoslb::core::weighted::WeightedInstance;
use qoslb::engine::{
    perturb_uniform, run, run_observed, run_open_system, run_with_churn, ChurnConfig, OpenConfig,
    RunConfig,
};
use qoslb::flow::{brute_force_feasible, flow_feasible};
use qoslb::obs::{Counter, Event, Recorder};
use qoslb::prelude::*;
use qoslb::workload::calibrate_slack;

/// Strategy: a feasible single-class instance with a hotspot-ish start.
fn small_instance() -> impl Strategy<Value = (Instance, State, u64)> {
    (
        2usize..=64,                                 // n
        1usize..=12,                                 // m
        1u32..=8,                                    // base cap
        proptest::collection::vec(0u32..=6, 1..=12), // cap jitter
        0u64..=u64::MAX,                             // seed
    )
        .prop_map(|(n, m, base, jitter, seed)| {
            let mut caps: Vec<u32> = (0..m)
                .map(|r| base + jitter.get(r % jitter.len()).copied().unwrap_or(0))
                .collect();
            // guarantee feasibility: scale total to at least n
            let total: u64 = caps.iter().map(|&c| c as u64).sum();
            if total < n as u64 {
                calibrate_slack(&mut caps, n, 1.25);
            }
            let inst = Instance::with_capacities(n, caps).unwrap();
            let state = State::random(&inst, seed);
            (inst, state, seed)
        })
}

/// Strategy: a 2–3 class latency instance with distinct effective caps
/// per class — thresholds drawn from {1, 1/2, 1/4} over speeds ≥ 4, in a
/// rotated order so the strict class is not always class 0 — and a random
/// start.
fn multi_class_instance() -> impl Strategy<Value = (Instance, State, u64)> {
    (
        proptest::collection::vec(1usize..=24, 2..=3), // class sizes
        proptest::collection::vec(4u32..=16, 1..=8),   // speeds
        0usize..3,                                     // threshold rotation
        0u64..=u64::MAX,                               // seed
    )
        .prop_map(|(sizes, speeds, rot, seed)| {
            let mut builder =
                InstanceBuilder::new().speeds(speeds.iter().map(|&s| s as f64).collect());
            for (k, &count) in sizes.iter().enumerate() {
                builder = builder.latency_class([1.0, 0.5, 0.25][(k + rot) % 3], count);
            }
            let inst = builder.build().unwrap();
            let state = State::random(&inst, seed);
            (inst, state, seed)
        })
}

/// Lift a single-class instance into the weighted model: user `i` gets
/// demand `1 + (i mod weight_max)` and capacities scale by the mean demand
/// (the `qlb-sim --driver weighted` lift).
fn lift_weighted(inst: &Instance, weight_max: u32) -> WeightedInstance {
    let n = inst.num_users();
    let weights: Vec<u32> = (0..n).map(|i| 1 + (i as u32 % weight_max)).collect();
    let total_w: u64 = weights.iter().map(|&w| w as u64).sum();
    let caps: Vec<u32> = inst
        .cap_row(ClassId(0))
        .iter()
        .map(|&c| ((c as u64) * total_w).div_ceil(n as u64) as u32)
        .collect();
    WeightedInstance::new(caps, weights).unwrap()
}

/// Drive an [`ActiveIndex`] through protocol batches interleaved with
/// arbitrary single-user hops, checking it against a brute-force
/// recomputation after every batch.
fn check_active_index<I: Demands>(inst: &I, mut state: State, seed: u64, hops: &[(usize, usize)]) {
    let (n, m) = (inst.instance().num_users(), inst.instance().num_resources());
    let mut index = ActiveIndex::new(inst, &state);
    index.assert_consistent(inst, &state);

    // interleave protocol rounds (realistic batches) with arbitrary
    // single-user hops (adversarial batches)
    for (round, &(u, r)) in hops.iter().enumerate() {
        let batch = decide_round(inst, &state, &SlackDamped::default(), seed, round as u64);
        index.apply_moves(inst, &mut state, &batch);
        index.assert_consistent(inst, &state);

        let user = UserId((u % n) as u32);
        let from = state.resource_of(user);
        let to = ResourceId((r % m) as u32);
        if to != from {
            index.apply_moves(inst, &mut state, &[Move { user, from, to }]);
            index.assert_consistent(inst, &state);
        }
        // the O(1) emptiness check always agrees with legality
        prop_assert_eq!(index.is_empty(), state.is_legal(inst));
        prop_assert_eq!(index.num_active(), state.num_unsatisfied(inst));
    }
}

/// Drive [`ActiveIndex::apply_reassignments`] with random re-homing
/// batches over `inst` plus an exempt parking resource, each followed by
/// one protocol round through `apply_moves` (the open driver's shape),
/// checking the index against one built from scratch after every batch.
fn check_reassignments(inst: &Instance, seed: u64, batches: &[Vec<(usize, usize)>]) {
    let parked = inst.with_parking(&[]).unwrap();
    let (n, m) = (parked.num_users(), parked.num_resources());
    let parking = ResourceId((m - 1) as u32);
    let mut state = State::all_on(&parked, parking);
    let mut index = ActiveIndex::new(&parked, &state);
    for (round, batch) in batches.iter().enumerate() {
        let changes: Vec<(UserId, ResourceId)> = batch
            .iter()
            .map(|&(u, r)| (UserId((u % n) as u32), ResourceId((r % m) as u32)))
            .collect();
        index.apply_reassignments(&parked, &mut state, &changes, Some(parking));
        index.assert_consistent(&parked, &state);
        prop_assert!(index
            .active()
            .eq(ActiveIndex::new(&parked, &state).active()));

        let moves = decide_round(&parked, &state, &SlackDamped::default(), seed, round as u64);
        index.apply_moves(&parked, &mut state, &moves);
        index.assert_consistent(&parked, &state);
    }
}

/// Strategy: a single-class instance of 513–2047 users — never a multiple
/// of 512, so the last index shard is partial — at slack 1.1 from a random
/// start, and an index shard count of 1–4.
fn sharded_instance() -> impl Strategy<Value = (Instance, State, u64, usize)> {
    (
        1usize..=3,      // whole 512-user blocks
        1usize..512,     // users past them
        2usize..=40,     // m
        0u64..=u64::MAX, // seed
        1usize..=4,      // shards
    )
        .prop_map(|(blocks, rem, m, seed, shards)| {
            let n = 512 * blocks + rem;
            let mut caps: Vec<u32> = (0..m as u32).map(|r| 1 + r % 7).collect();
            calibrate_slack(&mut caps, n, 1.1);
            let inst = Instance::with_capacities(n, caps).unwrap();
            let state = State::random(&inst, seed);
            (inst, state, seed, shards)
        })
}

/// Strategy: a 2–3 class instance of the same sizes, its classes in
/// user-id blocks with distinct thresholds (as in
/// [`multi_class_instance`]), from a random start.
fn sharded_multi_class_instance() -> impl Strategy<Value = (Instance, State, u64)> {
    (
        proptest::collection::vec(200usize..=800, 2..=3), // class sizes
        proptest::collection::vec(8u32..=48, 4..=24),     // speeds
        0usize..3,                                        // threshold rotation
        0u64..=u64::MAX,                                  // seed
    )
        .prop_map(|(mut sizes, speeds, rot, seed)| {
            if sizes.iter().sum::<usize>() % 512 == 0 {
                sizes[0] += 1;
            }
            let mut builder =
                InstanceBuilder::new().speeds(speeds.iter().map(|&s| s as f64).collect());
            for (k, &count) in sizes.iter().enumerate() {
                builder = builder.latency_class([1.0, 0.5, 0.25][(k + rot) % 3], count);
            }
            let inst = builder.build().unwrap();
            let state = State::random(&inst, seed);
            (inst, state, seed)
        })
}

/// A batch of adversarial single-user hops decided against `state`: one
/// move per distinct picked user whose pick names another resource, in
/// user order as a decided round lists them.
fn hop_batch(state: &State, m: usize, picks: &[(usize, usize)]) -> Vec<Move> {
    let n = state.num_users();
    let mut seen = std::collections::HashSet::new();
    let mut batch: Vec<Move> = picks
        .iter()
        .filter_map(|&(u, r)| {
            let user = UserId((u % n) as u32);
            let (from, to) = (state.resource_of(user), ResourceId((r % m) as u32));
            (from != to && seen.insert(user)).then_some(Move { user, from, to })
        })
        .collect();
    batch.sort_by_key(|mv| mv.user);
    batch
}

/// `index` describes `state` and answers every query as the one-shard
/// `single` and a one-shard rebuild from scratch do.
fn assert_same_index<I: Demands>(
    inst: &I,
    state: &State,
    index: &ActiveIndex,
    single: &ActiveIndex,
) {
    index.assert_consistent(inst, state);
    let rebuilt = ActiveIndex::new(inst, state);
    let occupants = |idx: &ActiveIndex, r| {
        let mut users: Vec<UserId> = idx.occupants(r).collect();
        users.sort();
        users
    };
    for other in [single, &rebuilt] {
        prop_assert!(index.active().eq(other.active()));
        prop_assert_eq!(index.num_active(), other.num_active());
        prop_assert_eq!(index.is_empty(), other.is_empty());
        for r in inst.instance().resource_ids() {
            prop_assert_eq!(
                occupants(index, r),
                occupants(other, r),
                "occupants of {}",
                r
            );
        }
    }
}

/// Drive a `shards`-shard index and a one-shard index through the same
/// batches — protocol rounds, with adversarial hops on odd rounds — and
/// compare both with a rebuild after every batch.
///
/// Eagerly, the sharded index takes each batch through `apply_moves`.
/// Deferred, it follows the engine's schedule: one step per round in which
/// every shard syncs with the previous batch (in reverse shard order, as
/// the order of shards must not matter), then decides its own users with
/// the shard kernel or stages its hops; the coordinator then applies the
/// batch with `apply_staged`. A final sync-only step closes the run.
fn check_sharded_index<I: Demands>(
    inst: &I,
    start: State,
    seed: u64,
    shards: usize,
    deferred: bool,
    hops: &[Vec<(usize, usize)>],
) {
    let (m, proto) = (inst.instance().num_resources(), SlackDamped::default());
    let mut state = start.clone();
    let mut single_state = start;
    let mut index = ActiveIndex::with_shards(inst, &state, shards);
    let mut single = ActiveIndex::new(inst, &single_state);
    prop_assert_eq!(index.num_shards(), shards);
    assert_same_index(inst, &state, &index, &single);
    for (round, picks) in hops.iter().enumerate() {
        let round = round as u64;
        let protocol = round.is_multiple_of(2);
        let batch = if protocol {
            decide_round(inst, &state, &proto, seed, round)
        } else {
            hop_batch(&state, m, picks)
        };
        if deferred {
            let mut decided = Vec::new();
            index.step_shards(|crossed, parts| {
                for part in parts.iter_mut().rev() {
                    part.sync(inst, &state, crossed);
                }
                for part in parts.iter_mut() {
                    let from = decided.len();
                    if protocol {
                        decide_shard_into(inst, &state, part, &proto, seed, round, &mut decided);
                    } else {
                        let own = part.range();
                        decided.extend(batch.iter().filter(|mv| own.contains(&mv.user.index())));
                    }
                    part.stage(&decided[from..]);
                }
            });
            prop_assert_eq!(&decided, &batch, "round {}", round);
            assert_same_index(inst, &state, &index, &single);
            index.apply_staged(inst, &mut state, &batch);
            single.apply_moves(inst, &mut single_state, &batch);
        } else {
            index.apply_moves(inst, &mut state, &batch);
            single.apply_moves(inst, &mut single_state, &batch);
            assert_same_index(inst, &state, &index, &single);
        }
        prop_assert_eq!(&state, &single_state);
    }
    if deferred {
        index.sync(inst, &state);
        assert_same_index(inst, &state, &index, &single);
    }
}

/// Drive a `shards`-shard index and a one-shard index through the same
/// reassignment batches over `inst` plus a parking resource, exempting it
/// from rechecks or not, and compare both with a rebuild after every batch.
fn check_sharded_reassignments(
    inst: &Instance,
    shards: usize,
    exempt: bool,
    batches: &[Vec<(usize, usize)>],
) {
    let parked = inst.with_parking(&[]).unwrap();
    let (n, m) = (parked.num_users(), parked.num_resources());
    let parking = ResourceId((m - 1) as u32);
    let exempt = exempt.then_some(parking);
    let mut state = State::all_on(&parked, parking);
    let mut single_state = state.clone();
    let mut index = ActiveIndex::with_shards(&parked, &state, shards);
    let mut single = ActiveIndex::new(&parked, &single_state);
    for batch in batches {
        let changes: Vec<(UserId, ResourceId)> = batch
            .iter()
            .map(|&(u, r)| (UserId((u % n) as u32), ResourceId((r % m) as u32)))
            .collect();
        index.apply_reassignments(&parked, &mut state, &changes, exempt);
        single.apply_reassignments(&parked, &mut single_state, &changes, exempt);
        prop_assert_eq!(&state, &single_state);
        assert_same_index(&parked, &state, &index, &single);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loads always sum to n and match a recount, no matter how many
    /// protocol rounds run.
    #[test]
    fn load_conservation_under_protocol((inst, state, seed) in small_instance()) {
        let out = run(&inst, state, &SlackDamped::default(), RunConfig::new(seed, 50));
        let total: u32 = out.state.loads().iter().sum();
        prop_assert_eq!(total as usize, inst.num_users());
        out.state.debug_assert_invariants(&inst);
    }

    /// Φ = 0 exactly when the state is legal (single class).
    #[test]
    fn overload_zero_iff_legal((inst, state, _seed) in small_instance()) {
        let legal = state.is_legal(&inst);
        let phi = overload_potential(&inst, &state);
        // zero-capacity resources break the pure-overload equivalence only
        // when occupied; handle by the general unsatisfied count instead
        let unsat = unsatisfied_potential(&inst, &state);
        prop_assert_eq!(legal, unsat == 0);
        if phi == 0 && inst.cap_row(ClassId(0)).iter().all(|&c| c > 0) {
            prop_assert!(legal);
        }
        if legal {
            prop_assert_eq!(phi, 0);
        }
    }

    /// No kernel ever moves a satisfied user, and every move starts from
    /// the user's true resource.
    #[test]
    fn satisfied_users_never_move((inst, state, seed) in small_instance()) {
        for round in 0..5u64 {
            let moves = decide_round(&inst, &state, &SlackDamped::default(), seed, round);
            for mv in &moves {
                prop_assert_eq!(mv.from, state.resource_of(mv.user));
                prop_assert!(!state.is_satisfied(&inst, mv.user));
                prop_assert_ne!(mv.to, mv.from);
            }
        }
    }

    /// Deciding a round twice yields identical moves; changing the seed is
    /// allowed to change them.
    #[test]
    fn decisions_deterministic((inst, state, seed) in small_instance()) {
        let a = decide_round(&inst, &state, &SlackDamped::default(), seed, 0);
        let b = decide_round(&inst, &state, &SlackDamped::default(), seed, 0);
        prop_assert_eq!(a, b);
    }

    /// The damped kernel only ever targets resources with room.
    #[test]
    fn damped_never_targets_full_resources((inst, state, seed) in small_instance()) {
        let moves = decide_round(&inst, &state, &SlackDamped::default(), seed, 0);
        for mv in &moves {
            prop_assert!(
                state.load(mv.to) < inst.capacity(mv.to),
                "moved into a full resource"
            );
        }
    }

    /// Sequential best response on feasible single-class instances: a move
    /// satisfies its mover and unsatisfies nobody, so the dynamics use at
    /// most one migration per initially-unsatisfied user and converge
    /// whenever free capacity exists.
    #[test]
    fn best_response_terminates((inst, state, _seed) in small_instance()) {
        prop_assume!(inst.single_class_feasible());
        let initially_unsat = state.num_unsatisfied(&inst) as u64;
        let out = best_response_run(&inst, state, inst.num_users() as u64 + 5);
        if inst.slack() > 0 {
            prop_assert!(out.converged, "positive slack must converge");
        }
        prop_assert!(
            out.migrations <= initially_unsat,
            "BR used {} migrations for {} unsatisfied users",
            out.migrations,
            initially_unsat
        );
        if out.converged {
            prop_assert_eq!(out.state.num_unsatisfied(&inst), 0);
        }
    }

    /// calibrate_slack hits its target exactly and preserves zeros.
    #[test]
    fn calibration_exact(
        caps in proptest::collection::vec(0u32..50, 1..40),
        n in 1usize..5000,
        gamma in 1.0f64..3.0,
    ) {
        prop_assume!(caps.iter().any(|&c| c > 0));
        let mut calibrated = caps.clone();
        calibrate_slack(&mut calibrated, n, gamma);
        let total: u64 = calibrated.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(total, (gamma * n as f64).ceil() as u64);
        for (orig, new) in caps.iter().zip(&calibrated) {
            if *orig == 0 {
                prop_assert_eq!(*new, 0);
            }
        }
    }

    /// The flow oracle agrees with brute force on random eligibility
    /// tables (exactness), and greedy success implies true feasibility
    /// (soundness of the sufficient check).
    #[test]
    fn feasibility_oracles_consistent(
        m in 1usize..4,
        kk in 1usize..4,
        caps in proptest::collection::vec(0u32..4, 1..4),
        permits in proptest::collection::vec(proptest::bool::ANY, 1..16),
        sizes in proptest::collection::vec(0usize..5, 1..4),
    ) {
        let sizes: Vec<usize> = (0..kk).map(|k| sizes.get(k).copied().unwrap_or(0)).collect();
        let mut tbl = vec![0u32; kk * m];
        for r in 0..m {
            let cap = caps.get(r % caps.len()).copied().unwrap_or(0);
            for k in 0..kk {
                if permits.get((k * m + r) % permits.len()).copied().unwrap_or(false) {
                    tbl[k * m + r] = cap;
                }
            }
        }
        let flow = flow_feasible(&sizes, &tbl, m).expect("two-valued");
        let brute = brute_force_feasible(&sizes, &tbl, m);
        prop_assert_eq!(flow.feasible, brute);
    }

    /// Runs from any feasible start leave the state legal when converged,
    /// and on every executor each trace entry and settling time equals
    /// what the reference loop cut at each budget shows, counted on
    /// `State` alone: `trace.rounds[t]` describes the state after `t`
    /// rounds. The budgets end in full rounds and in the active-set phase
    /// alike.
    #[test]
    fn trace_settling_bounded((inst, state, seed) in small_instance(), budget in 1u64..=40) {
        let proto = SlackDamped::default();
        let cut = |t| reference_run(&inst, state.clone(), &proto, seed, t, |_, _| {});
        let oracle: Vec<RunOutcome> = (0..=budget).map(cut).collect();
        for exec in [
            Executor::Dense,
            Executor::Sparse,
            Executor::Threaded(2),
            Executor::SparseThreaded(2),
        ] {
            let mut trace = Trace::with_settling_times(&inst, &state);
            let cfg = RunConfig::new(seed, budget).with_executor(exec);
            let out = run_observed(&inst, state.clone(), &proto, cfg, &mut trace);
            prop_assert_eq!(trace.rounds.len() as u64, out.rounds + 1, "{:?}", exec);
            let mut last = vec![None; inst.num_users()];
            for (t, entry) in trace.rounds.iter().enumerate() {
                let want = &oracle[t];
                let moved_before = t.checked_sub(1).map_or(0, |p| oracle[p].migrations);
                prop_assert_eq!(entry.round, t as u64, "{:?}", exec);
                prop_assert_eq!(entry.unsatisfied, want.state.num_unsatisfied(&inst) as u64);
                prop_assert_eq!(entry.overload, Some(overload_potential(&inst, &want.state)));
                prop_assert_eq!(entry.migrations, want.migrations - moved_before);
                for u in inst.users() {
                    if !want.state.is_satisfied(&inst, u) {
                        last[u.index()] = Some(t as u64);
                    }
                }
            }
            let settling: Vec<u64> = last.iter().map(|l| l.map_or(0, |t| t + 1)).collect();
            prop_assert_eq!(&trace.settling_times(), &settling, "{:?}", exec);
            if out.converged {
                prop_assert!(out.state.is_legal(&inst));
                prop_assert!(settling.iter().all(|&t| t <= out.rounds));
            }
        }
    }

    /// The dense and the sparse active-set executor reproduce the
    /// reference loop's trajectory bit-for-bit, for **every** registered
    /// protocol kernel, across random instances, seeds, and round budgets.
    #[test]
    fn sparse_executor_matches_dense(
        (inst, state, seed) in small_instance(),
        budget in 1u64..300,
    ) {
        for proto in qoslb::core::protocol::registry(&inst) {
            let want = reference_run(&inst, state.clone(), proto.as_ref(), seed, budget, |_, _| {});
            let name = proto.name();
            for executor in [Executor::Dense, Executor::Sparse] {
                let cfg = RunConfig::new(seed, budget).with_executor(executor);
                let out = run(&inst, state.clone(), proto.as_ref(), cfg);
                prop_assert_eq!(want.converged, out.converged, "{} {:?}", name, executor);
                prop_assert_eq!(want.rounds, out.rounds, "{} {:?}", name, executor);
                prop_assert_eq!(want.migrations, out.migrations, "{} {:?}", name, executor);
                prop_assert_eq!(&want.state, &out.state, "{} {:?}", name, executor);
            }
        }
    }

    /// A protocol that acts while satisfied (graph diffusion) is unsound
    /// for the active set; the sparse executor must detect that and fall
    /// back to the dense loop, so the trajectory still matches exactly and
    /// the recorded events are the dense run's behind one announcement of
    /// the fallback.
    #[test]
    fn sparse_falls_back_for_acting_while_satisfied(
        (inst, state, seed) in small_instance(),
        budget in 1u64..100,
    ) {
        let proto = qoslb::topo::GraphDiffusion::new(
            qoslb::topo::Graph::complete(inst.num_resources()),
        );
        prop_assert!(proto.acts_when_satisfied());
        let cfg = RunConfig::new(seed, budget);
        let mut dense_rec = Recorder::default();
        let dense = run_observed(&inst, state.clone(), &proto, cfg, &mut dense_rec);
        let mut sparse_rec = Recorder::default();
        let sparse = run_observed(
            &inst,
            state,
            &proto,
            cfg.with_executor(Executor::Sparse),
            &mut sparse_rec,
        );
        prop_assert_eq!(dense.rounds, sparse.rounds);
        prop_assert_eq!(dense.migrations, sparse.migrations);
        prop_assert_eq!(&dense.state, &sparse.state);
        let events = |r: &Recorder| r.events().iter().map(|(_, e)| e).collect::<Vec<_>>();
        let mut expected = vec![Event::ExecutorSwitch { round: 0, sparse: false }];
        expected.extend(events(&dense_rec));
        prop_assert_eq!(events(&sparse_rec), expected);
    }

    /// Attaching the qlb-obs recorder never perturbs a trajectory: for
    /// every registered protocol, the observed run (dense **and** sparse)
    /// is bit-identical to the unobserved one, and the recorded round
    /// counter agrees with the outcome.
    #[test]
    fn observed_runs_bit_identical(
        (inst, state, seed) in small_instance(),
        budget in 1u64..200,
    ) {
        for proto in qoslb::core::protocol::registry(&inst) {
            let cfg = RunConfig::new(seed, budget);
            let name = proto.name();
            let plain = run(&inst, state.clone(), proto.as_ref(), cfg);

            let mut rec = Recorder::default();
            let dense = run_observed(&inst, state.clone(), proto.as_ref(), cfg, &mut rec);
            prop_assert_eq!(&plain.state, &dense.state, "dense {}", name);
            prop_assert_eq!(plain.rounds, dense.rounds, "dense {}", name);
            prop_assert_eq!(plain.migrations, dense.migrations, "dense {}", name);
            prop_assert_eq!(rec.counter(Counter::Rounds), plain.rounds, "{}", name);
            prop_assert_eq!(rec.counter(Counter::Migrations), plain.migrations, "{}", name);

            let mut rec = Recorder::default();
            let sparse = run_observed(&inst, state.clone(), proto.as_ref(), cfg.with_executor(Executor::Sparse), &mut rec);
            prop_assert_eq!(&plain.state, &sparse.state, "sparse {}", name);
            prop_assert_eq!(plain.rounds, sparse.rounds, "sparse {}", name);
            prop_assert_eq!(
                rec.counter(Counter::DenseRounds) + rec.counter(Counter::SparseRounds),
                plain.rounds,
                "sparse round split {}",
                name
            );
        }
    }

    /// Churn displacement repairs an [`ActiveIndex`] exactly like a dense
    /// recount: replaying a churn episode's displacement as a move batch
    /// through `apply_moves` leaves the index identical to one rebuilt
    /// from scratch, and the sparse-executor churn driver reproduces the
    /// dense trajectory bit-for-bit.
    #[test]
    fn churn_repairs_active_index_like_dense_recount(
        (inst, state, seed) in small_instance(),
        fraction in 0.0f64..=1.0,
    ) {
        // reach a legal state first — the churn driver requires one
        let settled = run(&inst, state, &SlackDamped::default(), RunConfig::new(seed, 5_000));
        prop_assume!(settled.converged);

        // one churn episode, replayed as an explicit move batch
        let before = settled.state.clone();
        let mut after = settled.state.clone();
        perturb_uniform(&inst, &mut after, fraction, seed);
        let batch: Vec<Move> = (0..inst.num_users())
            .map(|u| UserId(u as u32))
            .filter(|&u| before.resource_of(u) != after.resource_of(u))
            .map(|u| Move { user: u, from: before.resource_of(u), to: after.resource_of(u) })
            .collect();

        let mut repaired = before.clone();
        let mut index = ActiveIndex::new(&inst, &repaired);
        index.apply_moves(&inst, &mut repaired, &batch);
        prop_assert_eq!(&repaired, &after);
        index.assert_consistent(&inst, &repaired);
        let recount = ActiveIndex::new(&inst, &after);
        prop_assert_eq!(index.num_active(), recount.num_active());
        prop_assert_eq!(index.is_empty(), recount.is_empty());

        // and the full churn driver: sparse executor == dense executor
        let cfg = |executor| ChurnConfig {
            seed,
            fraction,
            episodes: 3,
            max_rounds_per_episode: 5_000,
            executor,
        };
        let dense = run_with_churn(
            &inst, settled.state.clone(), &SlackDamped::default(), cfg(Executor::Dense),
        );
        let sparse = run_with_churn(
            &inst, settled.state, &SlackDamped::default(), cfg(Executor::Sparse),
        );
        prop_assert_eq!(&dense.state, &sparse.state);
        prop_assert_eq!(dense.recovery_rounds, sparse.recovery_rounds);
        prop_assert_eq!(dense.displaced, sparse.displaced);
        prop_assert_eq!(dense.all_recovered, sparse.all_recovered);
    }

    /// The persistent worker-pool executors, and the dense one, reproduce
    /// the reference loop's trajectory bit-for-bit for **every** registered
    /// protocol kernel — including pools far wider than the user count,
    /// where most shards are empty.
    #[test]
    fn pooled_executors_match_dense(
        (inst, state, seed) in small_instance(),
        budget in 1u64..200,
        threads in 1usize..9,
    ) {
        for proto in qoslb::core::protocol::registry(&inst) {
            let name = proto.name();
            let want = reference_run(&inst, state.clone(), proto.as_ref(), seed, budget, |_, _| {});
            for executor in [
                Executor::Dense,
                Executor::Threaded(threads),
                Executor::SparseThreaded(threads),
                // wider than any instance the strategy generates (n ≤ 64):
                // excess shards must collapse away without changing anything
                Executor::Threaded(128),
                Executor::SparseThreaded(128),
            ] {
                let cfg = RunConfig::new(seed, budget).with_executor(executor);
                let pooled = run(&inst, state.clone(), proto.as_ref(), cfg);
                prop_assert_eq!(want.converged, pooled.converged, "{} {:?}", name, executor);
                prop_assert_eq!(want.rounds, pooled.rounds, "{} {:?}", name, executor);
                prop_assert_eq!(want.migrations, pooled.migrations, "{} {:?}", name, executor);
                prop_assert_eq!(&want.state, &pooled.state, "{} {:?}", name, executor);
            }
        }
    }

    /// The open-system driver produces an identical per-round series under
    /// every executor, on churn-heavy workloads where the active set turns
    /// over constantly (arrivals and departures every round).
    #[test]
    fn open_system_executors_produce_identical_series(
        caps in proptest::collection::vec(2u32..12, 4..24),
        seed in 0u64..=u64::MAX,
        arrivals in 0.5f64..8.0,
        departure in 0.01f64..0.25,
    ) {
        let total: u64 = caps.iter().map(|&c| c as u64).sum();
        let pool = (total as usize).max(32);
        let base = OpenConfig::new(seed, 120, arrivals, departure);
        let dense = run_open_system(&caps, pool, &SlackDamped::default(), base);
        for executor in [
            Executor::Sparse,
            Executor::Threaded(3),
            Executor::SparseThreaded(4),
        ] {
            let cfg = base.with_executor(executor);
            let out = run_open_system(&caps, pool, &SlackDamped::default(), cfg);
            prop_assert_eq!(&dense.series, &out.series, "{:?}", executor);
        }
    }

    /// Every executor reproduces the reference loop's trajectory of a
    /// weighted run bit-for-bit.
    #[test]
    fn weighted_executors_match_dense(
        (inst, state, seed) in small_instance(),
        budget in 1u64..200,
        weight_max in 1u32..6,
    ) {
        let winst = lift_weighted(&inst, weight_max);
        let start = State::new(&winst, state.assignment().to_vec()).unwrap();
        let proto = SlackDamped::default();
        let want = reference_run(&winst, start.clone(), &proto, seed, budget, |_, _| {});
        for executor in [
            Executor::Dense,
            Executor::Sparse,
            Executor::Threaded(3),
            Executor::SparseThreaded(4),
        ] {
            let cfg = RunConfig::new(seed, budget).with_executor(executor);
            let out = run(&winst, start.clone(), &proto, cfg);
            prop_assert_eq!(want.converged, out.converged, "{:?}", executor);
            prop_assert_eq!(want.rounds, out.rounds, "{:?}", executor);
            prop_assert_eq!(want.migrations, out.migrations, "{:?}", executor);
            prop_assert_eq!(want.weight_moved, out.weight_moved, "{:?}", executor);
            prop_assert_eq!(&want.state, &out.state, "{:?}", executor);
        }
    }

    /// The incrementally-maintained unsatisfied set equals a brute-force
    /// recomputation after arbitrary (valid) move sequences — both
    /// protocol-decided batches and adversarial single reassignments — on
    /// the unit instance, on its weighted lift (weights 1..=4) and on a
    /// 2–3 class instance with distinct caps per class.
    #[test]
    fn active_index_matches_brute_force(
        (inst, state, seed) in small_instance(),
        (minst, mstate, mseed) in multi_class_instance(),
        hops in proptest::collection::vec((0usize..4096, 0usize..4096), 1..24),
    ) {
        let winst = lift_weighted(&inst, 4);
        let wstate = State::new(&winst, state.assignment().to_vec()).unwrap();
        check_active_index(&inst, state, seed, &hops);
        check_active_index(&winst, wstate, seed, &hops);
        check_active_index(&minst, mstate, mseed, &hops);
    }

    /// Reassignment batches with an exempt parking resource (arrivals,
    /// departures and hops, as the open and serve drivers issue them)
    /// leave the index equal to one rebuilt from scratch, on unit and
    /// multi-class instances.
    #[test]
    fn reassignments_match_rebuilt_index(
        (inst, _state, seed) in small_instance(),
        (minst, _mstate, mseed) in multi_class_instance(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..4096, 0usize..4096), 1..16),
            1..12,
        ),
    ) {
        check_reassignments(&inst, seed, &batches);
        check_reassignments(&minst, mseed, &batches);
    }

    /// A sharded index — 1–4 shards over a population that is not a
    /// multiple of the 512-user shard alignment — equals a one-shard index
    /// and a rebuild after every batch, on unit, weighted-lift and 2–3
    /// class instances: through eager `apply_moves`, through the engine's
    /// deferred per-shard sync, and through `apply_reassignments` with and
    /// without an exempt parking resource.
    #[test]
    fn sharded_index_matches_one_shard(
        (inst, state, seed, shards) in sharded_instance(),
        (minst, mstate, mseed) in sharded_multi_class_instance(),
        hops in proptest::collection::vec(
            proptest::collection::vec((0usize..1 << 16, 0usize..4096), 1..64),
            1..10,
        ),
    ) {
        let winst = lift_weighted(&inst, 4);
        let wstate = State::new(&winst, state.assignment().to_vec()).unwrap();
        for deferred in [false, true] {
            check_sharded_index(&inst, state.clone(), seed, shards, deferred, &hops);
            check_sharded_index(&winst, wstate.clone(), seed, shards, deferred, &hops);
            check_sharded_index(&minst, mstate.clone(), mseed, shards, deferred, &hops);
        }
        for exempt in [false, true] {
            check_sharded_reassignments(&inst, shards, exempt, &hops);
            check_sharded_reassignments(&minst, shards, exempt, &hops);
        }
    }
}
