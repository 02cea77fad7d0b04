//! End-to-end equivalence of the SoA pooled decide path.
//!
//! The struct-of-arrays round view (`qlb_core::view`) re-implements the
//! dense decide kernel with a bitmap pre-filter, batched RNG draws, and
//! per-shard delta merging. These tests pin the contract that makes it
//! shippable: **every executor produces the byte-identical trajectory**,
//! across the full protocol registry, thread counts {1, 2, 3, 8}, and all
//! three drivers (closed, open-with-churn, weighted). The expected side is
//! a path that never touches the view: the dense reference loop
//! (`qlb_core::step::reference_run`) for closed runs, the sparse executor
//! (active-set kernel on the dense `State`) for the open driver. Debug
//! builds additionally run the stepper's `RoundView::assert_consistent`
//! check every full round, so drifting loads or bitmaps fail loudly here.

use qlb_core::step::reference_run;
use qlb_core::weighted::WeightedInstance;
use qlb_core::{
    ConditionalUniform, Instance, InstanceBuilder, Protocol, ResourceId, SlackDamped, State,
};
use qlb_engine::{run, run_observed, run_open_system, Executor, OpenConfig, RunConfig};
use qlb_obs::{Counter, Phase, Recorder};

/// The executors under test: `Dense`, and both pooled executors at 1, 2, 3
/// and 8 threads.
fn executors() -> impl Iterator<Item = Executor> {
    let pooled = [1, 2, 3, 8].map(|t| [Executor::Threaded(t), Executor::SparseThreaded(t)]);
    std::iter::once(Executor::Dense).chain(pooled.into_iter().flatten())
}

#[test]
fn closed_registry_matches_dense_across_thread_counts() {
    // Two shapes. The hotspot is large enough that the pooled dense rounds
    // actually shard (8 threads ⇒ 208-user shards), but most protocols
    // converge from it in one or two dense rounds. From the random start
    // (~5 000 of 12 000 users unsatisfied) the sparse executors switch to
    // the active set after one to five dense rounds, and its first rounds
    // still cross the 1024-active pooled threshold; the observed runs
    // prove it.
    let hotspot = Instance::uniform(1600, 32, 120).unwrap();
    let spread = Instance::uniform(12_000, 1_200, 11).unwrap();
    for (inst, state, pooled_sparse) in [
        (&hotspot, State::all_on(&hotspot, ResourceId(0)), false),
        (&spread, State::random(&spread, 5), true),
    ] {
        for proto in qlb_core::registry(inst) {
            let name = proto.name();
            let want = reference_run(inst, state.clone(), proto.as_ref(), 13, 400, |_, _| {});
            for exec in executors() {
                let mut rec = Recorder::default();
                let out = run_observed(
                    inst,
                    state.clone(),
                    proto.as_ref(),
                    RunConfig::new(13, 400).with_executor(exec),
                    &mut rec,
                );
                assert_eq!(want.converged, out.converged, "{name} {exec:?}");
                assert_eq!(want.rounds, out.rounds, "{name} {exec:?}");
                assert_eq!(want.migrations, out.migrations, "{name} {exec:?}");
                assert_eq!(want.state, out.state, "{name} {exec:?}");
                // A pooled dense round and a pooled sparse round each
                // record one `Compute` sample, a sequential sparse round
                // none: more samples than dense rounds means at least one
                // active-set round was sharded over the pool. Blind
                // scattering moves every unsatisfied user, so its batches
                // never drop below n/8 and it stays dense.
                let sharded_sparse = pooled_sparse
                    && matches!(exec, Executor::SparseThreaded(t) if t > 1)
                    && name != "blind-uniform";
                if sharded_sparse {
                    let compute = rec.timers().histogram(Phase::Compute).count();
                    let dense_rounds = rec.counter(Counter::DenseRounds);
                    assert!(
                        compute > dense_rounds,
                        "{name} {exec:?}: {compute} compute samples, \
                         {dense_rounds} dense rounds"
                    );
                }
            }
        }
    }
}

#[test]
fn multi_class_registry_matches_dense_across_thread_counts() {
    // two QoS classes over shared channels: the kernel's per-class bitmap
    // indexing is live on this shape
    let inst = InstanceBuilder::new()
        .speeds(vec![12.0; 24])
        .latency_class(0.5, 400) // strict: cap 6 per channel
        .latency_class(1.0, 500) // lenient: cap 12 per channel
        .build()
        .unwrap();
    let state = State::all_on(&inst, ResourceId(0));
    for proto in qlb_core::registry(&inst) {
        let name = proto.name();
        let want = reference_run(&inst, state.clone(), proto.as_ref(), 29, 200, |_, _| {});
        for exec in executors() {
            let cfg = RunConfig::new(29, 200).with_executor(exec);
            let out = run(&inst, state.clone(), proto.as_ref(), cfg);
            assert_eq!(want.converged, out.converged, "{name} {exec:?}");
            assert_eq!(want.rounds, out.rounds, "{name} {exec:?}");
            assert_eq!(want.migrations, out.migrations, "{name} {exec:?}");
            assert_eq!(want.state, out.state, "{name} {exec:?}");
        }
    }
}

#[test]
fn open_churn_matches_dense_across_thread_counts() {
    // heavy churn against a saturated system: arrivals/departures mutate
    // the assignment between every round, exercising the view's
    // reassignment mirroring, and the active population (≈ 2000 beyond
    // round 50) crosses the sparse pooled threshold. The sequential sparse
    // run is the expected side: the reference loop has no arrivals, and the
    // open driver's active-set rounds decide on the dense `State` with no
    // view (no registry protocol acts while satisfied, which would send
    // them back to full rounds).
    let caps = [8u32; 32];
    let cfg = OpenConfig::new(17, 120, 40.0, 0.02).with_warmup(30);
    for proto in qlb_core::registry(&Instance::with_capacities(4, caps.to_vec()).unwrap()) {
        let name = proto.name();
        assert!(!proto.acts_when_satisfied(), "{name}");
        let sparse = cfg.with_executor(Executor::Sparse);
        let want = run_open_system(&caps, 3000, proto.as_ref(), sparse);
        for exec in executors() {
            let out = run_open_system(&caps, 3000, proto.as_ref(), cfg.with_executor(exec));
            assert_eq!(want.series, out.series, "{name} {exec:?}");
        }
    }
}

#[test]
fn weighted_matches_dense_across_thread_counts() {
    let mut weights = vec![1u32; 1200];
    weights.extend(vec![4u32; 300]); // total 2400
    let inst = WeightedInstance::new(vec![60; 48], weights).unwrap(); // cap 2880
    let state = State::all_on(&inst, ResourceId(0));
    let protos: [&dyn Protocol; 2] = [&SlackDamped::default(), &ConditionalUniform];
    for proto in protos {
        let name = proto.name();
        let want = reference_run(&inst, state.clone(), proto, 23, 600, |_, _| {});
        for exec in executors() {
            let cfg = RunConfig::new(23, 600).with_executor(exec);
            let out = run(&inst, state.clone(), proto, cfg);
            assert_eq!(want.converged, out.converged, "{name} {exec:?}");
            assert_eq!(want.rounds, out.rounds, "{name} {exec:?}");
            assert_eq!(want.migrations, out.migrations, "{name} {exec:?}");
            assert_eq!(want.weight_moved, out.weight_moved, "{name} {exec:?}");
            assert_eq!(want.state, out.state, "{name} {exec:?}");
        }
    }
}
