//! End-to-end equivalence of the SoA pooled decide path.
//!
//! The struct-of-arrays round view (`qlb_core::view`) re-implements the
//! dense decide kernel with a bitmap pre-filter, batched RNG draws, and
//! per-shard delta merging. These tests pin the contract that makes it
//! shippable: **every executor produces the byte-identical trajectory**,
//! across the full protocol registry, thread counts {1, 2, 3, 8}, and all
//! three drivers (closed, open-with-churn, weighted). Debug builds
//! additionally run the drivers' internal `assert_synced` checks every
//! pooled round, so a drifting view fails loudly here.

use qlb_core::weighted::WeightedInstance;
use qlb_core::{
    ConditionalUniform, Instance, InstanceBuilder, Protocol, ResourceId, SlackDamped, State,
};
use qlb_engine::{run, run_open_system, Executor, OpenConfig, RunConfig};

const THREADS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn closed_registry_matches_dense_across_thread_counts() {
    // large enough that the pooled branches actually shard (8 threads ⇒
    // 208-user shards) and the sparse-threaded run crosses the 1024-active
    // pooled threshold during warm-up
    let inst = Instance::uniform(1600, 32, 120).unwrap();
    let state = State::all_on(&inst, ResourceId(0));
    for proto in qlb_core::registry(&inst) {
        let name = proto.name();
        let dense = run(
            &inst,
            state.clone(),
            proto.as_ref(),
            RunConfig::new(13, 400),
        );
        for threads in THREADS {
            for exec in [
                Executor::Threaded(threads),
                Executor::SparseThreaded(threads),
            ] {
                let pooled = run(
                    &inst,
                    state.clone(),
                    proto.as_ref(),
                    RunConfig::new(13, 400).with_executor(exec),
                );
                assert_eq!(dense.converged, pooled.converged, "{name} {exec:?}");
                assert_eq!(dense.rounds, pooled.rounds, "{name} {exec:?}");
                assert_eq!(dense.migrations, pooled.migrations, "{name} {exec:?}");
                assert_eq!(dense.state, pooled.state, "{name} {exec:?}");
            }
        }
    }
}

#[test]
fn multi_class_registry_matches_dense_across_thread_counts() {
    // two QoS classes over shared channels: the kernel's per-class bitmap
    // indexing (class_ids array) is live on this shape
    let inst = InstanceBuilder::new()
        .speeds(vec![12.0; 24])
        .latency_class(0.5, 400) // strict: cap 6 per channel
        .latency_class(1.0, 500) // lenient: cap 12 per channel
        .build()
        .unwrap();
    let state = State::all_on(&inst, ResourceId(0));
    for proto in qlb_core::registry(&inst) {
        let name = proto.name();
        let dense = run(
            &inst,
            state.clone(),
            proto.as_ref(),
            RunConfig::new(29, 200),
        );
        for threads in THREADS {
            for exec in [
                Executor::Threaded(threads),
                Executor::SparseThreaded(threads),
            ] {
                let pooled = run(
                    &inst,
                    state.clone(),
                    proto.as_ref(),
                    RunConfig::new(29, 200).with_executor(exec),
                );
                assert_eq!(dense.rounds, pooled.rounds, "{name} {exec:?}");
                assert_eq!(dense.migrations, pooled.migrations, "{name} {exec:?}");
                assert_eq!(dense.state, pooled.state, "{name} {exec:?}");
            }
        }
    }
}

#[test]
fn open_churn_matches_dense_across_thread_counts() {
    // heavy churn against a saturated system: arrivals/departures mutate
    // the assignment between every round, exercising the view's
    // reassignment mirroring, and the active population (≈ 2000 beyond
    // round 50) crosses the sparse pooled threshold
    let caps = [8u32; 32];
    let cfg = OpenConfig::new(17, 120, 40.0, 0.02).with_warmup(30);
    for proto in qlb_core::registry(&Instance::with_capacities(4, caps.to_vec()).unwrap()) {
        let name = proto.name();
        let dense = run_open_system(&caps, 3000, proto.as_ref(), cfg);
        for threads in THREADS {
            for exec in [
                Executor::Threaded(threads),
                Executor::SparseThreaded(threads),
            ] {
                let pooled = run_open_system(&caps, 3000, proto.as_ref(), cfg.with_executor(exec));
                assert_eq!(dense.series, pooled.series, "{name} {exec:?}");
            }
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
        let dense = run(&inst, state.clone(), proto, RunConfig::new(23, 600));
        for threads in THREADS {
            for exec in [
                Executor::Threaded(threads),
                Executor::SparseThreaded(threads),
            ] {
                let pooled = run(
                    &inst,
                    state.clone(),
                    proto,
                    RunConfig::new(23, 600).with_executor(exec),
                );
                assert_eq!(dense.converged, pooled.converged, "{name} {exec:?}");
                assert_eq!(dense.rounds, pooled.rounds, "{name} {exec:?}");
                assert_eq!(dense.migrations, pooled.migrations, "{name} {exec:?}");
                assert_eq!(dense.weight_moved, pooled.weight_moved, "{name} {exec:?}");
                assert_eq!(dense.state, pooled.state, "{name} {exec:?}");
            }
        }
    }
}
