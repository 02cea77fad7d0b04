//! A pooled run's allocation peak stays close to the sequential run's.
//!
//! A pooled full round writes each shard's movers into that shard's own
//! chunk of the held assignment, so the pool adds only its shards' load
//! deltas and its own bookkeeping, and no round keeps a move list. This
//! binary installs the counting allocator and holds one test, so nothing
//! else allocates while a run is measured.

use qoslb::core::SlackDamped;
use qoslb::engine::{run, Executor, RunConfig, Stepper};
use qoslb::obs::{MemMark, NoopSink};
use qoslb::workload::Scenario;

#[global_allocator]
static GLOBAL: qoslb::obs::CountingAlloc = qoslb::obs::CountingAlloc;

/// The allowed ratio of a pooled run's peak to its sequential twin's.
const MAX_RATIO: f64 = 1.10;

fn flash_crowd() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/flash_crowd.json");
    Scenario::from_path(path).expect("flash-crowd scenario")
}

/// Peak bytes allocated while the flash-crowd scenario (seed 1) is built
/// and run to a legal state on `executor` — the run's footprint with the
/// instance and state it runs on, as `qlb-sim --mem-summary` reports it —
/// and the run's migration count.
fn run_peak(executor: Executor) -> (usize, u64) {
    let scenario = flash_crowd();
    let mark = MemMark::here();
    let (inst, state) = scenario.build(1).expect("feasible scenario");
    let cfg = RunConfig::new(1, 100_000).with_executor(executor);
    let out = run(&inst, state, &SlackDamped::default(), cfg);
    assert!(out.converged, "{executor:?} did not converge");
    (mark.peak_since(), out.migrations)
}

#[test]
fn pooled_peak_stays_close_to_sequential() {
    assert!(
        qoslb::obs::mem::counting(),
        "counting allocator not installed"
    );
    for (pooled, sequential) in [
        (Executor::SparseThreaded(2), Executor::Sparse),
        (Executor::Threaded(2), Executor::Dense),
    ] {
        let (seq_peak, seq_moves) = run_peak(sequential);
        let (pool_peak, pool_moves) = run_peak(pooled);
        assert_eq!(pool_moves, seq_moves, "{pooled:?} left the trajectory");
        let ratio = pool_peak as f64 / seq_peak as f64;
        assert!(
            ratio <= MAX_RATIO,
            "{pooled:?} peaked at {pool_peak} B, {ratio:.2}x {sequential:?}'s {seq_peak} B \
             (at most {MAX_RATIO}x)"
        );
    }
    // everything a full round uses is allocated by `hold`: even the
    // first round allocates nothing
    for executor in [Executor::Dense, Executor::Threaded(2)] {
        let (inst, state) = flash_crowd().build(1).expect("feasible scenario");
        let mut stepper = Stepper::new(executor, inst.num_users(), 1, false);
        stepper.hold(&inst, state);
        let mark = MemMark::here();
        let batch = stepper.full_round(&inst, &SlackDamped::default(), 0, &mut NoopSink);
        assert!(batch.len > 0, "round 0 of the flash crowd moves users");
        assert_eq!(
            mark.allocs_since(),
            0,
            "{executor:?}'s first full round allocated"
        );
        assert_eq!(
            mark.peak_since(),
            0,
            "{executor:?}'s first full round allocated"
        );
    }
}
