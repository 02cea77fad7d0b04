//! A pooled run's allocation peak stays close to the sequential run's.
//!
//! A pooled full round decides each shard into that shard's own move
//! buffer and applies the buffers in place, so the pool adds its shards'
//! deltas and scratch, but no second copy of the round's moves. This binary
//! installs the counting allocator and holds one test, so nothing else
//! allocates while a run is measured.

use qoslb::core::SlackDamped;
use qoslb::engine::{run, Executor, RunConfig};
use qoslb::obs::MemMark;
use qoslb::workload::Scenario;

#[global_allocator]
static GLOBAL: qoslb::obs::CountingAlloc = qoslb::obs::CountingAlloc;

/// The allowed ratio of a pooled run's peak to its sequential twin's.
const MAX_RATIO: f64 = 1.10;

/// Peak bytes allocated while the flash-crowd scenario (seed 1) is built
/// and run to a legal state on `executor` — the run's footprint with the
/// instance and state it runs on, as `qlb-sim --mem-summary` reports it —
/// and the run's migration count.
fn run_peak(executor: Executor) -> (usize, u64) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/flash_crowd.json");
    let scenario = Scenario::from_path(path).expect("flash-crowd scenario");
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
}
