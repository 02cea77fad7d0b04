//! # qlb-engine — synchronous round engine for QoS load balancing
//!
//! Executes a `qlb-core` protocol over synchronous rounds, at laptop scale,
//! with a family of executors that produce **bit-identical trajectories**.
//! Each driver has one entry pair — a plain function and an `_observed`
//! twin taking a `qlb-obs` sink — and takes its executor from its config:
//!
//! * [`run()`](run()) / [`run_observed`] — the closed system of the paper,
//!   configured by [`RunConfig`]; generic over `qlb_core::Demands`, so the
//!   same loop runs unit and weighted (`qlb_core::weighted`) instances.
//!   With [`RunConfig::with_staleness`] users decide on load snapshots
//!   that are up to `D` rounds old or lost (experiments E7 and E16);
//! * [`run_open_system`] / [`run_open_system_observed`] — users arriving
//!   and departing while the protocol runs ([`open`]), on the
//!   [`ParkedSystem`] ([`parked`]) that the `qlb-serve` daemon's core also
//!   runs;
//! * [`run_with_churn`] / [`run_with_churn_observed`] — churn and
//!   re-convergence episodes ([`dynamics`]).
//!
//! The [`Executor`] is one of: the struct-of-arrays `RoundView` kernel
//! run sequentially; the sparse active-set walk (`O(active)` rounds via
//! an incrementally maintained unsatisfied set); the same `RoundView`
//! kernel sharded on cache-line boundaries over a persistent
//! [`WorkerPool`] (long-lived parked workers, one epoch bump + unpark of
//! the non-empty shards per round); or the active-set walk sharded over
//! the pool. Whatever the driver, one [`Stepper`] picks and runs each
//! round's kernel: the closed loop and the parked system only say whether
//! the active set or every user decides. For full rounds the closed loop
//! hands its state to the stepper, which moves it into a `RoundView` (the
//! state plus its unsatisfied-resource bitmaps), applies the moves to it in
//! place and hands it back; active-set moves the driver applies to its own
//! state and index. The parked system runs only active-set rounds, on every
//! executor. Identical output is guaranteed by the counter-based RNG
//! streams of `qlb-rng` and verified by tests and experiments E10 and E14
//! against the dense reference loops, which no executor runs:
//! `qlb_core::step::reference_run` for the closed loop and
//! [`ParkedReference`] for the parked system, fed by
//! [`open::reference_open_run`] for the open driver. A per-round [`Trace`]
//! (potential decay, settling times, figure experiments) is a sink passed
//! to [`run_observed`].
//!
//! ```
//! use qlb_core::prelude::*;
//! use qlb_engine::{run, Executor, RunConfig};
//!
//! let inst = Instance::uniform(512, 64, 10).unwrap();
//! let start = State::all_on(&inst, ResourceId(0));
//! let cfg = RunConfig::new(7, 10_000);
//! let seq = run(&inst, start.clone(), &SlackDamped::default(), cfg);
//! let par = run(
//!     &inst,
//!     start,
//!     &SlackDamped::default(),
//!     cfg.with_executor(Executor::Threaded(4)),
//! );
//! assert!(seq.converged);
//! assert_eq!(seq.state, par.state); // bit-identical trajectories
//! ```

#![warn(missing_docs)]

pub mod dynamics;
pub mod open;
pub mod parked;
pub mod pool;
pub mod run;
mod stale;
pub mod stepper;
pub mod trace;

pub use dynamics::{
    perturb_uniform, run_with_churn, run_with_churn_observed, ChurnConfig, ChurnOutcome,
};
pub use open::{
    run_open_system, run_open_system_observed, OpenConfig, OpenOutcome, OpenRoundStats,
};
pub use parked::{ParkedOp, ParkedReference, ParkedSystem};
pub use pool::{shard_chunk, shards_for, WorkerPool};
pub use run::{run, run_observed, Executor, RunConfig, RunOutcome};
pub use stale::{Staleness, RESOURCE_BLOCKS, USER_BLOCKS};
pub use stepper::{FullBatch, Stepper};
pub use trace::{RoundStats, Trace};
