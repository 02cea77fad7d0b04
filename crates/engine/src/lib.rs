//! # qlb-engine — synchronous round engine for QoS load balancing
//!
//! Executes a `qlb-core` protocol over synchronous rounds, at laptop scale,
//! with a family of executors that produce **bit-identical trajectories**.
//! Each driver has one entry pair — a plain function and an `_observed`
//! twin taking a `qlb-obs` sink — and takes its executor from its config:
//!
//! * [`run()`](run()) / [`run_observed`] — the closed system of the paper,
//!   configured by [`RunConfig`]; generic over `qlb_core::Demands`, so the
//!   same loop runs unit and weighted (`qlb_core::weighted`) instances;
//! * [`run_open_system`] / [`run_open_system_observed`] — users arriving
//!   and departing while the protocol runs ([`open`]);
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
//! round's kernel: the closed loop, the open driver and the serving
//! core's tick only say whether the active set or every user decides. For
//! full rounds the driver hands its state to the stepper, which keeps
//! only the SoA view of it and applies the moves to that; active-set
//! moves the driver applies to its own state and index. Identical output
//! is guaranteed by the counter-based RNG streams of `qlb-rng` and
//! verified by tests and experiment E10 against the dense reference loop
//! of `qlb_core::step`, which no executor runs. A per-round [`Trace`] (potential decay, settling
//! times, figure experiments) is a sink passed to [`run_observed`].
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
pub mod pool;
pub mod run;
pub mod stepper;
pub mod trace;

pub use dynamics::{
    perturb_uniform, run_with_churn, run_with_churn_observed, ChurnConfig, ChurnOutcome,
};
pub use open::{
    run_open_system, run_open_system_observed, OpenConfig, OpenOutcome, OpenRoundStats,
};
pub use pool::{shard_bounds, shard_chunk, shards_for, WorkerPool};
pub use run::{run, run_observed, Executor, RunConfig, RunOutcome};
pub use stepper::Stepper;
pub use trace::{RoundStats, Trace};
