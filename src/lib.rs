//! # qoslb — Distributed algorithms for QoS load balancing
//!
//! A Rust reproduction of *"Distributed algorithms for QoS load balancing"*
//! (Ackermann, Fischer, Hoefer, Schöngens; SPAA 2009 / Distributed
//! Computing 23(5–6):321–330, 2011). See the repository `README.md` for an
//! architecture overview and `DESIGN.md` for the reconstruction notes.
//!
//! This crate is a facade: it re-exports the workspace crates so
//! applications can depend on one name.
//!
//! * [`core`] (`qlb-core`) — model (unit and weighted demand, one
//!   `Demands` trait), protocols, potentials, baselines;
//! * [`engine`] (`qlb-engine`) — sequential & threaded round executors,
//!   one `run` for unit and weighted instances, with fresh or stale
//!   (delayed, lossy) observations;
//! * [`workload`] (`qlb-workload`) — scenario generators;
//! * [`flow`] (`qlb-flow`) — max-flow feasibility substrate;
//! * [`obs`] (`qlb-obs`) — metrics, event tracing, phase timers
//!   (monomorphized sinks, zero-cost when disabled), and the windowed
//!   live-telemetry aggregator (rolling rates, latency digests,
//!   per-class SLO accounting) behind the daemon's `stats` op,
//!   Prometheus exposition, and `qlb-trace watch` dashboard;
//! * [`stats`] (`qlb-stats`) — experiment statistics;
//! * [`rng`] (`qlb-rng`) — deterministic counter-based randomness;
//! * [`topo`] (`qlb-topo`) — resource graphs and topology-restricted
//!   kernels;
//! * [`analysis`] (`qlb-analysis`) — exact Markov-chain expectations for
//!   tiny instances;
//! * [`serve`] (`qlb-serve`) — the `qlb-serve` placement daemon: live
//!   admission control, synchronous placement, a background
//!   rebalancer, and a live telemetry plane (`{"op":"stats"}`,
//!   `/metrics`) over a line-delimited JSON socket protocol.
//!
//! ## Quickstart
//!
//! ```
//! use qoslb::prelude::*;
//!
//! // 4096 clients hit one server of a 512-server fleet (capacity 10 each:
//! // slack factor 1.25). Run the paper's slack-damped protocol.
//! let inst = Instance::uniform(4096, 512, 10).unwrap();
//! let start = State::all_on(&inst, ResourceId(0));
//! let out = qoslb::engine::run(
//!     &inst,
//!     start,
//!     &SlackDamped::default(),
//!     qoslb::engine::RunConfig::new(42, 10_000),
//! );
//! assert!(out.converged);
//! println!("legal state after {} rounds, {} migrations", out.rounds, out.migrations);
//! ```

pub use qlb_analysis as analysis;
pub use qlb_core as core;
pub use qlb_engine as engine;
pub use qlb_flow as flow;
pub use qlb_obs as obs;
pub use qlb_rng as rng;
pub use qlb_serve as serve;
pub use qlb_stats as stats;
pub use qlb_topo as topo;
pub use qlb_workload as workload;

/// The types most applications need, in one import.
pub mod prelude {
    pub use qlb_core::prelude::*;
    pub use qlb_core::weighted::WeightedInstance;
    pub use qlb_engine::{run, run_observed, Executor, RunConfig, RunOutcome, Trace};
    pub use qlb_obs::{NoopSink, Recorder, Sink};
    pub use qlb_serve::{RejectReason, ServeConfig, ServeCore};
    pub use qlb_workload::{CapacityDist, ClassSpec, Placement, Scenario};
}
