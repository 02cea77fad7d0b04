//! # qlb-core — QoS load balancing: model and distributed protocols
//!
//! Reference implementation of the model and algorithms of *"Distributed
//! algorithms for QoS load balancing"* (Ackermann, Fischer, Hoefer,
//! Schöngens; SPAA 2009 / Distributed Computing 23(5–6):321–330, 2011),
//! reconstructed as documented in the repository's `DESIGN.md`.
//!
//! ## The model in one paragraph
//!
//! `n` anonymous users each occupy one of `m` resources. Resource `r` has a
//! speed `s_r`; a user with QoS threshold `T` placed on `r` together with
//! `x_r − 1` others is **satisfied** iff the congestion-dependent latency
//! `x_r / s_r` stays within `T` — equivalently iff `x_r ≤ ⌊T·s_r⌋`, the
//! *effective capacity* of `r` for that user. A state satisfying every user
//! is **legal**. Users act in synchronous rounds: each *unsatisfied* user
//! concurrently samples one resource, observes only the congestion and
//! capacity of its own and the sampled resource, and migrates with a
//! protocol-defined probability. The protocols here need no identities, no
//! global knowledge, and no inter-user communication.
//!
//! ## Crate layout
//!
//! * [`ids`] — dense typed indices for users and resources;
//! * [`instance`] — the static problem description (resources, users, QoS
//!   classes) plus feasibility accounting, and the [`Demands`] trait that
//!   makes unit demand the special case `w = 1` of the weighted model;
//! * [`state`] — a dynamic assignment with incrementally-maintained loads;
//! * [`potential`] — the Lyapunov functions used in convergence proofs;
//! * [`objective`] — state-quality metrics (total latency, exact optimum)
//!   for comparing legal states;
//! * [`protocol`] — the migration protocol kernels (the paper's algorithms
//!   and the strawmen they are compared against);
//! * [`step`] — one synchronous round, factored so every executor (the
//!   sequential engine, the threaded engine, and the sparse active-set
//!   walk in `qlb-engine`) produces bit-identical trajectories;
//! * [`view`] — the cache-conscious struct-of-arrays round view (SoA
//!   arrays, unsatisfied-resource bitmaps, per-shard delta merge) behind
//!   the pooled executors' hot decide kernel;
//! * [`delta`] — delta-compressed, generation-stamped assignment
//!   snapshots (varint run-length over changed user ranges) for trace
//!   trailers and serve-daemon export;
//! * [`baseline`] — centralized greedy assignment and sequential
//!   best-response dynamics, the classical comparison points;
//! * [`weighted`] — the weighted-demand (bin-packing-flavoured) instance
//!   and its offline baselines; runs use the generic state, index, view
//!   and kernels above;
//! * [`convergence`] — legality/oscillation detection helpers.
//!
//! ## Quick start
//!
//! ```
//! use qlb_core::prelude::*;
//!
//! // 64 users, 16 identical resources of capacity 5 (slack factor 1.25).
//! let inst = Instance::uniform(64, 16, 5).unwrap();
//! let mut state = State::all_on(&inst, ResourceId(0)); // adversarial start
//! let proto = SlackDamped::default();
//!
//! let mut round = 0;
//! let seed = 42;
//! while !state.is_legal(&inst) {
//!     let moves = qlb_core::step::decide_round(&inst, &state, &proto, seed, round);
//!     state.apply_moves(&inst, &moves);
//!     round += 1;
//!     assert!(round < 10_000, "must converge quickly");
//! }
//! assert_eq!(state.num_unsatisfied(&inst), 0);
//! ```

#![warn(missing_docs)]

pub mod active;
pub mod baseline;
pub mod convergence;
pub mod delta;
pub mod error;
pub mod ids;
pub mod instance;
pub mod objective;
pub mod potential;
pub mod protocol;
pub mod state;
pub mod step;
pub mod view;
pub mod weighted;

/// Convenient re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::active::{ActiveIndex, IndexShard};
    pub use crate::baseline::{best_response_run, greedy_assign, BestResponseOutcome};
    pub use crate::convergence::ConvergenceTracker;
    pub use crate::delta::{DeltaError, StateDelta};
    pub use crate::error::{Error, Result};
    pub use crate::ids::{ClassId, ResourceId, UserId};
    pub use crate::instance::{Demands, Instance, InstanceBuilder, QosClass, Resource};
    pub use crate::potential::{
        max_overload, overload_potential, overload_potential_loads, quadratic_potential,
    };
    pub use crate::protocol::{
        registry, BlindUniform, ConditionalUniform, Decision, LocalView, PartialParticipation,
        Protocol, ResourceView, RestrictTargets, SamplingStrategy, SlackDamped,
        SlackDampedCapacitySampling, ThresholdLevels, UserBlock,
    };
    pub use crate::state::{Move, State};
    pub use crate::view::{RoundReads, RoundView, ShardDeltas, ShardScratch};
}

pub use prelude::*;
