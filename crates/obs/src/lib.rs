//! # qlb-obs — unified observability for the QoS load-balancing workspace
//!
//! Every executor and driver in this workspace produces the same kinds of
//! telemetry: per-round counters (rounds, migrations, snapshot slices),
//! gauges (unsatisfied users, active-set size, snapshot staleness),
//! wall-clock phase timings (decide / apply / convergence), and a stream
//! of structured events (round boundaries, migration batches, executor
//! switches). This crate gives them one vocabulary and one emission point:
//!
//! * [`metrics`] — a dense-id **metrics registry**: counters, gauges, and
//!   fixed-bucket histograms addressed by `#[repr(usize)]` enums, so the
//!   hot path is an array index and an add — no hashing, no allocation;
//! * [`event`] — **structured event tracing**: a bounded ring buffer of
//!   typed [`Event`]s with a JSONL exporter (via the vendored
//!   `serde_json`);
//! * [`timers`] — **phase timers**: monotonic scoped timings aggregated
//!   into per-phase histograms, for wall-clock breakdowns of a run;
//! * [`profile`] — **per-shard profiling**: per-worker compute
//!   aggregates, barrier-skew and dispatch wake-latency histograms, and
//!   a sampled top-k per-resource congestion series for pooled runs;
//! * [`mem`] — the **counting global allocator** behind the memory bench
//!   gates: live/peak/allocation-count atomics, [`MemMark`] region
//!   measurement, and the zero-alloc steady-state proofs;
//! * [`sink`] — the [`Sink`] trait the instrumented crates emit through.
//!   It is monomorphized into the round loops (no `dyn` on the hot path);
//!   the default [`NoopSink`] has `ENABLED = false`, so every emission
//!   site folds away at compile time and an unobserved run pays nothing.
//!   A pair `(&mut A, &mut B)` of sinks is a sink that feeds both;
//! * [`span`] — **causal request spans**: the per-operation
//!   [`SpanRecord`] (op, verdict, probe evidence, per-phase wall-clock)
//!   keyed by placement ticket, retained by the recording sinks in a
//!   bounded [`SpanSeries`] and exported as trailer records — the
//!   substrate of `qlb-trace spans` and the serve daemon's flight
//!   recorder;
//! * [`recorder`] — [`Recorder`], the one recording implementation of
//!   [`Sink`] (registry + event log + timers + profiling series), generic
//!   over where events go ([`EventLog`]): by default a bounded ring with a
//!   JSONL dump of the whole run, and one end-of-run trailer for every
//!   export;
//! * [`replay`] — the summary printer: parses a JSONL dump back into a
//!   [`replay::Summary`], so exported runs are inspectable offline; its
//!   [`replay::TraceReader`] parses a still-growing stream incrementally;
//! * [`stream`] — [`StreamSink`], the [`Recorder`] over a [`JsonlLog`]:
//!   events become JSONL lines as they happen, flushed after every round
//!   end and churn episode, with crash-tolerant framing the reader
//!   understands;
//! * [`window`] — **windowed aggregation** for live telemetry: a
//!   [`WindowedAggregator`] ring of fixed-width time buckets over the
//!   dense counter/gauge ids plus windowed histogram merges (rolling
//!   1s/10s/60s rates, windowed quantiles, per-class SLO time-in-violation)
//!   and the [`StatsSnapshot`] record a serving daemon periodically files
//!   into its trace trailer via a bounded [`StatsSeries`].
//!
//! ## Determinism contract
//!
//! Observability is **derived from** a run and must never steer one. Sinks
//! receive copies of quantities the executors already computed (or compute
//! extra read-only derivations, like the overload potential, only when
//! `S::ENABLED`); they cannot touch RNG streams or move decisions. The
//! workspace property tests run every executor with a [`Recorder`]
//! attached and assert trajectories are bit-identical to unobserved runs.
//!
//! ```
//! use qlb_obs::{Counter, Event, Phase, Recorder, Sink};
//!
//! let mut rec = Recorder::default();
//! rec.add(Counter::Rounds, 1);
//! rec.event(Event::RoundEnd { round: 0, migrations: 3, unsatisfied: 2, overload: Some(2) });
//! rec.time(Phase::Decide, 1_500);
//! let jsonl = rec.to_jsonl();
//! let summary = qlb_obs::replay::Summary::from_jsonl(&jsonl).unwrap();
//! assert_eq!(summary.rounds, 1);
//! assert_eq!(summary.migrations, 3);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod replay;
pub mod sink;
pub mod span;
pub mod stream;
pub mod timers;
pub mod window;

pub use event::{Event, EventRing};
pub use mem::{CountingAlloc, MemMark};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profile::{top_k_entries, LatencyHists, ShardTimers, TopKEntry, TopKSeries};
pub use recorder::{DeltaSeries, EventLog, Recorder};
pub use replay::TraceReader;
pub use sink::{timed, DeltaSnapshot, NoopSink, Sink, UserWalk};
pub use span::{SpanRecord, SpanSeries, DEFAULT_SPAN_CAP};
pub use stream::{JsonlLog, StreamSink};
pub use timers::{Phase, PhaseTimers};
pub use window::{
    ClassSlo, LatencyDigest, RateSample, StatsSeries, StatsSnapshot, WindowedAggregator,
    RATE_WINDOWS_MS,
};
