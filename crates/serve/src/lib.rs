//! `qlb-serve`: a long-running QoS placement daemon.
//!
//! This crate turns the workspace's simulation engine into a *service*:
//! a daemon that owns a live open-system instance, answers synchronous
//! placement requests with an admission decision, and keeps a background
//! rebalancer — the paper's sampling protocol, run through the existing
//! executor kernels — converging the placement between request batches.
//!
//! The crate is split exactly along its trust boundaries:
//!
//! * [`core`] — the placement state machine ([`ServeCore`]): admission,
//!   placement, departure, drains, and the budgeted scheduler tick. Pure
//!   compute, no I/O; the serve bench and the unit tests drive it
//!   directly.
//! * [`proto`] — the line-delimited JSON wire protocol: request parsing
//!   and reply formatting, one dispatch point ([`proto::handle_line`]).
//! * [`daemon`] — the socket front-end: Unix/TCP listeners and one
//!   single-threaded serve loop that waits on every socket with `poll(2)`,
//!   splits request lines in per-connection buffers, and alternates
//!   request batches with rebalancer ticks.
//! * [`telemetry`] — the live telemetry plane ([`ServeTelemetry`]):
//!   windowed rates, latency digests, and per-class SLO accounting behind
//!   the `stats` wire op, periodic trace-trailer snapshots, and the
//!   optional Prometheus `/metrics` endpoint (`--metrics-http`).
//! * [`flight`] — the anomaly-triggered flight recorder
//!   ([`FlightRecorder`]): a bounded ring of recent causal spans and tick
//!   marks dumped to a JSONL black box when a starved tick, SLO burn,
//!   reject spike, or latency-bound breach fires (`--flight-recorder`).
//!
//! The `qlb-serve` binary wires the three to a CLI; `qlb-serve-load` is
//! the matching load/smoke client used by CI and the benches.
//!
//! Observability reuses `qlb-obs` wholesale: hand the daemon a
//! [`StreamSink`](qlb_obs::StreamSink) — the recording sink writing JSONL
//! as it goes, flushed after every rebalance round — and `qlb-trace
//! --follow` becomes the live ops dashboard, with request/placement
//! latency histograms and admission counters riding the standard trace
//! trailer. The flight recorder writes its black boxes with the same
//! record-line writer ([`Record::write_line`](qlb_obs::recorder::Record::write_line)).

#![warn(missing_docs)]

pub mod core;
pub mod daemon;
pub mod flight;
pub mod proto;
pub mod telemetry;

pub use crate::core::{
    ClassStats, DepartOutcome, DrainOutcome, MoveRecord, PlaceOutcome, PlaceTrace, RejectReason,
    ResourceStats, ServeConfig, ServeCore, ServeProtocol, TickOutcome,
};
pub use crate::daemon::{
    run_daemon, run_daemon_telemetry, DaemonOptions, ServeListener, TelemetryOptions,
};
pub use crate::flight::{FlightOptions, FlightRecorder, TRIGGER_WINDOW_MS};
pub use crate::proto::{
    handle_line, handle_line_spanned, handle_line_with_stats, parse_request, OpKind, ParseError,
    Reply, Request,
};
pub use crate::telemetry::{cumulative_snapshot, render_prometheus, ServeTelemetry};
