//! Causal request spans: the per-operation story the aggregate telemetry
//! cannot tell.
//!
//! The windowed plane ([`crate::window`]) answers *rate* questions; a
//! [`SpanRecord`] answers *what happened to this request*: which wire op
//! it was, which admission rule fired, how many placement probes were
//! evaluated and what headroom each saw, where the user landed, and how
//! the wall-clock split across the serving phases (parse → admit → probe
//! → reply). Spans are emitted through the [`crate::Sink::span`] hook and
//! retained by the recording sinks in a bounded [`SpanSeries`], exported
//! as [`crate::recorder::Record::Span`] trailer lines — same byte-identity
//! discipline as every other retained series.
//!
//! Causal continuation: a placement's lifetime is keyed by its **ticket**
//! (the user id the daemon hands out). The rebalancer stamps migrations of
//! sampled tickets with op `migrate` and the move's source/destination, and
//! the final `depart` closes the story — so a reader can reconstruct
//! admission → moves → depart from the span series alone.
//!
//! Spans are *sampled at the head*: the daemon decides per operation
//! (before parsing) whether the op is traced, so a sampled-out op pays a
//! branch and a counter increment, never a clock read. The sampling
//! decision is causal — once an op is sampled, every later record about
//! the same ticket (migrations, depart) is emitted too.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Default cap on spans retained by a [`SpanSeries`].
pub const DEFAULT_SPAN_CAP: usize = 65_536;

/// Span op: a `place` admission attempt.
pub const SPAN_OP_PLACE: &str = "place";
/// Span op: a `depart` releasing a placement.
pub const SPAN_OP_DEPART: &str = "depart";
/// Span op: a `drain` zeroing a resource.
pub const SPAN_OP_DRAIN: &str = "drain";
/// Span op: a rebalancer migration of a sampled ticket (causal
/// continuation — not a wire op).
pub const SPAN_OP_MIGRATE: &str = "migrate";

/// One operation's causal record. See the module docs for the life-cycle
/// and sampling contract; the canonical `op` strings are the `SPAN_OP_*`
/// constants, and `verdict` holds the admission outcome (`admitted`,
/// `pool`, `capacity`, `draining`), `departed`/`drained` for the
/// respective ops, `moved` for migrations, or `error` for ops rejected at
/// parse/validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Operation sequence number (the daemon's op counter) — unique per
    /// run, monotone in arrival order. Migration spans draw fresh ids from
    /// the same counter and point back at their placement via `ticket`.
    pub id: u64,
    /// What the op was (`SPAN_OP_PLACE` / `SPAN_OP_DEPART` /
    /// `SPAN_OP_DRAIN` / `SPAN_OP_MIGRATE`, borrowed, so a span costs no
    /// allocation for it; a misspelled wire op is owned).
    pub op: Cow<'static, str>,
    /// The placement ticket (user id) the span is about — the causal key.
    /// `None` for ops with no ticket (rejected places, drains, parse
    /// errors).
    pub ticket: Option<u64>,
    /// QoS class, where the op has one (`place`).
    pub class: Option<u64>,
    /// Outcome: `admitted`, `pool`, `capacity`, `draining`, `departed`,
    /// `drained`, `moved`, or `error`.
    pub verdict: Cow<'static, str>,
    /// Placement probes evaluated (the admission path's sampled probes;
    /// 0 for non-place ops).
    pub probes: u64,
    /// Per-probe headroom (`cap − load`, signed) in probe order — the
    /// evidence behind the chosen resource.
    pub headroom: Vec<i64>,
    /// Resource the op ended on (placement target, migration destination,
    /// drained resource).
    pub resource: Option<u64>,
    /// Migration source (`migrate` spans only).
    pub from: Option<u64>,
    /// Wall-clock spent parsing the wire line (ns).
    pub parse_ns: u64,
    /// Wall-clock spent in admission/core handling (ns).
    pub admit_ns: u64,
    /// Wall-clock spent probing placement targets (ns; subset of
    /// `admit_ns`).
    pub probe_ns: u64,
    /// Wall-clock spent serializing the reply (ns).
    pub reply_ns: u64,
    /// End-to-end wall-clock for the op (ns).
    pub total_ns: u64,
}

/// A bounded FIFO of retained [`SpanRecord`]s: the recording sinks keep
/// the most recent `cap` spans and count the overflow, so a long serving
/// run cannot grow its trailer without bound — same discipline as the
/// event ring.
#[derive(Debug, Clone)]
pub struct SpanSeries {
    spans: VecDeque<SpanRecord>,
    cap: usize,
    dropped: u64,
}

impl Default for SpanSeries {
    fn default() -> Self {
        Self::with_cap(DEFAULT_SPAN_CAP)
    }
}

impl SpanSeries {
    /// A series retaining at most `cap` spans (min 1).
    pub fn with_cap(cap: usize) -> Self {
        Self {
            spans: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Retain one span, evicting the oldest when full.
    pub fn push(&mut self, span: &SpanRecord) {
        if self.spans.len() >= self.cap {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span.clone());
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span was offered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Oldest spans evicted because the series was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained spans, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            op: SPAN_OP_PLACE.into(),
            ticket: Some(id),
            class: Some(0),
            verdict: "admitted".into(),
            probes: 2,
            headroom: vec![3, 1],
            resource: Some(4),
            from: None,
            parse_ns: 100,
            admit_ns: 300,
            probe_ns: 200,
            reply_ns: 50,
            total_ns: 500,
        }
    }

    #[test]
    fn series_bounds_and_counts_drops() {
        let mut s = SpanSeries::with_cap(2);
        for i in 0..5 {
            s.push(&span(i));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let ids: Vec<u64> = s.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn span_roundtrips_through_serde() {
        let s = span(7);
        let json = serde_json::to_string(&s).expect("serializes");
        let back: SpanRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}
