//! The summary printer: parse a JSONL dump back into an inspectable
//! [`Summary`].
//!
//! The dump format ([`crate::recorder::Record`] per line) is the contract
//! between a run and later analysis: [`crate::Recorder::to_jsonl`] (post
//! hoc) and [`crate::StreamSink`] (incremental, `qlb-sim --metrics-out
//! run.jsonl`) both write it, and this module — the `qlb-trace` CLI,
//! `--metrics-summary`, or any other JSONL consumer — reads it back. One
//! line parser ([`TraceReader`]) serves three shapes of input:
//!
//! * a **complete** dump (events + end-of-run trailer);
//! * an **interrupted** stream (no trailer; counts fall back to the
//!   events, and a final line cut mid-write is reported as
//!   [`Summary::truncated`] rather than an error);
//! * a **growing** stream, fed chunk-by-chunk through [`TraceReader`] +
//!   [`Summary::ingest`] (how `qlb-trace --follow` tails a live run).
//!
//! The round-trip is covered by tests: a summary computed from a live
//! [`crate::Recorder`]'s dump equals one computed from the re-read file.

use crate::event::Event;
use crate::profile::{PLACE_HIST_NAME, REQUEST_HIST_NAME, SKEW_HIST_NAME};
use crate::recorder::Record;
use crate::span::SpanRecord;
use crate::window::StatsSnapshot;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate view of one exported run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Rounds (from the `rounds` counter, else counted from RoundEnd
    /// events).
    pub rounds: u64,
    /// Migrations (from the `migrations` counter, else summed from
    /// RoundEnd events).
    pub migrations: u64,
    /// Final unsatisfied count from the last RoundEnd event, if any.
    pub final_unsatisfied: Option<u64>,
    /// Overload potential Φ series from RoundEnd events (single-class).
    pub overload_series: Vec<u64>,
    /// Events retained in the dump, by variant name.
    pub events_by_kind: BTreeMap<String, u64>,
    /// Total events recorded / dropped by the ring.
    pub ring: (u64, u64),
    /// Exported counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Exported gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Phase aggregates: name → (count, total ns, max ns).
    pub phases: BTreeMap<String, (u64, u64, u64)>,
    /// Per-shard compute aggregates, indexed by shard: (rounds, total
    /// ns, max ns). Empty unless the run used a pooled executor with
    /// shard timing on.
    pub shards: Vec<(u64, u64, u64)>,
    /// Mean per-round shard utilization in percent (Σ shard compute over
    /// shards × the round's slowest shard, averaged over pooled rounds);
    /// `None` when the trace predates the field or holds no shard profile.
    pub mean_round_util_pct: Option<f64>,
    /// Exported latency histograms by name (`barrier_skew`,
    /// `dispatch_wake`).
    pub latency_hists: BTreeMap<String, LatencySummary>,
    /// Retained top-k congestion samples: (round, [(resource, load)]),
    /// in round order.
    pub topk: Vec<(u64, Vec<(u64, u64)>)>,
    /// Retained live-telemetry snapshots (serve-daemon traces only), in
    /// tick order — what `qlb-trace watch <trace>` renders.
    pub stats_snapshots: Vec<StatsSnapshot>,
    /// Retained delta-compressed assignment snapshots, in emission order
    /// (the hex payload decodes with `qlb_core::delta::from_hex` +
    /// `StateDelta::from_bytes`).
    pub state_deltas: Vec<StateDeltaSummary>,
    /// Retained causal request spans, in emission order — what
    /// `qlb-trace spans` reconstructs lifecycles from.
    pub spans: Vec<SpanRecord>,
    /// Black-box dump header, when the input is a flight-recorder dump:
    /// (trigger, tick, uptime ms, spans, dropped).
    pub blackbox: Option<(String, u64, u64, u64, u64)>,
    /// Tick context lines (flight-recorder dumps only): (tick, backlog,
    /// budget, active, unsatisfied), in tick order.
    pub tick_marks: Vec<(u64, u64, u64, u64, u64)>,
    /// True when the input ended mid-record (a crash or kill during a
    /// write): the partial tail was skipped, everything before it counted.
    pub truncated: bool,
    /// RoundEnd events seen (the counter-less fallback for
    /// [`Summary::rounds`]).
    round_end_rounds: u64,
    /// Migrations summed over RoundEnd events (fallback for
    /// [`Summary::migrations`]).
    round_end_migrations: u64,
    /// A RingInfo record was ingested (start of the end-of-run trailer).
    saw_ring_info: bool,
}

/// An ingested delta snapshot (one [`Record::StateDelta`] line).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDeltaSummary {
    /// Round (or op sequence) the snapshot describes.
    pub round: u64,
    /// Generation the delta applies on top of.
    pub base_gen: u64,
    /// Generation reached after applying it.
    pub gen: u64,
    /// Users covered.
    pub users: u64,
    /// Users whose assignment changes.
    pub changed: u64,
    /// Hex of the serialized delta.
    pub hex: String,
}

/// An ingested latency histogram (one [`Record::LatencyHist`] line).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds.
    pub total_ns: u64,
    /// Largest single sample in nanoseconds.
    pub max_ns: u64,
    /// Approximate median in nanoseconds.
    pub p50_ns: u64,
    /// Approximate 95th percentile in nanoseconds.
    pub p95_ns: u64,
    /// Non-empty power-of-two buckets: (bucket index, count).
    pub buckets: Vec<(u64, u64)>,
}

/// Error parsing a JSONL dump.
#[derive(Debug, Clone)]
pub struct ReplayError {
    line: usize,
    msg: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ReplayError {}

fn event_kind(ev: &Event) -> &'static str {
    match ev {
        Event::RoundStart { .. } => "RoundStart",
        Event::RoundEnd { .. } => "RoundEnd",
        Event::MigrationBatch { .. } => "MigrationBatch",
        Event::ConvergenceCheck { .. } => "ConvergenceCheck",
        Event::ExecutorSwitch { .. } => "ExecutorSwitch",
        Event::ChurnEpisode { .. } => "ChurnEpisode",
        Event::Arrivals { .. } => "Arrivals",
        Event::Departures { .. } => "Departures",
    }
}

impl Summary {
    /// Parse a JSONL dump (as written by [`crate::Recorder::to_jsonl`] or
    /// streamed by [`crate::StreamSink`]). Blank lines are ignored. An
    /// unparsable **final line without a trailing newline** is the
    /// signature of a mid-write crash: it is skipped and flagged via
    /// [`Summary::truncated`]. Any other unparsable line is an error.
    pub fn from_jsonl(text: &str) -> Result<Summary, ReplayError> {
        let mut s = Summary::default();
        let mut reader = TraceReader::new();
        reader.feed_with(text, |record| s.ingest(&record))?;
        let tail = reader.pending();
        if !tail.trim().is_empty() {
            match serde_json::from_str::<Record>(tail) {
                Ok(record) => s.ingest(&record),
                Err(_) => s.truncated = true,
            }
        }
        Ok(s)
    }

    /// Fold one [`Record`] into the summary. [`Summary::from_jsonl`] and
    /// the incremental [`TraceReader`] path (`qlb-trace --follow`) both
    /// funnel through here, so post-hoc and live analysis agree by
    /// construction.
    pub fn ingest(&mut self, record: &Record) {
        match record {
            Record::Event { event, .. } => {
                *self
                    .events_by_kind
                    .entry(event_kind(event).to_string())
                    .or_insert(0) += 1;
                if let Event::RoundEnd {
                    migrations,
                    unsatisfied,
                    overload,
                    ..
                } = *event
                {
                    self.round_end_rounds += 1;
                    self.round_end_migrations += migrations;
                    self.final_unsatisfied = Some(unsatisfied);
                    if let Some(phi) = overload {
                        self.overload_series.push(phi);
                    }
                }
            }
            Record::Counter { name, value } => {
                self.counters.insert(name.clone(), *value);
            }
            Record::Gauge { name, value } => {
                self.gauges.insert(name.clone(), *value);
            }
            Record::Phase {
                name,
                count,
                total_ns,
                max_ns,
            } => {
                self.phases
                    .insert(name.clone(), (*count, *total_ns, *max_ns));
            }
            Record::RingInfo { recorded, dropped } => {
                self.ring = (*recorded, *dropped);
                self.saw_ring_info = true;
            }
            Record::Shard {
                shard,
                rounds,
                total_ns,
                max_ns,
            } => {
                let i = *shard as usize;
                if self.shards.len() <= i {
                    self.shards.resize(i + 1, (0, 0, 0));
                }
                self.shards[i] = (*rounds, *total_ns, *max_ns);
            }
            Record::ShardUtil { mean_round_pct } => {
                self.mean_round_util_pct = Some(*mean_round_pct);
            }
            Record::LatencyHist {
                name,
                count,
                total_ns,
                max_ns,
                p50_ns,
                p95_ns,
                buckets,
            } => {
                self.latency_hists.insert(
                    name.clone(),
                    LatencySummary {
                        count: *count,
                        total_ns: *total_ns,
                        max_ns: *max_ns,
                        p50_ns: *p50_ns,
                        p95_ns: *p95_ns,
                        buckets: buckets.iter().map(|b| (b.bucket, b.count)).collect(),
                    },
                );
            }
            Record::TopK { round, entries } => {
                self.topk.push((
                    *round,
                    entries.iter().map(|e| (e.resource, e.load)).collect(),
                ));
            }
            Record::StatsSnapshot { snap } => {
                self.stats_snapshots.push(snap.clone());
            }
            Record::StateDelta {
                round,
                base_gen,
                gen,
                users,
                changed,
                hex,
            } => {
                self.state_deltas.push(StateDeltaSummary {
                    round: *round,
                    base_gen: *base_gen,
                    gen: *gen,
                    users: *users,
                    changed: *changed,
                    hex: hex.clone(),
                });
            }
            Record::Span { span } => {
                self.spans.push(span.clone());
            }
            Record::BlackBox {
                trigger,
                tick,
                uptime_ms,
                spans,
                dropped,
            } => {
                self.blackbox = Some((trigger.clone(), *tick, *uptime_ms, *spans, *dropped));
            }
            Record::TickMark {
                tick,
                backlog,
                budget,
                active,
                unsatisfied,
            } => {
                self.tick_marks
                    .push((*tick, *backlog, *budget, *active, *unsatisfied));
            }
        }
        self.rounds = self
            .counters
            .get("rounds")
            .copied()
            .unwrap_or(self.round_end_rounds);
        self.migrations = self
            .counters
            .get("migrations")
            .copied()
            .unwrap_or(self.round_end_migrations);
    }

    /// True once the end-of-run trailer has been seen (the stream writer
    /// only emits ring accounting at [`crate::StreamSink::finish`]): a
    /// follower can stop tailing.
    pub fn saw_trailer(&self) -> bool {
        self.saw_ring_info
    }

    /// Render the summary as human-readable text (the `--metrics-summary`
    /// output of `qlb-sim`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rounds: {}   migrations: {}",
            self.rounds, self.migrations
        ));
        if let Some(u) = self.final_unsatisfied {
            out.push_str(&format!("   final unsatisfied: {u}"));
        }
        out.push('\n');
        if !self.overload_series.is_empty() {
            let first = self.overload_series.first().copied().unwrap_or(0);
            let last = self.overload_series.last().copied().unwrap_or(0);
            out.push_str(&format!(
                "overload Φ: {} → {} over {} traced rounds\n",
                first,
                last,
                self.overload_series.len()
            ));
        }
        if self.truncated {
            out.push_str(
                "warning: trace ends mid-record (interrupted write); partial tail skipped\n",
            );
        }
        let (recorded, dropped) = self.ring;
        out.push_str(&format!(
            "events: {recorded} recorded, {dropped} dropped by the ring\n"
        ));
        for (kind, count) in &self.events_by_kind {
            out.push_str(&format!("  {kind:>16}: {count}\n"));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:>18}: {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:>18}: {value}\n"));
            }
        }
        if !self.phases.is_empty() {
            let grand: u64 = self.phases.values().map(|&(_, t, _)| t).sum();
            out.push_str("phase breakdown:\n");
            for (name, &(count, total_ns, max_ns)) in &self.phases {
                out.push_str(&format!(
                    "  {:>12}: {:>9.2} ms over {:>7} calls (max {:.2} ms, {:.1}%)\n",
                    name,
                    total_ns as f64 / 1e6,
                    count,
                    max_ns as f64 / 1e6,
                    100.0 * total_ns as f64 / grand.max(1) as f64,
                ));
            }
        }
        if !self.shards.is_empty() {
            let rounds = self.shards.iter().map(|&(r, _, _)| r).max().unwrap_or(0);
            out.push_str(&format!(
                "shard profile: {} shards over {} pooled rounds",
                self.shards.len(),
                rounds
            ));
            if let Some(util) = self.mean_round_util_pct {
                out.push_str(&format!(", mean round utilization {util:.1}%"));
            }
            if let Some(skew) = self.latency_hists.get(SKEW_HIST_NAME) {
                out.push_str(&format!(
                    ", barrier skew p95 {:.1} µs",
                    skew.p95_ns as f64 / 1e3
                ));
            }
            out.push_str(" (see qlb-trace profile)\n");
        }
        if let Some(req) = self.latency_hists.get(REQUEST_HIST_NAME) {
            out.push_str(&format!(
                "requests: {} served, latency p50 {:.1} µs, p95 {:.1} µs, max {:.1} µs",
                req.count,
                req.p50_ns as f64 / 1e3,
                req.p95_ns as f64 / 1e3,
                req.max_ns as f64 / 1e3
            ));
            if let Some(place) = self.latency_hists.get(PLACE_HIST_NAME) {
                out.push_str(&format!(
                    "; placements p95 {:.1} µs",
                    place.p95_ns as f64 / 1e3
                ));
            }
            out.push('\n');
        }
        if !self.topk.is_empty() {
            out.push_str(&format!(
                "top-k congestion: {} samples retained (see qlb-trace profile)\n",
                self.topk.len()
            ));
        }
        if !self.stats_snapshots.is_empty() {
            out.push_str(&format!(
                "telemetry: {} stats snapshots retained (see qlb-trace watch)\n",
                self.stats_snapshots.len()
            ));
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "spans: {} causal request spans retained (see qlb-trace spans)\n",
                self.spans.len()
            ));
        }
        if let Some((trigger, tick, uptime_ms, spans, _)) = &self.blackbox {
            out.push_str(&format!(
                "black box: trigger {trigger} at tick {tick} ({uptime_ms} ms uptime), {spans} spans in ring\n"
            ));
        }
        out
    }
}

/// Incremental line-oriented [`Record`] parser for traces that are still
/// being written: feed it chunks in arrival order (split anywhere, even
/// mid-record — it carries the partial tail between calls) and it yields
/// the completed records. `qlb-trace --follow` runs on this.
#[derive(Debug, Clone, Default)]
pub struct TraceReader {
    /// Carried-over bytes of a line whose newline has not arrived yet.
    partial: String,
    /// Lines completed so far (for error positions).
    lines_done: usize,
}

impl TraceReader {
    /// A reader with no pending partial line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume a chunk, appending every record completed by it to `out`.
    ///
    /// Only lines terminated by `\n` are parsed; an unterminated tail is
    /// held until the next call (or inspected via
    /// [`TraceReader::pending`] once the stream is known to be over).
    /// Blank lines are ignored.
    ///
    /// # Errors
    /// A *terminated* line that does not parse is corrupt mid-stream data
    /// and fails with its position, exactly as in
    /// [`Summary::from_jsonl`].
    pub fn feed(&mut self, chunk: &str, out: &mut Vec<Record>) -> Result<(), ReplayError> {
        self.feed_with(chunk, |record| out.push(record))
    }

    /// [`TraceReader::feed`], handing each completed record to `emit`.
    fn feed_with(&mut self, chunk: &str, mut emit: impl FnMut(Record)) -> Result<(), ReplayError> {
        self.partial.push_str(chunk);
        let Some(end) = self.partial.rfind('\n') else {
            return Ok(());
        };
        // walk the complete lines by offset and drain them in one go: a
        // drain per line would memmove the whole tail each time
        let mut result = Ok(());
        for line in self.partial[..end].split('\n') {
            self.lines_done += 1;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str(line) {
                Ok(record) => emit(record),
                Err(e) => {
                    result = Err(ReplayError {
                        line: self.lines_done,
                        msg: e.to_string(),
                    });
                    break;
                }
            }
        }
        self.partial.drain(..=end);
        result
    }

    /// The unterminated tail currently held back. Non-empty once the
    /// writer is gone ⇒ the trace was truncated mid-record (report it and
    /// move on — the bytes before it all parsed).
    pub fn pending(&self) -> &str {
        &self.partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;
    use crate::profile::TopKEntry;
    use crate::recorder::Recorder;
    use crate::sink::Sink;
    use crate::timers::Phase;

    fn sample_recorder() -> Recorder {
        let mut rec = Recorder::default();
        for round in 0..3u64 {
            rec.event(Event::RoundStart {
                round,
                active: 10 - round,
            });
            rec.event(Event::RoundEnd {
                round,
                migrations: 2,
                unsatisfied: 8 - round,
                overload: Some(20 - round),
            });
            rec.add(Counter::Rounds, 1);
            rec.add(Counter::Migrations, 2);
            rec.time(Phase::Decide, 1_000 + round);
            rec.shard_round(&[500 + round, 900 + round], &[40, 65]);
            rec.topk(
                round,
                &[TopKEntry {
                    resource: round,
                    load: 9 - round,
                }],
            );
        }
        rec
    }

    #[test]
    fn summary_reads_back_what_the_recorder_wrote() {
        let rec = sample_recorder();
        let s = Summary::from_jsonl(&rec.to_jsonl()).unwrap();
        assert_eq!(s.rounds, 3);
        assert_eq!(s.migrations, 6);
        assert_eq!(s.final_unsatisfied, Some(6));
        assert_eq!(s.overload_series, vec![20, 19, 18]);
        assert_eq!(s.events_by_kind["RoundEnd"], 3);
        assert_eq!(s.ring, (6, 0));
        assert_eq!(s.phases["decide"].0, 3);
    }

    #[test]
    fn shard_profile_and_topk_round_trip() {
        let rec = sample_recorder();
        let s = Summary::from_jsonl(&rec.to_jsonl()).unwrap();
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards[0], (3, 500 + 501 + 502, 502));
        assert_eq!(s.shards[1], (3, 900 + 901 + 902, 902));
        let skew = &s.latency_hists[SKEW_HIST_NAME];
        assert_eq!(skew.count, 3);
        assert_eq!(skew.max_ns, 400);
        assert!(!skew.buckets.is_empty());
        assert_eq!(s.latency_hists["dispatch_wake"].count, 6);
        assert_eq!(
            s.topk,
            vec![(0, vec![(0, 9)]), (1, vec![(1, 8)]), (2, vec![(2, 7)])]
        );
        let rendered = s.render();
        assert!(rendered.contains("shard profile: 2 shards"));
        assert!(rendered.contains("top-k congestion: 3 samples"));
    }

    #[test]
    fn round_trip_is_stable() {
        // writing, parsing, and re-deriving must agree with a second pass
        // over the same text — the "replayable" contract
        let jsonl = sample_recorder().to_jsonl();
        let a = Summary::from_jsonl(&jsonl).unwrap();
        let b = Summary::from_jsonl(&jsonl).unwrap();
        assert_eq!(a, b);
        let rendered = a.render();
        assert!(rendered.contains("rounds: 3"));
        assert!(rendered.contains("overload Φ: 20 → 18"));
        assert!(rendered.contains("decide"));
    }

    #[test]
    fn garbage_line_is_an_error_with_position() {
        let err = Summary::from_jsonl("{\"RingInfo\":{\"recorded\":0,\"dropped\":0}}\nnot json\n")
            .unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn blank_lines_are_ignored() {
        let s = Summary::from_jsonl("\n\n").unwrap();
        assert_eq!(s.rounds, 0);
    }

    #[test]
    fn truncated_final_line_is_skipped_not_fatal() {
        // cut the recorder dump mid-way through its final line, as a kill
        // mid-write would
        let jsonl = sample_recorder().to_jsonl();
        let cut = jsonl.len() - 7;
        let truncated = &jsonl[..cut];
        assert!(!truncated.ends_with('\n'));
        let s = Summary::from_jsonl(truncated).unwrap();
        assert!(s.truncated);
        // everything before the tail still counted
        assert_eq!(s.events_by_kind["RoundEnd"], 3);
        assert!(s.render().contains("interrupted write"));
    }

    #[test]
    fn truncation_tolerance_does_not_mask_midstream_garbage() {
        // same garbage line but *terminated*: that is corruption, not a
        // mid-write crash, and must stay an error
        let err = Summary::from_jsonl("garbage\n{\"RingInfo\":{\"recorded\":0,\"dropped\":0}}\n")
            .unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn every_complete_prefix_of_a_dump_parses() {
        // the stream sink flushes only whole lines, so any prefix ending
        // at a newline must parse cleanly and monotonically grow the
        // round count
        let jsonl = sample_recorder().to_jsonl();
        let mut last_rounds = 0;
        for (i, b) in jsonl.bytes().enumerate() {
            if b == b'\n' {
                let s = Summary::from_jsonl(&jsonl[..=i]).unwrap();
                assert!(!s.truncated);
                assert!(s.rounds >= last_rounds);
                last_rounds = s.rounds;
            }
        }
        assert_eq!(last_rounds, 3);
    }

    #[test]
    fn trace_reader_matches_batch_parse_across_chunk_splits() {
        let jsonl = sample_recorder().to_jsonl();
        let batch = Summary::from_jsonl(&jsonl).unwrap();
        // feed in pathological chunk sizes, including 1-byte chunks that
        // split every record
        for chunk_size in [1usize, 3, 7, 64, jsonl.len()] {
            let mut reader = TraceReader::new();
            let mut records = Vec::new();
            let bytes = jsonl.as_bytes();
            let mut pos = 0;
            while pos < bytes.len() {
                let end = (pos + chunk_size).min(bytes.len());
                reader
                    .feed(std::str::from_utf8(&bytes[pos..end]).unwrap(), &mut records)
                    .unwrap();
                pos = end;
            }
            assert!(reader.pending().is_empty());
            let mut incremental = Summary::default();
            for r in &records {
                incremental.ingest(r);
            }
            assert_eq!(incremental, batch, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn trace_reader_holds_partial_tail() {
        let mut reader = TraceReader::new();
        let mut records = Vec::new();
        reader
            .feed("{\"RingInfo\":{\"recorded\":5,\"dr", &mut records)
            .unwrap();
        assert!(records.is_empty());
        assert!(!reader.pending().is_empty());
        reader.feed("opped\":0}}\n", &mut records).unwrap();
        assert_eq!(records.len(), 1);
        assert!(reader.pending().is_empty());
    }

    #[test]
    fn trace_reader_feed_is_linear_in_chunk_size() {
        // `qlb-trace --follow` reads an existing trace as one chunk: a feed
        // of 4n lines must cost about 4× a feed of n lines, not 16×
        fn lines(n: u64) -> String {
            let mut out = String::new();
            for round in 0..n {
                let event = Event::RoundEnd {
                    round,
                    migrations: 12_345,
                    unsatisfied: 6_789,
                    overload: Some(1_000_000 + round),
                };
                Record::Event { seq: round, event }.write_line(&mut out);
            }
            out
        }
        fn best_feed_secs(text: &str, n: u64) -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let mut reader = TraceReader::new();
                let mut records = Vec::new();
                let start = std::time::Instant::now();
                reader.feed(text, &mut records).unwrap();
                best = best.min(start.elapsed().as_secs_f64());
                assert!(reader.pending().is_empty());
                assert_eq!(records.len() as u64, n, "every record comes back");
                for (i, r) in records.iter().enumerate() {
                    assert!(matches!(r, Record::Event { seq, .. } if *seq == i as u64));
                }
            }
            best
        }
        let n = 10_000;
        let small = best_feed_secs(&lines(n), n);
        let large = best_feed_secs(&lines(4 * n), 4 * n);
        assert!(
            large < 8.0 * small,
            "feed of {} lines took {large:.3} s vs {small:.3} s for {n}",
            4 * n
        );
    }

    #[test]
    fn spans_round_trip_through_the_dump() {
        let mut rec = sample_recorder();
        rec.span(&SpanRecord {
            id: 42,
            op: crate::span::SPAN_OP_PLACE.into(),
            ticket: Some(7),
            class: Some(1),
            verdict: "admitted".into(),
            probes: 2,
            headroom: vec![6, -1],
            resource: Some(3),
            from: None,
            parse_ns: 120,
            admit_ns: 900,
            probe_ns: 500,
            reply_ns: 80,
            total_ns: 1_150,
        });
        let s = Summary::from_jsonl(&rec.to_jsonl()).unwrap();
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].ticket, Some(7));
        assert_eq!(s.spans[0].headroom, vec![6, -1]);
        assert!(s.render().contains("spans: 1 causal request spans"));
    }

    #[test]
    fn blackbox_header_and_tick_marks_are_ingested() {
        let mut s = Summary::default();
        s.ingest(&Record::BlackBox {
            trigger: "starved_tick".to_string(),
            tick: 9,
            uptime_ms: 1_234,
            spans: 5,
            dropped: 0,
        });
        s.ingest(&Record::TickMark {
            tick: 9,
            backlog: 80,
            budget: 1,
            active: 100,
            unsatisfied: 3,
        });
        assert_eq!(
            s.blackbox,
            Some(("starved_tick".to_string(), 9, 1_234, 5, 0))
        );
        assert_eq!(s.tick_marks, vec![(9, 80, 1, 100, 3)]);
        assert!(s.render().contains("black box: trigger starved_tick"));
    }

    #[test]
    fn saw_trailer_flips_on_ring_info() {
        let mut s = Summary::default();
        assert!(!s.saw_trailer());
        s.ingest(&Record::Event {
            seq: 0,
            event: Event::RoundStart {
                round: 0,
                active: 1,
            },
        });
        assert!(!s.saw_trailer());
        s.ingest(&Record::RingInfo {
            recorded: 1,
            dropped: 0,
        });
        assert!(s.saw_trailer());
    }
}
