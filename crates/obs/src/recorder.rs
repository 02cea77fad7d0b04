//! The recording [`Sink`]: registry + event log + phase timers, exportable
//! as JSONL.
//!
//! One type, [`Recorder<L>`], holds every accumulator and implements
//! [`Sink`] once; the two export modes differ only in where events go
//! (the [`EventLog`] `L`):
//!
//! * `Recorder` (`L` = [`EventRing`]) keeps a bounded ring of recent
//!   events and dumps the whole run post hoc with [`Recorder::to_jsonl`];
//! * [`StreamSink<W>`](crate::StreamSink) (`L` =
//!   [`JsonlLog<W>`](crate::JsonlLog)) writes each event as a JSONL line
//!   while the run is in flight and the trailer on [`Recorder::finish`].
//!
//! Both end with the same trailer (`Recorder::write_trailer`), so a
//! finished stream is byte-identical to the dump of a recorder whose ring
//! never wrapped (property-tested).

use crate::event::{Event, EventRing};
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::profile::{HistBucket, LatencyHists, ShardTimers, TopKEntry, TopKSeries};
use crate::profile::{SKEW_HIST_NAME, WAKE_HIST_NAME};
use crate::sink::{DeltaSnapshot, Sink};
use crate::span::{SpanRecord, SpanSeries};
use crate::timers::{Phase, PhaseTimers};
use crate::window::{StatsSeries, StatsSnapshot};
use serde::{Deserialize, Serialize};

/// One line of a JSONL dump. Externally tagged, so each line is
/// self-describing: `{"Event":{…}}`, `{"Counter":{…}}`, ….
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// A traced event with its ring sequence number.
    Event {
        /// Sequence number assigned by the ring.
        seq: u64,
        /// The event.
        event: Event,
    },
    /// A counter's final cumulative value.
    Counter {
        /// Export name ([`Counter::name`]).
        name: String,
        /// Cumulative value.
        value: u64,
    },
    /// A gauge's final value.
    Gauge {
        /// Export name ([`Gauge::name`]).
        name: String,
        /// Last value set.
        value: u64,
    },
    /// A phase timer's aggregate.
    Phase {
        /// Export name ([`Phase::name`]).
        name: String,
        /// Samples recorded.
        count: u64,
        /// Total nanoseconds.
        total_ns: u64,
        /// Largest single sample in nanoseconds.
        max_ns: u64,
    },
    /// Ring-buffer accounting: how much of the event stream the dump holds.
    RingInfo {
        /// Events recorded over the run.
        recorded: u64,
        /// Oldest events overwritten because the ring was full.
        dropped: u64,
    },
    /// One shard's compute aggregate over all pooled rounds (trailer).
    Shard {
        /// Shard index (0 = the pool coordinator's shard).
        shard: u64,
        /// Pooled rounds this shard computed.
        rounds: u64,
        /// Total compute nanoseconds across those rounds.
        total_ns: u64,
        /// Largest single-round compute time in nanoseconds.
        max_ns: u64,
    },
    /// Mean per-round shard utilization (trailer): Σ shard compute over
    /// shards × the round's slowest shard, averaged over pooled rounds —
    /// the balance of the sharding itself, robust to a few stalled rounds
    /// inflating the aggregate critical path.
    ShardUtil {
        /// Mean per-round utilization in percent (100 = perfectly even).
        mean_round_pct: f64,
    },
    /// A named latency histogram (trailer): `barrier_skew` (per-round
    /// max−min shard compute time) or `dispatch_wake` (pool epoch/condvar
    /// handoff latency).
    LatencyHist {
        /// Histogram name ([`SKEW_HIST_NAME`] / [`WAKE_HIST_NAME`]).
        name: String,
        /// Samples recorded.
        count: u64,
        /// Total nanoseconds.
        total_ns: u64,
        /// Largest single sample in nanoseconds.
        max_ns: u64,
        /// Approximate median sample in nanoseconds.
        p50_ns: u64,
        /// Approximate 95th-percentile sample in nanoseconds.
        p95_ns: u64,
        /// Non-empty power-of-two buckets.
        buckets: Vec<HistBucket>,
    },
    /// One retained top-k congestion sample (trailer; the series is
    /// decimated by [`TopKSeries`]).
    TopK {
        /// Round the sample describes.
        round: u64,
        /// The hottest resources, highest load first.
        entries: Vec<TopKEntry>,
    },
    /// One retained live-telemetry snapshot (trailer; the series is
    /// decimated by [`StatsSeries`]).
    StatsSnapshot {
        /// The snapshot.
        snap: StatsSnapshot,
    },
    /// One retained delta-compressed assignment snapshot (trailer). The
    /// payload is the hex of a `qlb-core` `StateDelta` wire blob
    /// (`StateDelta::to_bytes`/`from_bytes`); the summary fields ride
    /// alongside so readers that do not link `qlb-core` can still report
    /// on it.
    StateDelta {
        /// Round (or op sequence) the snapshot describes.
        round: u64,
        /// Generation the delta applies on top of.
        base_gen: u64,
        /// Generation reached after applying it.
        gen: u64,
        /// Users covered.
        users: u64,
        /// Users whose assignment changes.
        changed: u64,
        /// Hex-encoded serialized delta.
        hex: String,
    },
    /// One retained causal request span (trailer; the series is bounded
    /// by [`SpanSeries`]).
    Span {
        /// The span.
        span: SpanRecord,
    },
    /// Flight-recorder dump header: why and when the black box was cut.
    /// Written only by the serve daemon's flight recorder, never by the
    /// trailer — its presence marks a file as a black-box dump.
    BlackBox {
        /// The trigger that fired (`starved_tick`, `slo_burn`,
        /// `reject_spike`, `p99_over_bound`).
        trigger: String,
        /// Scheduler tick the trigger fired at.
        tick: u64,
        /// Daemon uptime (ms) at the dump.
        uptime_ms: u64,
        /// Spans in the dumped ring.
        spans: u64,
        /// Records dropped from the ring before the dump (overflow).
        dropped: u64,
    },
    /// One scheduler tick's context line (flight-recorder ring only):
    /// the per-tick state a black-box reader needs to line spans up with
    /// rebalancer behaviour.
    TickMark {
        /// The tick.
        tick: u64,
        /// Request-queue backlog at the tick.
        backlog: u64,
        /// Rebalancer round budget granted.
        budget: u64,
        /// Placed slots after the tick.
        active: u64,
        /// Unsatisfied users after the tick.
        unsatisfied: u64,
    },
}

/// Retained delta-snapshot series (see [`Record::StateDelta`]). Snapshots
/// are rare (end-of-run export, recovery checkpoints), so the series keeps
/// everything it is offered.
#[derive(Debug, Clone, Default)]
pub struct DeltaSeries {
    items: Vec<(u64, u64, u64, u64, u64, Vec<u8>)>,
}

impl DeltaSeries {
    /// Retain one snapshot (copies the payload).
    pub fn push(&mut self, d: &DeltaSnapshot<'_>) {
        self.items.push((
            d.round,
            d.base_gen,
            d.gen,
            d.users,
            d.changed,
            d.bytes.to_vec(),
        ));
    }

    /// Snapshots retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no snapshot was offered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The raw serialized payload of snapshot `i` (insertion order).
    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.items[i].5
    }
}

impl Record {
    /// Append this record as one JSONL line, trailing newline included —
    /// the single line writer behind every trace, dump, and black box.
    pub fn write_line(&self, out: &mut String) {
        out.push_str(&serde_json::to_string(self).expect("record serializes"));
        out.push('\n');
    }

    /// A latency [`Histogram`] in its exported form (non-empty buckets
    /// only, with derived p50/p95).
    fn latency_hist(name: &str, h: &Histogram) -> Record {
        Record::LatencyHist {
            name: name.to_string(),
            count: h.count(),
            total_ns: h.sum(),
            max_ns: h.max(),
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            buckets: h
                .buckets()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| HistBucket {
                    bucket: i as u64,
                    count: c,
                })
                .collect(),
        }
    }
}

/// Lowercase hex of a byte string (the trailer's payload encoding —
/// JSONL lines must stay valid UTF-8).
fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 15) as u32, 16).expect("nibble"));
    }
    s
}

/// Where a [`Recorder`] sends events: a bounded in-memory [`EventRing`]
/// (dumped post hoc) or a [`JsonlLog`](crate::JsonlLog) (streamed as they
/// happen).
pub trait EventLog {
    /// Take one event.
    fn record(&mut self, event: Event);

    /// `(recorded, dropped)`: events taken over the run, and how many of
    /// them the log has since discarded — the trailer's
    /// [`Record::RingInfo`].
    fn accounting(&self) -> (u64, u64);
}

impl EventLog for EventRing {
    #[inline]
    fn record(&mut self, event: Event) {
        self.push(event);
    }

    fn accounting(&self) -> (u64, u64) {
        (self.total_recorded(), self.dropped())
    }
}

/// A recording [`Sink`]: dense metrics, an event log, phase timers, and
/// the profiling series, all in one place. Everything it holds is derived
/// data — it can be attached to any run without changing the trajectory.
#[derive(Debug, Clone)]
pub struct Recorder<L = EventRing> {
    pub(crate) events: L,
    metrics: MetricsRegistry,
    timers: PhaseTimers,
    shard_timers: ShardTimers,
    topk: TopKSeries,
    latency: LatencyHists,
    stats: StatsSeries,
    deltas: DeltaSeries,
    spans: SpanSeries,
}

impl Default for Recorder<EventRing> {
    fn default() -> Self {
        Self::with_log(EventRing::default())
    }
}

impl Recorder<EventRing> {
    /// A recorder whose event ring holds at most `capacity` events.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Self::with_log(EventRing::with_capacity(capacity))
    }

    /// Dump the whole recording as JSONL: one [`Record`] per line —
    /// retained events first (oldest to newest), then the end-of-run
    /// trailer. The output parses back with
    /// [`crate::replay::Summary::from_jsonl`], and — when the ring never
    /// wrapped — is byte-identical to what a [`crate::StreamSink`] attached
    /// to the same run writes (property-tested).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, event) in self.events.iter() {
            Record::Event { seq, event }.write_line(&mut out);
        }
        self.write_trailer(&mut out);
        out
    }
}

impl<L> Recorder<L> {
    /// A recorder sending events to `events`, every accumulator empty.
    pub(crate) fn with_log(events: L) -> Self {
        Self {
            events,
            metrics: MetricsRegistry::default(),
            timers: PhaseTimers::default(),
            shard_timers: ShardTimers::default(),
            topk: TopKSeries::default(),
            latency: LatencyHists::default(),
            stats: StatsSeries::default(),
            deltas: DeltaSeries::default(),
            spans: SpanSeries::default(),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access (for drivers that latch round marks).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The event log (the ring, or the stream's writer state).
    pub fn events(&self) -> &L {
        &self.events
    }

    /// The phase timers.
    pub fn timers(&self) -> &PhaseTimers {
        &self.timers
    }

    /// The per-shard profile (empty unless a pooled executor ran with
    /// shard timing on).
    pub fn shard_timers(&self) -> &ShardTimers {
        &self.shard_timers
    }

    /// The retained top-k congestion series (empty unless sampling was
    /// requested).
    pub fn topk_series(&self) -> &TopKSeries {
        &self.topk
    }

    /// The named latency histograms (empty unless a driver recorded any,
    /// e.g. the serve daemon's request latencies).
    pub fn latency_hists(&self) -> &LatencyHists {
        &self.latency
    }

    /// The retained live-telemetry snapshot series (empty unless a serving
    /// daemon offered periodic [`StatsSnapshot`]s).
    pub fn stats_series(&self) -> &StatsSeries {
        &self.stats
    }

    /// The retained delta-snapshot series (empty unless a driver offered
    /// [`DeltaSnapshot`]s, e.g. the serve daemon's drain export).
    pub fn delta_series(&self) -> &DeltaSeries {
        &self.deltas
    }

    /// The retained causal span series (empty unless a serving daemon
    /// emitted sampled [`SpanRecord`]s).
    pub fn span_series(&self) -> &SpanSeries {
        &self.spans
    }

    /// Shorthand for a cumulative counter value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.metrics.counter(c)
    }

    /// Shorthand for a gauge value.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.metrics.gauge(g)
    }
}

impl<L: EventLog> Recorder<L> {
    /// Append the end-of-run trailer: ring accounting, then non-zero
    /// counters, gauges, non-empty phase aggregates, the per-shard profile
    /// (shard aggregates, skew and wake histograms), named latency
    /// histograms, and the retained top-k, stats, delta, and span series,
    /// in stable registry order. Both export modes end with it, so
    /// post-hoc dumps and streamed traces stay byte-compatible.
    pub(crate) fn write_trailer(&self, out: &mut String) {
        let (recorded, dropped) = self.events.accounting();
        Record::RingInfo { recorded, dropped }.write_line(out);
        for &c in &Counter::ALL {
            let value = self.metrics.counter(c);
            if value > 0 {
                let name = c.name().to_string();
                Record::Counter { name, value }.write_line(out);
            }
        }
        for &g in &Gauge::ALL {
            let value = self.metrics.gauge(g);
            if value > 0 {
                let name = g.name().to_string();
                Record::Gauge { name, value }.write_line(out);
            }
        }
        for &p in &Phase::ALL {
            let h = self.timers.histogram(p);
            if h.count() > 0 {
                Record::Phase {
                    name: p.name().to_string(),
                    count: h.count(),
                    total_ns: h.sum(),
                    max_ns: h.max(),
                }
                .write_line(out);
            }
        }
        let st = &self.shard_timers;
        for shard in 0..st.num_shards() {
            let (rounds, total_ns, max_ns) = st.shard(shard);
            Record::Shard {
                shard: shard as u64,
                rounds,
                total_ns,
                max_ns,
            }
            .write_line(out);
        }
        if !st.is_empty() {
            let mean_round_pct = 100.0 * st.mean_round_utilization();
            Record::ShardUtil { mean_round_pct }.write_line(out);
        }
        let shard_hists = [(SKEW_HIST_NAME, st.skew()), (WAKE_HIST_NAME, st.dispatch())];
        for (name, h) in shard_hists.into_iter().chain(self.latency.iter()) {
            if h.count() > 0 {
                Record::latency_hist(name, h).write_line(out);
            }
        }
        for (round, entries) in self.topk.samples() {
            let (round, entries) = (*round, entries.clone());
            Record::TopK { round, entries }.write_line(out);
        }
        for snap in self.stats.samples() {
            Record::StatsSnapshot { snap: snap.clone() }.write_line(out);
        }
        for &(round, base_gen, gen, users, changed, ref bytes) in &self.deltas.items {
            Record::StateDelta {
                round,
                base_gen,
                gen,
                users,
                changed,
                hex: hex_encode(bytes),
            }
            .write_line(out);
        }
        for span in self.spans.iter() {
            Record::Span { span: span.clone() }.write_line(out);
        }
    }
}

impl<L: EventLog> Sink for Recorder<L> {
    const ENABLED: bool = true;

    #[inline]
    fn event(&mut self, ev: Event) {
        self.events.record(ev);
    }

    #[inline]
    fn add(&mut self, c: Counter, delta: u64) {
        self.metrics.add(c, delta);
    }

    #[inline]
    fn set(&mut self, g: Gauge, value: u64) {
        self.metrics.set(g, value);
    }

    #[inline]
    fn time(&mut self, p: Phase, ns: u64) {
        self.timers.record(p, ns);
    }

    #[inline]
    fn shard_round(&mut self, compute_ns: &[u64], wake_ns: &[u64]) {
        self.shard_timers.record_round(compute_ns, wake_ns);
    }

    #[inline]
    fn topk(&mut self, round: u64, entries: &[TopKEntry]) {
        self.topk.push(round, entries);
    }

    #[inline]
    fn latency(&mut self, name: &'static str, ns: u64) {
        self.latency.record(name, ns);
    }

    #[inline]
    fn stats_snapshot(&mut self, snap: &StatsSnapshot) {
        self.stats.push(snap);
    }

    #[inline]
    fn delta_snapshot(&mut self, d: &DeltaSnapshot<'_>) {
        self.deltas.push(d);
    }

    #[inline]
    fn span(&mut self, s: &SpanRecord) {
        self.spans.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_routes_all_emissions() {
        let mut rec = Recorder::default();
        rec.add(Counter::Rounds, 2);
        rec.set(Gauge::Unsatisfied, 7);
        rec.time(Phase::Decide, 900);
        rec.event(Event::RoundStart {
            round: 0,
            active: 7,
        });
        assert_eq!(rec.counter(Counter::Rounds), 2);
        assert_eq!(rec.gauge(Gauge::Unsatisfied), 7);
        assert_eq!(rec.timers().total_ns(Phase::Decide), 900);
        assert_eq!(rec.events().len(), 1);
    }

    #[test]
    fn jsonl_lines_parse_as_records() {
        let mut rec = Recorder::default();
        rec.event(Event::RoundEnd {
            round: 0,
            migrations: 1,
            unsatisfied: 0,
            overload: Some(0),
        });
        rec.add(Counter::Migrations, 1);
        rec.time(Phase::Apply, 50);
        let jsonl = rec.to_jsonl();
        let records: Vec<Record> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        assert!(records
            .iter()
            .any(|r| matches!(r, Record::Event { seq: 0, .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r, Record::Counter { name, value: 1 } if name == "migrations")));
        assert!(records
            .iter()
            .any(|r| matches!(r, Record::Phase { name, .. } if name == "apply")));
        assert!(records.iter().any(|r| matches!(
            r,
            Record::RingInfo {
                recorded: 1,
                dropped: 0
            }
        )));
    }

    #[test]
    fn trailer_carries_shard_profile_and_topk() {
        let mut rec = Recorder::default();
        rec.shard_round(&[100, 300], &[5, 9]);
        rec.shard_round(&[250, 150], &[4, 8]);
        rec.topk(
            0,
            &[TopKEntry {
                resource: 3,
                load: 12,
            }],
        );
        let jsonl = rec.to_jsonl();
        let records: Vec<Record> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        assert!(records.iter().any(|r| matches!(
            r,
            Record::Shard {
                shard: 1,
                rounds: 2,
                total_ns: 450,
                max_ns: 300
            }
        )));
        assert!(records.iter().any(
            |r| matches!(r, Record::LatencyHist { name, count: 2, .. } if name == SKEW_HIST_NAME)
        ));
        assert!(records.iter().any(
            |r| matches!(r, Record::LatencyHist { name, count: 4, .. } if name == WAKE_HIST_NAME)
        ));
        assert!(records
            .iter()
            .any(|r| matches!(r, Record::TopK { round: 0, entries } if entries.len() == 1)));
    }
}
