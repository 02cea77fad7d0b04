//! Anomaly-triggered flight recorder: a bounded in-memory ring of recent
//! causal spans and per-tick context that dumps to a timestamped JSONL
//! "black box" file the moment an anomaly trigger fires.
//!
//! The recorder rides the same span machinery as the trace sink but is
//! **sink-independent**: a daemon running with a
//! [`qlb_obs::NoopSink`] still keeps the ring warm and still dumps, so
//! the black box is available exactly when tracing was *not* on — the
//! production incident you did not predict. Four triggers are armed, all
//! computed from quantities the telemetry plane already maintains:
//!
//! 1. **starved tick** — the adaptive rebalancer budget was pinned at its
//!    floor while a backlog and unsatisfied users remained
//!    ([`ServeTelemetry`] starvation accounting moved);
//! 2. **SLO burn** — some class's windowed time-in-violation fraction
//!    reached [`FlightOptions::slo_violation`];
//! 3. **reject spike** — admission rejects over the trigger window
//!    reached [`FlightOptions::reject_spike`];
//! 4. **request p99 over bound** — the windowed request p99 exceeded
//!    [`FlightOptions::p99_bound_ns`] (disabled when 0).
//!
//! A dump is one [`Record::BlackBox`] header line naming the trigger,
//! followed by the ring contents oldest-first ([`Record::Span`] and
//! [`Record::TickMark`] lines), closed by a [`Record::RingInfo`] trailer
//! — so `qlb_obs::replay::Summary::from_jsonl` and `qlb-trace blackbox`
//! read a black box like any other trace. After a dump the ring is
//! cleared (consecutive dumps carry disjoint evidence) and the trigger
//! enters a cooldown of [`FlightOptions::cooldown_ticks`] so a sustained
//! anomaly produces a bounded series of files, capped at
//! [`FlightOptions::max_dumps`] per run.

use crate::core::ServeCore;
use crate::telemetry::ServeTelemetry;
use qlb_obs::profile::REQUEST_HIST_NAME;
use qlb_obs::recorder::Record;
use qlb_obs::{Counter, SpanRecord};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::PathBuf;

/// Window over which the burn-rate / spike / p99 triggers are evaluated
/// (matches the telemetry plane's 10 s digest window).
pub const TRIGGER_WINDOW_MS: u64 = 10_000;

/// Flight-recorder tunables. `new` gives the defaults the `qlb-serve`
/// `--flight-recorder DIR` flag uses; tests tighten them.
#[derive(Debug, Clone)]
pub struct FlightOptions {
    /// Directory black-box files are written into (created on demand).
    pub dir: PathBuf,
    /// Records retained in the ring (spans + tick marks).
    pub ring_cap: usize,
    /// Scheduler ticks a fired trigger suppresses further dumps for.
    pub cooldown_ticks: u64,
    /// Hard cap on dumps per daemon run.
    pub max_dumps: usize,
    /// SLO-burn trigger: windowed time-in-violation fraction at or above
    /// this fires (1.0 = a class violating for the whole window).
    pub slo_violation: f64,
    /// Reject-spike trigger: admission rejects within the trigger window
    /// at or above this fire (0 disables).
    pub reject_spike: u64,
    /// Latency trigger: windowed request p99 above this many ns fires
    /// (0 disables).
    pub p99_bound_ns: u64,
}

impl FlightOptions {
    /// Defaults for a directory: 4096-record ring, 256-tick cooldown, at
    /// most 8 dumps, SLO burn at 0.5, reject spike at 64 per window, p99
    /// trigger disabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            ring_cap: 4096,
            cooldown_ticks: 256,
            max_dumps: 8,
            slo_violation: 0.5,
            reject_spike: 64,
            p99_bound_ns: 0,
        }
    }
}

/// The in-memory flight ring plus trigger state. Owned by the serve loop
/// next to the telemetry plane; see the module docs for the life-cycle.
#[derive(Debug)]
pub struct FlightRecorder {
    opts: FlightOptions,
    ring: VecDeque<Record>,
    dropped: u64,
    last_starved: u64,
    cooldown_until: u64,
    dumps: Vec<PathBuf>,
}

impl FlightRecorder {
    /// A recorder with an empty ring and all triggers armed.
    pub fn new(opts: FlightOptions) -> Self {
        Self {
            ring: VecDeque::with_capacity(opts.ring_cap.min(1024)),
            opts,
            dropped: 0,
            last_starved: 0,
            cooldown_until: 0,
            dumps: Vec::new(),
        }
    }

    fn push(&mut self, r: Record) {
        if self.ring.len() >= self.opts.ring_cap.max(1) {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(r);
    }

    /// Retain one causal span in the ring.
    pub fn record_span(&mut self, span: &SpanRecord) {
        self.push(Record::Span { span: span.clone() });
    }

    /// Retain one scheduler tick's context in the ring.
    pub fn record_tick(&mut self, tick: u64, backlog: u64, budget: u64, core: &ServeCore) {
        self.push(Record::TickMark {
            tick,
            backlog,
            budget,
            active: core.active_slots(),
            unsatisfied: core.unsatisfied(),
        });
    }

    /// Black-box files written so far, in dump order.
    pub fn dumps(&self) -> &[PathBuf] {
        &self.dumps
    }

    /// Which trigger, if any, fires against the current telemetry state.
    /// Starvation accounting is differenced even while cooling down so a
    /// starved tick during cooldown does not fire later.
    fn trigger(&mut self, tel: &ServeTelemetry, core: &ServeCore) -> Option<&'static str> {
        let starved = tel.starved_ticks();
        let starved_fired = starved > self.last_starved;
        self.last_starved = starved;
        if starved_fired {
            return Some("starved-tick");
        }
        let agg = tel.aggregator();
        for k in 0..core.num_classes() {
            if agg.violation_fraction(k, TRIGGER_WINDOW_MS) >= self.opts.slo_violation {
                return Some("slo-burn");
            }
        }
        if self.opts.reject_spike > 0
            && agg.window_delta(Counter::AdmissionRejects, TRIGGER_WINDOW_MS)
                >= self.opts.reject_spike
        {
            return Some("reject-spike");
        }
        if self.opts.p99_bound_ns > 0
            && tel
                .window_latency(REQUEST_HIST_NAME, TRIGGER_WINDOW_MS)
                .quantile(0.99)
                > self.opts.p99_bound_ns
        {
            return Some("p99-over-bound");
        }
        None
    }

    /// Evaluate the triggers at scheduler tick `tick`; on a fire (outside
    /// cooldown, under the dump cap) write a black box and return the
    /// trigger name with the file path.
    pub fn check(
        &mut self,
        tel: &ServeTelemetry,
        core: &ServeCore,
        tick: u64,
    ) -> io::Result<Option<(&'static str, PathBuf)>> {
        let Some(trigger) = self.trigger(tel, core) else {
            return Ok(None);
        };
        if tick < self.cooldown_until || self.dumps.len() >= self.opts.max_dumps {
            return Ok(None);
        }
        let path = self.dump(trigger, tick, tel.uptime_ms())?;
        self.cooldown_until = tick.saturating_add(self.opts.cooldown_ticks);
        Ok(Some((trigger, path)))
    }

    /// Write the ring as a black-box file and clear it. The file name
    /// carries the wall-clock timestamp and the tick for uniqueness.
    fn dump(&mut self, trigger: &str, tick: u64, uptime_ms: u64) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.opts.dir)?;
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let path = self.opts.dir.join(format!(
            "blackbox-{stamp}-t{tick}-{}.jsonl",
            self.dumps.len()
        ));
        let spans = self
            .ring
            .iter()
            .filter(|r| matches!(r, Record::Span { .. }))
            .count() as u64;
        let mut out = String::new();
        Record::BlackBox {
            trigger: trigger.to_string(),
            tick,
            uptime_ms,
            spans,
            dropped: self.dropped,
        }
        .write_line(&mut out);
        for r in &self.ring {
            r.write_line(&mut out);
        }
        Record::RingInfo {
            recorded: self.ring.len() as u64,
            dropped: self.dropped,
        }
        .write_line(&mut out);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(out.as_bytes())?;
        f.flush()?;
        self.ring.clear();
        self.dropped = 0;
        self.dumps.push(path.clone());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use qlb_core::ClassId;
    use qlb_obs::replay::Summary;
    use qlb_obs::span::SPAN_OP_PLACE;
    use qlb_obs::NoopSink;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qlb-flight-{tag}-{}", std::process::id()));
        p
    }

    fn span(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            op: SPAN_OP_PLACE.into(),
            ticket: Some(id),
            class: Some(0),
            verdict: "admitted".into(),
            probes: 2,
            headroom: vec![3, 1],
            resource: Some(1),
            from: None,
            parse_ns: 100,
            admit_ns: 200,
            probe_ns: 50,
            reply_ns: 30,
            total_ns: 400,
        }
    }

    fn starved_setup() -> (ServeCore, ServeTelemetry) {
        let mut core = ServeCore::with_capacities(&[2; 16], 64, ServeConfig::new(3)).unwrap();
        let mut sink = NoopSink;
        for _ in 0..24 {
            core.place(ClassId(0), 1, &mut sink).unwrap();
        }
        let tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
        assert!(core.unsatisfied() > 0);
        (core, tel)
    }

    #[test]
    fn starved_tick_triggers_a_readable_dump() {
        let dir = temp_dir("starve");
        let (core, mut tel) = starved_setup();
        let mut fr = FlightRecorder::new(FlightOptions::new(&dir));
        fr.record_span(&span(0));
        fr.record_tick(0, 0, 8, &core);
        assert!(fr.check(&tel, &core, 0).unwrap().is_none(), "calm start");
        tel.on_tick_at(&core, 1 << 20, 10); // budget floored while starving
        let (trigger, path) = fr.check(&tel, &core, 1).unwrap().expect("fires");
        assert_eq!(trigger, "starved-tick");
        let text = std::fs::read_to_string(&path).unwrap();
        let s = Summary::from_jsonl(&text).unwrap();
        let (bb_trigger, bb_tick, _, bb_spans, _) = s.blackbox.clone().expect("header");
        assert_eq!(bb_trigger, "starved-tick");
        assert_eq!(bb_tick, 1);
        assert_eq!(bb_spans, 1);
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.tick_marks.len(), 1);
        // the same starvation must not re-fire, and cooldown holds
        assert!(fr.check(&tel, &core, 2).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_is_bounded_and_cleared_by_a_dump() {
        let dir = temp_dir("ring");
        let (core, mut tel) = starved_setup();
        let mut opts = FlightOptions::new(&dir);
        opts.ring_cap = 4;
        opts.cooldown_ticks = 0;
        let mut fr = FlightRecorder::new(opts);
        for i in 0..10 {
            fr.record_span(&span(i));
        }
        tel.on_tick_at(&core, 1 << 20, 10);
        let (_, path) = fr.check(&tel, &core, 1).unwrap().expect("fires");
        let s = Summary::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(s.spans.len(), 4, "ring keeps the newest 4");
        assert_eq!(s.spans[0].id, 6, "oldest retained span");
        let (.., dropped) = s.blackbox.clone().unwrap();
        assert_eq!(dropped, 6);
        // ring cleared: a second fire dumps fresh (empty) evidence
        fr.record_span(&span(99));
        tel.on_tick_at(&core, 1 << 20, 20);
        let (_, path2) = fr.check(&tel, &core, 2).unwrap().expect("fires again");
        let s2 = Summary::from_jsonl(&std::fs::read_to_string(&path2).unwrap()).unwrap();
        assert_eq!(s2.spans.len(), 1);
        assert_eq!(s2.spans[0].id, 99);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_cap_and_reject_spike_trigger() {
        let dir = temp_dir("cap");
        let (mut core, mut tel) = starved_setup();
        let mut opts = FlightOptions::new(&dir);
        opts.cooldown_ticks = 0;
        opts.max_dumps = 1;
        opts.reject_spike = 1;
        opts.slo_violation = 2.0; // SLO burn disarmed (fraction ≤ 1)
        let mut fr = FlightRecorder::new(opts);
        // saturate the pool → admission rejects → windowed spike
        let mut sink = NoopSink;
        while core.place(ClassId(0), 1, &mut sink).is_ok() {}
        tel.on_tick_at(&core, 0, 10);
        let (trigger, _) = fr.check(&tel, &core, 1).unwrap().expect("fires");
        assert_eq!(trigger, "reject-spike");
        // still spiking, but the dump cap has been reached
        tel.on_tick_at(&core, 0, 20);
        assert!(fr.check(&tel, &core, 2).unwrap().is_none());
        assert_eq!(fr.dumps().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
