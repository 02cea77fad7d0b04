//! Windowed aggregation: the live-telemetry view over the dense metrics.
//!
//! The registry ([`crate::MetricsRegistry`]) and the latency histograms
//! ([`crate::LatencyHists`]) are *cumulative* — perfect for a trace
//! trailer, useless for "what is the request rate right now". This module
//! adds the rolling view without touching a single hot-path emission
//! site: a [`WindowedAggregator`] is fed **cumulative snapshots** (counter
//! totals, per-class satisfaction flags) at whatever cadence the owner
//! likes, differences them itself, and files the deltas into a ring of
//! fixed-width time buckets; histograms come as the samples taken since
//! the previous upload, which the owner has at hand when it batches them.
//! Rolling rates and quantiles are then sums/merges over the buckets
//! inside a query window.
//!
//! Three design constraints shape the API:
//!
//! * **derived-only** — the aggregator never observes raw samples; it
//!   differences totals and merges histograms the run already maintains,
//!   so attaching it cannot change a trajectory (the workspace
//!   determinism contract);
//! * **caller-supplied clock** — every mutation takes a relative `now_ms`.
//!   The serve daemon passes wall-clock uptime; tests pass integers. The
//!   aggregator itself never reads a clock;
//! * **bounded memory** — the ring holds `buckets × (counters + gauges +
//!   named histograms + classes)`; nothing grows with run length.
//!
//! Per-class SLO accounting rides the same ring: the owner flags which
//! classes are currently in violation (any unsatisfied user — the serving
//! analogue of the paper's per-class legality), and the aggregator
//! credits the elapsed time between observations to the flagged classes,
//! both cumulatively and per bucket. `violation fraction over a window` =
//! violation time / covered time.
//!
//! [`StatsSnapshot`] is the exported face of one windowed view: the serve
//! daemon answers the `stats` wire op with it and periodically offers it
//! to the sink ([`crate::Sink::stats_snapshot`]), where a bounded
//! [`StatsSeries`] retains a decimated series for the trace trailer —
//! same discipline as [`crate::TopKSeries`], preserving the byte-identity
//! of [`crate::Recorder`] and [`crate::StreamSink`] dumps.

use crate::metrics::{Counter, Gauge, Histogram};
use serde::{Deserialize, Serialize};

/// The rolling windows the exported views report, in milliseconds:
/// 1 s, 10 s, 60 s.
pub const RATE_WINDOWS_MS: [u64; 3] = [1_000, 10_000, 60_000];

/// Default bucket width (ms): fine enough for a meaningful 1 s window.
pub const DEFAULT_BUCKET_MS: u64 = 250;

/// Default bucket count: covers the 60 s window with headroom.
pub const DEFAULT_BUCKETS: usize = 256;

/// One ring slot: the deltas observed while its absolute bucket was
/// current.
#[derive(Debug, Clone)]
struct Slot {
    /// Absolute bucket id (`now_ms / bucket_ms`); `u64::MAX` = unused.
    bucket: u64,
    /// Observed time credited to this bucket (ms).
    covered_ms: u64,
    /// Counter deltas.
    counters: [u64; Counter::ALL.len()],
    /// Last gauge values seen while this bucket was current.
    gauges: [u64; Gauge::ALL.len()],
    /// Per-named-histogram deltas (parallel to the aggregator's names).
    hists: Vec<Histogram>,
    /// Per-class time in violation (ms).
    violation_ms: Vec<u64>,
}

impl Slot {
    fn new(classes: usize) -> Self {
        Self {
            bucket: u64::MAX,
            covered_ms: 0,
            counters: [0; Counter::ALL.len()],
            gauges: [0; Gauge::ALL.len()],
            hists: Vec::new(),
            violation_ms: vec![0; classes],
        }
    }

    fn reset(&mut self, bucket: u64) {
        self.bucket = bucket;
        self.covered_ms = 0;
        self.counters = [0; Counter::ALL.len()];
        self.gauges = [0; Gauge::ALL.len()];
        for h in &mut self.hists {
            *h = Histogram::default();
        }
        for v in &mut self.violation_ms {
            *v = 0;
        }
    }
}

/// A ring of fixed-width time buckets over the dense [`Counter`]/[`Gauge`]
/// ids plus windowed [`Histogram`] merges — rolling rates, quantiles, and
/// per-class SLO accounting. See the module docs for the feeding contract.
#[derive(Debug, Clone)]
pub struct WindowedAggregator {
    bucket_ms: u64,
    slots: Vec<Slot>,
    /// Ring index of the current slot.
    cur: usize,
    /// Absolute bucket id of the current slot (`u64::MAX` before the
    /// first observation).
    cur_bucket: u64,
    /// `now_ms` of the last [`WindowedAggregator::observe`] call.
    last_now_ms: u64,
    started: bool,
    /// Last cumulative counter totals (for differencing).
    last_counters: [u64; Counter::ALL.len()],
    /// Named histograms: name, in first-seen order.
    hist_names: Vec<&'static str>,
    /// Current per-class violation flags (credited on the next observe).
    in_violation: Vec<bool>,
    /// Cumulative per-class violation time (ms).
    cum_violation_ms: Vec<u64>,
    /// Cumulative observed time (ms).
    cum_covered_ms: u64,
    classes: usize,
}

impl WindowedAggregator {
    /// An aggregator with the default geometry
    /// ([`DEFAULT_BUCKET_MS`] × [`DEFAULT_BUCKETS`]) tracking `classes`
    /// QoS classes.
    pub fn new(classes: usize) -> Self {
        Self::with_geometry(DEFAULT_BUCKET_MS, DEFAULT_BUCKETS, classes)
    }

    /// An aggregator with explicit bucket width (ms, min 1) and bucket
    /// count (min 2).
    pub fn with_geometry(bucket_ms: u64, buckets: usize, classes: usize) -> Self {
        let bucket_ms = bucket_ms.max(1);
        let buckets = buckets.max(2);
        Self {
            bucket_ms,
            slots: vec![Slot::new(classes); buckets],
            cur: 0,
            cur_bucket: u64::MAX,
            last_now_ms: 0,
            started: false,
            last_counters: [0; Counter::ALL.len()],
            hist_names: Vec::new(),
            in_violation: vec![false; classes],
            cum_violation_ms: vec![0; classes],
            cum_covered_ms: 0,
            classes,
        }
    }

    /// Bucket width in milliseconds.
    pub fn bucket_ms(&self) -> u64 {
        self.bucket_ms
    }

    /// Number of ring buckets (the horizon is `bucket_ms × buckets`).
    pub fn num_buckets(&self) -> usize {
        self.slots.len()
    }

    /// QoS classes tracked.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Absolute id (`now_ms / bucket_ms`) of the bucket the last
    /// observation fell in; `None` before the first observation.
    pub fn current_bucket(&self) -> Option<u64> {
        (self.cur_bucket != u64::MAX).then_some(self.cur_bucket)
    }

    /// Total observed time (ms) since the first observation.
    pub fn covered_ms(&self) -> u64 {
        self.cum_covered_ms
    }

    /// Advance the ring to the bucket containing `now_ms` and credit the
    /// time elapsed since the previous observation — to the current
    /// bucket's coverage and to every class currently flagged in
    /// violation. Call this once per observation cadence, **before** the
    /// `record_*` calls of the same observation. `now_ms` must not go
    /// backwards (a stale value is clamped to the last one). What was
    /// recorded before the first observation counts toward its bucket.
    pub fn observe(&mut self, now_ms: u64) {
        let now_ms = now_ms.max(self.last_now_ms);
        let elapsed = if self.started {
            now_ms - self.last_now_ms
        } else {
            0
        };
        self.last_now_ms = now_ms;
        self.started = true;
        let bucket = now_ms / self.bucket_ms;
        if self.cur_bucket == u64::MAX {
            // the first bucket keeps what was recorded before it opened
            self.cur_bucket = bucket;
            self.slots[self.cur].bucket = bucket;
        } else if bucket > self.cur_bucket {
            let jump = bucket - self.cur_bucket;
            // Walk the ring forward, resetting every bucket we pass; a
            // jump past the whole horizon resets every slot exactly once.
            let steps = (jump).min(self.slots.len() as u64);
            for i in 1..=steps {
                self.cur = (self.cur + 1) % self.slots.len();
                let id = self.cur_bucket + jump - steps + i;
                self.slots[self.cur].reset(id);
            }
            self.cur_bucket = bucket;
        }
        // Elapsed time is credited to the bucket containing `now_ms`;
        // with an observation cadence at or below the bucket width the
        // attribution error is under one bucket.
        self.slots[self.cur].covered_ms += elapsed;
        self.cum_covered_ms += elapsed;
        for (k, &flagged) in self.in_violation.iter().enumerate() {
            if flagged {
                self.slots[self.cur].violation_ms[k] += elapsed;
                self.cum_violation_ms[k] += elapsed;
            }
        }
    }

    /// Record a counter's **cumulative** total; the delta since the last
    /// call lands in the current bucket.
    pub fn record_counter(&mut self, c: Counter, cumulative: u64) {
        let i = c as usize;
        let delta = cumulative.saturating_sub(self.last_counters[i]);
        self.last_counters[i] = self.last_counters[i].max(cumulative);
        self.slots[self.cur].counters[i] += delta;
    }

    /// Record a gauge's current value into the current bucket.
    pub fn record_gauge(&mut self, g: Gauge, value: u64) {
        self.slots[self.cur].gauges[g as usize] = value;
    }

    /// Record the samples a named histogram took since its previous
    /// upload; they merge into the current bucket. Names are interned in
    /// first-seen order, same as [`crate::LatencyHists`].
    pub fn record_hist_samples(&mut self, name: &'static str, samples: &Histogram) {
        let idx = match self.hist_names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.hist_names.push(name);
                for slot in &mut self.slots {
                    slot.hists.push(Histogram::default());
                }
                self.hist_names.len() - 1
            }
        };
        let cur = self.cur;
        self.slots[cur].hists[idx].merge(samples);
    }

    /// Flag whether class `k` is currently in SLO violation (any
    /// unsatisfied user). Time until the next observation is credited
    /// accordingly.
    pub fn set_class_violation(&mut self, k: usize, violating: bool) {
        if k < self.in_violation.len() {
            self.in_violation[k] = violating;
        }
    }

    /// Iterate the slots whose bucket lies inside the trailing window
    /// (`window_ms` before the current bucket, inclusive). The ring
    /// advances position and bucket id in lockstep, so bucket
    /// `cur_bucket - k` can only ever live `k` positions behind the
    /// current slot: visiting those `span` positions (with the id check
    /// rejecting never-written and lapped slots) is equivalent to
    /// filtering the whole ring, and keeps a 1 s query from scanning the
    /// entire 64 s horizon.
    fn window_slots(&self, window_ms: u64) -> impl Iterator<Item = &Slot> {
        let span = window_ms
            .max(1)
            .div_ceil(self.bucket_ms)
            .min(self.slots.len() as u64);
        let len = self.slots.len();
        let cur = self.cur;
        let cur_bucket = self.cur_bucket;
        (0..span).filter_map(move |k| {
            if cur_bucket == u64::MAX || k > cur_bucket {
                return None;
            }
            let s = &self.slots[(cur + len - k as usize) % len];
            (s.bucket == cur_bucket - k).then_some(s)
        })
    }

    /// Observed time (ms) inside the trailing window — the denominator of
    /// the windowed rates and violation fractions (less than `window_ms`
    /// early in a run).
    pub fn window_covered_ms(&self, window_ms: u64) -> u64 {
        self.window_slots(window_ms).map(|s| s.covered_ms).sum()
    }

    /// The counter's increase over the trailing window.
    pub fn window_delta(&self, c: Counter, window_ms: u64) -> u64 {
        self.window_slots(window_ms)
            .map(|s| s.counters[c as usize])
            .sum()
    }

    /// Rolling per-second rate of a counter over the trailing window
    /// (0.0 before any time is covered).
    pub fn rate(&self, c: Counter, window_ms: u64) -> f64 {
        let covered = self.window_covered_ms(window_ms);
        if covered == 0 {
            return 0.0;
        }
        self.window_delta(c, window_ms) as f64 * 1_000.0 / covered as f64
    }

    /// The most recent value recorded for a gauge inside the trailing
    /// window (the current bucket wins; 0 when never recorded).
    pub fn window_gauge(&self, g: Gauge, window_ms: u64) -> u64 {
        self.window_slots(window_ms)
            .max_by_key(|s| s.bucket)
            .map(|s| s.gauges[g as usize])
            .unwrap_or(0)
    }

    /// Number of samples a named histogram collected inside the trailing
    /// window — [`Histogram::count`] of [`WindowedAggregator::window_hist`]
    /// without merging any buckets, for rate queries that only need the
    /// count.
    pub fn window_hist_count(&self, name: &str, window_ms: u64) -> u64 {
        match self.hist_names.iter().position(|&n| n == name) {
            Some(idx) => self
                .window_slots(window_ms)
                .map(|s| s.hists[idx].count())
                .sum(),
            None => 0,
        }
    }

    /// The merged histogram of a named series over the trailing window
    /// (folded with [`Histogram::merge`]); empty when the name was never
    /// recorded.
    pub fn window_hist(&self, name: &str, window_ms: u64) -> Histogram {
        let mut merged = Histogram::default();
        if let Some(idx) = self.hist_names.iter().position(|&n| n == name) {
            for slot in self.window_slots(window_ms) {
                merged.merge(&slot.hists[idx]);
            }
        }
        merged
    }

    /// Fraction of the trailing window class `k` spent in violation
    /// (0.0 when nothing is covered or `k` is out of range).
    pub fn violation_fraction(&self, k: usize, window_ms: u64) -> f64 {
        if k >= self.classes {
            return 0.0;
        }
        let covered = self.window_covered_ms(window_ms);
        if covered == 0 {
            return 0.0;
        }
        let viol: u64 = self
            .window_slots(window_ms)
            .map(|s| s.violation_ms[k])
            .sum();
        viol as f64 / covered as f64
    }

    /// Cumulative fraction of observed time class `k` spent in violation.
    pub fn cumulative_violation_fraction(&self, k: usize) -> f64 {
        if k >= self.classes || self.cum_covered_ms == 0 {
            return 0.0;
        }
        self.cum_violation_ms[k] as f64 / self.cum_covered_ms as f64
    }
}

/// One counter's rolling rates (per second) over the three standard
/// windows ([`RATE_WINDOWS_MS`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// Counter export name ([`Counter::name`]).
    pub name: String,
    /// Rate over the trailing 1 s.
    pub r1s: f64,
    /// Rate over the trailing 10 s.
    pub r10s: f64,
    /// Rate over the trailing 60 s.
    pub r60s: f64,
}

/// One latency series' digest: cumulative count plus windowed quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyDigest {
    /// Histogram name (e.g. `request_latency`).
    pub name: String,
    /// Cumulative samples recorded over the run.
    pub count: u64,
    /// Approximate median (ns) over the digest window.
    pub p50_ns: u64,
    /// Approximate 95th percentile (ns) over the digest window.
    pub p95_ns: u64,
    /// Approximate 99th percentile (ns) over the digest window.
    pub p99_ns: u64,
}

/// One class's SLO accounting in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSlo {
    /// The class.
    pub class: u64,
    /// Placed slots of this class.
    pub active: u64,
    /// Currently unsatisfied users of this class.
    pub unsatisfied: u64,
    /// Fraction of the trailing 10 s window spent in violation.
    pub violation_windowed: f64,
    /// Fraction of the whole observed run spent in violation.
    pub violation_total: f64,
}

/// One periodic live-telemetry snapshot: the windowed view a serving
/// daemon exports — over the wire as the `stats` reply, and into the
/// trace trailer as a [`crate::recorder::Record::StatsSnapshot`] (retained
/// by [`StatsSeries`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Scheduler tick the snapshot was taken at (the deterministic key
    /// the retention series decimates on).
    pub tick: u64,
    /// Daemon uptime (ms) at the snapshot.
    pub uptime_ms: u64,
    /// Placed slots.
    pub active: u64,
    /// Currently unsatisfied users.
    pub unsatisfied: u64,
    /// Request-queue backlog at the last tick.
    pub backlog: u64,
    /// Rebalancer round budget granted at the last tick.
    pub budget: u64,
    /// The budget ceiling (`max_tick_rounds`) — `budget / budget_max` is
    /// the rebalancer's budget utilization.
    pub budget_max: u64,
    /// Ticks where the budget was floored at 1 while work remained — the
    /// rebalancer-starvation indicator.
    pub starved_ticks: u64,
    /// Rolling per-second rates of the serving counters.
    pub rates: Vec<RateSample>,
    /// Latency digests (cumulative count, windowed quantiles).
    pub latency: Vec<LatencyDigest>,
    /// Per-class SLO accounting.
    pub classes: Vec<ClassSlo>,
    /// Admission rejects with reason `pool` (no free slots), cumulative.
    pub rejects_pool: u64,
    /// Admission rejects with reason `capacity`, cumulative.
    pub rejects_capacity: u64,
    /// Admission rejects with reason `draining`, cumulative.
    pub rejects_draining: u64,
}

/// Default cap on retained snapshots before decimation.
pub const DEFAULT_STATS_SAMPLES: usize = 256;

/// A bounded, deterministically decimated series of [`StatsSnapshot`]s,
/// keyed on the snapshot tick — the retention discipline of
/// [`crate::TopKSeries`], applied to the telemetry series so
/// [`crate::Recorder`] and [`crate::StreamSink`] trailers stay
/// byte-identical for the same offered sequence.
#[derive(Debug, Clone)]
pub struct StatsSeries {
    samples: Vec<StatsSnapshot>,
    stride: u64,
    cap: usize,
}

impl Default for StatsSeries {
    fn default() -> Self {
        Self::with_cap(DEFAULT_STATS_SAMPLES)
    }
}

impl StatsSeries {
    /// A series retaining at most `cap` snapshots (min 2).
    pub fn with_cap(cap: usize) -> Self {
        Self {
            samples: Vec::new(),
            stride: 1,
            cap: cap.max(2),
        }
    }

    /// Offer one snapshot; retained iff its tick lands on the current
    /// stride.
    pub fn push(&mut self, snap: &StatsSnapshot) {
        if !snap.tick.is_multiple_of(self.stride) {
            return;
        }
        if self.samples.len() >= self.cap {
            self.stride *= 2;
            let stride = self.stride;
            self.samples.retain(|s| s.tick % stride == 0);
            if !snap.tick.is_multiple_of(self.stride) {
                return;
            }
        }
        self.samples.push(snap.clone());
    }

    /// The retained snapshots, in tick order.
    pub fn samples(&self) -> &[StatsSnapshot] {
        &self.samples
    }

    /// The current retention stride (1 until the cap is first hit).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(bucket_ms: u64, buckets: usize) -> WindowedAggregator {
        WindowedAggregator::with_geometry(bucket_ms, buckets, 2)
    }

    #[test]
    fn rates_are_windowed_deltas_over_covered_time() {
        let mut w = agg(100, 16);
        w.observe(0);
        for t in 1..=10u64 {
            w.observe(t * 100);
            w.record_counter(Counter::Placements, t * 5); // 5 per 100 ms
        }
        // 50/s over every window that fits the observed 1 s
        assert!((w.rate(Counter::Placements, 1_000) - 50.0).abs() < 1e-9);
        // the 10 s window only has 1 s covered: same rate, not diluted
        assert!((w.rate(Counter::Placements, 10_000) - 50.0).abs() < 1e-9);
        assert_eq!(w.window_covered_ms(10_000), 1_000);
        // a narrow window sees only the recent buckets
        assert_eq!(w.window_delta(Counter::Placements, 200), 10);
    }

    #[test]
    fn ring_wraparound_forgets_old_buckets() {
        let mut w = agg(10, 4); // horizon 40 ms
        w.observe(0);
        w.record_counter(Counter::Rounds, 100);
        for t in 1..=10u64 {
            w.observe(t * 10);
        }
        // the burst at t=0 fell off the ring: a full-horizon window sees 0
        assert_eq!(w.window_delta(Counter::Rounds, 40), 0);
        // cumulative differencing is unaffected
        w.record_counter(Counter::Rounds, 101);
        assert_eq!(w.window_delta(Counter::Rounds, 40), 1);
    }

    #[test]
    fn jump_past_the_whole_horizon_resets_every_slot() {
        let mut w = agg(10, 4);
        w.observe(0);
        w.record_counter(Counter::Migrations, 9);
        w.observe(1_000_000); // far future
        assert_eq!(w.window_delta(Counter::Migrations, 40), 0);
        assert_eq!(w.rate(Counter::Migrations, 40), 0.0);
    }

    #[test]
    fn jump_of_exactly_one_horizon_does_not_double_count() {
        // The boundary between the in-window walk and the far-future
        // reset: the next observation lands exactly `slots.len()` buckets
        // after the previous one, so the cursor wraps all the way around
        // onto the very slot holding the old delta. That slot must be
        // reset, not merged — an un-reset wrap would let the old 9 count
        // once as stale state and once under the new bucket id.
        let mut w = agg(10, 4);
        w.observe(0);
        w.record_counter(Counter::Migrations, 9);
        w.observe(40); // exactly one full horizon (4 × 10 ms) later
        assert_eq!(
            w.window_delta(Counter::Migrations, 40),
            0,
            "the pre-wrap delta is a full horizon old and must be forgotten"
        );
        // only the post-wrap increment (12 − 9 = 3) is windowed — not the
        // cumulative 12, and not 9 + 3
        w.record_counter(Counter::Migrations, 12);
        assert_eq!(w.window_delta(Counter::Migrations, 40), 3);
        assert_eq!(w.window_covered_ms(40), 40);
        assert_eq!(w.rate(Counter::Migrations, 40), 3.0 * 1_000.0 / 40.0);
    }

    #[test]
    fn windowed_hist_merges_bucket_deltas() {
        let mut w = agg(100, 16);
        w.observe(0);
        for t in 1..=4u64 {
            w.observe(t * 100);
            w.record_hist_samples("lat", &Histogram::of_samples(&[1_000 * t]));
        }
        let merged = w.window_hist("lat", 1_000);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 1_000 + 2_000 + 3_000 + 4_000);
        // a 200 ms window only holds the last two samples
        let recent = w.window_hist("lat", 200);
        assert_eq!(recent.count(), 2);
        assert!(w.window_hist("unknown", 1_000).count() == 0);
    }

    #[test]
    fn violation_time_accrues_per_class() {
        let mut w = agg(100, 32);
        w.observe(0);
        w.set_class_violation(0, true);
        w.observe(300); // class 0 in violation for 300 ms
        w.set_class_violation(0, false);
        w.set_class_violation(1, true);
        w.observe(1_000); // class 1 in violation for 700 ms
        assert!((w.violation_fraction(0, 60_000) - 0.3).abs() < 1e-9);
        assert!((w.violation_fraction(1, 60_000) - 0.7).abs() < 1e-9);
        assert!((w.cumulative_violation_fraction(0) - 0.3).abs() < 1e-9);
        assert!((w.cumulative_violation_fraction(1) - 0.7).abs() < 1e-9);
        // out-of-range class is quietly 0
        assert_eq!(w.violation_fraction(9, 60_000), 0.0);
        w.set_class_violation(9, true); // no-op, no panic
    }

    #[test]
    fn gauges_report_the_most_recent_bucket() {
        let mut w = agg(100, 8);
        w.observe(0);
        w.record_gauge(Gauge::Unsatisfied, 7);
        w.observe(250);
        w.record_gauge(Gauge::Unsatisfied, 3);
        assert_eq!(w.window_gauge(Gauge::Unsatisfied, 1_000), 3);
    }

    #[test]
    fn stats_series_decimates_deterministically() {
        let snap = |tick: u64| StatsSnapshot {
            tick,
            uptime_ms: tick * 10,
            active: 1,
            unsatisfied: 0,
            backlog: 0,
            budget: 8,
            budget_max: 8,
            starved_ticks: 0,
            rates: Vec::new(),
            latency: Vec::new(),
            classes: Vec::new(),
            rejects_pool: 0,
            rejects_capacity: 0,
            rejects_draining: 0,
        };
        let mut a = StatsSeries::with_cap(4);
        let mut b = StatsSeries::with_cap(4);
        for t in 0..64u64 {
            a.push(&snap(t * 8));
            b.push(&snap(t * 8));
        }
        assert!(a.samples().len() <= 4);
        assert!(a.stride() > 1);
        for s in a.samples() {
            assert_eq!(s.tick % a.stride(), 0);
        }
        assert_eq!(a.samples(), b.samples());
    }
}
