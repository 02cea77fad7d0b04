//! Daemon-side live telemetry: the windowed view behind the `stats` wire
//! op, the periodic trace-trailer snapshots, and Prometheus exposition.
//!
//! [`ServeTelemetry`] is owned by the serve loop — single-writer, no
//! locks — and is **sink-independent**: it differences the cumulative
//! tallies [`ServeCore`] already maintains (placements, rejects by
//! reason, departures, rounds, migrations) into a
//! [`WindowedAggregator`], and keeps its own cumulative request/placement
//! latency histograms, so a daemon running with a [`qlb_obs::NoopSink`]
//! still answers `stats` and serves `/metrics`. The hot-path emission
//! sites in the core are untouched. An answered request only stores its
//! latency in a buffer for its kind (placement or other); the buffers are
//! folded into the histograms in one pass ([`Histogram::of_samples`])
//! when one fills or when a tick moves the window on to its next bucket,
//! so a latency lands in the bucket it was answered in, to within a tick.
//! Every reader counts the buffered latencies too. A scheduler tick adds
//! a handful of u64 subtractions; the whole plane is gated below 2% of
//! the serving loop by the workspace bench (`BENCH_obs.json`).
//!
//! ## SLO accounting
//!
//! A class is *in violation* while any of its users is unsatisfied — the
//! serving analogue of the paper's per-class legality (a placement is
//! legal when every class meets its quality bound; here we track the
//! complement over time instead of a terminal predicate). The per-tick
//! flags come from [`ServeCore::class_stats`], and the aggregator turns
//! them into time-in-violation fractions, both over the trailing windows
//! and cumulatively.
//!
//! Clocking: [`ServeTelemetry::on_tick`] stamps wall-clock uptime;
//! everything below it takes relative milliseconds, so the unit tests
//! drive [`ServeTelemetry::on_tick_at`] with synthetic clocks. Telemetry
//! is daemon-side only — no wall-clock reading enters a protocol
//! decision, preserving the workspace determinism contract.

use crate::core::ServeCore;
use qlb_obs::profile::{PLACE_HIST_NAME, REQUEST_HIST_NAME};
use qlb_obs::{
    ClassSlo, Counter, Gauge, Histogram, LatencyDigest, RateSample, StatsSnapshot,
    WindowedAggregator, RATE_WINDOWS_MS,
};
use std::time::Instant;

/// The counters whose rolling rates a snapshot reports, in export order.
const RATE_COUNTERS: [Counter; 6] = [
    Counter::Placements,
    Counter::AdmissionRejects,
    Counter::ServeDeparts,
    Counter::Drains,
    Counter::Rounds,
    Counter::Migrations,
];

/// The digest window for latency quantiles and per-class violation
/// fractions: the middle of [`qlb_obs::RATE_WINDOWS_MS`] (10 s).
const DIGEST_WINDOW_MS: u64 = 10_000;

/// Latencies each kind of request buffers between folds.
const PENDING_LATENCIES: usize = 256;

/// Latency buffer of requests other than placements.
const OTHER: usize = 0;

/// Latency buffer of placements.
const PLACE: usize = 1;

/// Live telemetry state for one serving daemon — see the module docs.
#[derive(Debug)]
pub struct ServeTelemetry {
    agg: WindowedAggregator,
    /// Cumulative request/placement latency up to the last fold
    /// (daemon-side copies; the sink's histograms are not readable through
    /// the `Sink` trait).
    req_hist: Histogram,
    place_hist: Histogram,
    /// Latencies answered since the last fold, at [`OTHER`] and [`PLACE`],
    /// with the length of each.
    pending: [[u64; PENDING_LATENCIES]; 2],
    pending_len: [usize; 2],
    /// Scratch for the per-tick class violation scan (no per-tick
    /// allocation).
    scratch_unsat: Vec<u64>,
    epoch: Instant,
    ticks: u64,
    starved_ticks: u64,
    last_backlog: u64,
    last_budget: u64,
    budget_max: u64,
}

impl ServeTelemetry {
    /// Telemetry for a daemon with `classes` QoS classes and a rebalancer
    /// budget ceiling of `budget_max` rounds per tick.
    pub fn new(classes: usize, budget_max: u32) -> Self {
        Self {
            agg: WindowedAggregator::new(classes),
            req_hist: Histogram::default(),
            place_hist: Histogram::default(),
            pending: [[0; PENDING_LATENCIES]; 2],
            pending_len: [0; 2],
            scratch_unsat: Vec::new(),
            epoch: Instant::now(),
            ticks: 0,
            starved_ticks: 0,
            last_backlog: 0,
            last_budget: budget_max.max(1) as u64,
            budget_max: budget_max.max(1) as u64,
        }
    }

    /// Milliseconds since the daemon's telemetry epoch.
    pub fn uptime_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Scheduler ticks observed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks that ran with the rebalancer budget pinned at its floor
    /// while a backlog and unsatisfied users remained (the flight
    /// recorder's starvation trigger differences this).
    pub fn starved_ticks(&self) -> u64 {
        self.starved_ticks
    }

    /// Record one answered request: its receipt→reply latency, and
    /// whether it was a placement (which also feeds the placement
    /// histogram). The latency is buffered; see the module docs.
    #[inline]
    pub fn on_request(&mut self, is_place: bool, ns: u64) {
        let kind = is_place as usize;
        let n = self.pending_len[kind];
        self.pending[kind][n] = ns;
        self.pending_len[kind] = n + 1;
        if n + 1 == PENDING_LATENCIES {
            self.fold_latencies();
        }
    }

    /// The latencies buffered since the last fold as samples of the
    /// request and placement series, with their export names.
    fn pending_samples(&self) -> [(&'static str, Histogram); 2] {
        let [mut requests, place] = [OTHER, PLACE]
            .map(|kind| Histogram::of_samples(&self.pending[kind][..self.pending_len[kind]]));
        requests.merge(&place);
        [(REQUEST_HIST_NAME, requests), (PLACE_HIST_NAME, place)]
    }

    /// Fold the buffered latencies into the cumulative histograms and the
    /// window's current bucket.
    #[inline(never)]
    fn fold_latencies(&mut self) {
        let [(_, requests), (_, place)] = self.pending_samples();
        self.pending_len = [0; 2];
        self.req_hist.merge(&requests);
        self.place_hist.merge(&place);
        self.agg.record_hist_samples(REQUEST_HIST_NAME, &requests);
        self.agg.record_hist_samples(PLACE_HIST_NAME, &place);
    }

    /// Fold one scheduler tick into the window, stamped with wall-clock
    /// uptime. `backlog` is the request-queue length the tick saw.
    pub fn on_tick(&mut self, core: &ServeCore, backlog: usize) {
        self.on_tick_at(core, backlog, self.uptime_ms());
    }

    /// [`ServeTelemetry::on_tick`] with an explicit clock (tests).
    pub fn on_tick_at(&mut self, core: &ServeCore, backlog: usize, now_ms: u64) {
        self.ticks += 1;
        // The buffered latencies were answered in the bucket in force until
        // now: fold them before the ring moves on.
        if self
            .agg
            .current_bucket()
            .is_some_and(|bucket| now_ms / self.agg.bucket_ms() > bucket)
        {
            self.fold_latencies();
        }
        self.agg.observe(now_ms);
        let (placements, rejects, departures, drains) = core.totals();
        self.agg.record_counter(Counter::Placements, placements);
        self.agg.record_counter(Counter::AdmissionRejects, rejects);
        self.agg.record_counter(Counter::ServeDeparts, departures);
        self.agg.record_counter(Counter::Drains, drains);
        self.agg.record_counter(Counter::Rounds, core.round());
        self.agg
            .record_counter(Counter::Migrations, core.migrations_total());
        self.agg
            .record_gauge(Gauge::Unsatisfied, core.unsatisfied());
        self.agg
            .record_gauge(Gauge::ActiveUsers, core.active_slots());
        core.class_unsatisfied_into(&mut self.scratch_unsat);
        for (k, &unsat) in self.scratch_unsat.iter().enumerate() {
            self.agg.set_class_violation(k, unsat > 0);
        }
        self.last_backlog = backlog as u64;
        self.last_budget = core.tick_budget(backlog) as u64;
        // Starvation: the adaptive budget is pinned at its floor while
        // both a backlog and unsatisfied users remain.
        if self.last_budget == 1 && self.budget_max > 1 && backlog > 0 && core.unsatisfied() > 0 {
            self.starved_ticks += 1;
        }
    }

    /// The windowed aggregator (read access for rendering).
    pub fn aggregator(&self) -> &WindowedAggregator {
        &self.agg
    }

    /// The cumulative (request, placement) latency histograms with their
    /// interned export names.
    pub fn latency_hists(&self) -> [(&'static str, Histogram); 2] {
        let mut series = self.pending_samples();
        series[0].1.merge(&self.req_hist);
        series[1].1.merge(&self.place_hist);
        series
    }

    /// The latency histogram `name` ([`REQUEST_HIST_NAME`] or
    /// [`PLACE_HIST_NAME`]) over the trailing window. The buffered
    /// latencies count: they were answered after the current bucket
    /// opened.
    pub(crate) fn window_latency(&self, name: &str, window_ms: u64) -> Histogram {
        let mut h = self.agg.window_hist(name, window_ms);
        if let Some((_, pending)) = self.pending_samples().iter().find(|(n, _)| *n == name) {
            h.merge(pending);
        }
        h
    }

    /// One latency digest: cumulative count, windowed p50/p95/p99 —
    /// falling back to whole-run quantiles while the window is empty
    /// (e.g. right after start, before any windowed samples). `pending`
    /// are the series' buffered samples, which count in both.
    fn digest(&self, name: &str, cum: &Histogram, pending: &Histogram) -> LatencyDigest {
        let mut windowed = self.agg.window_hist(name, DIGEST_WINDOW_MS);
        windowed.merge(pending);
        let mut total = cum.clone();
        total.merge(pending);
        let h = if windowed.count() > 0 {
            &windowed
        } else {
            &total
        };
        LatencyDigest {
            name: name.to_string(),
            count: total.count(),
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
        }
    }

    /// Build the exported snapshot of the current windowed view.
    pub fn snapshot(&self, core: &ServeCore) -> StatsSnapshot {
        let mut rates = Vec::with_capacity(1 + RATE_COUNTERS.len());
        // The covered-time denominators are shared by every rate in the
        // snapshot — compute them once per window instead of once per
        // (counter, window) query.
        let covered = RATE_WINDOWS_MS.map(|w| self.agg.window_covered_ms(w));
        let per_sec = |delta: u64, covered_ms: u64| {
            if covered_ms == 0 {
                0.0
            } else {
                delta as f64 * 1_000.0 / covered_ms as f64
            }
        };
        // Request rate is derived from the windowed latency histogram
        // counts (there is no dense counter for raw requests).
        let pending = (self.pending_len[OTHER] + self.pending_len[PLACE]) as u64;
        let req =
            RATE_WINDOWS_MS.map(|w| self.agg.window_hist_count(REQUEST_HIST_NAME, w) + pending);
        rates.push(RateSample {
            name: "requests".to_string(),
            r1s: per_sec(req[0], covered[0]),
            r10s: per_sec(req[1], covered[1]),
            r60s: per_sec(req[2], covered[2]),
        });
        for c in RATE_COUNTERS {
            let d = RATE_WINDOWS_MS.map(|w| self.agg.window_delta(c, w));
            rates.push(RateSample {
                name: c.name().to_string(),
                r1s: per_sec(d[0], covered[0]),
                r10s: per_sec(d[1], covered[1]),
                r60s: per_sec(d[2], covered[2]),
            });
        }
        let latency = self
            .pending_samples()
            .iter()
            .zip([&self.req_hist, &self.place_hist])
            .filter(|((_, pending), cum)| cum.count() + pending.count() > 0)
            .map(|((name, pending), cum)| self.digest(name, cum, pending))
            .collect();
        let classes = core
            .class_stats()
            .iter()
            .map(|cs| ClassSlo {
                class: cs.class.0 as u64,
                active: cs.active,
                unsatisfied: cs.unsatisfied,
                violation_windowed: self
                    .agg
                    .violation_fraction(cs.class.index(), DIGEST_WINDOW_MS),
                violation_total: self.agg.cumulative_violation_fraction(cs.class.index()),
            })
            .collect();
        let (pool, capacity, draining) = core.reject_reasons();
        StatsSnapshot {
            tick: self.ticks,
            uptime_ms: self.agg.covered_ms(),
            active: core.active_slots(),
            unsatisfied: core.unsatisfied(),
            backlog: self.last_backlog,
            budget: self.last_budget,
            budget_max: self.budget_max,
            starved_ticks: self.starved_ticks,
            rates,
            latency,
            classes,
            rejects_pool: pool,
            rejects_capacity: capacity,
            rejects_draining: draining,
        }
    }
}

/// A snapshot with no windowed telemetry behind it (a `stats` request on
/// a context without a [`ServeTelemetry`], e.g. the in-process bench):
/// cumulative tallies are real, every windowed quantity is zero.
pub fn cumulative_snapshot(core: &ServeCore) -> StatsSnapshot {
    let (pool, capacity, draining) = core.reject_reasons();
    StatsSnapshot {
        tick: 0,
        uptime_ms: 0,
        active: core.active_slots(),
        unsatisfied: core.unsatisfied(),
        backlog: 0,
        budget: core.max_tick_rounds() as u64,
        budget_max: core.max_tick_rounds() as u64,
        starved_ticks: 0,
        rates: Vec::new(),
        latency: Vec::new(),
        classes: core
            .class_stats()
            .iter()
            .map(|cs| ClassSlo {
                class: cs.class.0 as u64,
                active: cs.active,
                unsatisfied: cs.unsatisfied,
                violation_windowed: 0.0,
                violation_total: 0.0,
            })
            .collect(),
        rejects_pool: pool,
        rejects_capacity: capacity,
        rejects_draining: draining,
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Render the Prometheus text exposition (format version 0.0.4) of the
/// daemon's current state: every line is a `# HELP`, a `# TYPE`, or a
/// sample. Metric names come from the stable [`Counter::prom_name`] /
/// [`Gauge::prom_name`] export boundary; admission rejects are exported
/// **only** labeled by reason (no unlabeled duplicate), latency as
/// summaries, and per-class SLO violation as labeled ratios.
pub fn render_prometheus(tel: &ServeTelemetry, core: &ServeCore) -> String {
    let mut out = String::new();
    let snap = tel.snapshot(core);
    let (placements, _, departures, drains) = core.totals();
    let counters: [(Counter, u64, &str); 5] = [
        (
            Counter::Placements,
            placements,
            "Admitted placement requests",
        ),
        (
            Counter::ServeDeparts,
            departures,
            "Processed departure requests",
        ),
        (Counter::Drains, drains, "Resource drains started"),
        (Counter::Rounds, core.round(), "Rebalancer protocol rounds"),
        (
            Counter::Migrations,
            core.migrations_total(),
            "User migrations applied by the rebalancer",
        ),
    ];
    for (c, value, help) in counters {
        let name = c.prom_name();
        out.push_str(&format!("# HELP {name} {help}\n"));
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!("{name} {value}\n"));
    }
    let rejects = Counter::AdmissionRejects.prom_name();
    out.push_str(&format!(
        "# HELP {rejects} Admission rejects by reason\n# TYPE {rejects} counter\n"
    ));
    for (reason, value) in [
        ("pool", snap.rejects_pool),
        ("capacity", snap.rejects_capacity),
        ("draining", snap.rejects_draining),
    ] {
        out.push_str(&format!("{rejects}{{reason=\"{reason}\"}} {value}\n"));
    }
    let gauges: [(String, f64, &str); 5] = [
        (
            Gauge::ActiveUsers.prom_name(),
            snap.active as f64,
            "Placed slots",
        ),
        (
            Gauge::Unsatisfied.prom_name(),
            snap.unsatisfied as f64,
            "Currently unsatisfied users",
        ),
        (
            "qlb_backlog".to_string(),
            snap.backlog as f64,
            "Request-queue backlog at the last tick",
        ),
        (
            "qlb_rebalancer_budget".to_string(),
            snap.budget as f64,
            "Rebalancer round budget granted at the last tick",
        ),
        (
            "qlb_uptime_seconds".to_string(),
            tel.uptime_ms() as f64 / 1_000.0,
            "Daemon uptime",
        ),
    ];
    for (name, value, help) in gauges {
        out.push_str(&format!("# HELP {name} {help}\n"));
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name} {}\n", fmt_f64(value)));
    }
    for (name, h) in tel.latency_hists() {
        if h.count() == 0 {
            continue;
        }
        let pname = format!("qlb_{name}_ns");
        out.push_str(&format!(
            "# HELP {pname} Request latency in nanoseconds\n# TYPE {pname} summary\n"
        ));
        for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            out.push_str(&format!(
                "{pname}{{quantile=\"{label}\"}} {}\n",
                h.quantile(q)
            ));
        }
        out.push_str(&format!("{pname}_sum {}\n", h.sum()));
        out.push_str(&format!("{pname}_count {}\n", h.count()));
    }
    out.push_str(
        "# HELP qlb_slo_violation_ratio Fraction of time the class spent in SLO violation\n# TYPE qlb_slo_violation_ratio gauge\n",
    );
    for cs in &snap.classes {
        out.push_str(&format!(
            "qlb_slo_violation_ratio{{class=\"{}\",window=\"10s\"}} {}\n",
            cs.class,
            fmt_f64(cs.violation_windowed)
        ));
        out.push_str(&format!(
            "qlb_slo_violation_ratio{{class=\"{}\",window=\"total\"}} {}\n",
            cs.class,
            fmt_f64(cs.violation_total)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use qlb_core::ClassId;
    use qlb_obs::NoopSink;

    fn loaded_core() -> ServeCore {
        let mut core = ServeCore::with_capacities(&[2; 16], 64, ServeConfig::new(3)).unwrap();
        let mut sink = NoopSink;
        for _ in 0..24 {
            core.place(ClassId(0), 1, &mut sink).unwrap();
        }
        core
    }

    #[test]
    fn snapshot_reports_windowed_rates_and_violations() {
        let mut core = loaded_core();
        let mut tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
        let mut sink = NoopSink;
        // colliding placements start unsatisfied → class 0 in violation
        // until ticks spread them out; observe the loaded state before the
        // first rebalance tick so the violation window opens
        assert!(core.unsatisfied() > 0);
        let mut t = 0u64;
        tel.on_tick_at(&core, 0, t);
        for _ in 0..100 {
            core.tick(0, false, &mut sink);
            tel.on_request(true, 5_000);
            t += 50;
            tel.on_tick_at(&core, 0, t);
        }
        assert_eq!(core.unsatisfied(), 0);
        let snap = tel.snapshot(&core);
        assert_eq!(snap.tick, 101);
        assert_eq!(snap.active, 24);
        assert_eq!(snap.budget_max, 8);
        let rounds = snap.rates.iter().find(|r| r.name == "rounds").unwrap();
        assert!(rounds.r60s > 0.0, "rebalancer rounds should have a rate");
        let req = snap.rates.iter().find(|r| r.name == "requests").unwrap();
        assert!(req.r60s > 0.0);
        assert_eq!(snap.classes.len(), 1);
        // it was violating early on, then recovered: fraction in (0, 1)
        let c0 = &snap.classes[0];
        assert!(c0.violation_total > 0.0 && c0.violation_total < 1.0);
        assert_eq!(c0.unsatisfied, 0);
        let lat = snap
            .latency
            .iter()
            .find(|d| d.name == REQUEST_HIST_NAME)
            .unwrap();
        assert_eq!(lat.count, 100);
        assert!(lat.p50_ns >= 5_000 && lat.p50_ns <= 8_192);
    }

    #[test]
    fn buffered_latencies_count_at_once_and_fold_into_their_bucket() {
        let core = loaded_core();
        let mut tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
        let bucket_ms = tel.aggregator().bucket_ms();
        // more placements than one buffer holds, answered before the first
        // tick opens bucket 0
        let placed = PENDING_LATENCIES as u64 + 7;
        for i in 0..placed {
            tel.on_request(true, 1_000 + i);
        }
        tel.on_request(false, 300);
        tel.on_tick_at(&core, 0, 0);
        // read before any further tick: nothing is left behind in a buffer
        let [(_, req), (_, place)] = tel.latency_hists();
        assert_eq!((req.count(), place.count()), (placed + 1, placed));
        assert_eq!(req.max(), 1_000 + placed - 1);
        assert_eq!(
            tel.window_latency(REQUEST_HIST_NAME, bucket_ms).count(),
            placed + 1
        );
        let snap = tel.snapshot(&core);
        let lat = |name: &str| snap.latency.iter().find(|d| d.name == name).unwrap().count;
        assert_eq!(
            (lat(REQUEST_HIST_NAME), lat(PLACE_HIST_NAME)),
            (placed + 1, placed)
        );
        // a tick in the next bucket files them all under bucket 0
        tel.on_tick_at(&core, 0, bucket_ms);
        let agg = tel.aggregator();
        assert_eq!(agg.window_hist_count(REQUEST_HIST_NAME, bucket_ms), 0);
        assert_eq!(
            agg.window_hist_count(REQUEST_HIST_NAME, 2 * bucket_ms),
            placed + 1
        );
        assert_eq!(
            agg.window_hist_count(PLACE_HIST_NAME, 2 * bucket_ms),
            placed
        );
    }

    #[test]
    fn starvation_counts_floored_busy_ticks() {
        let core = loaded_core(); // has unsatisfied users, never ticked
        let mut tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
        assert!(core.unsatisfied() > 0);
        tel.on_tick_at(&core, 1 << 20, 10); // huge backlog → budget floor
        tel.on_tick_at(&core, 0, 20); // empty queue → full budget
        let snap = tel.snapshot(&core);
        assert_eq!(snap.starved_ticks, 1);
        assert_eq!(snap.budget, 8);
    }

    #[test]
    fn cumulative_snapshot_has_totals_but_no_windows() {
        let core = loaded_core();
        let snap = cumulative_snapshot(&core);
        assert_eq!(snap.active, 24);
        assert!(snap.rates.is_empty());
        assert_eq!(snap.classes.len(), 1);
        assert_eq!(snap.classes[0].violation_total, 0.0);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut core = loaded_core();
        let mut tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
        let mut sink = NoopSink;
        core.tick(0, false, &mut sink);
        tel.on_request(true, 4_000);
        tel.on_request(false, 2_000);
        tel.on_tick_at(&core, 0, 100);
        let text = render_prometheus(&tel, &core);
        let mut samples = 0usize;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            // sample line: name[{labels}] value
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let bare = name_part.split('{').next().unwrap();
            assert!(
                bare.starts_with("qlb_"),
                "metric outside the qlb namespace: {line}"
            );
            samples += 1;
        }
        assert!(samples >= 10, "expected a full exposition, got:\n{text}");
        assert!(text.contains("qlb_placements_total 24\n"));
        assert!(text.contains("qlb_admission_rejects_total{reason=\"capacity\"}"));
        assert!(text.contains("qlb_request_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("qlb_slo_violation_ratio{class=\"0\",window=\"total\"}"));
    }
}
