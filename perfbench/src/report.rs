//! Metric tables, phase counts and the final result line.
//!
//! Every workload reports every metric of both tables: a `--trace 0` run
//! prints the end-to-end table, a `--trace 1` run the per-layer table.
//! Per-layer metrics of a layer the workload never calls read 0.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured untraced on every workload.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: `(name, unit)`. Measured by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // qlb-workload
    ("workload.build_ns", "ns"),
    // qlb-core round kernels (sim-*)
    ("core.decide.ns", "ns"),
    ("core.decide.calls", "count"),
    ("core.decide.users", "count"),
    ("core.decide.moves", "count"),
    ("core.decide.move_ratio", "ratio"),
    ("core.index.build_ns", "ns"),
    ("core.index.sort_ns", "ns"),
    ("core.apply.ns", "ns"),
    ("core.apply.moves", "count"),
    ("core.converge.ns", "ns"),
    ("rounds.dense", "count"),
    ("rounds.sparse", "count"),
    // qlb-engine worker pool (sim-*)
    ("engine.pool.compute_ns", "ns"),
    ("engine.pool.forkjoin_ns", "ns"),
    ("engine.pool.dispatches", "count"),
    // client side of the qlb-serve socket (serve-*)
    ("client.ops_per_s", "1/s"),
    ("client.place_p50_us", "us"),
    ("client.place_p99_us", "us"),
    ("client.reject_frac", "ratio"),
    ("client.unsat_frac", "ratio"),
    // qlb-serve daemon loop (serve-*)
    ("daemon.server_p50_us", "us"),
    ("daemon.socket_us", "us"),
    ("daemon.queue_us", "us"),
    ("daemon.ticks", "count"),
    ("daemon.batch_mean", "count"),
    ("daemon.starved_ticks", "count"),
    ("daemon.rebalance_migrations", "count"),
    // qlb-serve wire protocol (serve-*)
    ("proto.parse_ns", "ns"),
    ("proto.dispatch_ns", "ns"),
    ("proto.reply_ns", "ns"),
    // qlb-serve core (serve-*)
    ("core.place_ns", "ns"),
    ("core.depart_ns", "ns"),
    ("core.admit_ratio", "ratio"),
    ("core.tick.ns", "ns"),
    ("core.tick.rounds", "count"),
    ("core.tick.migrations", "count"),
    // every workload
    ("unaccounted_ns", "ns"),
    ("trace_overhead_frac", "ratio"),
];

/// Operation counts of one phase of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    pub attempted: u64,
    pub succeeded: u64,
    /// Processed refusals (admission rejects); neither success nor failure.
    pub rejected: u64,
    pub failed: u64,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.rejected += other.rejected;
        self.failed += other.failed;
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by metric name; names absent here print as 0.
    pub values: Vec<(&'static str, f64)>,
    pub warmup: Phase,
    pub measured: Phase,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// Workload parameters, printed with the host metadata.
    pub params: Vec<(&'static str, String)>,
    /// Human-readable report lines (tables, waterfall).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with the table the run's trace mode selects.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failures.is_empty(),
        out.measured.attempted,
        out.measured.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = out.get(name);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Median of a sample (upper median for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One waterfall row: a share of `total_ns` with its percentage.
pub fn waterfall_row(label: &str, ns: f64, total_ns: f64) -> String {
    let pct = if total_ns > 0.0 {
        100.0 * ns / total_ns
    } else {
        0.0
    };
    format!("  {label:<34} {:>12.3} ms  {pct:>6.1} %", ns / 1e6)
}

/// Latency histogram with 64 log-linear sub-buckets per power of two
/// (at most 1.6 % relative error), so memory stays fixed however many
/// requests a run answers. `qlb_obs::Histogram` has one bucket per power
/// of two: too coarse to subtract one p50 from another.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: vec![0; 59 * 64],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < 64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        ((msb - 5) * 64 + ((ns >> (msb - 6)) & 63) as u32) as usize
    }

    /// Midpoint of bucket `i` in ns.
    fn value(i: usize) -> f64 {
        if i < 64 {
            return i as f64;
        }
        let msb = (i / 64) as i32 + 5;
        let mantissa = (i % 64 + 64) as f64 + 0.5;
        mantissa * 2f64.powi(msb - 6)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile `q` in ns; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}
