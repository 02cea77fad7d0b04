//! Dense-id metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Metric identities are `#[repr(usize)]` enums rather than interned
//! strings: the set of quantities the workspace measures is closed and
//! known at compile time, so an emission is an array index plus an add —
//! allocation-free and branch-predictable on the hot path. Names exist
//! only at the export boundary ([`Counter::name`] etc.).

/// Monotonic counters. The discriminant is the dense storage index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Protocol rounds executed.
    Rounds,
    /// Migrations applied.
    Migrations,
    /// Rounds executed by the dense executor (incl. sparse warm-up).
    DenseRounds,
    /// Rounds executed against the sparse active-set index.
    SparseRounds,
    /// Dense→sparse executor switches (index builds).
    ExecutorSwitches,
    /// Snapshot slices published to user blocks (stale-observation runs).
    SnapshotsSent,
    /// Snapshot slices lost, which left the previous round's loads.
    StaleSnapshots,
    /// Churn episodes driven.
    ChurnEpisodes,
    /// Users displaced by churn.
    DisplacedUsers,
    /// Open-system arrivals injected.
    Arrivals,
    /// Open-system departures drained.
    Departures,
    /// Total weight moved (weighted model).
    WeightMoved,
    /// Placement requests admitted (`qlb-serve`).
    Placements,
    /// Placement requests rejected by admission control (`qlb-serve`).
    AdmissionRejects,
    /// Resource drains initiated (`qlb-serve`).
    Drains,
    /// Slots released by daemon-side departures (`qlb-serve`). Kept
    /// separate from the open-system [`Counter::Departures`] so daemon
    /// stats can never be conflated with open-driver churn drains.
    ServeDeparts,
}

/// Point-in-time gauges. The discriminant is the dense storage index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Unsatisfied users after the latest round.
    Unsatisfied,
    /// Overload potential Φ after the latest round (single-class runs).
    Overload,
    /// Size of the sparse executor's active set.
    ActiveSetSize,
    /// Worst observation staleness (rounds) seen in the latest round.
    SnapshotStaleness,
    /// Active (non-parked) users in an open-system run.
    ActiveUsers,
}

impl Counter {
    /// Every counter, in storage order.
    pub const ALL: [Counter; 16] = [
        Counter::Rounds,
        Counter::Migrations,
        Counter::DenseRounds,
        Counter::SparseRounds,
        Counter::ExecutorSwitches,
        Counter::SnapshotsSent,
        Counter::StaleSnapshots,
        Counter::ChurnEpisodes,
        Counter::DisplacedUsers,
        Counter::Arrivals,
        Counter::Departures,
        Counter::WeightMoved,
        Counter::Placements,
        Counter::AdmissionRejects,
        Counter::Drains,
        Counter::ServeDeparts,
    ];

    /// Export name (stable; used in JSONL dumps).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Rounds => "rounds",
            Counter::Migrations => "migrations",
            Counter::DenseRounds => "dense_rounds",
            Counter::SparseRounds => "sparse_rounds",
            Counter::ExecutorSwitches => "executor_switches",
            Counter::SnapshotsSent => "snapshots_sent",
            Counter::StaleSnapshots => "stale_snapshots",
            Counter::ChurnEpisodes => "churn_episodes",
            Counter::DisplacedUsers => "displaced_users",
            Counter::Arrivals => "arrivals",
            Counter::Departures => "departures",
            Counter::WeightMoved => "weight_moved",
            Counter::Placements => "placements",
            Counter::AdmissionRejects => "admission_rejects",
            Counter::Drains => "drains",
            Counter::ServeDeparts => "serve_departs",
        }
    }

    /// Prometheus exposition name: the [`Counter::name`] export name under
    /// the `qlb_` namespace with the conventional `_total` suffix.
    pub fn prom_name(self) -> String {
        format!("qlb_{}_total", self.name())
    }
}

impl Gauge {
    /// Every gauge, in storage order.
    pub const ALL: [Gauge; 5] = [
        Gauge::Unsatisfied,
        Gauge::Overload,
        Gauge::ActiveSetSize,
        Gauge::SnapshotStaleness,
        Gauge::ActiveUsers,
    ];

    /// Export name (stable; used in JSONL dumps).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::Unsatisfied => "unsatisfied",
            Gauge::Overload => "overload",
            Gauge::ActiveSetSize => "active_set_size",
            Gauge::SnapshotStaleness => "snapshot_staleness",
            Gauge::ActiveUsers => "active_users",
        }
    }

    /// Prometheus exposition name: the [`Gauge::name`] export name under
    /// the `qlb_` namespace (no suffix — gauges are point-in-time).
    pub fn prom_name(self) -> String {
        format!("qlb_{}", self.name())
    }
}

/// Number of fixed histogram buckets: bucket `i` holds values whose
/// bit-length is `i` (i.e. `[2^(i-1), 2^i)`, with 0 in bucket 0), so the
/// range covers all of `u64` in 65 buckets.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram of `u64` samples.
///
/// Recording is an increment at a computed index — no allocation, no
/// comparison ladder — which is what lets phase timers run inside the
/// round loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of a value: its bit length (0 → bucket 0).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile `q` (in `[0, 1]`) of the recorded samples:
    /// the upper bound of the first bucket whose cumulative count reaches
    /// `q · count`, clamped to the observed maximum (so `quantile(1.0)`
    /// is exactly [`Histogram::max`]). Returns 0 when empty. Power-of-two
    /// buckets make this accurate to within a factor of two — enough to
    /// tell a 2 µs barrier skew from a 2 ms one.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_limit(i).min(self.max);
            }
        }
        self.max
    }

    /// Upper bound (exclusive) of a bucket's value range.
    pub fn bucket_limit(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The histogram of samples recorded since `earlier` — `earlier` must
    /// be a previous snapshot of this (cumulative, monotone) histogram.
    /// Bucket counts, count, and sum subtract exactly; the delta's `max`
    /// is approximate when the period's largest sample did not raise the
    /// cumulative maximum (it is then clamped to the upper bound of the
    /// highest non-empty delta bucket), which only tightens the
    /// [`Histogram::quantile`] clamp. This is what lets a windowed view
    /// difference cumulative snapshots without touching emission sites.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::default();
        let mut highest = 0usize;
        for (i, (a, b)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            let c = a.saturating_sub(*b);
            d.buckets[i] = c;
            if c > 0 {
                highest = i;
            }
        }
        d.count = self.count.saturating_sub(earlier.count);
        d.sum = self.sum.saturating_sub(earlier.sum);
        d.max = if self.max > earlier.max || d.count == 0 {
            self.max
        } else {
            Self::bucket_limit(highest).min(self.max)
        };
        d
    }

    /// Fold the period since `last` into `into` — exactly
    /// [`Histogram::merge`] of [`Histogram::delta_since`], fused into a
    /// single pass with no temporary — then advance `last` to `self`.
    /// This is the per-tick hot path of a windowed aggregation
    /// differencing cumulative histograms, so the common all-zero-delta
    /// bucket work is skipped entirely.
    pub fn fold_delta(&self, last: &mut Histogram, into: &mut Histogram) {
        let dcount = self.count.saturating_sub(last.count);
        let mut highest = 0usize;
        if dcount > 0 {
            for i in 0..HIST_BUCKETS {
                let c = self.buckets[i].saturating_sub(last.buckets[i]);
                if c > 0 {
                    into.buckets[i] += c;
                    highest = i;
                }
            }
        }
        into.count += dcount;
        into.sum = into.sum.saturating_add(self.sum.saturating_sub(last.sum));
        let dmax = if self.max > last.max || dcount == 0 {
            self.max
        } else {
            Self::bucket_limit(highest).min(self.max)
        };
        into.max = into.max.max(dmax);
        last.clone_from(self);
    }
}

/// The registry: dense arrays of counter totals and gauge values, plus a
/// per-round mark for snapshot/reset semantics.
///
/// Counters are cumulative; [`MetricsRegistry::mark_round`] latches the
/// current totals so [`MetricsRegistry::since_mark`] yields the deltas of
/// the round in flight — the synchronous-round analogue of a
/// snapshot-and-reset, without destroying the run totals.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: [u64; Counter::ALL.len()],
    marked: [u64; Counter::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            marked: [0; Counter::ALL.len()],
            gauges: [0; Gauge::ALL.len()],
        }
    }
}

impl MetricsRegistry {
    /// Add to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, delta: u64) {
        self.counters[c as usize] += delta;
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, g: Gauge, value: u64) {
        self.gauges[g as usize] = value;
    }

    /// Cumulative value of a counter.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Current value of a gauge.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Latch current counter totals as the start of a new round.
    pub fn mark_round(&mut self) {
        self.marked = self.counters;
    }

    /// Counter deltas since the last [`MetricsRegistry::mark_round`].
    pub fn since_mark(&self, c: Counter) -> u64 {
        self.counters[c as usize] - self.marked[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_delta_matches_merge_of_delta_since() {
        // fold_delta is the fused form of merge(delta_since): drive a
        // cumulative histogram through several periods and check both
        // the folded slot and the advanced `last` agree with the
        // two-step form at every period boundary.
        let mut cum = Histogram::default();
        let mut last_fused = Histogram::default();
        let mut slot_fused = Histogram::default();
        let mut last_two = Histogram::default();
        let mut slot_two = Histogram::default();
        let samples: [&[u64]; 4] = [&[3, 900, 17], &[], &[1 << 40, 2], &[55, 55, 55, 0]];
        for period in samples {
            for &v in period {
                cum.observe(v);
            }
            cum.fold_delta(&mut last_fused, &mut slot_fused);
            slot_two.merge(&cum.delta_since(&last_two));
            last_two = cum.clone();
            assert_eq!(slot_fused, slot_two);
            assert_eq!(last_fused, cum);
        }
        assert_eq!(slot_fused.count(), cum.count());
        assert_eq!(slot_fused.sum(), cum.sum());
        assert_eq!(slot_fused.quantile(0.5), cum.quantile(0.5));
    }

    #[test]
    fn counters_accumulate_and_mark_resets_deltas() {
        let mut m = MetricsRegistry::default();
        m.add(Counter::Rounds, 1);
        m.add(Counter::Migrations, 7);
        assert_eq!(m.counter(Counter::Rounds), 1);
        assert_eq!(m.since_mark(Counter::Migrations), 7);
        m.mark_round();
        assert_eq!(m.since_mark(Counter::Migrations), 0);
        m.add(Counter::Migrations, 3);
        assert_eq!(m.since_mark(Counter::Migrations), 3);
        assert_eq!(m.counter(Counter::Migrations), 10);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::default();
        m.set(Gauge::Unsatisfied, 42);
        m.set(Gauge::Unsatisfied, 5);
        assert_eq!(m.gauge(Gauge::Unsatisfied), 5);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let mut h = Histogram::default();
        for v in [0u64, 1, 3, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[64], 1);
    }

    #[test]
    fn delta_since_recovers_the_period() {
        let mut h = Histogram::default();
        h.observe(100);
        h.observe(7);
        let earlier = h.clone();
        h.observe(3);
        h.observe(40);
        let d = h.delta_since(&earlier);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 43);
        assert_eq!(d.buckets()[Histogram::bucket_of(3)], 1);
        assert_eq!(d.buckets()[Histogram::bucket_of(40)], 1);
        // the cumulative max (100) predates the period: the delta max is
        // clamped to the highest non-empty delta bucket's limit
        assert!(d.max() >= 40 && d.max() <= 64, "max {}", d.max());
        // a period that raises the max reports it exactly
        let earlier = h.clone();
        h.observe(5_000);
        assert_eq!(h.delta_since(&earlier).max(), 5_000);
        // empty period
        let empty = h.delta_since(&h);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.sum(), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.observe(5);
        b.observe(9);
        b.observe(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 16);
        assert_eq!(a.max(), 9);
    }

    /// `[a-z_][a-z0-9_]*` — the charset every export and Prometheus name
    /// must satisfy (hand-rolled; no regex crate in the workspace).
    fn is_valid_metric_name(s: &str) -> bool {
        let mut chars = s.chars();
        let ok_first = matches!(chars.next(), Some(c) if c.is_ascii_lowercase() || c == '_');
        ok_first && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    }

    #[test]
    fn names_are_unique() {
        // Export names and Prometheus names, pooled: pairwise distinct and
        // all matching [a-z_][a-z0-9_]* — a future enum addition that
        // would silently collide at the export boundary fails here.
        let mut names: Vec<String> = Counter::ALL.iter().map(|c| c.name().to_string()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name().to_string()));
        names.extend(Counter::ALL.iter().map(|c| c.prom_name()));
        names.extend(Gauge::ALL.iter().map(|g| g.prom_name()));
        for name in &names {
            assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names collide: {names:?}");
    }

    #[test]
    fn enum_discriminants_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
    }
}
