//! Phase timers: monotonic scoped timings aggregated per phase.

use crate::metrics::Histogram;

/// The instrumented phases of a round. The discriminant is the dense
/// storage index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Deciding the round's migrations.
    Decide,
    /// Applying the migration batch to the state.
    Apply,
    /// Checking convergence.
    Convergence,
    /// Pool-executor dispatch + join overhead of a decide round: the wall
    /// time of the round minus the longest single shard's compute time.
    ForkJoin,
    /// Longest single-shard compute time of a pooled decide round (the
    /// critical-path useful work; `Decide` = `Compute` + `ForkJoin`).
    Compute,
}

impl Phase {
    /// Every phase, in storage order.
    pub const ALL: [Phase; 5] = [
        Phase::Decide,
        Phase::Apply,
        Phase::Convergence,
        Phase::ForkJoin,
        Phase::Compute,
    ];

    /// Export name (stable; used in JSONL dumps).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decide => "decide",
            Phase::Apply => "apply",
            Phase::Convergence => "convergence",
            Phase::ForkJoin => "fork_join",
            Phase::Compute => "compute",
        }
    }
}

/// Per-phase aggregation of scoped wall-clock timings: one fixed-bucket
/// [`Histogram`] of nanosecond samples per [`Phase`].
#[derive(Debug, Clone, Default)]
pub struct PhaseTimers {
    phases: [Histogram; Phase::ALL.len()],
}

impl PhaseTimers {
    /// Record one timing sample for a phase.
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.phases[phase as usize].observe(ns);
    }

    /// The histogram of a phase's samples.
    pub fn histogram(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize]
    }

    /// Total nanoseconds spent in a phase.
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].sum()
    }

    /// Total nanoseconds across all phases.
    pub fn grand_total_ns(&self) -> u64 {
        Phase::ALL
            .iter()
            .map(|&p| self.total_ns(p))
            .fold(0u64, u64::saturating_add)
    }

    /// A per-phase wall-clock breakdown, one line per non-empty phase:
    /// `name: total ms, count, mean µs, share of instrumented time`.
    pub fn breakdown(&self) -> String {
        let grand = self.grand_total_ns().max(1) as f64;
        let mut out = String::new();
        for &p in &Phase::ALL {
            let h = self.histogram(p);
            if h.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:>12}: {:>9.2} ms over {:>7} calls ({:>8.2} µs/call, {:>5.1}%)\n",
                p.name(),
                h.sum() as f64 / 1e6,
                h.count(),
                h.mean() / 1e3,
                100.0 * h.sum() as f64 / grand,
            ));
        }
        out
    }

    /// Fold another set of timers into this one.
    pub fn merge(&mut self, other: &PhaseTimers) {
        for &p in &Phase::ALL {
            self.phases[p as usize].merge(&other.phases[p as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregates_per_phase() {
        let mut t = PhaseTimers::default();
        t.record(Phase::Decide, 1_000);
        t.record(Phase::Decide, 3_000);
        t.record(Phase::Apply, 500);
        assert_eq!(t.total_ns(Phase::Decide), 4_000);
        assert_eq!(t.histogram(Phase::Decide).count(), 2);
        assert_eq!(t.grand_total_ns(), 4_500);
    }

    #[test]
    fn breakdown_lists_only_used_phases() {
        let mut t = PhaseTimers::default();
        t.record(Phase::Convergence, 2_000_000);
        let text = t.breakdown();
        assert!(text.contains("convergence"));
        assert!(!text.contains("decide"));
        assert!(text.contains("100.0%"));
    }

    #[test]
    fn merge_combines_histograms() {
        let mut a = PhaseTimers::default();
        let mut b = PhaseTimers::default();
        a.record(Phase::Decide, 10);
        b.record(Phase::Decide, 20);
        a.merge(&b);
        assert_eq!(a.total_ns(Phase::Decide), 30);
        assert_eq!(a.histogram(Phase::Decide).count(), 2);
    }
}
