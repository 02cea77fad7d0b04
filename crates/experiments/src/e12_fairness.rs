//! **E12 / Figure 3 — per-user settling-time distribution (fairness).**
//!
//! Mean convergence time hides stragglers. The settling time of a user is
//! the first round from which it stays satisfied to the end of the run;
//! the figure reports its quantiles across users and seeds. The damped
//! protocol's geometric progress implies an exponential tail: p99 should
//! sit within a small factor of the median, not orders of magnitude away.

use crate::ExperimentResult;
use qlb_core::SlackDamped;
use qlb_engine::{RunConfig, Trace};
use qlb_stats::{quantiles, Table};
use qlb_workload::{CapacityDist, Placement, Scenario};

/// Run E12.
pub fn run(quick: bool) -> ExperimentResult {
    let (n, seeds) = if quick {
        (1usize << 10, 3u32)
    } else {
        (1usize << 16, 10)
    };
    let m = n / 8;

    let sc = Scenario::single_class(
        "e12",
        n,
        m,
        CapacityDist::Constant { cap: 10 },
        1.25,
        Placement::Hotspot,
    );

    let mut all_times: Vec<f64> = Vec::with_capacity(n * seeds as usize);
    let mut max_rounds_seen = 0u64;
    for seed in 0..seeds as u64 {
        let (inst, state) = sc.build(seed).expect("feasible");
        let mut trace = Trace::with_settling_times(&inst, &state);
        let cfg = RunConfig::new(seed, 100_000);
        let out = qlb_engine::run_observed(&inst, state, &SlackDamped::default(), cfg, &mut trace);
        assert!(out.converged);
        max_rounds_seen = max_rounds_seen.max(out.rounds);
        all_times.extend(trace.settling_times().iter().map(|&t| t as f64));
    }

    let qs = [0.10, 0.50, 0.90, 0.99, 1.0];
    let vals = quantiles(&all_times, &qs).expect("non-empty");

    let mut table = Table::new(
        format!(
            "Figure 3 — settling-time quantiles over users (n = {n}, γ = 1.25, {seeds} seeds, \
             hotspot start)"
        ),
        &["quantile", "settling round"],
    );
    for (&q, &v) in qs.iter().zip(&vals) {
        table.row(vec![format!("p{:.0}", q * 100.0), format!("{v:.0}")]);
    }

    let p50 = vals[1].max(1.0);
    let p99 = vals[3];
    let notes = vec![format!(
        "shape check: p99/p50 = {:.2} (exponential tail ⇒ small constant, not Θ(n)); \
         slowest user settles at round {:.0} of {} total",
        p99 / p50,
        vals[4],
        max_rounds_seen
    )];

    ExperimentResult {
        id: "E12",
        artifact: "Figure 3",
        title: "Per-user settling-time distribution",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let res = run(true);
        assert_eq!(res.tables[0].num_rows(), 5);
        assert!(res.notes[0].contains("p99/p50"));
    }
}
