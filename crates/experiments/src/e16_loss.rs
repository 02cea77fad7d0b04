//! **E16 / Table 13 — failure injection: lossy snapshot links.**
//!
//! Each round every resource block publishes its slice of the loads to
//! every user block ([`RunConfig::with_staleness`]), and each slice is lost
//! with probability `p`; the observer then acts on the previous round's
//! values.
//! This is harsher than bounded delay (E7): losses are per-link and
//! independent, so different user blocks see *inconsistent* views of the
//! same resource. Expectation: convergence degrades smoothly in `p` and
//! survives even extreme loss (`p = 0.9`), because retained stale values
//! are at most one round old — the protocol's damping absorbs the error.

use crate::ExperimentResult;
use qlb_core::{ResourceId, SlackDamped, State};
use qlb_engine::{run_observed, RunConfig};
use qlb_obs::{Counter, Recorder};
use qlb_stats::{Summary, Table};
use qlb_workload::{CapacityDist, Placement, Scenario};

/// Run E16.
pub fn run(quick: bool) -> ExperimentResult {
    let (n, seeds) = if quick {
        (1usize << 9, 3u32)
    } else {
        (1usize << 12, 10)
    };
    let m = n / 8;
    let probs = [0.0f64, 0.1, 0.25, 0.5, 0.9];
    let max_rounds = 200_000;

    let sc = Scenario::single_class(
        "e16",
        n,
        m,
        CapacityDist::Constant { cap: 10 },
        1.25,
        Placement::Hotspot,
    );

    let mut table = Table::new(
        format!(
            "Table 13 — lossy snapshot links \
             (n = {n}, m = {m}, γ = 1.25, 4×2 blocks)"
        ),
        &[
            "loss p",
            "rounds (mean ± CI)",
            "slowdown vs p=0",
            "migrations (mean)",
            "stale slices",
            "converged",
        ],
    );
    let mut base = None;
    let mut worst_slowdown = 0.0f64;

    for &p in &probs {
        let mut rounds = Summary::new();
        let mut migrations = Summary::new();
        let mut stale_frac = Summary::new();
        let mut converged = 0u32;
        for seed in 0..seeds as u64 {
            let (inst, _) = sc.build(seed).expect("feasible");
            let state = State::all_on(&inst, ResourceId(0));
            // The stale-slice accounting comes from the loop's own
            // counters via the observability sink — not re-derived by the
            // experiment.
            let mut rec = Recorder::default();
            let out = run_observed(
                &inst,
                state,
                &SlackDamped::default(),
                RunConfig::new(seed, max_rounds).with_staleness(0, p),
                &mut rec,
            );
            if out.converged {
                converged += 1;
                rounds.push(out.rounds as f64);
                migrations.push(out.migrations as f64);
                let sent = rec.counter(Counter::SnapshotsSent).max(1);
                stale_frac.push(rec.counter(Counter::StaleSnapshots) as f64 / sent as f64);
            }
        }
        let slowdown = base.map_or(1.0, |b: f64| rounds.mean() / b);
        if base.is_none() {
            base = Some(rounds.mean());
        }
        worst_slowdown = worst_slowdown.max(slowdown);
        table.row(vec![
            format!("{p:.2}"),
            format!("{:.1} ± {:.1}", rounds.mean(), rounds.ci95()),
            format!("{slowdown:.2}×"),
            format!("{:.0}", migrations.mean()),
            format!("{:.1}%", 100.0 * stale_frac.mean()),
            format!("{converged}/{seeds}"),
        ]);
    }

    let notes = vec![format!(
        "failure injection: convergence survives up to 90% snapshot loss with a worst \
         slowdown of {worst_slowdown:.2}× — stale-by-one observations are within the \
         protocol's tolerance (cf. E7's bounded-delay model)"
    )];

    ExperimentResult {
        id: "E16",
        artifact: "Table 13",
        title: "Failure injection: lossy observation links",
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
        assert_eq!(res.id, "E16");
    }
}
