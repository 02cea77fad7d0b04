//! **E3 / Figure 1 — per-round decay of the overload potential.**
//!
//! The drift argument behind T1 says `E[Φ]` contracts by a constant factor
//! per round under the damped protocol. The "figure" is a series table:
//! round, overload potential `Φ`, unsatisfied users, migrations, plus the
//! empirical per-round contraction ratio. The geometric regime is visible
//! as a roughly constant ratio < 1 until the integer tail.

use crate::ExperimentResult;
use qlb_core::SlackDamped;
use qlb_engine::{RunConfig, Trace};
use qlb_stats::Table;
use qlb_workload::{CapacityDist, Placement, Scenario};

/// Run E3.
pub fn run(quick: bool) -> ExperimentResult {
    let n = if quick { 1usize << 10 } else { 1usize << 16 };
    let m = n / 8;
    let seed = 1;

    let sc = Scenario::single_class(
        format!("e3-n{n}"),
        n,
        m,
        CapacityDist::Constant { cap: 10 },
        1.25,
        Placement::Hotspot,
    );
    let (inst, state) = sc.build(seed).expect("feasible by construction");
    let proto = SlackDamped::default();
    let mut trace = Trace::new(&inst, &state);
    let cfg = RunConfig::new(seed, 100_000);
    let out = qlb_engine::run_observed(&inst, state, &proto, cfg, &mut trace);
    assert!(out.converged, "E3 run must converge");

    let mut table = Table::new(
        format!("Figure 1 — overload potential per round (slack-damped, n = {n}, γ = 1.25, seed {seed})"),
        &["round", "Φ (overload)", "unsatisfied", "migrations", "Φ ratio"],
    );
    let mut ratios = Vec::new();
    let mut prev_phi: Option<u64> = None;
    for r in &trace.rounds {
        let phi = r.overload.expect("single-class instance");
        let ratio = match prev_phi {
            Some(p) if p > 0 => {
                let ratio = phi as f64 / p as f64;
                ratios.push(ratio);
                format!("{ratio:.3}")
            }
            _ => "—".to_string(),
        };
        table.row(vec![
            r.round.to_string(),
            phi.to_string(),
            r.unsatisfied.to_string(),
            r.migrations.to_string(),
            ratio,
        ]);
        prev_phi = Some(phi);
    }

    // Geometric-regime check over the early rounds (before the integer
    // tail, where Φ is tiny and ratios are noisy).
    let early: Vec<f64> = ratios
        .iter()
        .copied()
        .take_while(|_| true)
        .take(ratios.len().min(5))
        .collect();
    let mean_ratio = early.iter().sum::<f64>() / early.len().max(1) as f64;
    let notes = vec![format!(
        "mean Φ contraction over the first {} rounds: {:.3} (shape check: < 0.9 ⇒ geometric \
         decay confirmed: {}); converged in {} rounds",
        early.len(),
        mean_ratio,
        if mean_ratio < 0.9 { "PASS" } else { "FAIL" },
        out.rounds
    )];

    ExperimentResult {
        id: "E3",
        artifact: "Figure 1",
        title: "Geometric decay of the overload potential",
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
        assert!(res.tables[0].num_rows() >= 2);
        assert!(res.notes[0].contains("contraction"));
    }
}
