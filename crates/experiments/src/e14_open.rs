//! **E14 / Table 11 — open system: continuous arrivals and departures.**
//!
//! The closed-model theorems promise fast convergence; the operational
//! question is *steady-state* quality: with users arriving at rate `λ` and
//! departing with probability `μ` per round (offered load
//! `ρ = λ/(μ · Σc)`), what fraction of active users is unsatisfied at any
//! moment? Expectation: for `ρ` bounded away from 1, the protocol keeps
//! the unsatisfied fraction tiny (arrivals are absorbed within ≈ 1 round);
//! approaching `ρ = 1` the margin vanishes and the fraction climbs.

use crate::ExperimentResult;
use qlb_core::SlackDamped;
use qlb_engine::open::reference_open_run;
use qlb_engine::{run_open_system, OpenConfig};
use qlb_stats::{Summary, Table};

/// Run E14.
pub fn run(quick: bool) -> ExperimentResult {
    let (m, cap, rounds, seeds) = if quick {
        (64usize, 10u32, 300u64, 3u32)
    } else {
        (512, 10, 2_000, 5)
    };
    let total_cap = (m as u64) * (cap as u64);
    let mu = 0.05f64;
    let rhos = [0.5, 0.7, 0.8, 0.9, 0.95];

    let mut table = Table::new(
        format!(
            "Table 11 — open system steady state (m = {m}, Σc = {total_cap}, μ = {mu}, \
             {rounds} rounds, warmup ¼)"
        ),
        &[
            "offered load ρ",
            "λ (arrivals/round)",
            "active (mean)",
            "utilization",
            "unsatisfied frac (mean)",
            "unsatisfied frac (max)",
        ],
    );
    let mut first = f64::NAN;
    let mut last = f64::NAN;
    // runs whose series equals the reference loop's
    let mut matched = 0;

    for &rho in &rhos {
        let lambda = rho * mu * total_cap as f64;
        let pool = (2.0 * lambda / mu) as usize + 64;
        let caps = vec![cap; m];
        let mut unsat = Summary::new();
        let mut worst = Summary::new();
        let mut active = Summary::new();
        for seed in 0..seeds as u64 {
            let proto = SlackDamped::default();
            let cfg = OpenConfig::new(seed, rounds, lambda, mu).with_warmup(rounds / 4);
            let out = run_open_system(&caps, pool, &proto, cfg);
            matched += u32::from(out.series == reference_open_run(&caps, pool, &proto, cfg));
            unsat.push(out.mean_unsatisfied_frac);
            worst.push(out.max_unsatisfied_frac);
            active.push(out.mean_active);
        }
        table.row(vec![
            format!("{rho:.2}"),
            format!("{lambda:.1}"),
            format!("{:.0}", active.mean()),
            format!("{:.2}", active.mean() / total_cap as f64),
            format!("{:.4}", unsat.mean()),
            format!("{:.4}", worst.mean()),
        ]);
        if rho == rhos[0] {
            first = unsat.mean();
        }
        last = unsat.mean();
    }

    let runs = rhos.len() as u32 * seeds;
    let notes = vec![
        format!(
            "oracle check: every run's series equals the dense reference loop's: {} \
             ({matched}/{runs} runs)",
            if matched == runs { "PASS" } else { "FAIL" }
        ),
        format!(
            "shape check: steady-state unsatisfied fraction stays small and grows toward ρ = 1 \
             (ρ = 0.5: {first:.4} → ρ = 0.95: {last:.4}); the open system absorbs churn \
             continuously without accumulating backlog"
        ),
    ];

    ExperimentResult {
        id: "E14",
        artifact: "Table 11",
        title: "Open-system steady state under offered load",
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
        assert_eq!(res.id, "E14");
        assert!(
            res.notes[0].contains("PASS (15/15 runs)"),
            "{:?}",
            res.notes
        );
    }
}
