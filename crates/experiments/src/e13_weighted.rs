//! **E13 / Table 10 — weighted users (the bin-packing extension).**
//!
//! User `i` demands `w_i`; satisfaction is `Σ weights on r ≤ c_r`. The
//! slack-damped kernel migrates a weighted user only where its demand
//! fits, coin `(c−W)/c`. Expectations: convergence survives weight heterogeneity at
//! fixed slack, but degrades with skew (heavy users need large holes), and
//! the offline best-fit-decreasing baseline keeps succeeding (it packs
//! tightest-first). Weight distributions share a total demand so rows are
//! comparable.

use crate::ExperimentResult;
use qlb_core::weighted::{first_fit_decreasing, WeightedInstance};
use qlb_core::{ResourceId, SlackDamped, State};
use qlb_engine::RunConfig;
use qlb_rng::{Rng64, SplitMix64};
use qlb_stats::{Summary, Table};

/// A named weight-vector generator with fixed total demand `w_total`.
fn weights_for(kind: &str, w_total: u64, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(qlb_rng::mix64_pair(seed, 0xE13));
    let mut out = Vec::new();
    let mut acc = 0u64;
    while acc < w_total {
        let w = match kind {
            "unit" => 1u32,
            "uniform 1..4" => 1 + rng.uniform(4) as u32,
            "heavy-tailed (20% w=8)" => {
                if rng.bernoulli(0.2) {
                    8
                } else {
                    1
                }
            }
            _ => unreachable!("unknown weight kind"),
        };
        let w = w.min((w_total - acc) as u32).max(1);
        out.push(w);
        acc += w as u64;
    }
    out
}

/// Run E13.
pub fn run(quick: bool) -> ExperimentResult {
    let (w_total, m, seeds, max_rounds) = if quick {
        (1024u64, 64usize, 3u32, 100_000u64)
    } else {
        (16384, 1024, 10, 1_000_000)
    };
    let cap = (w_total as f64 * 1.25 / m as f64).ceil() as u32; // γ = 1.25 on weight
    let kinds = ["unit", "uniform 1..4", "heavy-tailed (20% w=8)"];

    let mut table = Table::new(
        format!(
            "Table 10 — weighted users: slack-damped under weight skew \
             (Σw = {w_total}, m = {m}, cap = {cap}, γ = 1.25, hotspot)"
        ),
        &[
            "weights",
            "users (mean)",
            "max w",
            "rounds (mean ± CI)",
            "weight moved / Σw",
            "converged",
            "BFD offline",
        ],
    );
    let mut unit_rounds = f64::NAN;
    let mut heavy_rounds = f64::NAN;

    for kind in kinds {
        let mut rounds = Summary::new();
        let mut users = Summary::new();
        let mut moved_frac = Summary::new();
        let mut max_w = 0u32;
        let mut converged = 0u32;
        let mut bfd_ok = 0u32;
        for seed in 0..seeds as u64 {
            let weights = weights_for(kind, w_total, seed);
            let inst = WeightedInstance::new(vec![cap; m], weights).expect("valid");
            users.push(inst.num_users() as f64);
            max_w = max_w.max(inst.max_weight());
            bfd_ok += first_fit_decreasing(&inst).is_ok() as u32;
            let state = State::all_on(&inst, ResourceId(0));
            let out = qlb_engine::run(
                &inst,
                state,
                &SlackDamped::default(),
                RunConfig::new(seed, max_rounds),
            );
            if out.converged {
                converged += 1;
                rounds.push(out.rounds as f64);
                moved_frac.push(out.weight_moved as f64 / w_total as f64);
            }
        }
        if kind == "unit" {
            unit_rounds = rounds.mean();
        }
        if kind.starts_with("heavy") {
            heavy_rounds = rounds.mean();
        }
        table.row(vec![
            kind.to_string(),
            format!("{:.0}", users.mean()),
            max_w.to_string(),
            format!("{:.1} ± {:.1}", rounds.mean(), rounds.ci95()),
            format!("{:.2}", moved_frac.mean()),
            format!("{converged}/{seeds}"),
            format!("{bfd_ok}/{seeds}"),
        ]);
    }

    let notes = vec![format!(
        "shape check: convergence survives weight skew at γ = 1.25 (100% expected in every \
         row); heavy-tailed weights cost {:.2}× the unit-weight rounds (large holes are \
         rarer), and best-fit-decreasing packs every instance offline",
        heavy_rounds / unit_rounds.max(1e-9)
    )];

    ExperimentResult {
        id: "E13",
        artifact: "Table 10",
        title: "Weighted users: convergence under demand heterogeneity",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_hit_total_exactly() {
        for kind in ["unit", "uniform 1..4", "heavy-tailed (20% w=8)"] {
            let w = weights_for(kind, 500, 3);
            assert_eq!(w.iter().map(|&x| x as u64).sum::<u64>(), 500, "{kind}");
            assert!(w.iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn quick_run_shape() {
        let res = run(true);
        assert_eq!(res.tables[0].num_rows(), 3);
        assert_eq!(res.id, "E13");
    }
}
