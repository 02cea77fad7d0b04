//! **E15 / Table 12 — ablation: the damping multiplier.**
//!
//! The kernel's coin is `β · (c−x)/c` with `β = 1` canonical. The ablation
//! sweeps `β` in two slack regimes:
//!
//! * **generous** (`γ = 1.5`): over-damping (`β < 1`) just wastes chances
//!   — rounds scale like `1/β`; mild over-aggression (`β > 1`) is harmless
//!   because free capacity is everywhere.
//! * **thin** (packed, `Δ = 0`, slack-1 holes): aggression speeds up the
//!   endgame until the effective coin `β·slack/c` saturates at 1 — at that
//!   point (`β = cap`) the kernel degenerates into the conditional
//!   strawman and starts manufacturing overload (E4's herding).
//!
//! This is the design-choice experiment `DESIGN.md` calls out: measured,
//! `β = 1` maximizes the saturation margin (zero created overload with the
//! least over-damping), and the margin — not a speed optimum — is what the
//! potential argument needs.

use crate::ExperimentResult;
use qlb_core::{Instance, ResourceId, SlackDamped, State};
use qlb_engine::{RunConfig, Trace};
use qlb_stats::{Summary, Table};

fn generous_pair(n: usize, seed: u64) -> (Instance, State) {
    let m = n / 8;
    let cap = 12; // γ = 1.5
    let inst = Instance::uniform(n, m, cap).expect("valid");
    let _ = seed;
    let state = State::all_on(&inst, ResourceId(0));
    (inst, state)
}

/// Packed thin-slack pair (same construction as E4).
fn packed_pair(m: usize) -> (Instance, State) {
    let n = 8 * m;
    let inst = Instance::uniform(n, m, 8).expect("valid");
    let mut assignment = Vec::with_capacity(n);
    for r in 1..m {
        assignment.extend(std::iter::repeat_n(ResourceId(r as u32), 7));
    }
    assignment.resize(n, ResourceId(0));
    (inst.clone(), State::new(&inst, assignment).expect("valid"))
}

fn overload_created(series: &[u64]) -> u64 {
    series.windows(2).map(|w| w[1].saturating_sub(w[0])).sum()
}

/// Run E15.
pub fn run(quick: bool) -> ExperimentResult {
    let (n, m_packed, seeds, cutoff) = if quick {
        (1usize << 9, 48usize, 3u32, 60_000u64)
    } else {
        (1usize << 13, 384, 10, 300_000)
    };
    let betas = [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0];

    let mut table = Table::new(
        format!(
            "Table 12 — damping ablation: β·(c−x)/c coin \
             (generous: n = {n}, γ = 1.5, hotspot; thin: packed Δ = 0, m = {m_packed})"
        ),
        &[
            "β",
            "generous: rounds",
            "generous: conv",
            "thin: rounds",
            "thin: Σ(ΔΦ)⁺",
            "thin: conv",
        ],
    );
    let mut created_at_1 = f64::NAN;
    let mut created_at_8 = f64::NAN;

    for &beta in &betas {
        let proto = SlackDamped::with_damping(beta);

        let mut gen_rounds = Summary::new();
        let mut gen_conv = 0u32;
        for seed in 0..seeds as u64 {
            let (inst, state) = generous_pair(n, seed);
            let out = qlb_engine::run(&inst, state, &proto, RunConfig::new(seed, cutoff));
            if out.converged {
                gen_conv += 1;
                gen_rounds.push(out.rounds as f64);
            }
        }

        let mut thin_rounds = Summary::new();
        let mut thin_created = Summary::new();
        let mut thin_conv = 0u32;
        for seed in 0..seeds as u64 {
            let (inst, state) = packed_pair(m_packed);
            let mut trace = Trace::new(&inst, &state);
            let cfg = RunConfig::new(seed, cutoff);
            let out = qlb_engine::run_observed(&inst, state, &proto, cfg, &mut trace);
            let series: Vec<u64> = trace
                .rounds
                .iter()
                .map(|r| r.overload.expect("single class"))
                .collect();
            thin_created.push(overload_created(&series) as f64);
            if out.converged {
                thin_conv += 1;
                thin_rounds.push(out.rounds as f64);
            }
        }
        if beta == 1.0 {
            created_at_1 = thin_created.mean();
        }
        if beta == 8.0 {
            created_at_8 = thin_created.mean();
        }

        table.row(vec![
            format!("{beta:.2}"),
            format!("{:.1} ± {:.1}", gen_rounds.mean(), gen_rounds.ci95()),
            format!("{gen_conv}/{seeds}"),
            if thin_rounds.count() == 0 {
                "—".to_string()
            } else {
                format!("{:.0} ± {:.0}", thin_rounds.mean(), thin_rounds.ci95())
            },
            format!("{:.1}", thin_created.mean()),
            format!("{thin_conv}/{seeds}"),
        ]);
    }

    let notes = vec![format!(
        "ablation: overload creation on the thin instance is {created_at_1:.1} at β = 1 and \
         stays zero until the effective coin saturates (β·slack/c = 1 at β = 8: \
         {created_at_8:.1} created — the conditional-herding limit of E4); β < 1 multiplies \
         generous-slack rounds by ≈ 1/β. β ∈ [1, cap) trades endgame speed against the \
         saturation margin; the canonical β = 1 keeps the margin maximal"
    )];

    ExperimentResult {
        id: "E15",
        artifact: "Table 12",
        title: "Ablation of the damping multiplier",
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
        assert_eq!(res.tables[0].num_rows(), 6);
        assert_eq!(res.id, "E15");
    }
}
