//! Batch jobs with heterogeneous core demands — the weighted model.
//!
//! A cluster of machines with `cores` slots each; jobs demand 1, 2 or 8
//! cores and self-schedule with the slack-damped protocol, which moves a
//! job only where its demand fits. A job is satisfied iff its machine is
//! not oversubscribed. Demonstrates: a weighted instance running through
//! the same `run` as the unit model, the best-fit-decreasing offline
//! baseline, and the transfer-cost metric (total weight moved).
//!
//! ```text
//! cargo run --release --example batch_jobs
//! ```

use qoslb::core::weighted::{first_fit_decreasing, weight_counting_feasible};
use qoslb::prelude::*;
use qoslb::rng::{Rng64, SplitMix64};

fn main() {
    let machines = 256;
    let cores_per_machine = 32u32;

    // Job mix: 70% single-core, 20% dual-core, 10% eight-core, drawn until
    // we reach 80% of cluster capacity (γ = 1.25).
    let capacity = machines as u64 * cores_per_machine as u64;
    let target_demand = capacity * 4 / 5;
    let mut rng = SplitMix64::new(2026);
    let mut weights: Vec<u32> = Vec::new();
    let mut demand = 0u64;
    while demand < target_demand {
        let w: u32 = if rng.bernoulli(0.1) {
            8
        } else if rng.bernoulli(0.25) {
            2
        } else {
            1
        };
        let w = w.min((target_demand - demand) as u32).max(1);
        weights.push(w);
        demand += w as u64;
    }
    let inst = WeightedInstance::new(vec![cores_per_machine; machines], weights).expect("valid");
    println!(
        "cluster: {machines} machines × {cores_per_machine} cores = {capacity} cores; \
         {} jobs demanding {} cores (γ = {:.2}, max job {})",
        inst.num_users(),
        inst.total_weight(),
        inst.slack_factor(),
        inst.max_weight(),
    );
    assert!(weight_counting_feasible(&inst));

    // Offline reference: best-fit decreasing packs instantly.
    let offline = first_fit_decreasing(&inst).expect("plenty of slack");
    println!(
        "offline best-fit-decreasing: legal, busiest machine at {} / {} cores",
        offline.loads().iter().max().unwrap(),
        cores_per_machine
    );

    // Online distributed: every job starts on machine 0 (a scheduler
    // outage dumped the whole queue on one box).
    let crowd = State::all_on(&inst, ResourceId(0));
    let out = run(
        &inst,
        crowd,
        &SlackDamped::default(),
        RunConfig::new(7, 100_000),
    );
    assert!(out.converged);
    println!(
        "distributed recovery: {} rounds, {} migrations, {} core-moves \
         ({:.2} moves per core of demand)",
        out.rounds,
        out.migrations,
        out.weight_moved,
        out.weight_moved as f64 / inst.total_weight() as f64
    );

    // Per-size settling check: large jobs are the slow ones.
    for size in [1u32, 2, 8] {
        let satisfied = inst
            .users()
            .filter(|&u| inst.weight(u) == size)
            .filter(|&u| out.state.is_satisfied(&inst, u))
            .count();
        let total = inst.users().filter(|&u| inst.weight(u) == size).count();
        println!("  {size}-core jobs: {satisfied}/{total} satisfied");
    }
}
