//! The protocol on stale information: users decide on load snapshots that
//! arrive late or get lost, as they would across a real fleet.
//!
//! Demonstrates the closed loop's stale-observation mode
//! (`RunConfig::with_staleness`): the fleet is split into 4 user blocks ×
//! 2 resource blocks that exchange load snapshots each round. Bounded
//! observation delay (theorem T4, experiment E7) and lossy snapshot links
//! (experiment E16) slow convergence by a bounded factor and never break
//! it; legality is always judged on the true loads.
//!
//! ```text
//! cargo run --release --example distributed_cluster
//! ```

use qoslb::prelude::*;

fn main() {
    let n = 2048;
    let m = 256;
    let inst = Instance::uniform(n, m, 10).expect("valid"); // γ = 1.25
    let start = State::all_on(&inst, ResourceId(0));
    let proto = SlackDamped::default();
    let seed = 2718;

    let fresh = run(&inst, start.clone(), &proto, RunConfig::new(seed, 100_000));
    println!(
        "fresh observations: {} rounds, {} migrations\n",
        fresh.rounds, fresh.migrations
    );

    let stale = |max_delay, loss| {
        let config = RunConfig::new(seed, 200_000).with_staleness(max_delay, loss);
        let out = run(&inst, start.clone(), &proto, config);
        assert!(out.converged, "stale information slows, never diverges");
        format!(
            "{} rounds ({:.2}× the fresh run), {} migrations",
            out.rounds,
            out.rounds as f64 / fresh.rounds.max(1) as f64,
            out.migrations
        )
    };
    println!("bounded delay (snapshots up to D rounds old):");
    for d in [1u64, 2, 4, 8] {
        println!("  D = {d}: {}", stale(d, 0.0));
    }
    println!("lossy links (a lost slice keeps the previous round's loads):");
    for p in [0.25, 0.5, 0.9] {
        println!("  p = {p:.2}: {}", stale(0, p));
    }
    println!("\nconvergence survives stale information — at a bounded slowdown");
}
