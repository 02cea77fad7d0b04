//! Quickstart: the paper's protocol on the textbook instance.
//!
//! 4096 users flash-crowd a single resource of a 512-resource system with
//! slack factor 1.25; the slack-damped protocol disperses them to a legal
//! state in a handful of synchronous rounds.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qoslb::prelude::*;

fn main() {
    let n = 4096;
    let m = 512;
    let cap = 10; // total capacity 5120 = 1.25 · n

    let inst = Instance::uniform(n, m, cap).expect("valid instance");
    println!(
        "instance: n = {n} users, m = {m} resources, capacity {cap} each \
         (slack factor γ = {:.2})",
        inst.slack_factor()
    );

    // Adversarial start: everyone on resource 0.
    let start = State::all_on(&inst, ResourceId(0));
    println!(
        "start: hotspot with overload Φ = {}",
        overload_potential(&inst, &start)
    );

    let mut trace = Trace::new(&inst, &start);
    let cfg = RunConfig::new(42, 10_000);
    let out = run_observed(&inst, start, &SlackDamped::default(), cfg, &mut trace);

    assert!(out.converged, "γ = 1.25 converges fast");
    println!(
        "converged in {} rounds with {} migrations ({:.2} per user)",
        out.rounds,
        out.migrations,
        out.migrations as f64 / n as f64
    );

    println!("\nround  Φ      unsatisfied  migrations");
    for r in &trace.rounds {
        println!(
            "{:>5}  {:>5}  {:>11}  {:>10}",
            r.round,
            r.overload.unwrap_or(0),
            r.unsatisfied,
            r.migrations
        );
    }
    let phi: Vec<f64> = trace
        .rounds
        .iter()
        .map(|r| (r.overload.unwrap_or(0) as f64 + 1.0).ln())
        .collect();
    println!(
        "\nlog Φ decay: {}  (geometric decay = straight slide down)",
        qoslb::stats::sparkline_fit(&phi, 40)
    );
}
