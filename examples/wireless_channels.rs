//! Wireless-channel selection with two QoS classes.
//!
//! Stations pick one of `m` shared channels; per-channel throughput
//! degrades with the number of stations. Voice stations need latency
//! ≤ 0.5, bulk-transfer stations tolerate 2.0. Demonstrates: multi-class
//! latency instances, the staged threshold-levels protocol, per-class
//! satisfaction reporting.
//!
//! ```text
//! cargo run --release --example wireless_channels
//! ```

use qoslb::prelude::*;

fn main() {
    // Capacity budget: voice stations tolerate ⌊0.5·24⌋ = 12 co-channel
    // stations, bulk ⌊2.0·24⌋ = 48. Two constraints shape the numbers:
    // (1) feasibility — 400 voice stations fill ⌈400/12⌉ = 34 channels,
    //     leaving 94 × 48 = 4512 bulk slots ≫ 800;
    // (2) *reachability* — satisfied bulk stations never move, so voice
    //     stations can only settle on channels whose total load is below
    //     12. The mean load 1200/128 ≈ 9.4 < 12 guarantees such channels
    //     exist throughout (without headroom, lenient squatters can block
    //     strict users forever — see the blocking test in qlb-engine).
    let m = 128; // channels
    let voice = 400; // strict stations
    let bulk = 800; // lenient stations

    let scenario = Scenario {
        name: "wireless".into(),
        n: 0,
        m,
        capacity: CapacityDist::Constant { cap: 24 }, // channel speed 24
        slack_factor: None,
        placement: Placement::Random,
        classes: vec![
            ClassSpec::Latency {
                threshold: 0.5, // ⌊0.5·24⌋ = 12 stations max for voice QoS
                count: voice,
            },
            ClassSpec::Latency {
                threshold: 2.0, // ⌊2.0·24⌋ = 48 stations max
                count: bulk,
            },
        ],
    };
    let (inst, start) = scenario.build(5).expect("authored with margin");
    println!(
        "channels: {m} at speed 24 — voice cap/channel {}, bulk cap/channel {}",
        inst.cap(ClassId(0), ResourceId(0)),
        inst.cap(ClassId(1), ResourceId(0)),
    );
    println!(
        "stations: {voice} voice (T = 0.5) + {bulk} bulk (T = 2.0); random initial channels\n"
    );

    let proto = ThresholdLevels::new(inst.num_classes() as u32);
    let mut trace = Trace::new(&inst, &start);
    let out = run_observed(&inst, start, &proto, RunConfig::new(11, 50_000), &mut trace);
    assert!(out.converged, "authored to be feasible with margin");

    println!("round  unsatisfied  migrations  (classes alternate rounds)");
    for r in trace.rounds.iter().take(12) {
        println!(
            "{:>5}  {:>11}  {:>10}",
            r.round, r.unsatisfied, r.migrations
        );
    }
    if trace.rounds.len() > 12 {
        println!("  ... ({} more rounds)", trace.rounds.len() - 12);
    }
    println!(
        "\nall stations satisfied after {} rounds ({} migrations)",
        out.rounds, out.migrations
    );

    // Per-class verification.
    for k in 0..inst.num_classes() {
        let class = ClassId(k as u32);
        let satisfied = inst
            .users()
            .filter(|&u| inst.class_of(u) == class)
            .filter(|&u| out.state.is_satisfied(&inst, u))
            .count();
        let total = inst.class_sizes()[k];
        println!(
            "  class c{k} (T = {}): {satisfied}/{total} satisfied",
            inst.classes()[k].threshold
        );
    }
}
