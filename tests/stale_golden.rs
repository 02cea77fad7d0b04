//! The stale-observation mode against the message-passing runtime it
//! replaced.
//!
//! `stale_golden.txt` holds that runtime's trajectories, recorded at commit
//! 030840c for E7's and E16's configurations: a hotspot start on
//! `n / 8` resources of capacity 10 (γ = 1.25), slack-damped, 4 user
//! blocks × 2 resource blocks; every delay `D` and loss `p` of both
//! experiments at `n = 512`, seeds 0–2, and `D = 8` and `p = 0.9` at
//! `n = 4096`, seeds 0–9. Each `case` line names the configuration and the
//! round `R` at which the runtime stopped (its final legality and
//! migration count are kept for the record). Below it, one line per
//! `k = 0..=R` holds `k`, the FNV-1a hash of the assignment, the
//! cumulative migrations, legality (0/1) and the cumulative lost snapshot
//! slices, read from the runtime with a budget of `k` rounds; the `k = 0`
//! line is the start state.
//!
//! The stale loop must reproduce that series round for round and stop at
//! its first legal entry. The runtime did not: its stop test read the
//! assembled (possibly lost) snapshots, and its users applied the moves
//! of the round the coordinator stopped at.

use qoslb::engine::{RESOURCE_BLOCKS, USER_BLOCKS};
use qoslb::obs::{Counter, Event, Gauge, Phase};
use qoslb::prelude::*;

struct Entry {
    hash: u64,
    migrations: u64,
    legal: bool,
    lost: u64,
}

struct Case {
    label: String,
    name: String,
    n: usize,
    seed: u64,
    max_delay: u64,
    loss: f64,
    runtime_rounds: usize,
    series: Vec<Entry>,
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    for line in include_str!("stale_golden.txt").lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields[0] == "case" {
            let field = |key: &str| {
                fields
                    .iter()
                    .find_map(|f| f.strip_prefix(key))
                    .unwrap_or_else(|| panic!("{key} missing in {line}"))
            };
            cases.push(Case {
                label: fields[1..6].join(" "),
                name: fields[1].to_string(),
                n: field("n=").parse().unwrap(),
                seed: field("seed=").parse().unwrap(),
                max_delay: field("D=").parse().unwrap(),
                loss: field("p=").parse().unwrap(),
                runtime_rounds: field("R=").parse().unwrap(),
                series: Vec::new(),
            });
        } else {
            let case = cases.last_mut().expect("entry before any case");
            assert_eq!(fields[0].parse::<usize>().unwrap(), case.series.len());
            case.series.push(Entry {
                hash: u64::from_str_radix(fields[1], 16).unwrap(),
                migrations: fields[2].parse().unwrap(),
                legal: fields[3] == "1",
                lost: fields[4].parse().unwrap(),
            });
        }
    }
    cases
}

/// FNV-1a over the little-endian bytes of the assignment.
fn fnv(state: &State) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in state.assignment() {
        for b in r.0.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The snapshot accounting of a run: one entry per published round.
#[derive(Default)]
struct Slices {
    sent: Vec<u64>,
    lost: Vec<u64>,
}

impl Sink for Slices {
    const ENABLED: bool = true;
    fn event(&mut self, _ev: Event) {}
    fn add(&mut self, c: Counter, delta: u64) {
        match c {
            Counter::SnapshotsSent => self.sent.push(delta),
            Counter::StaleSnapshots => self.lost.push(delta),
            _ => {}
        }
    }
    fn set(&mut self, _g: Gauge, _value: u64) {}
    fn time(&mut self, _p: Phase, _ns: u64) {}
}

#[test]
fn stale_mode_replays_the_runtime() {
    let cases = cases();
    assert_eq!(cases.len(), 50);
    for case in cases {
        let sc = Scenario::single_class(
            case.name.as_str(),
            case.n,
            case.n / 8,
            CapacityDist::Constant { cap: 10 },
            1.25,
            Placement::Hotspot,
        );
        let (inst, _) = sc.build(case.seed).expect("feasible");
        let start = State::all_on(&inst, ResourceId(0));
        let proto = SlackDamped::default();
        let config =
            |k: u64| RunConfig::new(case.seed, k).with_staleness(case.max_delay, case.loss);
        assert_eq!(case.series.len(), case.runtime_rounds + 1, "{}", case.label);
        let stop = case
            .series
            .iter()
            .position(|e| e.legal)
            .expect("every recorded run reaches a legal state");
        if case.loss == 0.0 {
            assert_eq!(stop, case.runtime_rounds, "{}", case.label);
        }
        let fresh = case.max_delay == 0 && case.loss == 0.0;
        for (k, want) in case.series.iter().enumerate().take(stop + 1) {
            let label = format!("{} k={k}", case.label);
            let mut slices = Slices::default();
            let out = run_observed(&inst, start.clone(), &proto, config(k as u64), &mut slices);
            assert_eq!(out.rounds, k as u64, "{label}");
            assert_eq!(out.converged, k == stop, "{label}");
            assert_eq!(fnv(&out.state), want.hash, "{label}");
            assert_eq!(out.migrations, want.migrations, "{label}");
            assert_eq!(out.state.is_legal(&inst), want.legal, "{label}");
            // a stale run publishes once per decided round, and once for
            // the round a converged run stops at, which no user decides
            // on; a fresh run publishes nothing
            let published = if fresh { 0 } else { k + out.converged as usize };
            let slices_per_round = (USER_BLOCKS * RESOURCE_BLOCKS) as u64;
            assert_eq!(slices.sent, vec![slices_per_round; published], "{label}");
            assert_eq!(slices.lost.len(), published, "{label}");
            let decided = &slices.lost[..published.min(k)];
            assert_eq!(decided.iter().sum::<u64>(), want.lost, "{label}");
        }
        let out = run(&inst, start, &proto, config(200_000));
        assert!(out.converged, "{}", case.label);
        assert_eq!(out.rounds, stop as u64, "{}", case.label);
    }
}
