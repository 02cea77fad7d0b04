//! Cross-crate integration tests: scenario → engine → legal state.

use qoslb::engine::{run, RunConfig};
use qoslb::prelude::*;

fn standard(n: usize, seed: u64) -> (Instance, State) {
    Scenario::single_class(
        "it",
        n,
        n / 8,
        CapacityDist::Constant { cap: 10 },
        1.25,
        Placement::Hotspot,
    )
    .build(seed)
    .expect("feasible")
}

#[test]
fn full_pipeline_converges() {
    let (inst, state) = standard(2048, 3);
    let out = run(
        &inst,
        state,
        &SlackDamped::default(),
        RunConfig::new(3, 10_000),
    );
    assert!(out.converged);
    assert!(out.state.is_legal(&inst));
    assert_eq!(overload_potential(&inst, &out.state), 0);
}

#[test]
fn greedy_baseline_matches_protocol_legality() {
    let sc = Scenario::single_class(
        "it-zipf",
        4096,
        512,
        CapacityDist::Zipf {
            alpha: 1.0,
            max_cap: 1024,
        },
        1.25,
        Placement::WorstHotspot,
    );
    let (inst, state) = sc.build(17).unwrap();
    // centralized: instant legal state
    let greedy = greedy_assign(&inst).unwrap();
    assert!(greedy.is_legal(&inst));
    // distributed: same outcome, some rounds later
    let out = run(
        &inst,
        state,
        &SlackDamped::default(),
        RunConfig::new(17, 100_000),
    );
    assert!(out.converged);
}

#[test]
fn every_protocol_reaches_legality_on_generous_slack() {
    let sc = Scenario::single_class(
        "it-generous",
        512,
        128,
        CapacityDist::Constant { cap: 8 },
        2.0,
        Placement::Hotspot,
    );
    let (inst, state) = sc.build(1).unwrap();
    let protos: Vec<Box<dyn Protocol>> = vec![
        Box::new(BlindUniform),
        Box::new(ConditionalUniform),
        Box::new(SlackDamped::default()),
        Box::new(SlackDampedCapacitySampling::new(&inst)),
    ];
    for p in &protos {
        let out = run(&inst, state.clone(), p.as_ref(), RunConfig::new(1, 100_000));
        assert!(out.converged, "{} failed on generous slack", p.name());
    }
}

#[test]
fn multi_class_pipeline_with_levels() {
    let sc = Scenario {
        name: "it-classes".into(),
        n: 0,
        m: 128,
        capacity: CapacityDist::Constant { cap: 16 },
        slack_factor: None,
        placement: Placement::Random,
        classes: vec![
            ClassSpec::Latency {
                threshold: 0.5,
                count: 100,
            },
            ClassSpec::Latency {
                threshold: 1.0,
                count: 300,
            },
        ],
    };
    let (inst, state) = sc.build(4).unwrap();
    let proto = ThresholdLevels::new(2);
    let out = run(&inst, state, &proto, RunConfig::new(4, 100_000));
    assert!(out.converged);
    for u in inst.users() {
        assert!(out.state.is_satisfied(&inst, u));
    }
}

#[test]
fn eligibility_pipeline_flow_checked() {
    let sc = Scenario {
        name: "it-elig".into(),
        n: 0,
        m: 64,
        capacity: CapacityDist::UniformRange { lo: 2, hi: 12 },
        slack_factor: None,
        placement: Placement::Random,
        classes: vec![
            ClassSpec::Eligibility {
                min_speed: 6.0,
                count: 50,
            },
            ClassSpec::Eligibility {
                min_speed: 1.0,
                count: 100,
            },
        ],
    };
    // Some seeds may be infeasible (flow-checked): find a feasible one and
    // run it end to end.
    let mut ran = false;
    for seed in 0..20 {
        match sc.build(seed) {
            Ok((inst, state)) => {
                let out = run(
                    &inst,
                    state,
                    &SlackDamped::default(),
                    RunConfig::new(seed, 200_000),
                );
                if out.converged {
                    assert!(out.state.is_legal(&inst));
                    ran = true;
                    break;
                }
            }
            Err(ScenarioError::Infeasible(_)) => continue,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(ran, "no feasible seed converged");
}

use qoslb::workload::ScenarioError;

#[test]
fn churn_pipeline() {
    use qoslb::engine::{run_with_churn, ChurnConfig, Executor};
    let (inst, _) = standard(1024, 5);
    let legal = greedy_assign(&inst).unwrap();
    let out = run_with_churn(
        &inst,
        legal,
        &SlackDamped::default(),
        ChurnConfig {
            seed: 5,
            fraction: 0.2,
            episodes: 3,
            max_rounds_per_episode: 10_000,
            executor: Executor::Dense,
        },
    );
    assert!(out.all_recovered);
    assert!(out.state.is_legal(&inst));
}

#[test]
fn open_system_pipeline() {
    use qoslb::engine::{run_open_system, OpenConfig};
    let out = run_open_system(
        &[10u32; 32],
        512,
        &SlackDamped::default(),
        OpenConfig::new(3, 200, 4.0, 0.05).with_warmup(50),
    );
    // offered load ρ = 4 / (0.05 · 320) = 0.25: almost nobody unsatisfied
    assert!(out.mean_active > 40.0);
    assert!(out.mean_unsatisfied_frac < 0.05);
    assert_eq!(out.series.len(), 200);
}

#[test]
fn lossy_link_pipeline() {
    let (inst, state) = standard(512, 21);
    let out = run(
        &inst,
        state,
        &SlackDamped::default(),
        RunConfig::new(21, 100_000).with_staleness(0, 0.5),
    );
    assert!(out.converged);
    assert!(out.state.is_legal(&inst));
}

#[test]
fn weighted_pipeline() {
    use qoslb::core::potential::overload_potential;
    use qoslb::core::weighted::WeightedInstance;
    let inst = WeightedInstance::new(vec![20; 64], vec![3; 256]).unwrap(); // γ = 1.67
    let crowd = State::all_on(&inst, ResourceId(0));
    let out = run(
        &inst,
        crowd,
        &SlackDamped::default(),
        RunConfig::new(4, 100_000),
    );
    assert!(out.converged);
    assert_eq!(overload_potential(inst.instance(), &out.state), 0);
    assert_eq!(out.weight_moved, out.migrations * 3);
}

#[test]
fn scenario_json_round_trips_through_build() {
    let sc = Scenario::single_class(
        "json",
        256,
        32,
        CapacityDist::Bimodal {
            small: 2,
            large: 50,
            frac_large: 0.2,
        },
        1.5,
        Placement::Random,
    );
    let back = Scenario::from_json(&sc.to_json()).unwrap();
    let (i1, s1) = sc.build(8).unwrap();
    let (i2, s2) = back.build(8).unwrap();
    assert_eq!(i1, i2);
    assert_eq!(s1, s2);
}
