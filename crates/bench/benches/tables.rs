//! One Criterion group per paper table/figure: times the core measurement
//! loop of every experiment (quick scale). `bench_eN_*` regenerates the
//! numbers behind table/figure N's rows; wall-clock regressions here mean
//! the corresponding experiment path got slower.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qlb_bench::{standard_pair, standard_scenario};
use qlb_core::{
    best_response_run, BlindUniform, ConditionalUniform, ResourceId, SlackDamped,
    SlackDampedCapacitySampling, State, ThresholdLevels,
};
use qlb_engine::{perturb_uniform, run, run_observed, Executor, RunConfig, Trace};
use qlb_workload::{CapacityDist, ClassSpec, Placement, Scenario};
use std::hint::black_box;

const N: usize = 1 << 10;

fn bench_e1_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_scaling");
    for e in [8u32, 10, 12] {
        let n = 1usize << e;
        let (inst, state) = standard_pair(n, 1);
        g.bench_function(format!("n{n}"), |b| {
            b.iter_batched(
                || state.clone(),
                |s| {
                    black_box(run(
                        &inst,
                        s,
                        &SlackDamped::default(),
                        RunConfig::new(1, 100_000),
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e2_slack(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_slack");
    for gamma in [1.05f64, 1.25, 2.0] {
        let sc = Scenario::single_class(
            "e2",
            N,
            N / 8,
            CapacityDist::Constant { cap: 8 },
            gamma,
            Placement::Hotspot,
        );
        let (inst, state) = sc.build(1).unwrap();
        g.bench_function(format!("gamma{gamma}"), |b| {
            b.iter_batched(
                || state.clone(),
                |s| {
                    black_box(run(
                        &inst,
                        s,
                        &SlackDamped::default(),
                        RunConfig::new(1, 1_000_000),
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e3_potential(c: &mut Criterion) {
    let (inst, state) = standard_pair(N, 1);
    c.bench_function("e3_potential_trace", |b| {
        b.iter_batched(
            || state.clone(),
            |s| {
                let mut trace = Trace::new(&inst, &s);
                let cfg = RunConfig::new(1, 100_000);
                let out = run_observed(&inst, s, &SlackDamped::default(), cfg, &mut trace);
                black_box((out, trace))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_e4_herding(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_herding");
    let n = 1 << 9;
    let sc = Scenario::single_class(
        "e4",
        n,
        (n as f64 * 1.05 / 2.0).ceil() as usize,
        CapacityDist::Constant { cap: 2 },
        1.05,
        Placement::Hotspot,
    );
    let (inst, state) = sc.build(0).unwrap();
    g.bench_function("blind", |b| {
        b.iter_batched(
            || state.clone(),
            |s| black_box(run(&inst, s, &BlindUniform, RunConfig::new(0, 500))),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("conditional", |b| {
        b.iter_batched(
            || state.clone(),
            |s| black_box(run(&inst, s, &ConditionalUniform, RunConfig::new(0, 500))),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("damped", |b| {
        b.iter_batched(
            || state.clone(),
            |s| {
                black_box(run(
                    &inst,
                    s,
                    &SlackDamped::default(),
                    RunConfig::new(0, 500),
                ))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_e5_skew(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_skew");
    let sc = Scenario::single_class(
        "e5",
        N,
        N / 8,
        CapacityDist::Zipf {
            alpha: 1.0,
            max_cap: (N / 4) as u32,
        },
        1.25,
        Placement::Hotspot,
    );
    let (inst, state) = sc.build(1).unwrap();
    g.bench_function("uniform_sampling", |b| {
        b.iter_batched(
            || state.clone(),
            |s| {
                black_box(run(
                    &inst,
                    s,
                    &SlackDamped::default(),
                    RunConfig::new(1, 1_000_000),
                ))
            },
            BatchSize::SmallInput,
        )
    });
    let prop = SlackDampedCapacitySampling::new(&inst);
    g.bench_function("capacity_sampling", |b| {
        b.iter_batched(
            || state.clone(),
            |s| black_box(run(&inst, s, &prop, RunConfig::new(1, 1_000_000))),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_e6_churn(c: &mut Criterion) {
    let (inst, _) = standard_pair(N, 1);
    let legal = qlb_core::greedy_assign(&inst).unwrap();
    c.bench_function("e6_churn_episode", |b| {
        b.iter_batched(
            || legal.clone(),
            |mut s| {
                perturb_uniform(&inst, &mut s, 0.1, 7);
                black_box(run(
                    &inst,
                    s,
                    &SlackDamped::default(),
                    RunConfig::new(7, 100_000),
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_e7_async(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_async");
    g.sample_size(10);
    let n = 1 << 9;
    let (inst, state) = standard_pair(n, 1);
    for d in [0u64, 4] {
        g.bench_function(format!("delay{d}"), |b| {
            b.iter_batched(
                || state.clone(),
                |s| {
                    black_box(run(
                        &inst,
                        s,
                        &SlackDamped::default(),
                        RunConfig::new(1, 200_000).with_staleness(d, 0.0),
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e8_classes(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_classes");
    for k in [2usize, 4] {
        let n = 1 << 9;
        let sc = Scenario {
            name: format!("e8-k{k}"),
            n: 0,
            m: n / 4,
            capacity: CapacityDist::Constant { cap: 16 },
            slack_factor: None,
            placement: Placement::Hotspot,
            classes: (0..k)
                .map(|i| ClassSpec::Latency {
                    threshold: (i as f64 + 1.0) / 2.0,
                    count: n / k,
                })
                .collect(),
        };
        let (inst, state) = sc.build(1).unwrap();
        let proto = ThresholdLevels::new(k as u32);
        g.bench_function(format!("levels_k{k}"), |b| {
            b.iter_batched(
                || state.clone(),
                |s| black_box(run(&inst, s, &proto, RunConfig::new(1, 1_000_000))),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e9_migrations(c: &mut Criterion) {
    let (inst, state) = standard_pair(N, 1);
    c.bench_function("e9_best_response", |b| {
        b.iter_batched(
            || state.clone(),
            |s| black_box(best_response_run(&inst, s, (N as u64) * 4)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_e10_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_threads");
    g.sample_size(10);
    let n = 1 << 14;
    let (inst, state) = standard_pair(n, 1);
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("threads{threads}"), |b| {
            b.iter_batched(
                || state.clone(),
                |s| {
                    black_box(run(
                        &inst,
                        s,
                        &SlackDamped::default(),
                        RunConfig::new(1, 100_000).with_executor(Executor::Threaded(threads)),
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e11_flow(c: &mut Criterion) {
    // feasibility oracle on a moderately sized eligibility instance
    let kk = 4usize;
    let m = 256usize;
    let mut tbl = vec![0u32; kk * m];
    let mut seedgen = 0xE11u64;
    for r in 0..m {
        let cap = 1 + (qlb_rng::mix64(seedgen) % 16) as u32;
        seedgen = seedgen.wrapping_add(1);
        for k in 0..kk {
            if qlb_rng::mix64(seedgen ^ (k as u64)) % 10 < 7 {
                tbl[k * m + r] = cap;
            }
        }
    }
    let sizes = vec![200usize; kk];
    c.bench_function("e11_flow_oracle", |b| {
        b.iter(|| black_box(qlb_flow::flow_feasible(&sizes, &tbl, m)))
    });
}

fn bench_e12_fairness(c: &mut Criterion) {
    let (inst, state) = standard_pair(N, 1);
    c.bench_function("e12_user_times", |b| {
        b.iter_batched(
            || state.clone(),
            |s| {
                let mut trace = Trace::with_settling_times(&inst, &s);
                let cfg = RunConfig::new(1, 100_000);
                let out = run_observed(&inst, s, &SlackDamped::default(), cfg, &mut trace);
                black_box((out, trace))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_scenario_build(c: &mut Criterion) {
    let sc = standard_scenario(N);
    c.bench_function("scenario_build", |b| {
        b.iter(|| black_box(sc.build(3).unwrap()))
    });
    let _ = State::all_on(&standard_pair(64, 0).0, ResourceId(0)); // keep imports honest
}

fn bench_e13_weighted(c: &mut Criterion) {
    use qlb_core::weighted::WeightedInstance;
    let inst = WeightedInstance::new(vec![10; 128], vec![2; 512]).unwrap(); // γ = 1.25
    let state = State::all_on(&inst, ResourceId(0));
    c.bench_function("e13_weighted_run", |b| {
        b.iter_batched(
            || state.clone(),
            |s| {
                black_box(run(
                    &inst,
                    s,
                    &SlackDamped::default(),
                    RunConfig::new(1, 100_000),
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_e14_open(c: &mut Criterion) {
    use qlb_engine::{run_open_system, OpenConfig};
    let caps = vec![10u32; 64];
    c.bench_function("e14_open_system_200_rounds", |b| {
        b.iter(|| {
            black_box(run_open_system(
                &caps,
                1024,
                &SlackDamped::default(),
                OpenConfig::new(1, 200, 8.0, 0.05).with_warmup(50),
            ))
        })
    });
}

fn bench_e15_damping(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15_damping");
    let (inst, state) = standard_pair(N, 1);
    for beta in [0.5f64, 1.0, 2.0] {
        let proto = SlackDamped::with_damping(beta);
        g.bench_function(format!("beta{beta}"), |b| {
            b.iter_batched(
                || state.clone(),
                |s| black_box(run(&inst, s, &proto, RunConfig::new(1, 100_000))),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e16_loss(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16_loss");
    g.sample_size(10);
    let n = 1 << 9;
    let (inst, state) = standard_pair(n, 1);
    for p in [0.0f64, 0.5] {
        g.bench_function(format!("loss{p}"), |b| {
            b.iter_batched(
                || state.clone(),
                |s| {
                    black_box(run(
                        &inst,
                        s,
                        &SlackDamped::default(),
                        RunConfig::new(1, 200_000).with_staleness(0, p),
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e17_topology(c: &mut Criterion) {
    use qlb_topo::{Graph, GraphDiffusion};
    let mut g = c.benchmark_group("e17_topology");
    g.sample_size(10);
    let m = 64usize;
    let n = m * 8;
    let inst = qlb_core::Instance::uniform(n, m, 10).unwrap();
    let state = State::all_on(&inst, ResourceId(0));
    for (name, graph) in [("ring", Graph::ring(m)), ("torus", Graph::torus(8, 8))] {
        let proto = GraphDiffusion::new(graph);
        g.bench_function(name, |b| {
            b.iter_batched(
                || state.clone(),
                |s| black_box(run(&inst, s, &proto, RunConfig::new(1, 1_000_000))),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_e18_exact(c: &mut Criterion) {
    c.bench_function("e18_exact_chain_3x4_n7", |b| {
        b.iter(|| black_box(qlb_analysis::exact_expected_rounds(vec![4, 4, 4], 7)))
    });
}

fn bench_e19_participation(c: &mut Criterion) {
    use qlb_core::PartialParticipation;
    let (inst, state) = standard_pair(N, 1);
    let proto = PartialParticipation::new(SlackDamped::default(), 0.25);
    c.bench_function("e19_participation_quarter", |b| {
        b.iter_batched(
            || state.clone(),
            |s| black_box(run(&inst, s, &proto, RunConfig::new(1, 1_000_000))),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    tables,
    bench_e1_scaling,
    bench_e2_slack,
    bench_e3_potential,
    bench_e4_herding,
    bench_e5_skew,
    bench_e6_churn,
    bench_e7_async,
    bench_e8_classes,
    bench_e9_migrations,
    bench_e10_threads,
    bench_e11_flow,
    bench_e12_fairness,
    bench_e13_weighted,
    bench_e14_open,
    bench_e15_damping,
    bench_e16_loss,
    bench_e17_topology,
    bench_e18_exact,
    bench_e19_participation,
    bench_scenario_build,
);
criterion_main!(tables);
