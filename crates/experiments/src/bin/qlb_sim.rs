//! `qlb-sim` — run one scenario from a JSON file (or a built-in preset)
//! with a chosen protocol and executor, and print the outcome.
//!
//! The "downstream adoption" tool: simulate *your* fleet without writing
//! Rust.
//!
//! ```text
//! qlb-sim --preset flash-crowd                 # built-in demo scenario
//! qlb-sim --scenario fleet.json --seed 7       # your scenario
//! qlb-sim --scenario fleet.json --protocol conditional --max-delay 4 --loss 0.5
//! qlb-sim --emit-preset > fleet.json           # starting template
//! ```

use qlb_core::weighted::WeightedInstance;
use qlb_core::{
    BlindUniform, ClassId, ConditionalUniform, Instance, Protocol, SlackDamped,
    SlackDampedCapacitySampling, State, ThresholdLevels,
};
use qlb_engine::{run_observed, run_open_system_observed, Executor, OpenConfig, RunConfig, Trace};
use qlb_obs::{replay::Summary, NoopSink, Sink, StreamSink};
use qlb_stats::sparkline_fit;
use qlb_topo::{Graph, GraphDiffusion};
use qlb_workload::{CapacityDist, Placement, Scenario};
use std::io::{BufWriter, Write};
use std::process::exit;

// Counting allocator so `--mem-summary` can report the process high-water
// mark; when the flag is absent the bookkeeping is four relaxed atomics
// per allocation — noise for a CLI run.
#[global_allocator]
static GLOBAL: qlb_obs::CountingAlloc = qlb_obs::CountingAlloc;

fn preset() -> Scenario {
    Scenario::single_class(
        "flash-crowd",
        8192,
        1024,
        CapacityDist::Bimodal {
            small: 4,
            large: 60,
            frac_large: 0.1,
        },
        1.25,
        Placement::Hotspot,
    )
}

/// The flags `--help` documents that take a value.
const VALUE_FLAGS: [&str; 18] = [
    "--scenario",
    "--preset",
    "--seed",
    "--protocol",
    "--driver",
    "--executor",
    "--threads",
    "--max-rounds",
    "--max-delay",
    "--loss",
    "--topology",
    "--rounds",
    "--arrivals-per-round",
    "--departure-prob",
    "--weight-max",
    "--metrics-out",
    "--topk-resources",
    "--shard-timing",
];

/// The flags `--help` documents that take no value.
const SWITCHES: [&str; 3] = ["--emit-preset", "--metrics-summary", "--mem-summary"];

/// Reject any argument `--help` does not document, and a value flag
/// without its value, instead of silently running something else.
fn check_args(args: &[String]) {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            if i + 1 >= args.len() {
                eprintln!("{a} needs a value; see qlb-sim --help");
                exit(2);
            }
            i += 2;
        } else if SWITCHES.contains(&a) {
            i += 1;
        } else {
            eprintln!("unknown argument {a}; see qlb-sim --help");
            exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    check_args(&args);
    if args.iter().any(|a| a == "--emit-preset") {
        println!("{}", preset().to_json());
        return;
    }

    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let scenario = if let Some(path) = get("--scenario") {
        Scenario::from_path(&path).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        })
    } else if let Some(name) = get("--preset") {
        if name != "flash-crowd" {
            eprintln!("unknown preset {name}; the built-in preset is flash-crowd");
            exit(2);
        }
        preset()
    } else {
        eprintln!("need --scenario FILE or --preset flash-crowd");
        exit(2);
    };

    let seed: u64 = get("--seed").map_or(0, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --seed");
            exit(2)
        })
    });
    let max_rounds: u64 = get("--max-rounds").map_or(100_000, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --max-rounds");
            exit(2)
        })
    });

    let (inst, state) = scenario.build(seed).unwrap_or_else(|e| {
        eprintln!("scenario infeasible or invalid: {e}");
        exit(1);
    });

    // Driver: which engine loops the rounds (closed | open | weighted).
    let driver = get("--driver").unwrap_or_else(|| "closed".into());
    if !["closed", "open", "weighted"].contains(&driver.as_str()) {
        eprintln!("unknown driver {driver}; choose closed | open | weighted");
        exit(2);
    }
    // A topology runs graph diffusion, on the closed driver only: it acts
    // while satisfied, so it would move the open driver's parked users, and
    // the weighted driver takes its protocol from `--protocol` alone.
    if driver != "closed" && get("--topology").is_some() {
        eprintln!("--topology cannot run on the {driver} driver: graph diffusion runs on the closed driver only");
        exit(2);
    }

    // Optional topology restriction: users only probe graph neighbours
    // (forces the diffusion kernel, which handles sparse graphs).
    let topology = get("--topology").map(|t| {
        let m = inst.num_resources();
        match t.as_str() {
            "ring" => Graph::ring(m),
            "torus" => {
                let side = (m as f64).sqrt() as usize;
                if side * side != m {
                    eprintln!("--topology torus needs a square resource count (m = {m})");
                    exit(2);
                }
                Graph::torus(side, side)
            }
            "complete" => Graph::complete(m),
            other => {
                eprintln!("unknown topology {other}; choose ring | torus | complete");
                exit(2);
            }
        }
    });

    let proto_name = get("--protocol").unwrap_or_else(|| "slack-damped".into());
    let proto: Box<dyn Protocol> = if let Some(graph) = topology {
        println!(
            "topology: {} vertices, mean degree {:.1}, diameter {:?} (graph-diffusion kernel)",
            graph.num_vertices(),
            graph.mean_degree(),
            graph.diameter()
        );
        Box::new(GraphDiffusion::new(graph))
    } else {
        match proto_name.as_str() {
            "blind" => Box::new(BlindUniform),
            "conditional" => Box::new(ConditionalUniform),
            "slack-damped" => Box::new(SlackDamped::default()),
            "capacity-sampling" => Box::new(SlackDampedCapacitySampling::new(&inst)),
            "levels" => Box::new(ThresholdLevels::new(inst.num_classes() as u32)),
            other => {
                eprintln!(
                    "unknown protocol {other}; choose blind | conditional | slack-damped | \
                     capacity-sampling | levels"
                );
                exit(2);
            }
        }
    };

    println!(
        "scenario '{}': n = {}, m = {}, classes = {}, seed {seed}, protocol {}",
        scenario.name,
        inst.num_users(),
        inst.num_resources(),
        inst.num_classes(),
        proto.name(),
    );

    // Observability: --metrics-out streams the run's JSONL trace to FILE
    // while the run executes (tail it with qlb-trace --follow), and
    // --metrics-summary replays the trace into a human-readable digest
    // (streamed into memory when no file is named). Without either the run
    // uses the NoopSink path (zero overhead).
    let metrics_out = get("--metrics-out");
    let metrics_summary = args.iter().any(|a| a == "--metrics-summary");
    // Profiling knobs: sample the k hottest resources at each round end and
    // toggle the per-shard compute/wake profile of pooled rounds. Both ride
    // on whichever sink is active; with the NoopSink they cost nothing.
    let topk_resources: usize = get("--topk-resources").map_or(0, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --topk-resources");
            exit(2)
        })
    });
    let shard_timing = match get("--shard-timing").as_deref() {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            eprintln!("bad --shard-timing {other}; choose on | off");
            exit(2);
        }
    };

    // Executor: how one round is decided (dense | sparse | threaded |
    // sparse-threaded), orthogonal to the driver — every driver accepts
    // every executor.
    let exec_name = get("--executor").unwrap_or_else(|| "dense".into());
    let threads: usize = get("--threads").map_or(4, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --threads");
            exit(2)
        })
    });
    if threads == 0 {
        eprintln!("--threads must be at least 1");
        exit(2);
    }
    let exec = match exec_name.as_str() {
        "dense" => Executor::Dense,
        "sparse" => Executor::Sparse,
        "threaded" => Executor::Threaded(threads),
        "sparse-threaded" => Executor::SparseThreaded(threads),
        other => {
            eprintln!(
                "unknown executor {other}; choose dense | sparse | threaded | sparse-threaded"
            );
            exit(2);
        }
    };
    let max_delay: u64 = get("--max-delay").map_or(0, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --max-delay {s}; need a round count");
            exit(2)
        })
    });
    let loss: f64 = get("--loss").map_or(0.0, |s| match s.parse() {
        Ok(p) if (0.0..=1.0).contains(&p) => p,
        _ => {
            eprintln!("bad --loss {s}; need a probability in [0, 1]");
            exit(2)
        }
    });
    let stale = max_delay > 0 || loss > 0.0;
    if stale && driver == "open" {
        eprintln!("--max-delay and --loss need the closed or weighted driver");
        exit(2);
    }
    if stale && exec != Executor::Dense {
        println!(
            "note: stale observers decide every user each round, sequentially; \
             the executor does not apply"
        );
    }
    let run_cfg = RunConfig::new(seed, max_rounds)
        .with_executor(exec)
        .with_topk_resources(topk_resources)
        .with_shard_timing(shard_timing)
        .with_staleness(max_delay, loss);
    // Validate the sparse-soundness fallback up front and announce the
    // decision rather than leaving the silent in-engine fallback as the
    // only record of it. (The weighted driver runs slack-damped or
    // conditional, neither of which acts while satisfied, so its sparse
    // path never falls back.)
    let sparse_requested = matches!(exec, Executor::Sparse | Executor::SparseThreaded(_));
    if sparse_requested && driver != "weighted" && proto.acts_when_satisfied() {
        println!(
            "note: protocol '{}' acts while satisfied — the sparse active-set executor \
             is unsound for it; falling back to the dense executor (same trajectory)",
            proto.name()
        );
    }
    let weight_max: u32 = get("--weight-max").map_or(4, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --weight-max");
            exit(2)
        })
    });
    if weight_max == 0 {
        eprintln!("--weight-max must be at least 1");
        exit(2);
    }
    let open_rounds: u64 = get("--rounds").map_or(2_000, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --rounds");
            exit(2)
        })
    });
    let open_cfg = OpenConfig::new(
        seed,
        open_rounds,
        get("--arrivals-per-round").map_or(4.0, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad --arrivals-per-round");
                exit(2)
            })
        }),
        get("--departure-prob").map_or(0.02, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad --departure-prob");
                exit(2)
            })
        }),
    )
    .with_warmup(open_rounds / 4)
    .with_executor(exec)
    .with_topk_resources(topk_resources)
    .with_shard_timing(shard_timing);

    let outcome = if metrics_out.is_some() || metrics_summary {
        let mut mem = Vec::new();
        let writer: Box<dyn Write + '_> = match metrics_out.as_deref() {
            Some(path) => {
                let file = std::fs::File::create(path).unwrap_or_else(|e| {
                    eprintln!("cannot create {path}: {e}");
                    exit(2);
                });
                Box::new(BufWriter::new(file))
            }
            None => Box::new(&mut mem),
        };
        let mut sink = StreamSink::new(writer);
        let outcome = simulate(
            &inst,
            state,
            proto.as_ref(),
            &driver,
            &proto_name,
            weight_max,
            run_cfg,
            open_cfg,
            &mut sink,
        );
        if let Err(e) = sink.finish() {
            eprintln!("error streaming metrics: {e}");
            exit(2);
        }
        if let Some(path) = metrics_out.as_deref() {
            println!("metrics streamed to {path}");
        }
        if metrics_summary {
            // replay the streamed bytes — re-read from the file when there
            // is one, so the digest sees what any offline consumer
            // (qlb-trace) would
            let text = match metrics_out.as_deref() {
                Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot re-read {path}: {e}");
                    exit(2);
                }),
                None => String::from_utf8(mem).expect("trace is UTF-8"),
            };
            match Summary::from_jsonl(&text) {
                Ok(summary) => print!("{}", summary.render()),
                Err(e) => {
                    eprintln!("internal error replaying metrics: {e}");
                    exit(2);
                }
            }
        }
        outcome
    } else {
        simulate(
            &inst,
            state,
            proto.as_ref(),
            &driver,
            &proto_name,
            weight_max,
            run_cfg,
            open_cfg,
            &mut NoopSink,
        )
    };
    if args.iter().any(|a| a == "--mem-summary") {
        let n = inst.num_users().max(1);
        let peak = qlb_obs::mem::peak_bytes();
        println!(
            "memory: peak {peak} bytes ({:.2} bytes/user over n = {}), {} allocations",
            peak as f64 / n as f64,
            inst.num_users(),
            qlb_obs::mem::total_allocs(),
        );
    }
    if let Some((converged, rounds, migrations)) = outcome {
        report(converged, rounds, migrations);
    }
}

/// Run the selected driver with the chosen sink monomorphized in, print
/// its driver-specific digest, and return `(converged, rounds,
/// migrations)` — or `None` for the open-system driver, which reports
/// steady-state statistics instead of a convergence verdict. The closed
/// and weighted drivers run `run_cfg`, the open driver `open_cfg`; both
/// carry the same executor.
#[allow(clippy::too_many_arguments)]
fn simulate<S: Sink>(
    inst: &Instance,
    state: State,
    proto: &dyn Protocol,
    driver: &str,
    proto_name: &str,
    weight_max: u32,
    run_cfg: RunConfig,
    open_cfg: OpenConfig,
    sink: &mut S,
) -> Option<(bool, u64, u64)> {
    match driver {
        "closed" => {
            let mut trace = Trace::new(inst, &state);
            let out = run_observed(inst, state, proto, run_cfg, &mut (&mut trace, sink));
            let unsat: Vec<f64> = trace.rounds.iter().map(|r| r.unsatisfied as f64).collect();
            println!("unsatisfied over rounds: {}", sparkline_fit(&unsat, 60));
            Some((out.converged, out.rounds, out.migrations))
        }
        "open" => {
            // the scenario supplies the fleet shape; the driver runs it as
            // an open system (arrivals/departures via the parking trick)
            if inst.num_classes() != 1 {
                eprintln!("--driver open needs a single-class scenario");
                exit(2);
            }
            let caps = inst.cap_row(ClassId(0)).to_vec();
            let out = run_open_system_observed(&caps, inst.num_users(), proto, open_cfg, sink);
            let unsat: Vec<f64> = out.series.iter().map(|s| s.unsatisfied as f64).collect();
            println!("unsatisfied over rounds: {}", sparkline_fit(&unsat, 60));
            println!(
                "open system over {} rounds: mean active {:.1}, mean unsatisfied fraction \
                 {:.4}, worst {:.4}",
                open_cfg.rounds,
                out.mean_active,
                out.mean_unsatisfied_frac,
                out.max_unsatisfied_frac
            );
            None
        }
        "weighted" => {
            // Lift the scenario into the weighted model: user i gets demand
            // 1 + (i mod --weight-max), and capacities scale by the mean
            // demand so the capacity margin γ of the unit scenario carries
            // over. The placement is reused verbatim.
            if inst.num_classes() != 1 {
                eprintln!("--driver weighted needs a single-class scenario");
                exit(2);
            }
            let n = inst.num_users();
            let weights: Vec<u32> = (0..n).map(|i| 1 + (i as u32 % weight_max)).collect();
            let total_w: u64 = weights.iter().map(|&w| w as u64).sum();
            let caps: Vec<u32> = inst
                .cap_row(ClassId(0))
                .iter()
                .map(|&c| {
                    let lifted = ((c as u64) * total_w).div_ceil(n as u64);
                    u32::try_from(lifted).unwrap_or_else(|_| {
                        eprintln!("weighted lift failed: capacity {lifted} exceeds u32::MAX");
                        exit(2);
                    })
                })
                .collect();
            let winst = WeightedInstance::new(caps, weights).unwrap_or_else(|e| {
                eprintln!("weighted lift failed: {e}");
                exit(2);
            });
            let wstate = State::new(&winst, state.assignment().to_vec()).unwrap_or_else(|e| {
                eprintln!("weighted lift failed: {e}");
                exit(2);
            });
            let (damped, conditional) = (SlackDamped::default(), ConditionalUniform);
            let wproto: &dyn Protocol = match proto_name {
                "slack-damped" => &damped,
                "conditional" => &conditional,
                other => {
                    eprintln!(
                        "--driver weighted supports slack-damped | conditional (got {other})"
                    );
                    exit(2);
                }
            };
            let out = run_observed(&winst, wstate, wproto, run_cfg, sink);
            println!(
                "weighted model: total demand {total_w}, weight moved {}",
                out.weight_moved
            );
            Some((out.converged, out.rounds, out.migrations))
        }
        other => unreachable!("driver {other} is checked before the run"),
    }
}

fn report(converged: bool, rounds: u64, migrations: u64) {
    if converged {
        println!("CONVERGED in {rounds} rounds with {migrations} migrations");
    } else {
        println!("NOT converged within the budget ({rounds} rounds, {migrations} migrations)");
        exit(1);
    }
}

fn print_help() {
    println!(
        "qlb-sim — run a QoS load-balancing scenario\n\n\
         USAGE:\n  qlb-sim --scenario FILE [--seed N] [--protocol P] [--driver D] [--executor E]\n          \
         [--threads T] [--max-rounds N] [--max-delay D] [--loss P]\n  \
         qlb-sim --preset flash-crowd\n  qlb-sim --emit-preset > fleet.json\n\n\
         PROTOCOLS: blind | conditional | slack-damped (default) | capacity-sampling | levels\n\
         TOPOLOGY:  --topology ring | torus | complete (neighbour-restricted diffusion;\n           \
         closed driver only)\n\
         DRIVERS:   closed (default) | open | weighted — which loop runs the rounds\n\
         EXECUTORS: dense (default) | sparse | threaded | sparse-threaded — how one round\n           \
         is decided; every driver accepts every executor, and every executor\n           \
         produces the same trajectory bit for bit. --threads N (default 4) sizes\n           \
         the persistent worker pool for the threaded executors.\n\
         STALENESS: --max-delay D (each user decides on loads up to D rounds old) and\n           \
         --loss P (each of the 4×2 snapshot slices is lost per round with\n           \
         probability P, leaving the previous round's loads); closed and\n           \
         weighted drivers, decided sequentially whatever the executor\n\
         OPEN:      --rounds N --arrivals-per-round X --departure-prob P (open-system driver;\n           \
         the scenario supplies capacities and the user pool)\n\
         WEIGHTED:  --weight-max W (demands cycle 1..=W; capacities rescale to keep γ)\n\
         METRICS:   --metrics-out FILE.jsonl (stream events/counters/timers as JSONL while\n           \
         the run executes, flushed after every round; tail it with\n           \
         qlb-trace --follow)\n           \
         --metrics-summary (replay the trace into a digest on stdout)\n\
         PROFILING: --topk-resources K (sample the K hottest resources each round; default 0)\n           \
         --shard-timing on|off (per-shard compute/wake profile of pooled rounds;\n           \
         default on) — inspect both with qlb-trace profile FILE.jsonl\n           \
         --mem-summary (print the process peak allocation and bytes/user at exit)"
    );
}
