//! `sim-*` workloads: `qlb_engine::run` to a legal state on a fleet of
//! 125 000 users, over a seed list drawn from a recorded pool.
//!
//! The untraced run calls `qlb_engine::run` and times it whole. The traced
//! run drives the same public calls the sparse pooled executor makes, in
//! the executor's order, with a clock around each layer call; it must end
//! on the same trajectory as the untraced run.

use crate::report::{median, peak_rss_mb, percentile, waterfall_row, Outcome, Phase};
use crate::Scale;
use qlb_core::step::decide_users_into;
use qlb_core::{
    ActiveIndex, Instance, Move, Protocol, RoundView, ShardDeltas, ShardScratch, SlackDamped,
    State, UserId,
};
use qlb_engine::{shard_chunk, shards_for, Executor, RunConfig, WorkerPool};
use qlb_rng::{Rng64, SplitMix64};
use qlb_workload::{CapacityDist, Placement, Scenario};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Engine pool threads (the host has 2 cores).
pub const THREADS: usize = 2;
/// Round budget; every pool seed converges far below it.
const MAX_ROUNDS: u64 = 1_000_000;
/// The engine's crossover below which a sparse round decides on the
/// coordinator instead of dispatching to the pool (`SPARSE_POOL_MIN_ACTIVE`
/// in `qlb_engine::run`); the traced replica must choose identically.
const POOL_MIN_ACTIVE: usize = 1024;
/// Recorded scenario seeds; `--seed` picks the run's seed list from these.
const POOL: [u64; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// Recorded trajectories: `workload scale seed rounds migrations digest`.
const EXPECTED: &str = include_str!("../expected.txt");

/// One `sim-*` workload.
pub struct Sim {
    pub name: &'static str,
    capacity: CapacityDist,
    gamma: f64,
    placement: Placement,
}

pub const CROWDED: Sim = Sim {
    name: "sim-crowded",
    capacity: CapacityDist::Bimodal {
        small: 4,
        large: 60,
        frac_large: 0.1,
    },
    gamma: 1.25,
    placement: Placement::Hotspot,
};

pub const TIGHT: Sim = Sim {
    name: "sim-tight",
    capacity: CapacityDist::UniformRange { lo: 2, hi: 14 },
    gamma: 1.001,
    placement: Placement::Random,
};

impl Sim {
    fn scenario(&self, scale: Scale) -> Scenario {
        // Small enough that a run holds dozens of engine runs per seed,
        // so each seed's median run is the host's typical speed.
        let n = match scale {
            Scale::Full => 125_000,
            Scale::Toy => 16_000,
        };
        Scenario::single_class(
            self.name,
            n,
            n / 8,
            self.capacity,
            self.gamma,
            self.placement,
        )
    }
}

/// Seeds per list: the runs of one `--seed` take turns over these.
fn list_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Toy => 2,
    }
}

/// The run's seed list: `list_len` distinct pool seeds chosen by `seed`.
fn seed_list(seed: u64, scale: Scale) -> Vec<u64> {
    let mut pool = POOL.to_vec();
    SplitMix64::new(qlb_rng::mix64(seed)).shuffle(&mut pool);
    pool.truncate(list_len(scale));
    pool
}

/// FNV-1a over the final assignment.
pub(crate) fn digest(state: &State) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in state.assignment() {
        for b in r.0.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What a run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Trajectory {
    rounds: u64,
    migrations: u64,
    digest: u64,
}

fn expected(sim: &Sim, scale: Scale, seed: u64) -> Option<Trajectory> {
    let scale = scale.name();
    EXPECTED.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        if f.len() != 6 || f[0] != sim.name || f[1] != scale || f[2] != seed.to_string() {
            return None;
        }
        Some(Trajectory {
            rounds: f[3].parse().ok()?,
            migrations: f[4].parse().ok()?,
            digest: u64::from_str_radix(f[5], 16).ok()?,
        })
    })
}

/// Check one finished run; `None` when it is legal and on the recorded
/// trajectory.
fn check(
    sim: &Sim,
    scale: Scale,
    seed: u64,
    inst: &Instance,
    end: &End,
    how: &str,
) -> Option<String> {
    if !end.converged || !end.state.is_legal(inst) {
        return Some(format!(
            "{} seed {seed} ({how}): no legal state after {} rounds",
            sim.name, end.traj.rounds
        ));
    }
    match expected(sim, scale, seed) {
        None => Some(format!("{} seed {seed}: no recorded trajectory", sim.name)),
        Some(want) if want != end.traj => Some(format!(
            "{} seed {seed} ({how}): trajectory {:?} differs from the recorded {want:?}",
            sim.name, end.traj
        )),
        Some(_) => None,
    }
}

/// A finished run.
struct End {
    converged: bool,
    traj: Trajectory,
    state: State,
}

fn build(sc: &Scenario, seed: u64) -> (Instance, State, Duration) {
    let t = Instant::now();
    let (inst, state) = sc.build(seed).expect("benchmark scenarios are feasible");
    (inst, state, t.elapsed())
}

/// The untraced run: `qlb_engine::run` with the sparse pooled executor.
fn run_engine(inst: &Instance, state: State, seed: u64) -> (End, Duration) {
    let cfg = RunConfig::new(seed, MAX_ROUNDS).with_executor(Executor::SparseThreaded(THREADS));
    let t = Instant::now();
    let out = qlb_engine::run(inst, state, &SlackDamped::default(), cfg);
    let wall = t.elapsed();
    let traj = Trajectory {
        rounds: out.rounds,
        migrations: out.migrations,
        digest: digest(&out.state),
    };
    (
        End {
            converged: out.converged,
            traj,
            state: out.state,
        },
        wall,
    )
}

/// Per-layer totals of traced runs.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    decide_ns: u64,
    decide_calls: u64,
    decide_users: u64,
    decide_moves: u64,
    compute_ns: u64,
    forkjoin_ns: u64,
    dispatches: u64,
    build_ns: u64,
    sort_ns: u64,
    apply_ns: u64,
    converge_ns: u64,
    rounds_dense: u64,
    rounds_sparse: u64,
}

impl Layers {
    /// A pooled decide: the slowest shard is decide work on the critical
    /// path, the rest of the dispatch wall time is fork/join.
    fn pooled(&mut self, wall: u64, slowest: u64, shards: usize, users: usize) {
        let compute = slowest.min(wall);
        self.decide_ns += compute;
        self.compute_ns += compute;
        self.forkjoin_ns += wall - compute;
        self.dispatches += 1;
        self.decide_calls += shards as u64;
        self.decide_users += users as u64;
    }

    fn accounted(&self) -> u64 {
        self.decide_ns
            + self.forkjoin_ns
            + self.build_ns
            + self.sort_ns
            + self.apply_ns
            + self.converge_ns
    }
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One warm-up round's shard buffers, as the pooled dense rounds keep them.
type Slots = Vec<Mutex<(ShardDeltas, ShardScratch)>>;

/// The traced replica of the sparse pooled executor: dense pooled warm-up
/// rounds over a `RoundView` until a round's batch drops below `n / 8`,
/// then active-set rounds over an `ActiveIndex`, pooled from
/// `POOL_MIN_ACTIVE` users up.
fn run_traced(inst: &Instance, mut state: State, seed: u64, l: &mut Layers) -> End {
    let proto = SlackDamped::default();
    assert!(
        !proto.acts_when_satisfied(),
        "the sparse executor needs a lazy protocol"
    );
    let pool = WorkerPool::new(THREADS);
    let threads = pool.threads();
    let users = inst.num_users();
    let n = users.max(1);

    let t = Instant::now();
    let unsat0 = state.num_unsatisfied(inst);
    l.converge_ns += since(t);
    let mut active = (unsat0 * 8 < n).then(|| {
        let t = Instant::now();
        let index = ActiveIndex::new(inst, &state);
        l.build_ns += since(t);
        index
    });
    let mut moves: Vec<Move> = Vec::new();
    let mut sorted: Vec<UserId> = Vec::new();
    let mut warm: Option<(RoundView, Slots)> = None;
    let mut rounds = 0u64;
    let mut migrations = 0u64;
    let mut converged = unsat0 == 0;

    while !converged && rounds < MAX_ROUNDS {
        match active.as_mut() {
            Some(index) => {
                let t = Instant::now();
                index.sorted_active_into(&mut sorted);
                l.sort_ns += since(t);
                let len = sorted.len();
                if len >= POOL_MIN_ACTIVE {
                    let chunk = shard_chunk(len, threads);
                    let shards = shards_for(len, threads);
                    let (st, us, p) = (&state, &sorted, &proto);
                    let t = Instant::now();
                    let slowest = pool.decide_round_on(
                        |shard, out| {
                            let lo = (shard * chunk).min(len);
                            let hi = ((shard + 1) * chunk).min(len);
                            if lo < hi {
                                decide_users_into(inst, st, &us[lo..hi], p, seed, rounds, out);
                            }
                        },
                        &mut moves,
                        true,
                        shards,
                    );
                    l.pooled(since(t), slowest, shards, len);
                } else {
                    let t = Instant::now();
                    moves.clear();
                    decide_users_into(inst, &state, &sorted, &proto, seed, rounds, &mut moves);
                    l.decide_ns += since(t);
                    l.decide_calls += 1;
                    l.decide_users += len as u64;
                }
                let t = Instant::now();
                index.apply_moves(inst, &mut state, &moves);
                l.apply_ns += since(t);
                l.rounds_sparse += 1;
            }
            None => {
                let (view, slots) = warm.get_or_insert_with(|| {
                    let t = Instant::now();
                    let view = RoundView::new(inst, &state);
                    let slots = (0..threads)
                        .map(|_| {
                            Mutex::new((
                                ShardDeltas::new(inst.num_resources()),
                                ShardScratch::new(),
                            ))
                        })
                        .collect();
                    l.build_ns += since(t);
                    (view, slots)
                });
                let chunk = shard_chunk(users, threads);
                let shards = shards_for(users, threads);
                let (v, s, p) = (&*view, &*slots, &proto);
                let t = Instant::now();
                let slowest = pool.decide_round_on(
                    |shard, out| {
                        let lo = (shard * chunk).min(users);
                        let hi = ((shard + 1) * chunk).min(users);
                        if lo < hi {
                            let mut slot = s[shard].lock().expect("shard slot lock");
                            let (deltas, scratch) = &mut *slot;
                            v.decide_shard_into(
                                inst, p, seed, rounds, lo, hi, out, scratch, deltas,
                            );
                        }
                    },
                    &mut moves,
                    true,
                    shards,
                );
                l.pooled(since(t), slowest, shards, users);
                let t = Instant::now();
                for slot in slots.iter() {
                    view.merge_loads(&slot.lock().expect("shard slot lock").0);
                }
                view.apply_assignments(&moves);
                for slot in slots.iter() {
                    view.repair_touched(inst, &mut slot.lock().expect("shard slot lock").0);
                }
                state.apply_moves(inst, &moves);
                l.apply_ns += since(t);
                l.rounds_dense += 1;
                if moves.len() * 8 < n {
                    let t = Instant::now();
                    active = Some(ActiveIndex::new(inst, &state));
                    warm = None;
                    l.build_ns += since(t);
                }
            }
        }
        l.decide_moves += moves.len() as u64;
        migrations += moves.len() as u64;
        rounds += 1;
        let t = Instant::now();
        converged = match active.as_ref() {
            Some(index) => index.is_empty(),
            None => state.is_legal(inst),
        };
        l.converge_ns += since(t);
    }
    let traj = Trajectory {
        rounds,
        migrations,
        digest: digest(&state),
    };
    End {
        converged,
        traj,
        state,
    }
}

/// Print the recorded-trajectory lines of every pool seed.
pub fn record(sim: &Sim, scale: Scale) -> Vec<String> {
    let sc = sim.scenario(scale);
    POOL.iter()
        .map(|&seed| {
            let (inst, state, _) = build(&sc, seed);
            let (end, wall) = run_engine(&inst, state, seed);
            assert!(end.converged, "{} seed {seed} did not converge", sim.name);
            eprintln!("{} seed {seed}: {:.4} s", sim.name, wall.as_secs_f64());
            format!(
                "{} {} {seed} {} {} {:016x}",
                sim.name,
                scale.name(),
                end.traj.rounds,
                end.traj.migrations,
                end.traj.digest
            )
        })
        .collect()
}

/// Run one `sim-*` workload for about `seconds`.
pub fn run(sim: &Sim, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let sc = sim.scenario(scale);
    let seeds = seed_list(seed, scale);
    let mut out = Outcome {
        params: vec![
            ("n", sc.n.to_string()),
            ("m", sc.m.to_string()),
            ("capacity", format!("{:?}", sim.capacity)),
            ("gamma", sim.gamma.to_string()),
            ("placement", format!("{:?}", sim.placement)),
            ("protocol", "SlackDamped".into()),
            ("executor", format!("SparseThreaded({THREADS})")),
            ("seed_list", format!("{seeds:?}")),
        ],
        ..Outcome::default()
    };

    // Warm-up: one engine run on the first seed, untimed.
    let (inst, state, _) = build(&sc, seeds[0]);
    let (end, _) = run_engine(&inst, state, seeds[0]);
    out.warmup = tally(
        check(sim, scale, seeds[0], &inst, &end, "warm-up"),
        &mut out.failures,
    );
    drop((inst, end));

    // A pass is one engine run to a legal state; the seeds of the list
    // take turns until the deadline.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setups: Vec<f64> = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut runs = 0usize;
    let mut traced = Layers::default();
    let mut traced_ns = 0u64;
    let mut untraced_ns = 0u64;
    while runs < seeds.len() || Instant::now() < deadline {
        let i = runs % seeds.len();
        let s = seeds[i];
        let (inst, state, setup) = build(&sc, s);
        setups.push(setup.as_secs_f64());
        let start = trace.then(|| state.clone());
        let (end, wall) = run_engine(&inst, state, s);
        out.measured.absorb(tally(
            check(sim, scale, s, &inst, &end, "untraced"),
            &mut out.failures,
        ));
        walls[i].push(wall.as_secs_f64());
        if let Some(start) = start {
            drop(end);
            untraced_ns += wall.as_nanos() as u64;
            let t = Instant::now();
            let end = run_traced(&inst, start, s, &mut traced);
            traced_ns += since(t);
            out.measured.absorb(tally(
                check(sim, scale, s, &inst, &end, "traced"),
                &mut out.failures,
            ));
        }
        runs += 1;
    }

    // A seed's trajectory is fixed, so its runs differ only by what the
    // host does meanwhile. The median run resists a host that changes
    // speed within seconds; the fastest run did not, as the host's
    // quietest moments differed from run to run.
    let per_seed: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let converge_s: f64 = per_seed.iter().sum();
    let all: Vec<f64> = walls.concat();
    out.line(format!(
        "{}: engine runs took min {:.4} s, median {:.4} s, max {:.4} s",
        sim.name,
        percentile(&all, 0.0),
        median(&all),
        percentile(&all, 1.0)
    ));
    out.set("setup_s", median(&setups));
    out.set("pass_s", converge_s / per_seed.len() as f64);
    out.set("peak_rss_mb", peak_rss_mb());
    out.line(format!(
        "{}: pass_s {:.4} s (mean over seeds {seeds:?} of each seed's median run, {runs} runs); converge_s {converge_s:.4} s (sum of the per-seed median runs {per_seed:.4?}); setup_s {:.4} s (median of {} builds)",
        sim.name,
        out.get("pass_s"),
        out.get("setup_s"),
        setups.len()
    ));
    if trace {
        report_layers(
            &mut out,
            &traced,
            runs as f64,
            traced_ns,
            untraced_ns,
            median(&setups),
        );
    }
    out
}

/// Count one engine run as a succeeded or failed operation.
fn tally(problem: Option<String>, failures: &mut Vec<String>) -> Phase {
    let mut p = Phase {
        attempted: 1,
        ..Phase::default()
    };
    match problem {
        Some(msg) => {
            failures.push(msg);
            p.failed = 1;
        }
        None => p.succeeded = 1,
    }
    p
}

/// Per-layer metrics (per run) and the waterfall of the traced run time.
fn report_layers(
    out: &mut Outcome,
    l: &Layers,
    runs: f64,
    traced_ns: u64,
    untraced_ns: u64,
    setup_s: f64,
) {
    let per = |x: u64| x as f64 / runs;
    out.set("workload.build_ns", setup_s * 1e9);
    out.set("core.decide.ns", per(l.decide_ns));
    out.set("core.decide.calls", per(l.decide_calls));
    out.set("core.decide.users", per(l.decide_users));
    out.set("core.decide.moves", per(l.decide_moves));
    out.set(
        "core.decide.move_ratio",
        if l.decide_users > 0 {
            l.decide_moves as f64 / l.decide_users as f64
        } else {
            0.0
        },
    );
    out.set("core.index.build_ns", per(l.build_ns));
    out.set("core.index.sort_ns", per(l.sort_ns));
    out.set("core.apply.ns", per(l.apply_ns));
    // Every decided move is applied: the apply layer sees the same count.
    out.set("core.apply.moves", per(l.decide_moves));
    out.set("core.converge.ns", per(l.converge_ns));
    out.set("rounds.dense", per(l.rounds_dense));
    out.set("rounds.sparse", per(l.rounds_sparse));
    out.set("engine.pool.compute_ns", per(l.compute_ns));
    out.set("engine.pool.forkjoin_ns", per(l.forkjoin_ns));
    out.set("engine.pool.dispatches", per(l.dispatches));
    let unaccounted = traced_ns.saturating_sub(l.accounted());
    out.set("unaccounted_ns", per(unaccounted));
    out.set(
        "trace_overhead_frac",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
    );

    let total = per(traced_ns);
    out.line(format!(
        "waterfall of pass_s, one run to a legal state: traced {:.3} ms (untraced {:.3} ms, tracing overhead {:+.2} %)",
        total / 1e6,
        per(untraced_ns) / 1e6,
        100.0 * out.get("trace_overhead_frac")
    ));
    for (label, ns) in [
        ("core.decide (critical path)", l.decide_ns),
        ("engine.pool fork/join", l.forkjoin_ns),
        ("core.index build (index + view)", l.build_ns),
        ("core.index sort", l.sort_ns),
        ("core.apply", l.apply_ns),
        ("core.converge", l.converge_ns),
        ("unaccounted", unaccounted),
    ] {
        out.line(waterfall_row(label, per(ns), total));
    }
}
