//! Shared measurement kernels for the performance regression gate.
//!
//! The `sparse` and `obs` benches and the `qlb-bench-check` binary must
//! agree on *what* is measured, or the committed `BENCH_sparse.json` /
//! `BENCH_obs.json` numbers and the gate comparing against them drift
//! apart. This module is that single definition: the benches call it to
//! capture their JSON summaries (keeping their criterion report groups
//! local), and `qlb-bench-check` calls it to re-measure and compare.

use qlb_core::step::{decide_active_into, decide_range_into, decide_round_into};
use qlb_core::weighted::WeightedInstance;
use qlb_core::{
    ActiveIndex, Demands, Move, ResourceId, RoundView, ShardDeltas, ShardScratch, SlackDamped,
    State,
};
use qlb_engine::open::reference_open_run;
use qlb_engine::{
    run, run_observed, run_open_system, shard_chunk, shards_for, Executor, OpenConfig, RunConfig,
    Stepper, WorkerPool,
};
use qlb_obs::{NoopSink, Recorder};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed every regression-gated measurement runs under (also baked into the
/// committed JSON).
pub const BENCH_SEED: u64 = 7;

/// Endgame active fraction pinned by the sparse bench scenario.
pub const ACTIVE_FRAC: f64 = 0.01;

/// Mean ns per call of `f`, measured over a small wall-clock budget
/// (mirrors the criterion loop but hands the number back for the JSON
/// summary).
pub fn ns_per_call<F: FnMut()>(mut f: F, budget_ms: u64) -> f64 {
    f(); // warm-up
    let budget = Duration::from_millis(budget_ms);
    let mut total = Duration::ZERO;
    let mut iters = 0u64;
    let mut batch = 1u64;
    while total < budget {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        total += start.elapsed();
        iters += batch;
        batch = batch.saturating_mul(2).min(1 << 16);
    }
    total.as_nanos() as f64 / iters as f64
}

/// One timed call, in ms.
pub fn once_ms<F: FnMut() -> u64>(f: &mut F) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median of a sample set (destructive).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

// ---------------------------------------------------------------------
// sparse executor measurements (BENCH_sparse.json)
// ---------------------------------------------------------------------

/// One row of the sparse-executor comparison at size `n`.
#[derive(Debug, Clone)]
pub struct SparseRow {
    /// Users.
    pub n: usize,
    /// Unsatisfied users in the pinned endgame state.
    pub active: usize,
    /// Mean ns of one dense decision round over the endgame state.
    pub dense_round_ns: f64,
    /// Mean ns of one sparse (active-set) decision round, same state.
    pub sparse_round_ns: f64,
    /// Best-of-2 dense-scan full run to convergence, ms.
    pub dense_run_ms: f64,
    /// Best-of-2 sparse full run to convergence, ms.
    pub sparse_run_ms: f64,
    /// Rounds of the tight-slack (γ = 1.001) run.
    pub tight_rounds: u64,
    /// Dense-scan tight-slack run, ms.
    pub tight_dense_ms: f64,
    /// Sparse tight-slack run, ms.
    pub tight_sparse_ms: f64,
}

impl SparseRow {
    /// Dense/sparse per-round speedup in the endgame.
    pub fn speedup(&self) -> f64 {
        self.dense_round_ns / self.sparse_round_ns
    }
    /// Dense decision rounds per second.
    pub fn dense_rounds_per_sec(&self) -> f64 {
        1e9 / self.dense_round_ns
    }
    /// Sparse decision rounds per second.
    pub fn sparse_rounds_per_sec(&self) -> f64 {
        1e9 / self.sparse_round_ns
    }
    /// Dense/sparse full-run speedup under tight slack.
    pub fn tight_speedup(&self) -> f64 {
        self.tight_dense_ms / self.tight_sparse_ms
    }
}

/// Time one dense and one sparse decision round over the pinned endgame
/// state at size `n`, plus the two run-to-convergence comparisons. This is
/// the measurement committed to `BENCH_sparse.json`.
pub fn measure_sparse(n: usize, round_budget_ms: u64) -> SparseRow {
    let (inst, state) = crate::endgame_pair(n, BENCH_SEED, ACTIVE_FRAC);
    let active = state.num_unsatisfied(&inst);
    let proto = SlackDamped::default();
    let index = ActiveIndex::new(&inst, &state);
    let mut moves = Vec::new();

    let dense_round_ns = ns_per_call(
        || {
            decide_round_into(&inst, &state, &proto, BENCH_SEED, 9, &mut moves);
            black_box(moves.len());
        },
        round_budget_ms,
    );
    let sparse_round_ns = ns_per_call(
        || {
            decide_active_into(&inst, &state, &index, &proto, BENCH_SEED, 9, &mut moves);
            black_box(moves.len());
        },
        round_budget_ms,
    );

    // the full run from the hotspot start amortizes the sparse executor's
    // one-time O(n + m) index build over every round
    let (inst, start) = crate::standard_pair(n, BENCH_SEED);
    let (_, dense_run_ms, sparse_run_ms) = scan_vs_sparse(&inst, &start, 2);
    let (tight_rounds, tight_dense_ms, tight_sparse_ms) = tight_run_to_convergence(n);

    SparseRow {
        n,
        active,
        dense_round_ns,
        sparse_round_ns,
        dense_run_ms,
        sparse_run_ms,
        tight_rounds,
        tight_dense_ms,
        tight_sparse_ms,
    }
}

/// Best-of-`reps` wall times, ms, of the `Sparse` executor and of the
/// dense scan the committed dense/sparse ratios measured (`Dense` before
/// its full rounds moved to the SoA kernel), both run to convergence from
/// `start`; asserts they agree and returns (rounds, dense ms, sparse ms).
/// Not [`reference_run`](qlb_core::step::reference_run): it inlines
/// `decide_user` and so runs the same scan about 3× faster in this crate.
fn scan_vs_sparse<I: Demands>(inst: &I, start: &State, reps: usize) -> (u64, f64, f64) {
    let proto = SlackDamped::default();
    let cfg = RunConfig::new(BENCH_SEED, 1_000_000).with_executor(Executor::Sparse);
    let (mut rounds, mut dense_ms, mut sparse_ms) = (0, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        let (mut dense, mut moves) = (start.clone(), Vec::new());
        rounds = 0;
        while rounds < cfg.max_rounds && !dense.is_legal(inst) {
            decide_round_into(inst, &dense, &proto, BENCH_SEED, rounds, &mut moves);
            dense.apply_moves(inst, &moves);
            rounds += 1;
        }
        dense_ms = dense_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let sparse = run(inst, start.clone(), &proto, cfg);
        sparse_ms = sparse_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(sparse.converged && dense.is_legal(inst));
        assert_eq!((dense, rounds), (sparse.state, sparse.rounds));
    }
    (rounds, dense_ms, sparse_ms)
}

/// The sparse executor's home turf: tight slack (γ = 1.001 ⇒ ~0.1 % free
/// slots) stretches the convergence tail to 1000+ nearly-empty rounds.
/// Returns (rounds, dense ms, sparse ms).
pub fn tight_run_to_convergence(n: usize) -> (u64, f64, f64) {
    let sc = qlb_workload::Scenario::single_class(
        "bench-tight",
        n,
        (n / 8).max(1),
        qlb_workload::CapacityDist::Constant { cap: 10 },
        1.001,
        qlb_workload::Placement::Hotspot,
    );
    let (inst, _) = sc.build(BENCH_SEED).expect("feasible");
    scan_vs_sparse(&inst, &State::all_on(&inst, ResourceId(0)), 1)
}

// ---------------------------------------------------------------------
// persistent worker-pool measurements (BENCH_parallel.json)
// ---------------------------------------------------------------------

/// Per-round *dispatch* cost of the two parallel executors: the retired
/// scoped-spawn pattern (fresh OS threads + fresh move buffers every
/// round) vs. the persistent [`WorkerPool`] (condvar wake of long-lived
/// workers, reusable buffers). Both run a no-op round, so the number is
/// pure executor overhead, independent of instance size or core count.
#[derive(Debug, Clone)]
pub struct DispatchRow {
    /// Worker count.
    pub threads: usize,
    /// Mean ns of one no-op scoped-spawn round (the pre-pool executor).
    pub scoped_spawn_ns: f64,
    /// Mean ns of one no-op pooled round, same shard count.
    pub pool_ns: f64,
}

impl DispatchRow {
    /// How much cheaper pooled dispatch is (the regression-gated ratio).
    pub fn reduction(&self) -> f64 {
        self.scoped_spawn_ns / self.pool_ns
    }
}

/// The scoped-spawn round the threaded executor used before the worker pool:
/// one fresh OS thread and one fresh move buffer per shard, every round.
/// Kept here (only) as the bench baseline the pool is compared against.
fn scoped_spawn_round<F: Fn(usize, &mut Vec<Move>) + Sync>(threads: usize, fill: &F) -> usize {
    let mut shards: Vec<Vec<Move>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|shard| {
                s.spawn(move || {
                    let mut buf = Vec::new();
                    fill(shard, &mut buf);
                    buf
                })
            })
            .collect();
        for h in handles {
            shards.push(h.join().expect("bench shard panicked"));
        }
    });
    shards.iter().map(Vec::len).sum()
}

/// Measure no-op round dispatch under both executors at `threads` shards.
pub fn measure_dispatch(threads: usize, budget_ms: u64) -> DispatchRow {
    let noop = |_shard: usize, _buf: &mut Vec<Move>| {};
    let scoped_spawn_ns = ns_per_call(
        || {
            black_box(scoped_spawn_round(threads, &noop));
        },
        budget_ms,
    );
    let pool = WorkerPool::new(threads);
    let mut out = Vec::new();
    let pool_ns = ns_per_call(
        || {
            pool.decide_round_on(noop, &mut out, false, threads);
            black_box(out.len());
        },
        budget_ms,
    );
    DispatchRow {
        threads,
        scoped_spawn_ns,
        pool_ns,
    }
}

/// One row of the real-round latency table at size `n` (endgame state, the
/// regime where executor overhead is the largest share of a round).
#[derive(Debug, Clone)]
pub struct PoolRoundRow {
    /// Users.
    pub n: usize,
    /// Worker count.
    pub threads: usize,
    /// Mean ns of one sequential dense decision round.
    pub seq_round_ns: f64,
    /// Mean ns of the same round under the scoped-spawn executor.
    pub scoped_round_ns: f64,
    /// Mean ns of the same round under the persistent pool.
    pub pooled_round_ns: f64,
}

/// Time one dense decision round over the pinned endgame state three ways:
/// sequential, scoped-spawn sharded, pool sharded.
pub fn measure_pool_round(n: usize, threads: usize, budget_ms: u64) -> PoolRoundRow {
    let (inst, state) = crate::endgame_pair(n, BENCH_SEED, ACTIVE_FRAC);
    let proto = SlackDamped::default();
    let shards = shards_for(n, threads);
    let chunk = n.div_ceil(shards).max(1);
    let fill = |shard: usize, buf: &mut Vec<Move>| {
        let lo = (shard * chunk).min(n);
        let hi = (lo + chunk).min(n);
        decide_range_into(&inst, &state, &proto, BENCH_SEED, 9, lo, hi, buf);
    };

    let mut out = Vec::new();
    let seq_round_ns = ns_per_call(
        || {
            decide_round_into(&inst, &state, &proto, BENCH_SEED, 9, &mut out);
            black_box(out.len());
        },
        budget_ms,
    );
    let scoped_round_ns = ns_per_call(
        || {
            black_box(scoped_spawn_round(shards, &fill));
        },
        budget_ms,
    );
    let pool = WorkerPool::new(shards);
    let pooled_round_ns = ns_per_call(
        || {
            pool.decide_round_on(fill, &mut out, false, shards);
            black_box(out.len());
        },
        budget_ms,
    );
    PoolRoundRow {
        n,
        threads: shards,
        seq_round_ns,
        scoped_round_ns,
        pooled_round_ns,
    }
}

/// One row of the SoA-kernel scaling table: sequential dense reference vs.
/// the pooled struct-of-arrays round at a given thread count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Users.
    pub n: usize,
    /// Requested thread count (1 = the pool degenerates to the coordinator).
    pub threads: usize,
    /// Mean ns of one sequential dense reference round
    /// (`decide_round_into` over the `State`).
    pub seq_round_ns: f64,
    /// Mean ns of the same round decided by the emit-mode [`RoundView`]
    /// kernel ([`RoundView::decide_shard_into`]) through
    /// `WorkerPool::decide_round_on`.
    pub pooled_round_ns: f64,
}

impl ScalingRow {
    /// Sequential-reference / pooled-SoA round speedup (the regression-gated
    /// ratio at the highest thread count).
    pub fn speedup(&self) -> f64 {
        self.seq_round_ns / self.pooled_round_ns
    }
}

/// Measure the SoA round kernel's scaling over the pinned endgame state at
/// size `n`: one sequential dense reference, then at each requested thread
/// count the [`RoundView`] kernel in emit mode
/// ([`RoundView::decide_shard_into`], each shard's moves into the pool's
/// buffer for it, `Mutex`-held per-shard deltas) through
/// `WorkerPool::decide_round_on`, which concatenates the shards' moves.
/// That is the engine's kernel (bitmap filter, batched RNG, per-shard
/// deltas) but not the engine's round: `Stepper::full_round` writes the
/// movers in place and keeps no move list. The round is re-decided from
/// the same state every iteration, so there is nothing to merge.
pub fn measure_scaling(n: usize, threads: &[usize], budget_ms: u64) -> Vec<ScalingRow> {
    let (inst, state) = crate::endgame_pair(n, BENCH_SEED, ACTIVE_FRAC);
    let proto = SlackDamped::default();
    let mut out = Vec::new();

    let seq_round_ns = ns_per_call(
        || {
            decide_round_into(&inst, &state, &proto, BENCH_SEED, 9, &mut out);
            black_box(out.len());
        },
        budget_ms,
    );

    let view = RoundView::new(&inst, &state);
    threads
        .iter()
        .map(|&t| {
            let active = shards_for(n, t);
            let chunk = shard_chunk(n, t);
            let pool = WorkerPool::new(active);
            let slots: Vec<Mutex<(ShardDeltas, ShardScratch)>> = (0..active)
                .map(|_| Mutex::new((ShardDeltas::new(inst.num_resources()), ShardScratch::new())))
                .collect();
            let view_ref = &view;
            let slots_ref = &slots;
            let inst_ref = &inst;
            let proto_ref = &proto;
            let pooled_round_ns = ns_per_call(
                || {
                    pool.decide_round_on(
                        |shard, buf| {
                            let lo = (shard * chunk).min(n);
                            let hi = ((shard + 1) * chunk).min(n);
                            if lo < hi {
                                let mut slot = slots_ref[shard].lock().unwrap();
                                let (deltas, scratch) = &mut *slot;
                                view_ref.decide_shard_into(
                                    inst_ref, proto_ref, BENCH_SEED, 9, lo, hi, buf, scratch,
                                    deltas,
                                );
                            }
                        },
                        &mut out,
                        false,
                        active,
                    );
                    // discard the deltas without merging: every iteration
                    // re-decides the same round from the same view
                    for slot in slots_ref {
                        slot.lock().unwrap().0.advance();
                    }
                    black_box(out.len());
                },
                budget_ms,
            );
            ScalingRow {
                n,
                threads: t,
                seq_round_ns,
                pooled_round_ns,
            }
        })
        .collect()
}

/// Dense scan vs. sparse open-system driver on an endgame-heavy workload.
#[derive(Debug, Clone)]
pub struct OpenSparseRow {
    /// Resources.
    pub m: usize,
    /// User-pool size (mostly parked — the regime the sparse path targets).
    pub pool: usize,
    /// Simulated rounds.
    pub rounds: u64,
    /// Mean active users over the run.
    pub mean_active: f64,
    /// Best-of-2 dense-scan wall time, ms.
    pub dense_ms: f64,
    /// Best-of-2 sparse driver wall time, ms.
    pub sparse_ms: f64,
}

impl OpenSparseRow {
    /// Dense/sparse full-run speedup (gated ≥ 1: sparse must beat dense).
    pub fn speedup(&self) -> f64 {
        self.dense_ms / self.sparse_ms
    }
}

/// Run the open system at low offered load (ρ = 0.3) with a user pool four
/// times the fleet capacity: the steady state keeps ~92 % of the pool
/// parked, so a dense round wastes almost its whole scan on satisfied
/// users — the open-system analogue of the closed-model endgame.
pub fn measure_open_sparse(m: usize, rounds: u64) -> OpenSparseRow {
    let caps = vec![10u32; m];
    let total = 10 * m;
    let mu = 0.05f64;
    let lambda = 0.3 * mu * total as f64;
    let pool = 4 * total;
    let proto = SlackDamped::default();
    let base = OpenConfig::new(BENCH_SEED, rounds, lambda, mu);

    let mut dense_ms = f64::INFINITY;
    let mut sparse_ms = f64::INFINITY;
    let mut mean_active = 0.0;
    for _ in 0..2 {
        let t0 = Instant::now();
        let dense = reference_open_run(&caps, pool, &proto, base);
        dense_ms = dense_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let sparse = run_open_system(&caps, pool, &proto, base.with_executor(Executor::Sparse));
        sparse_ms = sparse_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(dense, sparse.series, "open drivers diverged");
        mean_active = sparse.mean_active;
    }
    OpenSparseRow {
        m,
        pool,
        rounds,
        mean_active,
        dense_ms,
        sparse_ms,
    }
}

/// Dense scan vs. sparse weighted engine on a tight-slack run.
#[derive(Debug, Clone)]
pub struct WeightedSparseRow {
    /// Users.
    pub n: usize,
    /// Rounds to convergence (identical under both executors).
    pub rounds: u64,
    /// Best-of-2 dense-scan run, ms.
    pub dense_ms: f64,
    /// Best-of-2 sparse run, ms.
    pub sparse_ms: f64,
}

impl WeightedSparseRow {
    /// Dense/sparse full-run speedup (gated ≥ 1: sparse must beat dense).
    pub fn speedup(&self) -> f64 {
        self.dense_ms / self.sparse_ms
    }
}

/// The weighted analogue of [`tight_run_to_convergence`]: demands cycling
/// 1..=3, capacity margin γ ≈ 1.005, hotspot start — a long convergence
/// tail of nearly-empty rounds where the weighted active set pays off.
/// Resources hold ~128 weight units each so the sub-percent slack target
/// is actually representable in integer capacities.
pub fn measure_weighted_sparse(n: usize) -> WeightedSparseRow {
    let m = (n / 64).max(1);
    let weights: Vec<u32> = (0..n).map(|i| 1 + (i as u32 % 3)).collect();
    let total_w: u64 = weights.iter().map(|&w| w as u64).sum();
    let per = ((1.005 * total_w as f64) / m as f64).ceil() as u32;
    let winst = WeightedInstance::new(vec![per; m], weights).expect("valid weighted instance");
    let start = State::new(&winst, vec![ResourceId(0); n]).expect("valid start");
    let (rounds, dense_ms, sparse_ms) = scan_vs_sparse(&winst, &start, 2);
    WeightedSparseRow {
        n,
        rounds,
        dense_ms,
        sparse_ms,
    }
}

// ---------------------------------------------------------------------
// observability overhead measurements (BENCH_obs.json)
// ---------------------------------------------------------------------

/// One row of the sink-overhead comparison at size `n`.
#[derive(Debug, Clone)]
pub struct ObsRow {
    /// Users.
    pub n: usize,
    /// Rounds of the E1 kernel run.
    pub rounds: u64,
    /// Best-of-reps plain `run`, ms.
    pub plain_ms: f64,
    /// Best-of-reps `run_observed(NoopSink)`, ms.
    pub noop_ms: f64,
    /// Best-of-reps `run_observed(Recorder)`, ms.
    pub recorder_ms: f64,
    /// Median paired noop/plain overhead, percent.
    pub noop_overhead_pct: f64,
    /// Median paired recorder/plain overhead, percent.
    pub recorder_overhead_pct: f64,
    /// Events the recorder captured over one run.
    pub events_recorded: u64,
}

/// Time the E1 convergence kernel (slack-damped, γ = 1.25, m = n/8,
/// hotspot start, run to convergence) three ways — plain `run`,
/// `run_observed(NoopSink)`, `run_observed(Recorder)`.
///
/// The variants are *interleaved* per repetition so slow thermal /
/// frequency / cache drift hits all of them equally, and the overhead is
/// the **median of per-repetition paired ratios** — pairing cancels the
/// drift, the median cancels scheduler outliers. (A best-of-N minimum is
/// noisy at the ±2–3 % level for a few-ms kernel: one lucky sample on
/// either side swings the sign.)
pub fn measure_obs(n: usize, reps: usize) -> ObsRow {
    let (inst, start) = crate::standard_pair(n, BENCH_SEED);
    let proto = SlackDamped::default();
    let cfg = RunConfig::new(BENCH_SEED, 1_000_000);

    let mut plain = || run(&inst, start.clone(), &proto, cfg).rounds;
    let mut noop = || run_observed(&inst, start.clone(), &proto, cfg, &mut NoopSink).rounds;
    let mut events_recorded = 0u64;
    let mut recorder = || {
        let mut rec = Recorder::default();
        let out = run_observed(&inst, start.clone(), &proto, cfg, &mut rec);
        events_recorded = rec.events().total_recorded();
        out.rounds
    };
    // warm-up pass of each variant before any timed sample
    black_box((plain(), noop(), recorder()));
    let (mut noop_ratio, mut rec_ratio) = (Vec::new(), Vec::new());
    let (mut plain_ms, mut noop_ms, mut recorder_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let p = once_ms(&mut plain);
        let s = once_ms(&mut noop);
        let r = once_ms(&mut recorder);
        noop_ratio.push(s / p);
        rec_ratio.push(r / p);
        plain_ms = plain_ms.min(p);
        noop_ms = noop_ms.min(s);
        recorder_ms = recorder_ms.min(r);
    }

    let rounds = run(&inst, start, &proto, cfg).rounds;
    ObsRow {
        n,
        rounds,
        plain_ms,
        noop_ms,
        recorder_ms,
        noop_overhead_pct: 100.0 * (median(&mut noop_ratio) - 1.0),
        recorder_overhead_pct: 100.0 * (median(&mut rec_ratio) - 1.0),
        events_recorded,
    }
}

/// Per-shard instrumentation overhead on a pooled run.
#[derive(Debug, Clone)]
pub struct ShardTimingRow {
    /// Users.
    pub n: usize,
    /// Worker threads of the pooled executor.
    pub threads: usize,
    /// Rounds of the kernel run.
    pub rounds: u64,
    /// Best-of-reps plain pooled `run`, ms.
    pub plain_ms: f64,
    /// Best-of-reps pooled `run_observed(NoopSink)` (shard timing
    /// requested but compiled away), ms.
    pub noop_ms: f64,
    /// Best-of-reps pooled `run_observed(Recorder)` with shard timing
    /// off, ms.
    pub recorder_off_ms: f64,
    /// Best-of-reps pooled `run_observed(Recorder)` with shard timing
    /// on, ms.
    pub recorder_on_ms: f64,
    /// Median paired noop/plain overhead, percent (must be ≈ 0: the
    /// `const ENABLED` short-circuit folds the whole profiling path away).
    pub noop_overhead_pct: f64,
    /// Median paired on/off overhead under the recorder, percent — the
    /// marginal cost of the per-shard profile itself.
    pub timing_overhead_pct: f64,
}

/// Time the E1 kernel under the pooled executor four ways — plain `run`,
/// `run_observed(NoopSink)`, and `run_observed(Recorder)` with shard
/// timing off and on — using the same interleaved paired-median scheme as
/// [`measure_obs`]. The on/off pair isolates the marginal cost of the
/// per-shard profile (scratch locking, per-shard clock reads, histogram
/// updates) from the rest of the recorder.
pub fn measure_shard_timing(n: usize, threads: usize, reps: usize) -> ShardTimingRow {
    let (inst, start) = crate::standard_pair(n, BENCH_SEED);
    let proto = SlackDamped::default();
    let base = RunConfig::new(BENCH_SEED, 1_000_000).with_executor(Executor::Threaded(threads));
    let off_cfg = base.with_shard_timing(false);

    let mut plain = || run(&inst, start.clone(), &proto, base).rounds;
    let mut noop = || run_observed(&inst, start.clone(), &proto, base, &mut NoopSink).rounds;
    let mut rec_off = || {
        let mut rec = Recorder::default();
        run_observed(&inst, start.clone(), &proto, off_cfg, &mut rec).rounds
    };
    let mut rec_on = || {
        let mut rec = Recorder::default();
        run_observed(&inst, start.clone(), &proto, base, &mut rec).rounds
    };
    black_box((plain(), noop(), rec_off(), rec_on()));
    let (mut noop_ratio, mut timing_ratio) = (Vec::new(), Vec::new());
    let (mut plain_ms, mut noop_ms, mut off_ms, mut on_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let p = once_ms(&mut plain);
        let s = once_ms(&mut noop);
        let off = once_ms(&mut rec_off);
        let on = once_ms(&mut rec_on);
        noop_ratio.push(s / p);
        timing_ratio.push(on / off);
        plain_ms = plain_ms.min(p);
        noop_ms = noop_ms.min(s);
        off_ms = off_ms.min(off);
        on_ms = on_ms.min(on);
    }

    let rounds = run(&inst, start, &proto, base).rounds;
    ShardTimingRow {
        n,
        threads,
        rounds,
        plain_ms,
        noop_ms,
        recorder_off_ms: off_ms,
        recorder_on_ms: on_ms,
        noop_overhead_pct: 100.0 * (median(&mut noop_ratio) - 1.0),
        timing_overhead_pct: 100.0 * (median(&mut timing_ratio) - 1.0),
    }
}

// ---------------------------------------------------------------------
// serve daemon measurements (BENCH_serve.json)
// ---------------------------------------------------------------------

/// One steady-state serving measurement at pool size `n`.
///
/// The measured loop drives the in-process serving stack end to end —
/// wire-protocol parse, admission, placement, reply formatting — through
/// `qlb_serve::handle_line`, exactly what the daemon's serve loop executes
/// per request (minus the socket syscalls, which belong to the kernel, not
/// this codebase). Each iteration departs the oldest ticket and places a
/// replacement, so the system stays at `n` active slots; every `BATCH`
/// requests the background rebalancer gets a tick under a synthetic
/// backlog, which pins the adaptive budget at its floor — the starvation
/// gate asserts the floor really is a floor.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Steady-state active slots.
    pub n: usize,
    /// Real resources.
    pub m: usize,
    /// Place requests measured.
    pub requests: u64,
    /// Wall time of the measured loop, ms.
    pub elapsed_ms: f64,
    /// Median in-process placement latency, ns.
    pub place_p50_ns: u64,
    /// p95 in-process placement latency, ns.
    pub place_p95_ns: u64,
    /// Worst in-process placement latency, ns.
    pub place_max_ns: u64,
    /// Scheduler ticks taken during the measured loop.
    pub ticks: u64,
    /// Rebalance rounds those ticks executed.
    pub rebalance_rounds: u64,
    /// Ticks that had unsatisfied users but executed zero rounds — the
    /// backpressure budget floor guarantees this stays 0.
    pub starved_ticks: u64,
}

impl ServeRow {
    /// Sustained placements per second over the measured loop (departs and
    /// rebalance ticks included in the denominator — this is serving
    /// throughput, not a placement microbenchmark).
    pub fn places_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ms / 1e3)
    }
}

/// Requests between rebalancer ticks in [`measure_serve`] (mirrors the
/// daemon's default batch of a busy loop).
const SERVE_BATCH: u64 = 64;

/// Measure steady-state serving at pool size `n` over `requests`
/// place/depart pairs. Fleet shape mirrors the sparse bench scenario:
/// `m = n/64` resources with capacity margin γ = 1.25.
pub fn measure_serve(n: usize, requests: u64) -> ServeRow {
    use qlb_serve::{handle_line, ServeConfig, ServeCore};
    let m = (n / 64).max(8);
    let cap = ((1.25 * n as f64) / m as f64).ceil() as u32;
    let cfg = ServeConfig::new(BENCH_SEED);
    let mut core =
        ServeCore::with_capacities(&vec![cap; m], n + 4_096, cfg).expect("bench fleet is feasible");
    let mut sink = NoopSink;

    // Warm fill to the steady state and let the rebalancer settle.
    let mut tickets = std::collections::VecDeque::with_capacity(n + 1);
    for _ in 0..n {
        let out = core
            .place(qlb_core::ClassId(0), 1, &mut sink)
            .expect("warm fill fits under the admission bound");
        tickets.push_back(out.user.0);
    }
    for _ in 0..10_000 {
        if core.unsatisfied() == 0 {
            break;
        }
        core.tick(0, false, &mut sink);
    }

    // Measured loop: depart oldest, place replacement, tick per batch.
    let place_req = "{\"op\":\"place\"}";
    let mut lat = Vec::with_capacity(requests as usize);
    let mut depart_req = String::with_capacity(40);
    let (mut ticks, mut rounds, mut starved) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for i in 0..requests {
        let oldest = tickets.pop_front().expect("steady state keeps n tickets");
        depart_req.clear();
        use std::fmt::Write as _;
        let _ = write!(depart_req, "{{\"op\":\"depart\",\"user\":{oldest}}}");
        let reply = handle_line(&mut core, &depart_req, &mut sink);
        debug_assert!(reply.text.contains("\"ok\":true"), "{}", reply.text);
        let tp = Instant::now();
        let reply = handle_line(&mut core, place_req, &mut sink);
        lat.push(tp.elapsed().as_nanos() as u64);
        tickets.push_back(extract_user(&reply.text));
        if (i + 1) % SERVE_BATCH == 0 {
            let had_work = core.unsatisfied() > 0;
            let out = core.tick(SERVE_BATCH as usize, false, &mut sink);
            ticks += 1;
            rounds += out.rounds as u64;
            if had_work && out.rounds == 0 {
                starved += 1;
            }
        }
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    ServeRow {
        n,
        m,
        requests,
        elapsed_ms,
        place_p50_ns: pct(0.50),
        place_p95_ns: pct(0.95),
        place_max_ns: pct(1.0),
        ticks,
        rebalance_rounds: rounds,
        starved_ticks: starved,
    }
}

/// Marginal cost of the live telemetry plane on the steady-state serving
/// loop (the windowed-aggregation overhead committed to `BENCH_obs.json`).
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Steady-state active slots.
    pub n: usize,
    /// Place/depart pairs per measured repetition.
    pub requests: u64,
    /// Best-of-reps serving loop without telemetry, ms.
    pub base_ms: f64,
    /// Best-of-reps serving loop feeding [`qlb_serve::ServeTelemetry`], ms.
    pub telemetry_ms: f64,
    /// Median paired telemetry/base overhead, percent — the gated number.
    pub window_overhead_pct: f64,
    /// Stats snapshots taken across all telemetry repetitions.
    pub snapshots: u64,
}

/// One batch of the steady-state serving loop from [`measure_serve`]
/// (depart oldest + place replacement through `handle_line`, rebalancer
/// tick every [`SERVE_BATCH`] requests), optionally feeding the telemetry
/// plane exactly the way the daemon does: per-request latency into
/// `on_request`, per-tick `on_tick`, and a full `snapshot` every
/// [`qlb_serve::TelemetryOptions::DEFAULT_STATS_EVERY`] ticks. Both
/// variants time each request (the daemon reads the clock
/// unconditionally), so the paired ratio isolates the windowed-aggregation
/// work itself. Returns snapshots taken.
fn window_batch(
    core: &mut qlb_serve::ServeCore,
    tickets: &mut std::collections::VecDeque<u32>,
    requests: u64,
    ticks: &mut u64,
    mut tel: Option<&mut qlb_serve::ServeTelemetry>,
) -> u64 {
    use std::fmt::Write as _;
    let mut sink = NoopSink;
    let place_req = "{\"op\":\"place\"}";
    let mut depart_req = String::with_capacity(40);
    let mut snaps = 0u64;
    for i in 0..requests {
        let oldest = tickets.pop_front().expect("steady state keeps n tickets");
        depart_req.clear();
        let _ = write!(depart_req, "{{\"op\":\"depart\",\"user\":{oldest}}}");
        let t0 = Instant::now();
        let reply = qlb_serve::handle_line(core, &depart_req, &mut sink);
        let ns = t0.elapsed().as_nanos() as u64;
        debug_assert!(reply.text.contains("\"ok\":true"), "{}", reply.text);
        if let Some(t) = tel.as_deref_mut() {
            t.on_request(false, ns);
        }
        let t0 = Instant::now();
        let reply = qlb_serve::handle_line(core, place_req, &mut sink);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(t) = tel.as_deref_mut() {
            t.on_request(true, ns);
        }
        tickets.push_back(extract_user(&reply.text));
        if (i + 1) % SERVE_BATCH == 0 {
            core.tick(SERVE_BATCH as usize, false, &mut sink);
            *ticks += 1;
            if let Some(t) = tel.as_deref_mut() {
                t.on_tick(core, SERVE_BATCH as usize);
                if ticks.is_multiple_of(qlb_serve::TelemetryOptions::DEFAULT_STATS_EVERY) {
                    black_box(t.snapshot(core));
                    snaps += 1;
                }
            }
        }
    }
    snaps
}

/// Measure the telemetry plane's marginal cost on the serving loop at pool
/// size `n`. Each of the `reps` repetitions alternates base (no telemetry)
/// and telemetry **slices** of one snapshot cadence period
/// (`SERVE_BATCH × DEFAULT_STATS_EVERY` requests, so every telemetry slice
/// carries exactly one snapshot build), and the overhead is the median of
/// the per-slice-pair ratios. Slice-level pairing matters: machine noise on
/// a shared box swings whole batches by several percent, and a tight
/// base/telemetry alternation samples the same noise on both sides where
/// batch-level pairing would not.
pub fn measure_window(n: usize, requests: u64, reps: usize) -> WindowRow {
    use qlb_serve::{ServeConfig, ServeCore, ServeTelemetry};
    let m = (n / 64).max(8);
    let cap = ((1.25 * n as f64) / m as f64).ceil() as u32;
    let cfg = ServeConfig::new(BENCH_SEED);
    let mut core =
        ServeCore::with_capacities(&vec![cap; m], n + 4_096, cfg).expect("bench fleet is feasible");
    let mut sink = NoopSink;

    let mut tickets = std::collections::VecDeque::with_capacity(n + 1);
    for _ in 0..n {
        let out = core
            .place(qlb_core::ClassId(0), 1, &mut sink)
            .expect("warm fill fits under the admission bound");
        tickets.push_back(out.user.0);
    }
    for _ in 0..10_000 {
        if core.unsatisfied() == 0 {
            break;
        }
        core.tick(0, false, &mut sink);
    }

    let mut tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
    // One slice per snapshot cadence period; separate tick counters keep
    // the telemetry cadence regular (exactly one snapshot per slice).
    let slice = SERVE_BATCH * qlb_serve::TelemetryOptions::DEFAULT_STATS_EVERY;
    let slices = (requests / slice).max(1);
    let mut base_ticks = 0u64;
    let mut tel_ticks = 0u64;
    let mut snapshots = 0u64;
    // warm-up pass of each variant before any timed sample
    window_batch(&mut core, &mut tickets, slice, &mut base_ticks, None);
    snapshots += window_batch(
        &mut core,
        &mut tickets,
        slice,
        &mut tel_ticks,
        Some(&mut tel),
    );
    let mut ratio = Vec::new();
    let (mut base_ms, mut telemetry_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (mut b_rep, mut t_rep) = (0.0f64, 0.0f64);
        for _ in 0..slices {
            let t0 = Instant::now();
            window_batch(&mut core, &mut tickets, slice, &mut base_ticks, None);
            let b = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            snapshots += window_batch(
                &mut core,
                &mut tickets,
                slice,
                &mut tel_ticks,
                Some(&mut tel),
            );
            let t = t0.elapsed().as_secs_f64() * 1e3;
            ratio.push(t / b);
            b_rep += b;
            t_rep += t;
        }
        base_ms = base_ms.min(b_rep);
        telemetry_ms = telemetry_ms.min(t_rep);
    }
    WindowRow {
        n,
        requests,
        base_ms,
        telemetry_ms,
        window_overhead_pct: 100.0 * (median(&mut ratio) - 1.0),
        snapshots,
    }
}

/// Marginal cost of the causal span layer on the steady-state serving
/// loop (the `spans` section committed to `BENCH_obs.json`): the same
/// depart + place + tick loop as [`measure_window`], dispatched through
/// [`qlb_serve::handle_line_spanned`] under the daemon's head-sampling
/// plane at three settings — every request traced (`sample = 1`), the
/// daemon's flight-recorder default (`sample = 64`, the gated number),
/// and the plane disabled outright (the spans-off branch, which must sit
/// at ≈ 0 and doubles as the null-pair noise reference).
#[derive(Debug, Clone)]
pub struct SpansRow {
    /// Steady-state active slots.
    pub n: usize,
    /// Place/depart pairs per measured repetition.
    pub requests: u64,
    /// Best-of-reps untraced serving loop, ms.
    pub base_ms: f64,
    /// Best-of-reps with every request traced, ms.
    pub sample1_ms: f64,
    /// Best-of-reps at the daemon's default head-sampling rate, ms.
    pub sample64_ms: f64,
    /// Best-of-reps with the span plane disabled (branch only), ms.
    pub disabled_ms: f64,
    /// Median paired sample=1 overhead, percent.
    pub sample1_overhead_pct: f64,
    /// Median paired sample=64 overhead, percent — the gated number.
    pub sample64_overhead_pct: f64,
    /// Median paired disabled overhead, percent (≈ 0 by construction).
    pub disabled_overhead_pct: f64,
    /// Spans assembled across all traced repetitions.
    pub spans_built: u64,
}

/// The daemon's head-sampling span plane, reproduced for the bench: an
/// every-op countdown decides which requests are traced, a separate counter
/// names the spans, and the probe trace + move buffer are reused scratch
/// (mirrors `qlb-serve`'s internal `SpanPlane`). `sample = 0` keeps the
/// plane present but inert — the daemon's spans-off branch.
struct SpanClock {
    sample: u64,
    until_next: u64,
    next_id: u64,
    trace: qlb_serve::PlaceTrace,
    moves: Vec<qlb_serve::MoveRecord>,
}

impl SpanClock {
    fn new(sample: u64) -> Self {
        SpanClock {
            sample,
            until_next: 0,
            next_id: 1,
            trace: qlb_serve::PlaceTrace::default(),
            moves: Vec::new(),
        }
    }
}

/// Dispatch one request the way the daemon's serve loop does under the
/// span plane: head-sampled requests go through
/// [`qlb_serve::handle_line_spanned`] with a span context and the
/// assembled [`qlb_obs::SpanRecord`] is consumed via `black_box` (the
/// daemon hands it to the sink and the flight ring); sampled-out requests,
/// and every request of a disabled or absent plane, take the plain
/// [`qlb_serve::handle_line`] baseline, which is the same dispatch with
/// `span = None`. A traced reply comes back in a new `String`, as
/// [`qlb_serve::handle_line`] returns it.
fn span_dispatch(
    core: &mut qlb_serve::ServeCore,
    line: &str,
    sink: &mut NoopSink,
    plane: &mut Option<&mut SpanClock>,
    built: &mut u64,
) -> qlb_serve::Reply {
    let traced = match plane.as_deref_mut() {
        Some(p) if p.sample > 0 => {
            if p.until_next > 0 {
                p.until_next -= 1;
                None
            } else {
                p.until_next = p.sample - 1;
                p.next_id += 1;
                Some((p.next_id - 1, &mut p.trace))
            }
        }
        _ => None,
    };
    let Some(span) = traced else {
        return qlb_serve::handle_line(core, line, sink);
    };
    let mut text = Vec::with_capacity(qlb_serve::proto::REPLY_CAPACITY);
    let (replied, span) =
        qlb_serve::handle_line_spanned(core, None, line.as_bytes(), sink, Some(span), &mut text);
    if let Some(span) = span {
        *built += 1;
        black_box(&span);
    }
    qlb_serve::Reply {
        text: String::from_utf8(text).expect("replies are UTF-8"),
        kind: replied.kind,
        shutdown: replied.shutdown,
    }
}

/// One batch of the steady-state serving loop from [`measure_serve`]
/// (depart oldest + place replacement, rebalancer tick every
/// [`SERVE_BATCH`] requests), dispatched through [`span_dispatch`]. An
/// active plane also ticks through [`qlb_serve::ServeCore::tick_traced`]
/// so the migration-capture cost of causal continuation is part of the
/// measured overhead. Returns spans assembled.
fn span_batch(
    core: &mut qlb_serve::ServeCore,
    tickets: &mut std::collections::VecDeque<u32>,
    requests: u64,
    mut plane: Option<&mut SpanClock>,
) -> u64 {
    use std::fmt::Write as _;
    let mut sink = NoopSink;
    let place_req = "{\"op\":\"place\"}";
    let mut depart_req = String::with_capacity(40);
    let mut built = 0u64;
    for i in 0..requests {
        let oldest = tickets.pop_front().expect("steady state keeps n tickets");
        depart_req.clear();
        let _ = write!(depart_req, "{{\"op\":\"depart\",\"user\":{oldest}}}");
        let reply = span_dispatch(core, &depart_req, &mut sink, &mut plane, &mut built);
        debug_assert!(reply.text.contains("\"ok\":true"), "{}", reply.text);
        let reply = span_dispatch(core, place_req, &mut sink, &mut plane, &mut built);
        tickets.push_back(extract_user(&reply.text));
        if (i + 1).is_multiple_of(SERVE_BATCH) {
            match plane.as_deref_mut() {
                Some(p) if p.sample > 0 => {
                    p.moves.clear();
                    core.tick_traced(SERVE_BATCH as usize, false, &mut sink, &mut p.moves);
                    black_box(p.moves.len());
                }
                _ => {
                    core.tick(SERVE_BATCH as usize, false, &mut sink);
                }
            }
        }
    }
    built
}

/// Measure the span layer's marginal cost on the serving loop at pool
/// size `n`. Slice-paired exactly like [`measure_window`]: each slice
/// times the untraced baseline, then each span setting against it, and
/// every overhead is the median of its per-slice-pair ratios.
pub fn measure_spans(n: usize, requests: u64, reps: usize) -> SpansRow {
    use qlb_serve::{ServeConfig, ServeCore};
    let m = (n / 64).max(8);
    let cap = ((1.25 * n as f64) / m as f64).ceil() as u32;
    let cfg = ServeConfig::new(BENCH_SEED);
    let mut core =
        ServeCore::with_capacities(&vec![cap; m], n + 4_096, cfg).expect("bench fleet is feasible");
    let mut sink = NoopSink;

    let mut tickets = std::collections::VecDeque::with_capacity(n + 1);
    for _ in 0..n {
        let out = core
            .place(qlb_core::ClassId(0), 1, &mut sink)
            .expect("warm fill fits under the admission bound");
        tickets.push_back(out.user.0);
    }
    for _ in 0..10_000 {
        if core.unsatisfied() == 0 {
            break;
        }
        core.tick(0, false, &mut sink);
    }

    let mut s1 = SpanClock::new(1);
    let mut s64 = SpanClock::new(64);
    let mut off = SpanClock::new(0);
    let slice = SERVE_BATCH * qlb_serve::TelemetryOptions::DEFAULT_STATS_EVERY;
    let slices = (requests / slice).max(1);
    let mut spans_built = 0u64;
    // warm-up pass of each variant before any timed sample
    span_batch(&mut core, &mut tickets, slice, None);
    spans_built += span_batch(&mut core, &mut tickets, slice, Some(&mut s1));
    spans_built += span_batch(&mut core, &mut tickets, slice, Some(&mut s64));
    span_batch(&mut core, &mut tickets, slice, Some(&mut off));
    let (mut r1, mut r64, mut roff) = (Vec::new(), Vec::new(), Vec::new());
    let (mut base_ms, mut s1_ms, mut s64_ms, mut off_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (mut b_rep, mut s1_rep, mut s64_rep, mut off_rep) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for _ in 0..slices {
            // Every variant gets its own base slice immediately before it
            // (the window-bench pairing, tightened: a shared base would
            // let the heavy sample=1 slice bias the variants after it —
            // seen as a spurious +1% on the byte-identical disabled
            // branch). Heaviest variant last for the same reason.
            let t0 = Instant::now();
            span_batch(&mut core, &mut tickets, slice, None);
            let b = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            span_batch(&mut core, &mut tickets, slice, Some(&mut off));
            let t = t0.elapsed().as_secs_f64() * 1e3;
            roff.push(t / b);
            off_rep += t;
            b_rep += b;
            let t0 = Instant::now();
            span_batch(&mut core, &mut tickets, slice, None);
            let b = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            spans_built += span_batch(&mut core, &mut tickets, slice, Some(&mut s64));
            let t = t0.elapsed().as_secs_f64() * 1e3;
            r64.push(t / b);
            s64_rep += t;
            b_rep += b;
            let t0 = Instant::now();
            span_batch(&mut core, &mut tickets, slice, None);
            let b = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            spans_built += span_batch(&mut core, &mut tickets, slice, Some(&mut s1));
            let t = t0.elapsed().as_secs_f64() * 1e3;
            r1.push(t / b);
            s1_rep += t;
            b_rep += b;
            // untimed cool-down: the every-request-traced slice runs ~50%
            // long and whatever it disturbs (frequency, caches) would
            // otherwise inflate the next pair's base
            span_batch(&mut core, &mut tickets, slice, None);
        }
        base_ms = base_ms.min(b_rep / 3.0);
        s1_ms = s1_ms.min(s1_rep);
        s64_ms = s64_ms.min(s64_rep);
        off_ms = off_ms.min(off_rep);
    }
    SpansRow {
        n,
        requests,
        base_ms,
        sample1_ms: s1_ms,
        sample64_ms: s64_ms,
        disabled_ms: off_ms,
        sample1_overhead_pct: 100.0 * (median(&mut r1) - 1.0),
        sample64_overhead_pct: 100.0 * (median(&mut r64) - 1.0),
        disabled_overhead_pct: 100.0 * (median(&mut roff) - 1.0),
        spans_built,
    }
}

// ---------------------------------------------------------------------
// memory measurements (BENCH_mem.json)
// ---------------------------------------------------------------------

/// One memory-accounting row: the working set an executor holds for an
/// instance plus what its measured region allocates. Produced only under
/// the counting global allocator ([`qlb_obs::mem`]); the `mem` bench and
/// `qlb-bench-check` both install it.
///
/// The measured region of both executors (`dense-seq`, `pooled-soa`) is
/// 32 steady-state rounds after warm-up — the zero-copy claim of the
/// view-only pooled round.
#[derive(Debug, Clone)]
pub struct MemRow {
    /// Which executor the row describes.
    pub executor: &'static str,
    /// Users.
    pub n: usize,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Live bytes the executor holds: the round `State`, the bitmaps its
    /// view adds, the shard slots and, pooled, the pool buffers.
    pub working_set_bytes: usize,
    /// Peak bytes allocated above the steady-state baseline across the
    /// measured region.
    pub round_peak_bytes: usize,
    /// Allocations across the measured region (gated to 0 for the
    /// steady-state pooled round).
    pub steady_allocs: u64,
}

impl MemRow {
    /// Working set normalized by population.
    pub fn working_set_bytes_per_user(&self) -> f64 {
        self.working_set_bytes as f64 / self.n as f64
    }
    /// Measured-region peak normalized by population (the ≤ 12 B/user
    /// acceptance gate for `pooled-soa`).
    pub fn round_peak_bytes_per_user(&self) -> f64 {
        self.round_peak_bytes as f64 / self.n as f64
    }
}

/// Panic unless the counting allocator is actually installed — a memory
/// row measured under the system allocator would read all-zero and pass
/// every gate vacuously.
fn require_counting() {
    assert!(
        qlb_obs::mem::counting(),
        "memory measurement requires the qlb_obs::mem::CountingAlloc global allocator"
    );
}

/// Memory row of the `Dense` executor: the engine's [`Stepper`] without a
/// pool, deciding each full round inline as one view shard; the row is
/// otherwise measured as [`measure_mem_pooled`]'s.
pub fn measure_mem_dense(n: usize) -> MemRow {
    measure_mem_view(n, 1, "dense-seq")
}

/// Memory row of the pooled SoA executor — the tentpole gate. Working set
/// = the round `State` the stepper's `RoundView` takes over, the
/// unsatisfied bitmaps it adds, the view shards (move buffer, deltas and
/// scratch each) and the pool, all after warm-up; measured region = 32
/// full steady-state rounds of [`Stepper::full_round`] (decide → merge
/// loads → apply → repair), which must allocate **nothing** and therefore
/// peak at 0 bytes.
pub fn measure_mem_pooled(n: usize, threads: usize) -> MemRow {
    measure_mem_view(n, threads, "pooled-soa")
}

/// The full rounds of the engine's stepper over `threads` shards (inline
/// as one shard when `threads` is 1).
fn measure_mem_view(n: usize, threads: usize, executor: &'static str) -> MemRow {
    require_counting();
    let (inst, seed_state) = crate::endgame_pair(n, BENCH_SEED, ACTIVE_FRAC);
    let proto = SlackDamped::default();
    let exec = if threads > 1 {
        Executor::Threaded(threads)
    } else {
        Executor::Dense
    };
    let setup = qlb_obs::MemMark::here();
    let mut stepper = Stepper::new(exec, n, BENCH_SEED, false);
    stepper.hold(&inst, seed_state.clone());

    let mut round = 0u64;
    let mut full_round = |stepper: &mut Stepper| {
        black_box(stepper.full_round(&inst, &proto, round, &mut NoopSink).len);
        round += 1;
    };
    for _ in 0..8 {
        full_round(&mut stepper); // warm-up: buffers grow once
    }
    let working_set_bytes = setup.live_since();
    let mark = qlb_obs::MemMark::here();
    for _ in 0..32 {
        full_round(&mut stepper);
    }
    MemRow {
        executor,
        n,
        threads,
        working_set_bytes,
        round_peak_bytes: mark.peak_since(),
        steady_allocs: mark.allocs_since(),
    }
}

/// Pull the admitted ticket id out of a place reply without a full JSON
/// parse (reply extraction is client work, not daemon work — keep it off
/// the measured path's allocator).
fn extract_user(reply: &str) -> u32 {
    let key = "\"user\":";
    let at = reply.find(key).expect("admitted place reply carries user") + key.len();
    let digits: String = reply[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().expect("user id is numeric")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore]
    fn window_overhead_probe() {
        let row = measure_window(65_536, 16_384, 9);
        println!(
            "probe: base {:.2} ms | telemetry {:.2} ms | overhead {:+.2}% ({} snaps)",
            row.base_ms, row.telemetry_ms, row.window_overhead_pct, row.snapshots
        );
    }

    #[test]
    #[ignore]
    fn window_null_probe() {
        // Paired base-vs-base: any nonzero "overhead" here is measurement
        // bias/noise, not telemetry cost.
        use qlb_serve::{ServeConfig, ServeCore};
        let n = 65_536usize;
        let m = n / 64;
        let cap = ((1.25 * n as f64) / m as f64).ceil() as u32;
        let mut core =
            ServeCore::with_capacities(&vec![cap; m], n + 4_096, ServeConfig::new(BENCH_SEED))
                .unwrap();
        let mut sink = NoopSink;
        let mut tickets = std::collections::VecDeque::with_capacity(n + 1);
        for _ in 0..n {
            let out = core.place(qlb_core::ClassId(0), 1, &mut sink).unwrap();
            tickets.push_back(out.user.0);
        }
        for _ in 0..10_000 {
            if core.unsatisfied() == 0 {
                break;
            }
            core.tick(0, false, &mut sink);
        }
        let mut ticks = 0u64;
        let slice = 2_048u64;
        window_batch(&mut core, &mut tickets, slice, &mut ticks, None);
        window_batch(&mut core, &mut tickets, slice, &mut ticks, None);
        let mut ratio = Vec::new();
        for _ in 0..15 * 8 {
            let t0 = Instant::now();
            window_batch(&mut core, &mut tickets, slice, &mut ticks, None);
            let a = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            window_batch(&mut core, &mut tickets, slice, &mut ticks, None);
            let b = t0.elapsed().as_secs_f64();
            ratio.push(b / a);
        }
        let med = 100.0 * (median(&mut ratio) - 1.0);
        ratio.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p = |q: f64| 100.0 * (ratio[(q * (ratio.len() - 1) as f64) as usize] - 1.0);
        println!(
            "null slice-pair overhead: median {med:+.2}% | p10 {:+.2}% | p90 {:+.2}%",
            p(0.1),
            p(0.9)
        );
    }

    #[test]
    #[ignore]
    fn window_cost_breakdown() {
        use qlb_serve::{ServeConfig, ServeCore, ServeTelemetry};
        let n = 65_536;
        let m = n / 64;
        let cfg = ServeConfig::new(BENCH_SEED);
        let mut core = ServeCore::with_capacities(&vec![1_300; m], n + 4_096, cfg).unwrap();
        let mut sink = NoopSink;
        for _ in 0..n {
            core.place(qlb_core::ClassId(0), 1, &mut sink).unwrap();
        }
        for _ in 0..10_000 {
            if core.unsatisfied() == 0 {
                break;
            }
            core.tick(0, false, &mut sink);
        }
        let mut tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
        let reps = 200_000u64;
        let t0 = Instant::now();
        for i in 0..reps {
            tel.on_request(i % 2 == 0, 1_000 + i % 512);
        }
        let per_req = t0.elapsed().as_nanos() as f64 / reps as f64;
        let t0 = Instant::now();
        for _ in 0..reps / 10 {
            tel.on_tick(&core, 64);
        }
        let per_tick = t0.elapsed().as_nanos() as f64 / (reps / 10) as f64;
        let t0 = Instant::now();
        for _ in 0..reps / 100 {
            black_box(tel.snapshot(&core));
        }
        let per_snap = t0.elapsed().as_nanos() as f64 / (reps / 100) as f64;
        println!(
            "on_request {per_req:.1} ns | on_tick {per_tick:.1} ns | snapshot {per_snap:.1} ns\n\
             per-pair estimate: {:.1} ns (2 requests) + {:.1} ns (tick/64) + {:.1} ns (snap/2048)",
            per_req * 2.0,
            per_tick / 64.0,
            per_snap / 2_048.0,
        );
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn measure_obs_smoke() {
        let row = measure_obs(512, 2);
        assert_eq!(row.n, 512);
        assert!(row.rounds > 0);
        assert!(row.plain_ms.is_finite() && row.plain_ms > 0.0);
        assert!(row.events_recorded > 0);
    }

    #[test]
    fn measure_shard_timing_smoke() {
        let row = measure_shard_timing(4_096, 3, 2);
        assert_eq!(row.threads, 3);
        assert!(row.rounds > 0);
        assert!(row.plain_ms > 0.0 && row.recorder_on_ms > 0.0);
        assert!(row.noop_overhead_pct.is_finite() && row.timing_overhead_pct.is_finite());
    }

    #[test]
    fn measure_sparse_smoke() {
        let row = measure_sparse(2_048, 5);
        assert!(row.active > 0);
        assert!(row.dense_round_ns > 0.0 && row.sparse_round_ns > 0.0);
        assert!(row.tight_rounds > 0);
    }

    #[test]
    fn measure_dispatch_smoke() {
        let row = measure_dispatch(4, 10);
        assert_eq!(row.threads, 4);
        assert!(row.scoped_spawn_ns > 0.0 && row.pool_ns > 0.0);
        assert!(row.reduction() > 0.0);
    }

    #[test]
    fn measure_pool_round_smoke() {
        let row = measure_pool_round(2_048, 4, 5);
        assert!(row.seq_round_ns > 0.0);
        assert!(row.scoped_round_ns > 0.0);
        assert!(row.pooled_round_ns > 0.0);
    }

    #[test]
    fn measure_scaling_smoke() {
        let rows = measure_scaling(4_096, &[1, 2], 5);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.seq_round_ns > 0.0 && row.pooled_round_ns > 0.0);
            assert!(row.speedup() > 0.0);
        }
    }

    #[test]
    fn measure_open_sparse_smoke() {
        let row = measure_open_sparse(32, 80);
        assert!(row.mean_active > 0.0);
        assert!(row.dense_ms > 0.0 && row.sparse_ms > 0.0);
    }

    #[test]
    fn measure_weighted_sparse_smoke() {
        let row = measure_weighted_sparse(4_096);
        assert!(row.rounds > 0);
        assert!(row.dense_ms > 0.0 && row.sparse_ms > 0.0);
    }

    #[test]
    fn measure_window_smoke() {
        // 2048 requests = 32 ticks per batch, so the default 32-tick
        // snapshot cadence fires at least once per telemetry batch
        let row = measure_window(4_096, 2_048, 2);
        assert_eq!(row.n, 4_096);
        assert!(row.base_ms > 0.0 && row.telemetry_ms > 0.0);
        assert!(row.window_overhead_pct.is_finite());
        assert!(row.snapshots >= 3, "snapshot cadence never fired");
    }

    #[test]
    fn measure_spans_smoke() {
        let row = measure_spans(4_096, 2_048, 2);
        assert_eq!(row.n, 4_096);
        assert!(row.base_ms > 0.0 && row.sample1_ms > 0.0);
        assert!(row.sample64_ms > 0.0 && row.disabled_ms > 0.0);
        assert!(row.sample1_overhead_pct.is_finite());
        assert!(row.sample64_overhead_pct.is_finite());
        assert!(row.disabled_overhead_pct.is_finite());
        assert!(row.spans_built > 0, "sampled batches must assemble spans");
    }

    /// Isolates the two halves of the sample=64 overhead: wire-path
    /// tracing (64 spans per 4096 ops) vs the per-tick `tick_traced`
    /// move capture. A `sample = u64::MAX` clock traces (almost) no
    /// requests but still ticks traced, so its paired overhead is the
    /// move-capture cost alone.
    #[test]
    #[ignore]
    fn spans_tick_capture_probe() {
        use qlb_serve::{ServeConfig, ServeCore};
        let n = 65_536;
        let m = n / 64;
        let cap = ((1.25 * n as f64) / m as f64).ceil() as u32;
        let mut core =
            ServeCore::with_capacities(&vec![cap; m], n + 4_096, ServeConfig::new(BENCH_SEED))
                .unwrap();
        let mut sink = NoopSink;
        let mut tickets = std::collections::VecDeque::with_capacity(n + 1);
        for _ in 0..n {
            let out = core.place(qlb_core::ClassId(0), 1, &mut sink).unwrap();
            tickets.push_back(out.user.0);
        }
        for _ in 0..10_000 {
            if core.unsatisfied() == 0 {
                break;
            }
            core.tick(0, false, &mut sink);
        }
        let mut tick_only = SpanClock::new(u64::MAX);
        let mut off = SpanClock::new(0);
        let slice = SERVE_BATCH * qlb_serve::TelemetryOptions::DEFAULT_STATS_EVERY;
        span_batch(&mut core, &mut tickets, slice, None);
        span_batch(&mut core, &mut tickets, slice, Some(&mut tick_only));
        let mut rtick = Vec::new();
        let mut roff = Vec::new();
        let mut moves = 0usize;
        for _ in 0..15 {
            for _ in 0..8 {
                let t0 = Instant::now();
                span_batch(&mut core, &mut tickets, slice, None);
                let b = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                span_batch(&mut core, &mut tickets, slice, Some(&mut off));
                let t = t0.elapsed().as_secs_f64();
                roff.push(t / b);
                let t0 = Instant::now();
                span_batch(&mut core, &mut tickets, slice, None);
                let b = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                span_batch(&mut core, &mut tickets, slice, Some(&mut tick_only));
                let t = t0.elapsed().as_secs_f64();
                rtick.push(t / b);
                moves = moves.max(tick_only.moves.len());
            }
        }
        println!(
            "null pair {:+.2}% | dispatch-arm + tick_traced {:+.2}% (max {} moves per tick)",
            100.0 * (median(&mut roff) - 1.0),
            100.0 * (median(&mut rtick) - 1.0),
            moves
        );
    }

    /// Produces the numbers committed to the `spans` section of
    /// `BENCH_obs.json` (run with `--ignored --nocapture` on a quiet box).
    #[test]
    #[ignore]
    fn spans_committed_numbers() {
        let row = measure_spans(65_536, 16_384, 15);
        println!(
            "spans n = {} ({} req/rep): base {:.3} ms | s1 {:.3} ms ({:+.2}%) | \
             s64 {:.3} ms ({:+.2}%) | off {:.3} ms ({:+.2}%) | {} spans",
            row.n,
            row.requests,
            row.base_ms,
            row.sample1_ms,
            row.sample1_overhead_pct,
            row.sample64_ms,
            row.sample64_overhead_pct,
            row.disabled_ms,
            row.disabled_overhead_pct,
            row.spans_built,
        );
    }

    #[test]
    fn measure_serve_smoke() {
        let row = measure_serve(4_096, 2_000);
        assert_eq!(row.n, 4_096);
        assert!(row.places_per_sec() > 0.0);
        assert!(row.place_p95_ns >= row.place_p50_ns);
        assert!(row.ticks > 0);
        assert_eq!(
            row.starved_ticks, 0,
            "backpressure floor must prevent starvation"
        );
    }
}
