//! **E10 / Table 8 — executor equivalence and parallel scaling.**
//!
//! The determinism pillar: the sequential engine, the threaded engine (1–8
//! threads) and the synchronous actor runtime must produce *identical*
//! trajectories (rounds, migrations, final state) for the same seed, because
//! decisions are pure functions of `(seed, user, round)`. The expected side
//! is the dense reference loop (`qlb_core::step::reference_run`), which no
//! executor runs. The table asserts equivalence and reports wall-clock
//! times (the HPC side: decision rounds are embarrassingly parallel).

use crate::ExperimentResult;
use qlb_core::step::{decide_round_into, reference_run};
use qlb_core::{Move, ResourceId, RoundView, ShardDeltas, ShardScratch, SlackDamped, State};
use qlb_engine::{run_observed, shard_chunk, shards_for, Executor, RunConfig, WorkerPool};
use qlb_obs::{Counter, Phase, Recorder};
use qlb_runtime::{run_distributed, RuntimeConfig};
use qlb_stats::Table;
use qlb_workload::{CapacityDist, Placement, Scenario};
use std::sync::Mutex;
use std::time::Instant;

/// Barrier-skew cell for an executor row: p95 of the per-round
/// (max − min) shard compute time, from the per-shard profile the
/// recorder collected. Executors that never dispatched a pooled round
/// (sequential, pure sparse, actor runtime) have no shard profile and
/// render as "—".
fn skew_cell(rec: &Recorder) -> String {
    let st = rec.shard_timers();
    if st.rounds() == 0 {
        "—".into()
    } else {
        format!("{:.1}", st.skew().quantile(0.95) as f64 / 1e3)
    }
}

/// Run E10.
pub fn run(quick: bool) -> ExperimentResult {
    let n = if quick { 1usize << 12 } else { 1usize << 17 };
    let m = n / 8;
    let seed = 2024;
    let max_rounds = 100_000;

    let sc = Scenario::single_class(
        "e10",
        n,
        m,
        CapacityDist::Constant { cap: 10 },
        1.25,
        Placement::Hotspot,
    );
    let (inst, _) = sc.build(seed).expect("feasible");
    let start_state = State::all_on(&inst, ResourceId(0));
    let proto = SlackDamped::default();

    let mut table = Table::new(
        format!(
            "Table 8 — executor equivalence & scaling (n = {n}, m = {m}, γ = 1.25, seed {seed})"
        ),
        &[
            "executor",
            "rounds",
            "migrations",
            "state identical",
            "wall time (ms)",
            "barrier skew p95 (µs)",
        ],
    );

    // Expected side: the dense reference loop, which shares no kernel
    // with the executors.
    let t0 = Instant::now();
    let reference = reference_run(
        &inst,
        start_state.clone(),
        &proto,
        seed,
        max_rounds,
        |_, _| {},
    );
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(reference.converged);
    table.row(vec![
        "reference loop (dense scan)".into(),
        reference.rounds.to_string(),
        reference.migrations.to_string(),
        "reference".into(),
        format!("{ref_ms:.1}"),
        "—".into(),
    ]);

    // Every executor row, checked against the reference loop. The rows
    // run observed, so the phase breakdown below comes from qlb-obs
    // timers and the barrier-skew column from the same per-shard profile
    // `qlb-trace profile` reports; the recorder overhead is a few percent
    // (see BENCH_obs.json) and applies uniformly to the timed rows.
    let mut all_equal = true;
    let mut row = |name: String, rounds: u64, migrations: u64, state: &State, ms: f64, skew| {
        let same = rounds == reference.rounds
            && migrations == reference.migrations
            && *state == reference.state;
        all_equal &= same;
        table.row(vec![
            name,
            rounds.to_string(),
            migrations.to_string(),
            if same { "yes" } else { "NO" }.into(),
            format!("{ms:.1}"),
            skew,
        ]);
    };
    let observed = |executor| {
        let mut rec = Recorder::default();
        let cfg = RunConfig::new(seed, max_rounds).with_executor(executor);
        let t0 = Instant::now();
        let out = run_observed(&inst, start_state.clone(), &proto, cfg, &mut rec);
        (out, rec, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (out, seq_rec, ms) = observed(Executor::Dense);
    let (name, skew) = ("engine (sequential)".into(), skew_cell(&seq_rec));
    row(name, out.rounds, out.migrations, &out.state, ms, skew);

    let mut pooled_skew_rounds = 0u64;
    let mut util_8t = None;
    for threads in [1usize, 2, 4, 8] {
        let (out, rec, ms) = observed(Executor::Threaded(threads));
        pooled_skew_rounds += rec.shard_timers().rounds();
        if threads == 8 && rec.shard_timers().rounds() > 0 {
            util_8t = Some(100.0 * rec.shard_timers().mean_round_utilization());
        }
        let (name, skew) = (format!("engine ({threads} threads)"), skew_cell(&rec));
        row(name, out.rounds, out.migrations, &out.state, ms, skew);
    }

    // The combined executor: sparse active-set sharded across the
    // persistent worker pool (same pool as the threaded rows above).
    // Rounds below the pooling threshold run sequentially, so the skew
    // profile only covers the pooled prefix of the run.
    for threads in [2usize, 8] {
        let (out, rec, ms) = observed(Executor::SparseThreaded(threads));
        let name = format!("engine (sparse, {threads} threads)");
        let skew = skew_cell(&rec);
        row(name, out.rounds, out.migrations, &out.state, ms, skew);
    }

    let (out, sparse_rec, ms) = observed(Executor::Sparse);
    let (name, skew) = ("engine (sparse active-set)".into(), skew_cell(&sparse_rec));
    row(name, out.rounds, out.migrations, &out.state, ms, skew);

    let t0 = Instant::now();
    let cfg = RuntimeConfig::new(seed, max_rounds).with_shards(4, 2);
    let out = run_distributed(&inst, start_state, &proto, cfg);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let (name, skew) = ("actor runtime (4×2 shards, sync)".into(), "—".into());
    row(name, out.rounds, out.migrations, &out.state, ms, skew);

    // Phase breakdown from the qlb-obs timers: where each executor's
    // round time actually goes.
    let mut phase_table = Table::new(
        "Table 8b — phase breakdown from qlb-obs timers (same runs)".to_string(),
        &["executor", "phase", "calls", "total (ms)", "share"],
    );
    for (name, rec) in [("sequential", &seq_rec), ("sparse", &sparse_rec)] {
        let grand = rec.timers().grand_total_ns().max(1);
        for &p in &Phase::ALL {
            let h = rec.timers().histogram(p);
            if h.count() == 0 {
                continue;
            }
            phase_table.row(vec![
                name.into(),
                p.name().into(),
                h.count().to_string(),
                format!("{:.2}", h.sum() as f64 / 1e6),
                format!("{:.1}%", 100.0 * h.sum() as f64 / grand as f64),
            ]);
        }
    }

    // Table 8c — the SoA round-view kernel that every executor's full
    // rounds run against the dense reference scan (the oracle's decide) on
    // one endgame round (most users satisfied, where the bitmap pre-filter
    // turns the round into a streaming scan). Decide phase only, same
    // measurement the `parallel/scaling` gate of `qlb-bench-check` re-runs
    // against `BENCH_parallel.json`.
    let endgame = qlb_engine::run(
        &inst,
        State::all_on(&inst, ResourceId(0)),
        &proto,
        RunConfig::new(seed, reference.rounds.saturating_sub(2).max(1)),
    );
    let eg_state = endgame.state;
    let reps = if quick { 5 } else { 20 };
    let time_ns = |f: &mut dyn FnMut()| {
        f();
        f(); // warm caches and buffers
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_nanos() as f64 / reps as f64
    };
    let mut out = Vec::new();
    let seq_ns = time_ns(&mut || {
        decide_round_into(&inst, &eg_state, &proto, seed, 9, &mut out);
    });
    let mut scale_table = Table::new(
        format!("Table 8c — SoA round-view kernel scaling (endgame round, decide only, n = {n})"),
        &[
            "threads",
            "seq decide (µs)",
            "SoA pooled decide (µs)",
            "speedup",
        ],
    );
    let view = RoundView::new(&inst, &eg_state);
    for threads in [1usize, 2, 4, 8] {
        let active = shards_for(n, threads);
        let chunk = shard_chunk(n, threads);
        let pool = WorkerPool::new(active);
        let slots: Vec<Mutex<(ShardDeltas, ShardScratch)>> = (0..active)
            .map(|_| Mutex::new((ShardDeltas::new(inst.num_resources()), ShardScratch::new())))
            .collect();
        let (view_ref, inst_ref, slots_ref) = (&view, &inst, &slots);
        let fill = move |shard: usize, buf: &mut Vec<Move>| {
            let lo = (shard * chunk).min(n);
            let hi = ((shard + 1) * chunk).min(n);
            if lo < hi {
                let mut slot = slots_ref[shard].lock().unwrap();
                let (deltas, scratch) = &mut *slot;
                view_ref.decide_shard_into(inst_ref, &proto, seed, 9, lo, hi, buf, scratch, deltas);
            }
        };
        let pooled_ns = time_ns(&mut || {
            pool.decide_round_on(fill, &mut out, false, active);
            for slot in slots_ref {
                slot.lock().unwrap().0.advance();
            }
        });
        scale_table.row(vec![
            threads.to_string(),
            format!("{:.1}", seq_ns / 1e3),
            format!("{:.1}", pooled_ns / 1e3),
            format!("{:.2}", seq_ns / pooled_ns),
        ]);
    }

    let notes = vec![
        format!(
            "equivalence check: all executors bit-identical to the dense reference loop: {}",
            if all_equal { "PASS" } else { "FAIL" }
        ),
        format!(
            "sparse executor round split (qlb-obs counters): {} dense warm-up + {} sparse \
             rounds, {} executor switch(es)",
            sparse_rec.counter(Counter::DenseRounds),
            sparse_rec.counter(Counter::SparseRounds),
            sparse_rec.counter(Counter::ExecutorSwitches),
        ),
        format!(
            "barrier skew = p95 of per-round (max − min) shard compute time from the \
             per-shard profile; {pooled_skew_rounds} pooled rounds profiled across the \
             threaded rows (— where the executor never dispatched a pooled round)"
        ),
        match util_8t {
            Some(u) => format!(
                "mean per-round shard utilization at 8 threads: {u:.1}% \
                 (Σ shard compute / (shards × slowest), averaged per round)"
            ),
            None => "mean per-round shard utilization at 8 threads: no pooled rounds profiled"
                .to_string(),
        },
    ];

    ExperimentResult {
        id: "E10",
        artifact: "Table 8",
        title: "Executor equivalence and parallel scaling",
        tables: vec![table, phase_table, scale_table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_equivalence_passes() {
        let res = run(true);
        assert!(res.notes[0].contains("PASS"), "{:?}", res.notes);
        // the reference loop, then nine executor rows
        assert_eq!(res.tables[0].num_rows(), 10);
        // phase breakdown covers both observed executors, and the SoA
        // scaling table has one row per thread count
        assert_eq!(res.tables.len(), 3);
        assert!(res.tables[1].num_rows() >= 4);
        assert_eq!(res.tables[2].num_rows(), 4);
        assert!(res.tables[2]
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .contains("speedup"));
        assert!(res.notes[1].contains("sparse"));
        // every genuinely pooled threaded row carries a numeric
        // barrier-skew cell; single-thread rows run without a pool and
        // show "—" like the reference row
        let csv = res.tables[0].to_csv();
        assert!(csv.lines().next().unwrap().contains("barrier skew p95"));
        for line in csv
            .lines()
            .filter(|l| l.contains(" threads)") && !l.contains("(1 threads)"))
        {
            assert!(!line.ends_with("—"), "missing skew on pooled row: {line}");
        }
        assert!(csv
            .lines()
            .find(|l| l.starts_with("engine (sequential)"))
            .unwrap()
            .ends_with("—"));
        assert!(res.notes[2].contains("barrier skew"));
    }
}
