//! **E10 / Table 8 — executor equivalence and parallel scaling.**
//!
//! The determinism pillar: the sequential engine, the threaded engine (1–8
//! threads) and the synchronous actor runtime must produce *identical*
//! trajectories (rounds, migrations, final state) for the same seed, because
//! decisions are pure functions of `(seed, user, round)`. The table asserts
//! equivalence and reports wall-clock times (the HPC side: decision rounds
//! are embarrassingly parallel).

use crate::ExperimentResult;
use qlb_core::step::decide_round_into;
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

    // Reference: sequential engine, with the observability sink attached
    // so the phase breakdown below comes from qlb-obs timers.
    let mut ref_rec = Recorder::default();
    let t0 = Instant::now();
    let reference = run_observed(
        &inst,
        start_state.clone(),
        &proto,
        RunConfig::new(seed, max_rounds),
        &mut ref_rec,
    );
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(reference.converged);
    table.row(vec![
        "engine (sequential)".into(),
        reference.rounds.to_string(),
        reference.migrations.to_string(),
        "reference".into(),
        format!("{ref_ms:.1}"),
        skew_cell(&ref_rec),
    ]);

    // Pooled rows run observed with per-shard timing on (the default) so
    // the barrier-skew column comes from the same profile `qlb-trace
    // profile` reports. The recorder overhead is a few percent (see
    // BENCH_obs.json) and applies uniformly to the timed rows.
    let mut all_equal = true;
    let mut pooled_skew_rounds = 0u64;
    let mut util_8t = None;
    for threads in [1usize, 2, 4, 8] {
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let out = run_observed(
            &inst,
            start_state.clone(),
            &proto,
            RunConfig::new(seed, max_rounds).with_executor(Executor::Threaded(threads)),
            &mut rec,
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let same = out.rounds == reference.rounds
            && out.migrations == reference.migrations
            && out.state == reference.state;
        all_equal &= same;
        pooled_skew_rounds += rec.shard_timers().rounds();
        if threads == 8 && rec.shard_timers().rounds() > 0 {
            util_8t = Some(100.0 * rec.shard_timers().mean_round_utilization());
        }
        table.row(vec![
            format!("engine ({threads} threads)"),
            out.rounds.to_string(),
            out.migrations.to_string(),
            if same { "yes" } else { "NO" }.into(),
            format!("{ms:.1}"),
            skew_cell(&rec),
        ]);
    }

    // The combined executor: sparse active-set sharded across the
    // persistent worker pool (same pool as the threaded rows above).
    // Rounds below the pooling threshold run sequentially, so the skew
    // profile only covers the pooled prefix of the run.
    for threads in [2usize, 8] {
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let out = run_observed(
            &inst,
            start_state.clone(),
            &proto,
            RunConfig::new(seed, max_rounds).with_executor(Executor::SparseThreaded(threads)),
            &mut rec,
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let same = out.rounds == reference.rounds
            && out.migrations == reference.migrations
            && out.state == reference.state;
        all_equal &= same;
        table.row(vec![
            format!("engine (sparse, {threads} threads)"),
            out.rounds.to_string(),
            out.migrations.to_string(),
            if same { "yes" } else { "NO" }.into(),
            format!("{ms:.1}"),
            skew_cell(&rec),
        ]);
    }

    let mut sparse_rec = Recorder::default();
    let t0 = Instant::now();
    let sparse = run_observed(
        &inst,
        start_state.clone(),
        &proto,
        RunConfig::new(seed, max_rounds).with_executor(Executor::Sparse),
        &mut sparse_rec,
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let same = sparse.rounds == reference.rounds
        && sparse.migrations == reference.migrations
        && sparse.state == reference.state;
    all_equal &= same;
    table.row(vec![
        "engine (sparse active-set)".into(),
        sparse.rounds.to_string(),
        sparse.migrations.to_string(),
        if same { "yes" } else { "NO" }.into(),
        format!("{ms:.1}"),
        skew_cell(&sparse_rec),
    ]);

    let t0 = Instant::now();
    let dist = run_distributed(
        &inst,
        start_state,
        &proto,
        RuntimeConfig::new(seed, max_rounds).with_shards(4, 2),
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let same = dist.rounds == reference.rounds
        && dist.migrations == reference.migrations
        && dist.state == reference.state;
    all_equal &= same;
    table.row(vec![
        "actor runtime (4×2 shards, sync)".into(),
        dist.rounds.to_string(),
        dist.migrations.to_string(),
        if same { "yes" } else { "NO" }.into(),
        format!("{ms:.1}"),
        "—".into(),
    ]);

    // Phase breakdown from the qlb-obs timers: where each executor's
    // round time actually goes.
    let mut phase_table = Table::new(
        "Table 8b — phase breakdown from qlb-obs timers (same runs)".to_string(),
        &["executor", "phase", "calls", "total (ms)", "share"],
    );
    for (name, rec) in [("sequential", &ref_rec), ("sparse", &sparse_rec)] {
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

    // Table 8c — the SoA round-view kernel against the dense sequential
    // decide on one endgame round (most users satisfied, where the bitmap
    // pre-filter turns the round into a streaming scan). Decide phase
    // only, same measurement the `parallel/scaling` gate of
    // `qlb-bench-check` re-runs against `BENCH_parallel.json`.
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
            "equivalence check: all executors bit-identical to the sequential reference: {}",
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
        assert_eq!(res.tables[0].num_rows(), 9);
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
        // barrier-skew cell; single-thread rows fall back to the
        // sequential scan and show "—" like the reference row
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
