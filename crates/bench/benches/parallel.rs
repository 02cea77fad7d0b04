//! **Persistent worker-pool executor: dispatch overhead, SoA round
//! scaling, and sparse drivers.**
//!
//! The pre-pool threaded executor paid a full `std::thread` spawn + join
//! and a fresh `Vec<Vec<Move>>` per round. The [`WorkerPool`] replaces
//! that with long-lived parked workers (one epoch bump + `unpark` per
//! non-empty shard) and per-shard move buffers that persist across rounds,
//! so steady-state rounds perform **zero allocations** — asserted below
//! with a counting global allocator, not just claimed, for both the
//! `State`-walking fill and the struct-of-arrays [`RoundView`] kernel. The
//! `scaling` section times the SoA two-pass kernel (bitmap filter, batched
//! RNG, per-shard deltas) against the dense sequential reference at 1–8
//! threads; the remaining sections time the sparse active-set paths of the
//! open-system driver and of weighted closed runs on the endgame-heavy
//! workloads they exist for.
//!
//! The measurements live in [`qlb_bench::checks`] so this bench and the
//! `qlb-bench-check` regression gate time exactly the same thing. Writes a
//! machine-readable summary to `BENCH_parallel.json` at the repository
//! root (referenced from `CHANGES.md`).

use qlb_bench::checks::{
    measure_dispatch, measure_open_sparse, measure_pool_round, measure_scaling,
    measure_weighted_sparse, DispatchRow, OpenSparseRow, PoolRoundRow, ScalingRow,
    WeightedSparseRow, ACTIVE_FRAC, BENCH_SEED as SEED,
};
use qlb_bench::endgame_pair;
use qlb_core::step::decide_range_into;
use qlb_core::{Move, RoundView, ShardDeltas, ShardScratch, SlackDamped};
use qlb_engine::{shard_chunk, shards_for, WorkerPool};
use std::sync::Mutex;

// The shared counting allocator behind all memory gates (`qlb_obs::mem`)
// makes the steady-state no-alloc claim of the pooled round checkable,
// not aspirational.
#[global_allocator]
static GLOBAL: qlb_obs::CountingAlloc = qlb_obs::CountingAlloc;

/// Steady-state pooled rounds must not touch the allocator: warm the pool
/// buffers up, then run 32 more rounds and demand the global allocation
/// counter stands still. (The scoped-spawn baseline allocates every round
/// by construction — thread stacks and fresh buffers.)
fn assert_no_alloc_per_round(n: usize, threads: usize) {
    let (inst, state) = endgame_pair(n, SEED, ACTIVE_FRAC);
    let proto = SlackDamped::default();
    let pool = WorkerPool::new(threads);
    let chunk = n.div_ceil(threads).max(1);
    let fill = |shard: usize, buf: &mut Vec<Move>| {
        let lo = (shard * chunk).min(n);
        let hi = (lo + chunk).min(n);
        decide_range_into(&inst, &state, &proto, SEED, 9, lo, hi, buf);
    };
    let mut out = Vec::new();
    for _ in 0..8 {
        pool.decide_round_on(fill, &mut out, false, threads); // warm-up: buffers grow once
    }
    let before = qlb_obs::mem::total_allocs();
    for _ in 0..32 {
        pool.decide_round_on(fill, &mut out, false, threads);
    }
    let after = qlb_obs::mem::total_allocs();
    assert_eq!(
        after - before,
        0,
        "pooled rounds allocated {} times in steady state",
        after - before
    );
    println!("no-alloc check: 32 pooled rounds (n = {n}, {threads} threads), 0 allocations");
}

/// Same steady-state discipline for the SoA view kernel: after warm-up the
/// bitmap filter, batched RNG buffer, active-index scratch, and per-shard
/// delta lists must all reuse their capacity.
fn assert_no_alloc_view_round(n: usize, threads: usize) {
    let (inst, state) = endgame_pair(n, SEED, ACTIVE_FRAC);
    let proto = SlackDamped::default();
    let active = shards_for(n, threads);
    let chunk = shard_chunk(n, threads);
    let pool = WorkerPool::new(active);
    let view = RoundView::new(&inst, &state);
    let slots: Vec<Mutex<(ShardDeltas, ShardScratch)>> = (0..active)
        .map(|_| Mutex::new((ShardDeltas::new(inst.num_resources()), ShardScratch::new())))
        .collect();
    let slots_ref = &slots;
    let view_ref = &view;
    let inst_ref = &inst;
    let fill = move |shard: usize, buf: &mut Vec<Move>| {
        let lo = (shard * chunk).min(n);
        let hi = ((shard + 1) * chunk).min(n);
        if lo < hi {
            let mut slot = slots_ref[shard].lock().unwrap();
            let (deltas, scratch) = &mut *slot;
            view_ref.decide_shard_into(inst_ref, &proto, SEED, 9, lo, hi, buf, scratch, deltas);
        }
    };
    let mut out = Vec::new();
    let round = |out: &mut Vec<Move>| {
        pool.decide_round_on(fill, out, false, active);
        for slot in slots_ref {
            slot.lock().unwrap().0.advance();
        }
    };
    for _ in 0..8 {
        round(&mut out); // warm-up: scratch and delta buffers grow once
    }
    let before = qlb_obs::mem::total_allocs();
    for _ in 0..32 {
        round(&mut out);
    }
    let after = qlb_obs::mem::total_allocs();
    assert_eq!(
        after - before,
        0,
        "SoA view rounds allocated {} times in steady state",
        after - before
    );
    println!("no-alloc check: 32 SoA view rounds (n = {n}, {threads} threads), 0 allocations");
}

fn write_summary(
    dispatch: &DispatchRow,
    rounds: &[PoolRoundRow],
    scaling: &[ScalingRow],
    open: &OpenSparseRow,
    weighted: &WeightedSparseRow,
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    let mut scaling_rows = Vec::new();
    for r in scaling {
        scaling_rows.push(format!(
            concat!(
                "      {{\n",
                "        \"n\": {},\n",
                "        \"threads\": {},\n",
                "        \"seq_round_ns\": {:.0},\n",
                "        \"pooled_round_ns\": {:.0},\n",
                "        \"speedup\": {:.2}\n",
                "      }}"
            ),
            r.n,
            r.threads,
            r.seq_round_ns,
            r.pooled_round_ns,
            r.speedup(),
        ));
    }
    let mut latency = Vec::new();
    for r in rounds {
        latency.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {},\n",
                "      \"threads\": {},\n",
                "      \"seq_round_ns\": {:.0},\n",
                "      \"scoped_spawn_round_ns\": {:.0},\n",
                "      \"pooled_round_ns\": {:.0}\n",
                "    }}"
            ),
            r.n, r.threads, r.seq_round_ns, r.scoped_round_ns, r.pooled_round_ns,
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persistent worker-pool executor, SoA round scaling, and sparse \
             open/weighted drivers\",\n",
            "  \"seed\": {},\n",
            "  \"dispatch_overhead\": {{\n",
            "    \"comment\": \"no-op round: pure executor overhead, scoped spawn vs pool\",\n",
            "    \"threads\": {},\n",
            "    \"scoped_spawn_ns\": {:.0},\n",
            "    \"pool_ns\": {:.0},\n",
            "    \"reduction\": {:.1}\n",
            "  }},\n",
            "  \"round_latency\": [\n{}\n  ],\n",
            "  \"scaling\": {{\n",
            "    \"comment\": \"SoA RoundView kernel (bitmap filter + batched RNG + per-shard \
             deltas) vs dense sequential decide on the same endgame round\",\n",
            "    \"rows\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"open_sparse\": {{\n",
            "    \"comment\": \"open system at rho = 0.3, pool 4x capacity (mostly parked)\",\n",
            "    \"m\": {},\n",
            "    \"pool\": {},\n",
            "    \"rounds\": {},\n",
            "    \"mean_active\": {:.1},\n",
            "    \"dense_ms\": {:.2},\n",
            "    \"sparse_ms\": {:.2},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"weighted_sparse\": {{\n",
            "    \"comment\": \"tight-slack weighted run (gamma = 1.005, hotspot start)\",\n",
            "    \"n\": {},\n",
            "    \"rounds\": {},\n",
            "    \"dense_ms\": {:.2},\n",
            "    \"sparse_ms\": {:.2},\n",
            "    \"speedup\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        SEED,
        dispatch.threads,
        dispatch.scoped_spawn_ns,
        dispatch.pool_ns,
        dispatch.reduction(),
        latency.join(",\n"),
        scaling_rows.join(",\n"),
        open.m,
        open.pool,
        open.rounds,
        open.mean_active,
        open.dense_ms,
        open.sparse_ms,
        open.speedup(),
        weighted.n,
        weighted.rounds,
        weighted.dense_ms,
        weighted.sparse_ms,
        weighted.speedup(),
    );
    std::fs::write(path, json).expect("write BENCH_parallel.json");
    println!("wrote {path}");
}

fn main() {
    assert_no_alloc_per_round(100_000, 8);
    assert_no_alloc_view_round(100_000, 8);

    let dispatch = measure_dispatch(8, 200);
    println!(
        "dispatch (8 threads, no-op round): scoped spawn {:>9.0} ns, pool {:>7.0} ns ({:.1}x)",
        dispatch.scoped_spawn_ns,
        dispatch.pool_ns,
        dispatch.reduction()
    );

    let mut rounds = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let row = measure_pool_round(1_000_000, threads, 120);
        println!(
            "endgame round n = {:>7}, {} threads: seq {:>10.0} ns | scoped {:>10.0} ns | \
             pooled {:>10.0} ns",
            row.n, row.threads, row.seq_round_ns, row.scoped_round_ns, row.pooled_round_ns,
        );
        rounds.push(row);
    }

    let scaling = measure_scaling(1_000_000, &[1, 2, 4, 8], 120);
    for row in &scaling {
        println!(
            "SoA scaling n = {:>7}, {} threads: seq {:>10.0} ns | pooled {:>10.0} ns ({:.2}x)",
            row.n,
            row.threads,
            row.seq_round_ns,
            row.pooled_round_ns,
            row.speedup(),
        );
    }

    let open = measure_open_sparse(256, 2_000);
    println!(
        "open system (m = {}, pool = {}, {} rounds, mean active {:.0}): dense {:.1} ms, \
         sparse {:.1} ms ({:.1}x)",
        open.m,
        open.pool,
        open.rounds,
        open.mean_active,
        open.dense_ms,
        open.sparse_ms,
        open.speedup()
    );

    let weighted = measure_weighted_sparse(100_000);
    println!(
        "weighted tight slack (n = {}, {} rounds): dense {:.1} ms, sparse {:.1} ms ({:.1}x)",
        weighted.n,
        weighted.rounds,
        weighted.dense_ms,
        weighted.sparse_ms,
        weighted.speedup()
    );

    write_summary(&dispatch, &rounds, &scaling, &open, &weighted);
}
