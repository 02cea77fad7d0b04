//! **Dense vs. sparse round cost in the endgame.**
//!
//! The sparse active-set executor exists for one regime: late in a run,
//! when almost every user is satisfied, a dense round still pays `O(n)` to
//! discover that almost nobody acts, while a sparse round pays
//! `O(unsatisfied)`. This bench pins states at ≤ 1 % active for
//! n ∈ {10⁴, 10⁵, 10⁶} and times one decision round under each executor,
//! plus a full run-to-convergence from the same snapshot.
//!
//! The measurement lives in [`qlb_bench::checks::measure_sparse`] so this
//! bench and the `qlb-bench-check` regression gate time exactly the same
//! thing. Besides the usual criterion report lines it writes a
//! machine-readable before/after summary to `BENCH_sparse.json` at the
//! repository root (referenced from `CHANGES.md`).

use criterion::{Criterion, Throughput};
use qlb_bench::checks::{measure_sparse, SparseRow, ACTIVE_FRAC, BENCH_SEED as SEED};
use qlb_bench::endgame_pair;
use qlb_core::step::{decide_active_into, decide_round_into};
use qlb_core::{ActiveIndex, SlackDamped};
use std::hint::black_box;

const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

fn criterion_report(n: usize, c: &mut Criterion) {
    let (inst, state) = endgame_pair(n, SEED, ACTIVE_FRAC);
    let proto = SlackDamped::default();
    let index = ActiveIndex::new(&inst, &state);

    let mut g = c.benchmark_group(format!("endgame_round/n{n}"));
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("dense", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            decide_round_into(&inst, &state, &proto, SEED, 9, &mut buf);
            black_box(buf.len())
        })
    });
    g.bench_function("sparse", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            decide_active_into(&inst, &state, &index, &proto, SEED, 9, &mut buf);
            black_box(buf.len())
        })
    });
    g.finish();
}

fn write_summary(rows: &[SparseRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sparse.json");
    let mut entries = Vec::new();
    for r in rows {
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {},\n",
                "      \"unsatisfied\": {},\n",
                "      \"dense_round_ns\": {:.0},\n",
                "      \"sparse_round_ns\": {:.0},\n",
                "      \"dense_rounds_per_sec\": {:.1},\n",
                "      \"sparse_rounds_per_sec\": {:.1},\n",
                "      \"round_speedup\": {:.1},\n",
                "      \"dense_full_run_ms\": {:.2},\n",
                "      \"sparse_full_run_ms\": {:.2},\n",
                "      \"tight_slack_rounds\": {},\n",
                "      \"tight_slack_dense_ms\": {:.2},\n",
                "      \"tight_slack_sparse_ms\": {:.2},\n",
                "      \"tight_slack_speedup\": {:.1}\n",
                "    }}"
            ),
            r.n,
            r.active,
            r.dense_round_ns,
            r.sparse_round_ns,
            r.dense_rounds_per_sec(),
            r.sparse_rounds_per_sec(),
            r.speedup(),
            r.dense_run_ms,
            r.sparse_run_ms,
            r.tight_rounds,
            r.tight_dense_ms,
            r.tight_sparse_ms,
            r.tight_speedup(),
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"dense vs sparse active-set executor, endgame rounds\",\n",
            "  \"scenario\": {{\n",
            "    \"placement\": \"hotspot\",\n",
            "    \"gamma\": 1.25,\n",
            "    \"capacity\": 10,\n",
            "    \"resources\": \"n / 8\",\n",
            "    \"max_active_fraction\": {},\n",
            "    \"seed\": {}\n",
            "  }},\n",
            "  \"tight_slack_scenario\": \"as above but gamma = 1.001 (0.1% free slots), \
             full run from the hotspot start\",\n",
            "  \"protocol\": \"slack-damped\",\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        ACTIVE_FRAC,
        SEED,
        entries.join(",\n")
    );
    std::fs::write(path, json).expect("write BENCH_sparse.json");
    println!("wrote {path}");
}

fn main() {
    let mut c = Criterion::default();
    let mut rows = Vec::new();
    for n in SIZES {
        criterion_report(n, &mut c);
        let row = measure_sparse(n, 120);
        println!(
            "n = {:>7}: {:>5} unsatisfied | dense {:>12.0} ns/round, sparse {:>9.0} ns/round \
             ({:.1}x) | full run: dense {:.1} ms, sparse {:.1} ms | tight slack \
             ({} rounds): dense {:.0} ms, sparse {:.0} ms ({:.1}x)",
            row.n,
            row.active,
            row.dense_round_ns,
            row.sparse_round_ns,
            row.speedup(),
            row.dense_run_ms,
            row.sparse_run_ms,
            row.tight_rounds,
            row.tight_dense_ms,
            row.tight_sparse_ms,
            row.tight_speedup(),
        );
        rows.push(row);
    }
    write_summary(&rows);
}
