//! **Memory-scale gate: bytes per user and steady-state allocation.**
//!
//! The view-only pooled round is claimed to be zero-copy and zero-alloc
//! in steady state. This bench measures that under the counting global
//! allocator ([`qlb_obs::mem`]) instead of asserting it from the source:
//!
//! * **`dense-seq`** — working set of one dense `State`; 32 warm rounds of
//!   the dense reference scan `decide_round_into` (alloc-free by buffer
//!   reuse). It measures the tests' oracle, not the `Dense` executor,
//!   which runs the view kernel below as one shard;
//! * **`pooled-soa`** — working set of the `RoundView` + shard slots +
//!   pool; 32 full steady-state rounds (decide → merge → apply → repair)
//!   which must allocate **nothing**, so their peak is 0 bytes — the
//!   committed ≤ 12 bytes/user acceptance gate at n = 10⁶.
//!
//! The measurements live in [`qlb_bench::checks`] so this bench and the
//! `qlb-bench-check` regression gate count exactly the same allocations.
//! Writes `BENCH_mem.json` at the repository root.

use qlb_bench::checks::{measure_mem_dense, measure_mem_pooled, MemRow};

#[global_allocator]
static GLOBAL: qlb_obs::CountingAlloc = qlb_obs::CountingAlloc;

/// Hard acceptance gate: steady-state pooled round peak, bytes/user.
const POOLED_ROUND_PEAK_PER_USER_MAX: f64 = 12.0;

fn row_json(r: &MemRow) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"executor\": \"{}\",\n",
            "      \"n\": {},\n",
            "      \"threads\": {},\n",
            "      \"working_set_bytes\": {},\n",
            "      \"working_set_bytes_per_user\": {:.3},\n",
            "      \"round_peak_bytes\": {},\n",
            "      \"round_peak_bytes_per_user\": {:.3},\n",
            "      \"steady_allocs\": {}\n",
            "    }}"
        ),
        r.executor,
        r.n,
        r.threads,
        r.working_set_bytes,
        r.working_set_bytes_per_user(),
        r.round_peak_bytes,
        r.round_peak_bytes_per_user(),
        r.steady_allocs,
    )
}

fn write_summary(rows: &[MemRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mem.json");
    let body: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"memory footprint and steady-state allocation per executor\",\n",
            "  \"seed\": {},\n",
            "  \"comment\": \"counting-allocator high-water marks over 32 steady-state \
             rounds after warm-up\",\n",
            "  \"gates\": {{\n",
            "    \"pooled_round_peak_bytes_per_user_max\": {:.1},\n",
            "    \"pooled_steady_allocs_max\": 0\n",
            "  }},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        qlb_bench::checks::BENCH_SEED,
        POOLED_ROUND_PEAK_PER_USER_MAX,
        body.join(",\n"),
    );
    std::fs::write(path, json).expect("write BENCH_mem.json");
    println!("wrote {path}");
}

fn main() {
    let n = 1_000_000;
    let mut rows = Vec::new();
    for row in [measure_mem_dense(n), measure_mem_pooled(n, 8)] {
        println!(
            "{:>10} n = {:>8}, {} threads: working set {:>7.2} B/user | region peak \
             {:>7.2} B/user ({} allocs)",
            row.executor,
            row.n,
            row.threads,
            row.working_set_bytes_per_user(),
            row.round_peak_bytes_per_user(),
            row.steady_allocs,
        );
        rows.push(row);
    }

    let pooled = rows
        .iter()
        .find(|r| r.executor == "pooled-soa")
        .expect("pooled row measured");
    assert_eq!(
        pooled.steady_allocs, 0,
        "view-only pooled rounds allocated in steady state"
    );
    assert!(
        pooled.round_peak_bytes_per_user() <= POOLED_ROUND_PEAK_PER_USER_MAX,
        "steady-state pooled round peaked at {:.2} B/user (gate {POOLED_ROUND_PEAK_PER_USER_MAX})",
        pooled.round_peak_bytes_per_user()
    );
    println!(
        "gate: steady-state pooled round peak {:.2} B/user <= {POOLED_ROUND_PEAK_PER_USER_MAX}, \
         0 allocations",
        pooled.round_peak_bytes_per_user()
    );

    write_summary(&rows);
}
