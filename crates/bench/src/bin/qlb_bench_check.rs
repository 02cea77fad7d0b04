//! `qlb-bench-check` — the metrics-driven performance regression gate.
//!
//! Re-runs the measurements behind the committed `BENCH_sparse.json`,
//! `BENCH_parallel.json` and `BENCH_obs.json` (through the same code in
//! `qlb_bench::checks`, so the numbers are comparable by construction)
//! and fails if the machine under test regresses beyond tolerance:
//!
//! * **sparse executor**: the measured endgame round speedup and the
//!   tight-slack full-run speedup must reach at least `--speedup-tolerance`
//!   (default 0.35) of the committed values — a gate on *ratios*, so it is
//!   robust to the absolute speed of the machine;
//! * **worker pool**: pooled round dispatch must stay at least 5× cheaper
//!   than the scoped-spawn baseline, the SoA `RoundView` pooled round must
//!   stay at least 3× faster than the dense sequential round at the
//!   committed top thread count, and the sparse open-system and weighted
//!   drivers must beat their dense counterparts outright on the committed
//!   endgame-heavy workloads (`BENCH_parallel.json`);
//! * **observability sinks**: the measured NoopSink and Recorder overheads
//!   must stay under the budgets recorded in `BENCH_obs.json`
//!   (`noop_overhead_budget_pct`, `recorder_overhead_budget_pct`) plus a
//!   noise margin (`--overhead-margin`, default 3 percentage points), and
//!   the windowed telemetry plane's marginal cost on the serving loop must
//!   stay inside the committed `windowed` budget (< 2 %) the same way, and
//!   the causal span layer at the daemon's default `--span-sample 64` must
//!   stay inside the committed `spans` budget (< 2 %) with its disabled
//!   branch at ≈ 0;
//! * **serving stack**: steady-state placements/sec through the full
//!   `qlb-serve` request path must reach at least `--speedup-tolerance` of
//!   the committed throughput AND the hard acceptance floor recorded in
//!   `BENCH_serve.json` (`floor_places_per_sec`, 50k/s), placement p95
//!   latency must stay within `1/tolerance` of the committed value, and
//!   the background rebalancer must never starve under backlog;
//! * **memory** (`BENCH_mem.json`): the view-only pooled round must run
//!   32 steady-state rounds with **zero** allocations and a round peak at
//!   or under the committed 12 bytes/user acceptance budget (exact, so
//!   enforced identically in `--quick`), and every executor's working-set
//!   bytes/user must stay within `--mem-growth` (default 1.35×) of the
//!   committed baseline.
//!
//! ```text
//! qlb-bench-check            # full gate (the committed sizes up to 10^5)
//! qlb-bench-check --quick    # CI smoke: smallest size per gate, ~seconds
//! ```
//!
//! Exit status 0 = all gates pass; 1 = regression; 2 = bad usage or
//! missing/corrupt baseline JSON.

use qlb_bench::checks::{
    measure_dispatch, measure_mem_dense, measure_mem_pooled, measure_obs, measure_open_sparse,
    measure_scaling, measure_serve, measure_shard_timing, measure_spans, measure_sparse,
    measure_weighted_sparse, measure_window, MemRow,
};
use serde_json::{parse_value_str, Value};
use std::process::exit;

// The memory gates count real allocations, so the gate binary itself runs
// under the shared counting allocator (same one the benches install).
#[global_allocator]
static GLOBAL: qlb_obs::CountingAlloc = qlb_obs::CountingAlloc;

struct Gate {
    name: String,
    passed: bool,
    detail: String,
}

fn load_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        exit(2);
    });
    parse_value_str(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline {path}: {e}");
        exit(2);
    })
}

fn f64_field(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Find the committed result row for size `n`.
fn result_row(baseline: &Value, n: usize) -> Option<&Value> {
    match baseline.get("results") {
        Some(Value::Array(rows)) => rows
            .iter()
            .find(|r| r.get("n").and_then(Value::as_u64) == Some(n as u64)),
        _ => None,
    }
}

fn check_sparse(baseline: &Value, sizes: &[usize], tolerance: f64, gates: &mut Vec<Gate>) {
    for &n in sizes {
        let Some(row) = result_row(baseline, n) else {
            gates.push(Gate {
                name: format!("sparse/n{n}"),
                passed: false,
                detail: format!("no committed row for n = {n} in BENCH_sparse.json"),
            });
            continue;
        };
        let committed_round = f64_field(row, "round_speedup").unwrap_or(0.0);
        let committed_tight = f64_field(row, "tight_slack_speedup").unwrap_or(0.0);
        let measured = measure_sparse(n, 60);
        let round = measured.speedup();
        let tight = measured.tight_speedup();
        let round_floor = committed_round * tolerance;
        let tight_floor = committed_tight * tolerance;
        gates.push(Gate {
            name: format!("sparse/n{n}/round_speedup"),
            passed: round >= round_floor,
            detail: format!(
                "measured {round:.1}x vs committed {committed_round:.1}x \
                 (floor {round_floor:.1}x at tolerance {tolerance})"
            ),
        });
        gates.push(Gate {
            name: format!("sparse/n{n}/tight_slack_speedup"),
            passed: tight >= tight_floor,
            detail: format!(
                "measured {tight:.1}x vs committed {committed_tight:.1}x \
                 (floor {tight_floor:.1}x at tolerance {tolerance})"
            ),
        });
    }
}

/// Gates for `BENCH_parallel.json`. Unlike the size-swept sparse/obs
/// gates, each section here has one committed configuration, re-measured
/// identically in quick and full mode (all three are seconds-fast). The
/// floors combine the relative tolerance with the PR's hard acceptance
/// criteria: pooled dispatch must stay ≥ 5× cheaper than scoped spawn,
/// and the sparse open/weighted drivers must beat dense outright.
fn check_parallel(baseline: &Value, tolerance: f64, gates: &mut Vec<Gate>) {
    if let Some(d) = baseline.get("dispatch_overhead") {
        let threads = d.get("threads").and_then(Value::as_u64).unwrap_or(8) as usize;
        let committed = f64_field(d, "reduction").unwrap_or(0.0);
        let measured = measure_dispatch(threads, 100).reduction();
        let floor = (committed * tolerance).max(5.0);
        gates.push(Gate {
            name: format!("parallel/dispatch_reduction/t{threads}"),
            passed: measured >= floor,
            detail: format!(
                "pool {measured:.1}x cheaper than scoped spawn vs committed {committed:.1}x \
                 (floor {floor:.1}x)"
            ),
        });
    } else {
        gates.push(Gate {
            name: "parallel/dispatch_reduction".into(),
            passed: false,
            detail: "no dispatch_overhead section in BENCH_parallel.json".into(),
        });
    }
    let scaling_row = baseline
        .get("scaling")
        .and_then(|s| s.get("rows"))
        .and_then(|rows| match rows {
            Value::Array(rows) => rows
                .iter()
                .max_by_key(|r| r.get("threads").and_then(Value::as_u64).unwrap_or(0)),
            _ => None,
        });
    if let Some(row) = scaling_row {
        let n = row.get("n").and_then(Value::as_u64).unwrap_or(1_000_000) as usize;
        let threads = row.get("threads").and_then(Value::as_u64).unwrap_or(8) as usize;
        let committed = f64_field(row, "speedup").unwrap_or(0.0);
        let measured = measure_scaling(n, &[threads], 60)
            .first()
            .map(|r| r.speedup())
            .unwrap_or(0.0);
        // hard floor from the PR acceptance criteria: the SoA pooled round
        // must be ≥ 3× faster than the dense sequential round at the
        // committed top thread count, whatever the machine
        let floor = (committed * tolerance).max(3.0);
        gates.push(Gate {
            name: format!("parallel/scaling_speedup/n{n}/t{threads}"),
            passed: measured >= floor,
            detail: format!(
                "SoA pooled round {measured:.2}x vs dense sequential, committed {committed:.2}x \
                 (floor {floor:.2}x)"
            ),
        });
    } else {
        gates.push(Gate {
            name: "parallel/scaling_speedup".into(),
            passed: false,
            detail: "no scaling section in BENCH_parallel.json".into(),
        });
    }
    if let Some(o) = baseline.get("open_sparse") {
        let m = o.get("m").and_then(Value::as_u64).unwrap_or(256) as usize;
        let rounds = o.get("rounds").and_then(Value::as_u64).unwrap_or(2_000);
        let committed = f64_field(o, "speedup").unwrap_or(0.0);
        let measured = measure_open_sparse(m, rounds).speedup();
        let floor = (committed * tolerance).max(1.0);
        gates.push(Gate {
            name: format!("parallel/open_sparse_speedup/m{m}"),
            passed: measured >= floor,
            detail: format!(
                "sparse {measured:.1}x vs dense, committed {committed:.1}x (floor {floor:.1}x)"
            ),
        });
    } else {
        gates.push(Gate {
            name: "parallel/open_sparse_speedup".into(),
            passed: false,
            detail: "no open_sparse section in BENCH_parallel.json".into(),
        });
    }
    if let Some(w) = baseline.get("weighted_sparse") {
        let n = w.get("n").and_then(Value::as_u64).unwrap_or(100_000) as usize;
        let committed = f64_field(w, "speedup").unwrap_or(0.0);
        let measured = measure_weighted_sparse(n).speedup();
        let floor = (committed * tolerance).max(1.0);
        gates.push(Gate {
            name: format!("parallel/weighted_sparse_speedup/n{n}"),
            passed: measured >= floor,
            detail: format!(
                "sparse {measured:.1}x vs dense, committed {committed:.1}x (floor {floor:.1}x)"
            ),
        });
    } else {
        gates.push(Gate {
            name: "parallel/weighted_sparse_speedup".into(),
            passed: false,
            detail: "no weighted_sparse section in BENCH_parallel.json".into(),
        });
    }
}

fn check_obs(baseline: &Value, sizes: &[usize], reps: usize, margin: f64, gates: &mut Vec<Gate>) {
    // budgets live at the top level of BENCH_obs.json; fall back to the
    // historical budget prose ("< 2%") if a field is missing
    let noop_budget = f64_field(baseline, "noop_overhead_budget_pct").unwrap_or(2.0);
    let recorder_budget = f64_field(baseline, "recorder_overhead_budget_pct").unwrap_or(10.0);
    for &n in sizes {
        let measured = measure_obs(n, reps);
        let noop_cap = noop_budget + margin;
        let rec_cap = recorder_budget + margin;
        gates.push(Gate {
            name: format!("obs/n{n}/noop_overhead"),
            passed: measured.noop_overhead_pct <= noop_cap,
            detail: format!(
                "measured {:+.2}% vs budget {noop_budget:.1}% (+{margin:.1} noise margin)",
                measured.noop_overhead_pct
            ),
        });
        gates.push(Gate {
            name: format!("obs/n{n}/recorder_overhead"),
            passed: measured.recorder_overhead_pct <= rec_cap,
            detail: format!(
                "measured {:+.2}% vs budget {recorder_budget:.1}% (+{margin:.1} noise margin)",
                measured.recorder_overhead_pct
            ),
        });
    }
}

/// Gate on the per-shard profiling cost recorded in the `shard_timing`
/// section of `BENCH_obs.json`: the marginal on-vs-off overhead under the
/// recorder must stay inside its committed budget, and the NoopSink path
/// must stay at ≈ 0 % (the profiling hook compiles away entirely).
fn check_shard_timing(baseline: &Value, reps: usize, margin: f64, gates: &mut Vec<Gate>) {
    let Some(section) = baseline.get("shard_timing") else {
        gates.push(Gate {
            name: "obs/shard_timing".into(),
            passed: false,
            detail: "no shard_timing section in BENCH_obs.json".into(),
        });
        return;
    };
    let n = section.get("n").and_then(Value::as_u64).unwrap_or(65_536) as usize;
    let threads = section.get("threads").and_then(Value::as_u64).unwrap_or(8) as usize;
    let budget = f64_field(section, "timing_overhead_budget_pct").unwrap_or(2.0);
    // The pooled 8-thread kernel converges in a handful of rounds, so one
    // repetition is a few ms and scheduler noise per rep runs several
    // percent — too wide for the ≈-0 noop gate at `--quick` rep counts.
    // Reps are cheap here; take enough for a stable paired median.
    let measured = measure_shard_timing(n, threads, reps.max(21));
    // Even the paired median swings ±4–5% on this kernel (thread placement
    // persists within one run invocation), so the ≈-0 noop gate gets twice
    // the sequential-kernel noise margin: it exists to catch a broken
    // `const ENABLED` short-circuit, not sub-noise drift.
    let noop_cap = 2.0 * margin;
    gates.push(Gate {
        name: format!("obs/shard_timing/n{n}_t{threads}/noop"),
        passed: measured.noop_overhead_pct <= noop_cap,
        detail: format!(
            "NoopSink pooled run {:+.2}% vs plain (must be ≈ 0: cap {noop_cap:.1}%)",
            measured.noop_overhead_pct
        ),
    });
    gates.push(Gate {
        name: format!("obs/shard_timing/n{n}_t{threads}/marginal"),
        passed: measured.timing_overhead_pct <= budget + margin,
        detail: format!(
            "per-shard profile {:+.2}% on vs off under the recorder \
             (budget {budget:.1}% +{margin:.1} noise margin)",
            measured.timing_overhead_pct
        ),
    });
}

/// Gate on the windowed-telemetry cost recorded in the `windowed` section
/// of `BENCH_obs.json`: the marginal overhead of feeding the live
/// telemetry plane (per-request latency into the windowed aggregator,
/// per-tick SLO accounting, periodic snapshots) on the steady-state
/// serving loop must stay inside its committed budget. Runs in `--quick`
/// too — at a shorter batch, never a smaller cadence, so the snapshot path
/// is always exercised.
fn check_window(baseline: &Value, quick: bool, reps: usize, margin: f64, gates: &mut Vec<Gate>) {
    let Some(section) = baseline.get("windowed") else {
        gates.push(Gate {
            name: "obs/windowed".into(),
            passed: false,
            detail: "no windowed section in BENCH_obs.json".into(),
        });
        return;
    };
    let n = section.get("n").and_then(Value::as_u64).unwrap_or(65_536) as usize;
    let committed_requests = section
        .get("requests_per_rep")
        .and_then(Value::as_u64)
        .unwrap_or(16_384);
    // a quarter batch still spans 16+ rebalancer ticks, so every telemetry
    // rep crosses at least one snapshot cadence
    let requests = if quick {
        (committed_requests / 4).max(2_048)
    } else {
        committed_requests
    };
    let budget = f64_field(section, "window_overhead_budget_pct").unwrap_or(2.0);
    // same few-ms-per-rep noise profile as the shard-timing gate: take
    // enough reps for a stable paired median
    let measured = measure_window(n, requests, reps.max(15));
    gates.push(Gate {
        name: format!("obs/windowed/n{n}/marginal"),
        passed: measured.window_overhead_pct <= budget + margin,
        detail: format!(
            "telemetry plane {:+.2}% on vs off the serving loop, {} snapshots \
             (budget {budget:.1}% +{margin:.1} noise margin)",
            measured.window_overhead_pct, measured.snapshots
        ),
    });
}

/// Gate on the causal-span cost recorded in the `spans` section of
/// `BENCH_obs.json`: at the daemon's default head-sampling rate
/// (`--span-sample 64`) the span layer's marginal overhead on the
/// steady-state serving loop must stay inside the committed budget (the
/// < 2 % acceptance criterion), and the spans-disabled branch must stay
/// at ≈ 0 (the spanned dispatch refactor may not tax untraced requests).
/// Runs in `--quick` too, at the same shortened batch as the windowed
/// gate.
fn check_spans(baseline: &Value, quick: bool, reps: usize, margin: f64, gates: &mut Vec<Gate>) {
    let Some(section) = baseline.get("spans") else {
        gates.push(Gate {
            name: "obs/spans".into(),
            passed: false,
            detail: "no spans section in BENCH_obs.json".into(),
        });
        return;
    };
    let n = section.get("n").and_then(Value::as_u64).unwrap_or(65_536) as usize;
    let committed_requests = section
        .get("requests_per_rep")
        .and_then(Value::as_u64)
        .unwrap_or(16_384);
    let requests = if quick {
        (committed_requests / 4).max(2_048)
    } else {
        committed_requests
    };
    let budget = f64_field(section, "sample64_overhead_budget_pct").unwrap_or(2.0);
    let measured = measure_spans(n, requests, reps.max(15));
    gates.push(Gate {
        name: format!("obs/spans/n{n}/sample64"),
        passed: measured.sample64_overhead_pct <= budget + margin,
        detail: format!(
            "span plane at --span-sample 64 {:+.2}% on vs off the serving loop \
             (budget {budget:.1}% +{margin:.1} noise margin)",
            measured.sample64_overhead_pct
        ),
    });
    // same doubled margin as the shard-timing ≈-0 gate: this exists to
    // catch a sampled-out path that started doing real work, not noise
    let off_cap = 2.0 * margin;
    gates.push(Gate {
        name: format!("obs/spans/n{n}/disabled"),
        passed: measured.disabled_overhead_pct <= off_cap,
        detail: format!(
            "spans-off branch {:+.2}% vs plain dispatch (must be ≈ 0: cap {off_cap:.1}%)",
            measured.disabled_overhead_pct
        ),
    });
}

/// Gates for `BENCH_serve.json`: the steady-state serving loop (depart +
/// place through `handle_line`, rebalancer ticking under synthetic
/// backlog) re-measured at the committed sizes. Three gates per size:
///
/// * throughput ≥ max(committed × tolerance, `floor_places_per_sec`) —
///   the hard 50k/s acceptance floor applies at every size, so `--quick`
///   enforces it too;
/// * placement p95 ≤ committed p95 / tolerance (latency gates invert:
///   bigger is worse);
/// * zero starved ticks — the budget floor (`tick_budget ≥ 1`) must hold
///   however deep the backlog.
fn check_serve(baseline: &Value, sizes: &[usize], tolerance: f64, gates: &mut Vec<Gate>) {
    let hard_floor = f64_field(baseline, "floor_places_per_sec").unwrap_or(50_000.0);
    for &n in sizes {
        let Some(row) = result_row(baseline, n) else {
            gates.push(Gate {
                name: format!("serve/n{n}"),
                passed: false,
                detail: format!("no committed row for n = {n} in BENCH_serve.json"),
            });
            continue;
        };
        let requests = row
            .get("requests")
            .and_then(Value::as_u64)
            .unwrap_or(60_000);
        let committed_pps = f64_field(row, "places_per_sec").unwrap_or(0.0);
        let committed_p95 = f64_field(row, "place_p95_us").unwrap_or(0.0);
        let measured = measure_serve(n, requests);
        let pps = measured.places_per_sec();
        let floor = (committed_pps * tolerance).max(hard_floor);
        gates.push(Gate {
            name: format!("serve/n{n}/places_per_sec"),
            passed: pps >= floor,
            detail: format!(
                "measured {pps:.0}/s vs committed {committed_pps:.0}/s \
                 (floor {floor:.0}/s incl. the {hard_floor:.0}/s acceptance floor)"
            ),
        });
        let p95_us = measured.place_p95_ns as f64 / 1e3;
        let cap = committed_p95 / tolerance;
        gates.push(Gate {
            name: format!("serve/n{n}/place_p95"),
            passed: committed_p95 > 0.0 && p95_us <= cap,
            detail: format!(
                "measured p95 {p95_us:.2} µs vs committed {committed_p95:.2} µs \
                 (cap {cap:.2} µs at tolerance {tolerance})"
            ),
        });
        gates.push(Gate {
            name: format!("serve/n{n}/rebalancer_liveness"),
            passed: measured.starved_ticks == 0,
            detail: format!(
                "{} of {} backlogged ticks ran zero rebalance rounds \
                 (budget floor must keep the rebalancer live)",
                measured.starved_ticks, measured.ticks
            ),
        });
    }
}

/// Gates for `BENCH_mem.json`: re-measure each committed executor row at
/// its committed size and enforce
///
/// * the **hard acceptance gates** on the view-only pooled round —
///   zero steady-state allocations, and a steady-state round peak at or
///   under the committed `pooled_round_peak_bytes_per_user_max` budget
///   (12 bytes/user at n = 10⁶) — in `--quick` too: allocation counts
///   are exact, not timing-noisy, so there is no small-size variant;
/// * a **regression cap** on every row's working-set bytes/user:
///   measured ≤ committed × `growth`. Byte counts are deterministic for a
///   fixed seed, so the cap is tight.
fn check_mem(baseline: &Value, growth: f64, gates: &mut Vec<Gate>) {
    let peak_cap = baseline
        .get("gates")
        .and_then(|g| f64_field(g, "pooled_round_peak_bytes_per_user_max"))
        .unwrap_or(12.0);
    let rows = match baseline.get("results") {
        Some(Value::Array(rows)) => rows,
        _ => {
            gates.push(Gate {
                name: "mem/results".into(),
                passed: false,
                detail: "no results array in BENCH_mem.json".into(),
            });
            return;
        }
    };
    for row in rows {
        let executor = row
            .get("executor")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let n = row.get("n").and_then(Value::as_u64).unwrap_or(0) as usize;
        let threads = row.get("threads").and_then(Value::as_u64).unwrap_or(1) as usize;
        let committed_ws = f64_field(row, "working_set_bytes_per_user").unwrap_or(0.0);
        let measured: MemRow = match executor.as_str() {
            "dense-seq" => measure_mem_dense(n),
            "pooled-soa" => measure_mem_pooled(n, threads),
            other => {
                gates.push(Gate {
                    name: format!("mem/{other}"),
                    passed: false,
                    detail: format!("unknown executor '{other}' in BENCH_mem.json"),
                });
                continue;
            }
        };
        let ws = measured.working_set_bytes_per_user();
        let ws_cap = committed_ws * growth;
        gates.push(Gate {
            name: format!("mem/{executor}/n{n}/working_set"),
            passed: ws <= ws_cap,
            detail: format!(
                "measured {ws:.2} B/user vs committed {committed_ws:.2} B/user \
                 (cap {ws_cap:.2} at growth {growth})"
            ),
        });
        if executor == "pooled-soa" {
            gates.push(Gate {
                name: format!("mem/{executor}/n{n}/steady_allocs"),
                passed: measured.steady_allocs == 0,
                detail: format!(
                    "{} allocations across 32 steady-state view-only pooled rounds (must be 0)",
                    measured.steady_allocs
                ),
            });
            let peak = measured.round_peak_bytes_per_user();
            gates.push(Gate {
                name: format!("mem/{executor}/n{n}/round_peak"),
                passed: peak <= peak_cap,
                detail: format!(
                    "steady-state round peak {peak:.2} B/user vs the hard \
                     {peak_cap:.1} B/user acceptance gate"
                ),
            });
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let quick = args.iter().any(|a| a == "--quick");
    let tolerance: f64 = get("--speedup-tolerance").map_or(0.35, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --speedup-tolerance");
            exit(2)
        })
    });
    let margin: f64 = get("--overhead-margin").map_or(3.0, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --overhead-margin");
            exit(2)
        })
    });

    let mem_growth: f64 = get("--mem-growth").map_or(1.35, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --mem-growth");
            exit(2)
        })
    });

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let sparse_baseline = load_json(&format!("{root}/BENCH_sparse.json"));
    let obs_baseline = load_json(&format!("{root}/BENCH_obs.json"));
    let parallel_baseline = load_json(&format!("{root}/BENCH_parallel.json"));
    let serve_baseline = load_json(&format!("{root}/BENCH_serve.json"));
    let mem_baseline = load_json(&format!("{root}/BENCH_mem.json"));

    // quick mode exercises every gate at the smallest committed size (a
    // few seconds); the full gate re-measures the committed sizes up to
    // 10^5 / 262k for the ratio gates (their 10^6 rows take multiple
    // seconds per run and add nothing to a ratio) plus the serve 10^6 row,
    // where the 50k places/sec acceptance floor is an absolute criterion
    let (sparse_sizes, obs_sizes, serve_sizes, reps): (&[usize], &[usize], &[usize], usize) =
        if quick {
            (&[10_000], &[65_536], &[65_536], 7)
        } else {
            (
                &[10_000, 100_000],
                &[65_536, 262_144],
                &[65_536, 1_000_000],
                15,
            )
        };

    let mode = if quick { "quick" } else { "full" };
    println!(
        "qlb-bench-check ({mode}): speedup tolerance {tolerance}, \
         overhead noise margin {margin} pct-points"
    );
    let mut gates = Vec::new();
    check_sparse(&sparse_baseline, sparse_sizes, tolerance, &mut gates);
    check_parallel(&parallel_baseline, tolerance, &mut gates);
    check_obs(&obs_baseline, obs_sizes, reps, margin, &mut gates);
    check_shard_timing(&obs_baseline, reps, margin, &mut gates);
    check_window(&obs_baseline, quick, reps, margin, &mut gates);
    check_spans(&obs_baseline, quick, reps, margin, &mut gates);
    check_serve(&serve_baseline, serve_sizes, tolerance, &mut gates);
    check_mem(&mem_baseline, mem_growth, &mut gates);

    let mut failed = 0usize;
    for g in &gates {
        let verdict = if g.passed { "PASS" } else { "FAIL" };
        println!("{verdict}  {:<36} {}", g.name, g.detail);
        if !g.passed {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "{failed} of {} gates failed — performance regressed vs the committed \
             BENCH_*.json baselines",
            gates.len()
        );
        exit(1);
    }
    println!("all {} gates pass", gates.len());
}

fn print_help() {
    println!(
        "qlb-bench-check — re-measure the committed BENCH_*.json baselines and fail on regression\n\n\
         USAGE:\n  qlb-bench-check [--quick] [--speedup-tolerance R] [--overhead-margin P] [--mem-growth G]\n\n\
         OPTIONS:\n  --quick                 smallest committed size per gate (CI smoke, ~seconds)\n  \
         --speedup-tolerance R   sparse speedups must reach R x committed (default 0.35)\n  \
         --overhead-margin P     obs overheads may exceed their budget by P points (default 3)\n  \
         --mem-growth G          working sets may grow to G x committed bytes/user (default 1.35)\n\n\
         Gates: sparse endgame round speedup, tight-slack run speedup (BENCH_sparse.json);\n\
         pool dispatch reduction >= 5x, SoA pooled round >= 3x dense sequential at the\n\
         committed top thread count, and sparse open/weighted drivers beating dense\n\
         (BENCH_parallel.json); NoopSink and Recorder overhead budgets, the pooled\n\
         per-shard profiling budget (< 2% on vs off, ~0% disabled), the windowed\n\
         telemetry plane's marginal cost on the serving loop (< 2%), and the causal\n\
         span layer at --span-sample 64 (< 2%, ~0% disabled) (BENCH_obs.json);\n\
         serving throughput >= max(tolerance x committed, the 50k/s acceptance floor),\n\
         placement p95 within 1/tolerance of committed, and a never-starved rebalancer\n\
         (BENCH_serve.json); zero-alloc view-only pooled rounds under the 12 B/user\n\
         round-peak acceptance gate plus working-set regression caps (BENCH_mem.json).\n\
         Measurements share code with the benches (qlb_bench::checks), so numbers are\n\
         comparable by construction."
    );
}
