//! Smoke test: every workload at toy size, untraced and traced, passes its
//! checks and prints exactly the metrics `BENCHMARK.json` declares.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::parse_value_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<String> {
    match v.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|i| {
                i.get("name")
                    .and_then(Value::as_str)
                    .expect("named entry")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

#[test]
fn every_workload_runs_at_toy_size() {
    let bench = benchmark_json();
    // sim-tight and serve-pipelined run but are not listed: their runs
    // drift more than any bound BENCHMARK.json may set.
    assert_eq!(names(&bench, "workloads"), ["sim-crowded", "serve-sync"]);
    for w in ["sim-crowded", "sim-tight", "serve-sync", "serve-pipelined"] {
        for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_qlb-perfbench"))
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .args(["--scale", "toy"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{w} trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let r = serde_json::parse_value_str(last).expect("the result line parses");
            assert_eq!(
                r.get("correct").and_then(Value::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{stdout}");
            assert!(r.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            let printed: Vec<String> = r
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(printed, names(&bench, table), "{w} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "x"],
        &["--trace", "2", "--workload", "sim-tight"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_qlb-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
