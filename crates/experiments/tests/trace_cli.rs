//! `qlb-trace` CLI contract tests: the `--follow` interval flags are
//! validated (zero and non-numeric values are usage errors, exit 2), and a
//! trace file deleted out from under `--follow` exits 2 immediately
//! instead of idling out — both documented in `qlb-trace --help`. Also
//! pins `qlb-sim`'s argument contract: `--executor` names a round executor
//! only, never a driver; unknown flags (the removed `--metrics-stream` and
//! `--flush-every` included) and presets are usage errors; the weighted
//! lift refuses capacities beyond the 32-bit load counters; and
//! `--metrics-out` streams a finished trace that agrees with the printed
//! outcome.

use qlb_obs::replay::Summary;
use qlb_obs::{Event, Sink, StreamSink};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn trace_bin() -> &'static str {
    env!("CARGO_BIN_EXE_qlb-trace")
}

fn sim_bin() -> &'static str {
    env!("CARGO_BIN_EXE_qlb-sim")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qlb-trace-cli-{tag}-{}.jsonl", std::process::id()))
}

/// Write a partial trace (a few round records, flushed, no trailer) — the
/// shape `--follow` sees while a run is still writing.
fn write_partial_trace(path: &PathBuf) {
    let f = std::fs::File::create(path).unwrap();
    let mut sink = StreamSink::new(f);
    for round in 0..3u64 {
        sink.event(Event::RoundStart { round, active: 4 });
        sink.event(Event::RoundEnd {
            round,
            migrations: 1,
            unsatisfied: 3 - round,
            overload: None,
        });
    }
    // dropped without finish(): buffered lines land, no trailer
}

#[test]
fn zero_and_garbage_follow_intervals_are_usage_errors() {
    let path = temp_path("flags");
    write_partial_trace(&path);
    for args in [
        ["--follow", "--idle-ms", "0"],
        ["--follow", "--poll-ms", "0"],
        ["--follow", "--idle-ms", "-50"],
        ["--follow", "--poll-ms", "soon"],
    ] {
        let out = Command::new(trace_bin())
            .arg(&path)
            .args(args)
            .output()
            .expect("run qlb-trace");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should be a usage error; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad --"),
            "no diagnostic for {args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn follow_times_out_idle_with_the_incomplete_status() {
    let path = temp_path("idle");
    write_partial_trace(&path);
    let out = Command::new(trace_bin())
        .arg(&path)
        .args(["--follow", "--idle-ms", "100", "--poll-ms", "10"])
        .output()
        .expect("run qlb-trace");
    // no trailer ever arrives → incomplete trace, exit 1 (not a crash)
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no growth"),
        "missing idle notice: {stdout}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deleting_the_trace_mid_follow_exits_2() {
    let path = temp_path("deleted");
    write_partial_trace(&path);
    let mut child = Command::new(trace_bin())
        .arg(&path)
        // idle timeout far longer than the test: only deletion can end it
        .args(["--follow", "--idle-ms", "60000", "--poll-ms", "10"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn qlb-trace");
    // give the follower time to read the existing bytes, then delete
    std::thread::sleep(Duration::from_millis(300));
    std::fs::remove_file(&path).unwrap();
    let t0 = Instant::now();
    let status = loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            break st;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "qlb-trace kept following a deleted trace"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2), "deletion mid-follow must exit 2");
    let mut stderr = String::new();
    use std::io::Read;
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        stderr.contains("deleted mid-follow"),
        "missing diagnostic: {stderr}"
    );
}

#[test]
fn sim_executor_flag_rejects_driver_names() {
    for args in [
        vec!["--executor", "runtime"],
        vec!["--executor", "open"],
        vec!["--executor", "engine"],
        vec!["--driver", "weighted", "--executor", "runtime"],
    ] {
        let out = Command::new(sim_bin())
            .args(["--preset", "flash-crowd"])
            .args(&args)
            .output()
            .expect("run qlb-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}; stderr: {stderr}");
        assert!(
            stderr.contains("unknown executor"),
            "no diagnostic for {args:?}: {stderr}"
        );
    }
}

/// Run `qlb-sim` and require a usage error (exit 2) whose stderr contains
/// `diagnostic`.
fn assert_sim_usage_error(args: &[&str], diagnostic: &str) {
    let out = Command::new(sim_bin())
        .args(args)
        .output()
        .expect("run qlb-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}; stderr: {stderr}");
    assert!(
        stderr.contains(diagnostic),
        "no diagnostic for {args:?}: {stderr}"
    );
}

#[test]
fn sim_rejects_unknown_flags_and_presets() {
    // a misspelled flag used to be ignored (running the dense executor)
    assert_sim_usage_error(
        &["--preset", "flash-crowd", "--exector", "sparse"],
        "unknown argument --exector",
    );
    // an unknown preset used to run flash-crowd
    assert_sim_usage_error(&["--preset", "nonsense"], "unknown preset nonsense");
    assert_sim_usage_error(
        &["--preset", "flash-crowd", "--seed"],
        "--seed needs a value",
    );
    // the old post-hoc/stream split and its flush knob are gone
    for flag in ["--metrics-stream", "--flush-every"] {
        assert_sim_usage_error(
            &["--preset", "flash-crowd", flag, "1"],
            &format!("unknown argument {flag}"),
        );
    }
    // stale observations are flags of the closed loop, not a driver; an
    // unknown driver is refused before a metrics file is created
    let trace = temp_path("unknown-driver");
    assert_sim_usage_error(
        &[
            "--preset",
            "flash-crowd",
            "--driver",
            "runtime",
            "--metrics-out",
            trace.to_str().unwrap(),
        ],
        "unknown driver runtime",
    );
    assert!(!trace.exists(), "an empty trace was left behind");
    for delay in ["x", "-1", "1.5"] {
        assert_sim_usage_error(
            &["--preset", "flash-crowd", "--max-delay", delay],
            &format!("bad --max-delay {delay}"),
        );
    }
    for loss in ["1.5", "-0.1", "nan", "p"] {
        assert_sim_usage_error(
            &["--preset", "flash-crowd", "--loss", loss],
            &format!("bad --loss {loss}"),
        );
    }
    assert_sim_usage_error(
        &[
            "--preset",
            "flash-crowd",
            "--driver",
            "open",
            "--max-delay",
            "2",
        ],
        "need the closed or weighted driver",
    );
    // graph diffusion would move the open driver's parked users
    assert_sim_usage_error(
        &[
            "--preset",
            "flash-crowd",
            "--driver",
            "open",
            "--topology",
            "ring",
        ],
        "--topology cannot run on the open driver",
    );
    // the weighted driver used to print the topology banner, then run
    // slack-damped without the graph
    assert_sim_usage_error(
        &[
            "--preset",
            "flash-crowd",
            "--driver",
            "weighted",
            "--topology",
            "ring",
        ],
        "--topology cannot run on the weighted driver",
    );
}

#[test]
fn sim_metrics_out_streams_a_finished_trace() {
    let path = temp_path("metrics-out");
    let out = Command::new(sim_bin())
        .args(["--preset", "flash-crowd", "--metrics-out"])
        .arg(&path)
        .output()
        .expect("run qlb-sim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    // "CONVERGED in R rounds with M migrations"
    let printed: u64 = stdout
        .split("CONVERGED in ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|r| r.parse().ok())
        .unwrap_or_else(|| panic!("no outcome line: {stdout}"));
    let text = std::fs::read_to_string(&path).unwrap();
    let summary = Summary::from_jsonl(&text).expect("trace replays");
    assert!(summary.saw_trailer(), "finished run writes the trailer");
    assert!(!summary.truncated);
    assert_eq!(summary.rounds, printed, "trace rounds match stdout");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sim_weighted_lift_rejects_capacities_beyond_u32() {
    // one resource of capacity 4·10⁹; demands 1 and 2 lift it to 6·10⁹
    let path = temp_path("huge-scenario");
    std::fs::write(
        &path,
        r#"{"name":"huge","n":2,"m":1,"capacity":{"Constant":{"cap":4000000000}},"slack_factor":2000000000.0,"placement":"Hotspot","classes":[]}"#,
    )
    .unwrap();
    let scenario = path.to_str().unwrap();
    assert_sim_usage_error(
        &["--scenario", scenario, "--driver", "weighted"],
        "weighted lift failed",
    );
    let _ = std::fs::remove_file(&path);
}
