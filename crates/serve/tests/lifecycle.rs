//! Daemon lifecycle integration test: start the real `qlb-serve` binary
//! on a temp Unix socket, drive the full protocol over it — place,
//! query, drain, depart, shutdown — and assert the trace trailer landed
//! and `qlb-trace` accepts the trace.

use serde_json::{parse_value_str, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    sock: PathBuf,
    trace: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
        let _ = std::fs::remove_file(&self.trace);
    }
}

fn start_daemon(tag: &str, extra_args: &[&str]) -> Daemon {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("qlb-serve-it-{tag}-{pid}.sock"));
    let trace = dir.join(format!("qlb-serve-it-{tag}-{pid}.jsonl"));
    let _ = std::fs::remove_file(&sock);
    let child = Command::new(env!("CARGO_BIN_EXE_qlb-serve"))
        .arg("--socket")
        .arg(&sock)
        .arg("--trace")
        .arg(&trace)
        .args(extra_args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn qlb-serve");
    Daemon { child, sock, trace }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    fn connect(d: &Daemon) -> Self {
        let t0 = Instant::now();
        let stream = loop {
            match UnixStream::connect(&d.sock) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(
                        t0.elapsed() < Duration::from_secs(20),
                        "daemon socket never came up: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        let writer = stream.try_clone().unwrap();
        Self {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        }
    }

    fn ask(&mut self, req: &str) -> Value {
        self.writer.write_all(req.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).unwrap();
        assert!(n > 0, "daemon closed connection after {req}");
        parse_value_str(self.line.trim())
            .unwrap_or_else(|e| panic!("unparseable reply {:?}: {e}", self.line))
    }
}

fn get<'v>(v: &'v Value, k: &str) -> &'v Value {
    v.get(k).unwrap_or_else(|| panic!("missing {k} in {v:?}"))
}

fn u64_of(v: &Value, k: &str) -> u64 {
    get(v, k)
        .as_u64()
        .unwrap_or_else(|| panic!("{k} not a u64"))
}

#[test]
fn full_lifecycle_over_a_unix_socket() {
    // Two latency classes over 12 speed-8 resources: class 0 strict
    // (threshold 0.5 → cap 4), class 1 lenient (threshold 1.0 → cap 8).
    let dir = std::env::temp_dir();
    let scenario_path = dir.join(format!("qlb-serve-it-sc-{}.json", std::process::id()));
    std::fs::write(
        &scenario_path,
        r#"{
          "name": "serve-lifecycle",
          "n": 0,
          "m": 12,
          "capacity": { "Constant": { "cap": 8 } },
          "slack_factor": null,
          "placement": "RoundRobin",
          "classes": [
            { "Latency": { "threshold": 0.5, "count": 8 } },
            { "Latency": { "threshold": 1.0, "count": 16 } }
          ]
        }"#,
    )
    .unwrap();
    let mut d = start_daemon(
        "full",
        &[
            "--scenario",
            scenario_path.to_str().unwrap(),
            "--extra-slots",
            "40",
            "--seed",
            "42",
            "--idle-ms",
            "2",
            "--stats-every",
            "4",
        ],
    );
    let mut c = Client::connect(&d);

    // --- place across both classes, mixed weights ---
    let mut tickets: Vec<(u64, u64)> = Vec::new(); // (user, weight)
    for (class, weight) in [(0u64, 1u64), (1, 2), (0, 1), (1, 1), (1, 3)] {
        let v = c.ask(&format!(
            "{{\"op\":\"place\",\"class\":{class},\"weight\":{weight}}}"
        ));
        assert_eq!(get(&v, "ok"), &Value::Bool(true), "reply {v:?}");
        assert_eq!(get(&v, "admitted"), &Value::Bool(true), "reply {v:?}");
        assert_eq!(u64_of(&v, "weight"), weight);
        tickets.push((u64_of(&v, "user"), weight));
    }

    // --- query: scenario population (24) + our 8 slots ---
    let v = c.ask("{\"op\":\"query\"}");
    assert_eq!(u64_of(&v, "active"), 24 + 8);
    assert_eq!(u64_of(&v, "placements"), 5);
    let classes = match get(&v, "classes") {
        Value::Array(a) => a,
        other => panic!("classes not an array: {other:?}"),
    };
    assert_eq!(classes.len(), 2);
    // nothing rejected yet: the per-reason breakdown is present and zero
    let rr = get(&v, "reject_reasons");
    for reason in ["pool", "capacity", "draining"] {
        assert_eq!(u64_of(rr, reason), 0, "unexpected {reason} rejects");
    }

    // --- live stats: windowed rates and per-class SLO accounting ---
    let v = c.ask("{\"op\":\"stats\"}");
    assert_eq!(get(&v, "ok"), &Value::Bool(true), "reply {v:?}");
    assert_eq!(get(&v, "op"), &Value::String("stats".into()));
    let stats = get(&v, "stats");
    assert!(u64_of(stats, "tick") >= 1, "telemetry saw no ticks: {v:?}");
    assert_eq!(u64_of(stats, "budget_max"), 8);
    let rates = match get(stats, "rates") {
        Value::Array(a) => a,
        other => panic!("rates not an array: {other:?}"),
    };
    let rate_names: Vec<&str> = rates
        .iter()
        .map(|r| get(r, "name").as_str().expect("rate name"))
        .collect();
    for expect in ["requests", "placements", "serve_departs", "rounds"] {
        assert!(rate_names.contains(&expect), "no {expect} rate in {v:?}");
    }
    // Rates divide by covered wall time, which is still ~0 ms this early;
    // keep asking (each ask is itself traffic) until the window opens.
    let t0 = Instant::now();
    loop {
        let v = c.ask("{\"op\":\"stats\"}");
        let stats = get(&v, "stats");
        let rates = match get(stats, "rates") {
            Value::Array(a) => a,
            other => panic!("rates not an array: {other:?}"),
        };
        let req_rate = rates
            .iter()
            .find(|r| get(r, "name").as_str() == Some("requests"))
            .expect("requests rate present");
        if get(req_rate, "r60s").as_f64().expect("r60s is a number") > 0.0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "request rate never went live: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let slo = match get(stats, "classes") {
        Value::Array(a) => a,
        other => panic!("stats classes not an array: {other:?}"),
    };
    assert_eq!(slo.len(), 2);
    for cs in slo {
        let w = get(cs, "violation_windowed")
            .as_f64()
            .expect("windowed fraction");
        let t = get(cs, "violation_total").as_f64().expect("total fraction");
        assert!(
            (0.0..=1.0).contains(&w),
            "violation_windowed out of range: {cs:?}"
        );
        assert!(
            (0.0..=1.0).contains(&t),
            "violation_total out of range: {cs:?}"
        );
    }

    // --- malformed requests answer ok:false and do not wedge the daemon ---
    let v = c.ask("{\"op\":\"warp\"}");
    assert_eq!(get(&v, "ok"), &Value::Bool(false));
    let v = c.ask("{\"op\":\"depart\",\"user\":99999}");
    assert_eq!(get(&v, "ok"), &Value::Bool(false));

    // --- drain resource 0 and wait for the kernel to empty it ---
    let v = c.ask("{\"op\":\"drain\",\"resource\":0}");
    assert_eq!(get(&v, "ok"), &Value::Bool(true), "reply {v:?}");
    let t0 = Instant::now();
    loop {
        let v = c.ask("{\"op\":\"query\",\"resource\":0}");
        let res = get(&v, "resource");
        if get(res, "drained") == &Value::Bool(true) {
            assert_eq!(u64_of(res, "load"), 0);
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "drain did not complete; last query: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Drain must not violate anyone else's satisfaction once settled:
    // wait for the rebalancer to re-satisfy every displaced user.
    let t0 = Instant::now();
    loop {
        let v = c.ask("{\"op\":\"query\"}");
        if u64_of(&v, "unsatisfied") == 0 {
            // nobody was lost either
            assert_eq!(u64_of(&v, "active"), 24 + 8);
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "placements never re-settled after drain: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // --- departures release the full group weight ---
    for (user, weight) in &tickets {
        let v = c.ask(&format!("{{\"op\":\"depart\",\"user\":{user}}}"));
        assert_eq!(get(&v, "ok"), &Value::Bool(true), "reply {v:?}");
        assert_eq!(u64_of(&v, "released"), *weight);
    }
    let v = c.ask("{\"op\":\"query\"}");
    assert_eq!(u64_of(&v, "active"), 24);
    assert_eq!(u64_of(&v, "departures"), 5);
    assert_eq!(u64_of(&v, "drains"), 1);

    // --- clean shutdown: exit 0 and a finished trace ---
    let v = c.ask("{\"op\":\"shutdown\"}");
    assert_eq!(get(&v, "ok"), &Value::Bool(true));
    let status = d.child.wait_with_timeout();
    assert!(status.success(), "daemon exited {status:?}");

    let text = std::fs::read_to_string(&d.trace).unwrap();
    let summary = qlb_obs::replay::Summary::from_jsonl(&text).unwrap();
    assert!(summary.saw_trailer(), "trace has no trailer");
    assert!(!summary.truncated, "trace is truncated");
    assert!(
        summary.counters.get("placements").copied().unwrap_or(0) >= 5,
        "placements counter missing from trailer: {:?}",
        summary.counters
    );
    assert!(
        summary.counters.get("drains").copied().unwrap_or(0) == 1,
        "drains counter missing from trailer"
    );
    // 5 departures released weights 1+2+1+1+3 = 8 slots, attributed to
    // the daemon-side serve_departs counter — not the open-driver
    // departures counter
    assert_eq!(
        summary.counters.get("serve_departs").copied().unwrap_or(0),
        8,
        "daemon departures must land in the serve_departs counter: {:?}",
        summary.counters
    );
    assert_eq!(
        summary.counters.get("departures").copied().unwrap_or(0),
        0,
        "open-system departures counter must stay untouched by daemon departs"
    );
    assert!(
        summary.latency_hists.contains_key("request_latency"),
        "request latency histogram missing from trailer"
    );
    // --stats-every 4 over a run with many idle ticks: periodic snapshots
    // landed in the trace, in tick order
    assert!(
        !summary.stats_snapshots.is_empty(),
        "no StatsSnapshot records in the trace"
    );
    let snap_ticks: Vec<u64> = summary.stats_snapshots.iter().map(|s| s.tick).collect();
    assert!(
        snap_ticks.windows(2).all(|w| w[0] < w[1]),
        "snapshot ticks not strictly increasing: {snap_ticks:?}"
    );

    // --- qlb-trace (built alongside in the workspace) exits 0 on it ---
    let trace_bin = PathBuf::from(env!("CARGO_BIN_EXE_qlb-serve"))
        .parent()
        .unwrap()
        .join("qlb-trace");
    if trace_bin.exists() {
        let out = Command::new(&trace_bin)
            .arg(&d.trace)
            .output()
            .expect("run qlb-trace");
        assert!(
            out.status.success(),
            "qlb-trace exited {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    } else {
        eprintln!("note: qlb-trace binary not built; skipping the CLI check");
    }
    let _ = std::fs::remove_file(&scenario_path);
}

#[test]
fn rejections_and_all_draining() {
    // One tiny resource: cap 2, φ default 0.95 → ⌊1.9⌋ = 1 admitted slot.
    let mut d = start_daemon(
        "tiny",
        &[
            "--resources",
            "1",
            "--cap",
            "2",
            "--pool",
            "4",
            "--idle-ms",
            "2",
        ],
    );
    let mut c = Client::connect(&d);
    let v = c.ask("{\"op\":\"place\"}");
    assert_eq!(get(&v, "admitted"), &Value::Bool(true));
    let user = u64_of(&v, "user");
    let v = c.ask("{\"op\":\"place\"}");
    assert_eq!(get(&v, "admitted"), &Value::Bool(false));
    assert_eq!(get(&v, "reason"), &Value::String("capacity".into()));
    // drain the only resource → its occupant cannot settle anywhere, but
    // admission now answers all-draining deterministically
    let v = c.ask("{\"op\":\"drain\",\"resource\":0}");
    assert_eq!(get(&v, "ok"), &Value::Bool(true));
    let v = c.ask("{\"op\":\"place\"}");
    assert_eq!(get(&v, "admitted"), &Value::Bool(false));
    assert_eq!(get(&v, "reason"), &Value::String("draining".into()));
    // the occupant can still depart while parked-in-limbo
    let v = c.ask(&format!("{{\"op\":\"depart\",\"user\":{user}}}"));
    assert_eq!(get(&v, "ok"), &Value::Bool(true));
    // both reject reasons are attributed, in the query breakdown and in
    // the stats snapshot
    let v = c.ask("{\"op\":\"query\"}");
    let rr = get(&v, "reject_reasons");
    assert_eq!(u64_of(rr, "capacity"), 1);
    assert_eq!(u64_of(rr, "draining"), 1);
    assert_eq!(u64_of(rr, "pool"), 0);
    let v = c.ask("{\"op\":\"stats\"}");
    let stats = get(&v, "stats");
    assert_eq!(u64_of(stats, "rejects_capacity"), 1);
    assert_eq!(u64_of(stats, "rejects_draining"), 1);
    assert_eq!(u64_of(stats, "rejects_pool"), 0);
    let v = c.ask("{\"op\":\"shutdown\"}");
    assert_eq!(get(&v, "ok"), &Value::Bool(true));
    assert!(d.child.wait_with_timeout().success());
}

#[test]
fn spans_reconstruct_a_placements_full_lifecycle() {
    // --span-sample 1: every wire op is traced, so the first placement's
    // whole story (admission → forced migration via drain → depart) must
    // be reconstructible from the trace spans alone.
    let mut d = start_daemon(
        "spans",
        &[
            "--resources",
            "4",
            "--cap",
            "4",
            "--pool",
            "16",
            "--idle-ms",
            "2",
            "--span-sample",
            "1",
        ],
    );
    let mut c = Client::connect(&d);

    let mut tickets: Vec<(u64, u64)> = Vec::new(); // (user, resource)
    for _ in 0..4 {
        let v = c.ask("{\"op\":\"place\"}");
        assert_eq!(get(&v, "admitted"), &Value::Bool(true), "reply {v:?}");
        tickets.push((u64_of(&v, "user"), u64_of(&v, "resource")));
    }
    let (ticket, home) = tickets[0];

    // drain the ticket's resource: the rebalancer must move it elsewhere
    let v = c.ask(&format!("{{\"op\":\"drain\",\"resource\":{home}}}"));
    assert_eq!(get(&v, "ok"), &Value::Bool(true), "reply {v:?}");
    let t0 = Instant::now();
    loop {
        let v = c.ask(&format!("{{\"op\":\"query\",\"resource\":{home}}}"));
        let res = get(&v, "resource");
        if get(res, "drained") == &Value::Bool(true) && u64_of(res, "load") == 0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "drain never emptied r{home}: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let v = c.ask(&format!("{{\"op\":\"depart\",\"user\":{ticket}}}"));
    assert_eq!(get(&v, "ok"), &Value::Bool(true), "reply {v:?}");
    let v = c.ask("{\"op\":\"shutdown\"}");
    assert_eq!(get(&v, "ok"), &Value::Bool(true));
    assert!(d.child.wait_with_timeout().success());

    // --- the trace spans tell the full story ---
    let text = std::fs::read_to_string(&d.trace).unwrap();
    let summary = qlb_obs::replay::Summary::from_jsonl(&text).unwrap();
    assert!(summary.saw_trailer(), "trace has no trailer");
    let mine: Vec<_> = summary
        .spans
        .iter()
        .filter(|s| s.ticket == Some(ticket))
        .collect();
    let ops: Vec<&str> = mine.iter().map(|s| &*s.op).collect();
    assert_eq!(
        ops.first(),
        Some(&"place"),
        "story must open with admission: {ops:?}"
    );
    assert_eq!(mine[0].verdict, "admitted");
    assert_eq!(mine[0].resource, Some(home));
    assert!(mine[0].probes >= 1, "admission span carries probe evidence");
    assert_eq!(mine[0].headroom.len(), mine[0].probes as usize);
    assert!(
        ops.contains(&"migrate"),
        "drain must have produced a migrate span for ticket {ticket}: {ops:?}"
    );
    let mv = mine.iter().find(|s| s.op == "migrate").unwrap();
    assert_eq!(mv.from, Some(home), "migration leaves the drained resource");
    assert_ne!(mv.resource, Some(home));
    assert_eq!(ops.last(), Some(&"depart"), "story must close: {ops:?}");
    assert!(
        mine.windows(2).all(|w| w[0].id < w[1].id),
        "span ids must be monotone in causal order"
    );

    // --- qlb-trace spans renders the lifecycle and exits 0 ---
    let trace_bin = PathBuf::from(env!("CARGO_BIN_EXE_qlb-serve"))
        .parent()
        .unwrap()
        .join("qlb-trace");
    if trace_bin.exists() {
        let out = Command::new(&trace_bin)
            .arg("spans")
            .arg(&d.trace)
            .arg("--ticket")
            .arg(ticket.to_string())
            .output()
            .expect("run qlb-trace spans");
        assert!(
            out.status.success(),
            "qlb-trace spans exited {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let life = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("ticket {ticket}:")))
            .unwrap_or_else(|| panic!("no lifecycle line for ticket {ticket} in:\n{stdout}"));
        assert!(life.contains(&format!("admitted r{home}")), "{life}");
        assert!(life.contains(&format!("moved r{home}->")), "{life}");
        assert!(life.contains("departed"), "{life}");
        assert!(stdout.contains("per-phase latency"), "{stdout}");
        assert!(stdout.contains("slowest"), "{stdout}");
    } else {
        eprintln!("note: qlb-trace binary not built; skipping the CLI check");
    }
}

#[test]
fn flight_recorder_dumps_a_black_box_on_a_reject_spike() {
    // Tiny fleet: cap 2, φ 0.95 → one admitted slot; the second place is
    // a capacity reject, which trips --flight-reject-spike 1.
    let dir = std::env::temp_dir().join(format!("qlb-serve-it-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut d = start_daemon(
        "flight",
        &[
            "--resources",
            "1",
            "--cap",
            "2",
            "--pool",
            "4",
            "--idle-ms",
            "2",
            "--span-sample",
            "1",
            "--flight-recorder",
            dir.to_str().unwrap(),
            "--flight-reject-spike",
            "1",
        ],
    );
    let mut c = Client::connect(&d);
    let v = c.ask("{\"op\":\"place\"}");
    assert_eq!(get(&v, "admitted"), &Value::Bool(true));
    let v = c.ask("{\"op\":\"place\"}");
    assert_eq!(get(&v, "admitted"), &Value::Bool(false));

    // the trigger is evaluated on scheduler ticks; wait for the dump
    let t0 = Instant::now();
    let dump = loop {
        let found = std::fs::read_dir(&dir).ok().and_then(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .find(|p| p.to_string_lossy().contains("blackbox-"))
        });
        if let Some(p) = found {
            break p;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "flight recorder never dumped into {dir:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let v = c.ask("{\"op\":\"shutdown\"}");
    assert_eq!(get(&v, "ok"), &Value::Bool(true));
    assert!(d.child.wait_with_timeout().success());

    let text = std::fs::read_to_string(&dump).unwrap();
    let summary = qlb_obs::replay::Summary::from_jsonl(&text).unwrap();
    let (trigger, ..) = summary.blackbox.clone().expect("BlackBox header");
    assert_eq!(trigger, "reject-spike");
    assert!(!summary.tick_marks.is_empty(), "black box has tick context");
    assert!(
        summary.spans.iter().any(|s| s.verdict == "capacity"),
        "black box retains the rejected placement's span"
    );

    // --- qlb-trace blackbox reads the dump (by directory) and exits 0 ---
    let trace_bin = PathBuf::from(env!("CARGO_BIN_EXE_qlb-serve"))
        .parent()
        .unwrap()
        .join("qlb-trace");
    if trace_bin.exists() {
        let out = Command::new(&trace_bin)
            .arg("blackbox")
            .arg(&dir)
            .output()
            .expect("run qlb-trace blackbox");
        assert!(
            out.status.success(),
            "qlb-trace blackbox exited {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("trigger: reject-spike"), "{stdout}");
    } else {
        eprintln!("note: qlb-trace binary not built; skipping the CLI check");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Waiting with a deadline so a wedged daemon fails the test instead of
/// hanging the suite.
trait WaitTimeout {
    fn wait_with_timeout(&mut self) -> std::process::ExitStatus;
}

impl WaitTimeout for Child {
    fn wait_with_timeout(&mut self) -> std::process::ExitStatus {
        let t0 = Instant::now();
        loop {
            if let Some(st) = self.try_wait().expect("try_wait") {
                return st;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "daemon did not exit after shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
