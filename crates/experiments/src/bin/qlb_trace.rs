//! `qlb-trace` — inspect and compare JSONL metrics traces.
//!
//! The offline half of the streaming pipeline: `qlb-sim --metrics-out
//! run.jsonl` (or `qlb-serve --trace`) writes the trace, `qlb-trace` reads
//! it back through the same `qlb_obs::replay` code path.
//!
//! ```text
//! qlb-trace run.jsonl               # analyze a finished (or killed) run
//! qlb-trace run.jsonl --follow      # tail a run that is still writing
//! qlb-trace profile run.jsonl       # per-shard profile + congestion heatmap
//! qlb-trace compare a.jsonl b.jsonl # diff two runs; nonzero exit on regression
//! qlb-trace watch --tcp HOST:PORT   # live telemetry dashboard off a daemon
//! qlb-trace watch serve.jsonl       # same dashboard off recorded snapshots
//! ```
//!
//! A trace cut mid-record by a crash is reported as truncated and analyzed
//! up to the cut — never a parse error. An incomplete trace (no end-of-run
//! trailer, e.g. the writer hit a latched I/O error and never finished)
//! still prints its analysis but the exit status is 1, so scripts can tell
//! a clean run from an interrupted one. In `--follow` mode the tool prints
//! one line per round as it lands, stops when the end-of-run trailer
//! arrives, gives up after `--idle-ms` without growth, and exits 2 if the
//! trace file is deleted or truncated mid-follow (both intervals must be
//! positive integers — zero and negatives are usage errors).
//!
//! `watch` renders the live telemetry dashboard: rolling request/placement
//! rates with sparkline history, windowed latency digests, per-class SLO
//! violation bars, and the rebalancer's budget utilization — either by
//! polling a running daemon's `{"op":"stats"}` wire op (`--tcp`/`--socket`)
//! or from the `StatsSnapshot` records a traced daemon leaves in its
//! trailer. `--once` renders a single frame and exits (status 1 when a
//! trace holds no snapshots), which is what the CI smoke job asserts.
//!
//! Exit status: 0 clean, 1 incomplete trace or compare regression, 2 usage
//! or unreadable/corrupt trace (including deleted/truncated mid-follow).

use qlb_obs::recorder::Record;
use qlb_obs::replay::{Summary, TraceReader};
use qlb_obs::{Event, StatsSnapshot};
use qlb_stats::sparkline_fit;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    match args[0].as_str() {
        "profile" => profile_cmd(&args[1..]),
        "compare" => compare_cmd(&args[1..]),
        "watch" => watch_cmd(&args[1..]),
        "spans" => spans_cmd(&args[1..]),
        "blackbox" => blackbox_cmd(&args[1..]),
        _ => analyze_cmd(&args),
    }
}

/// First non-flag argument, or usage error.
fn positional(args: &[String], what: &str) -> String {
    match args.iter().find(|a| !a.starts_with("--")) {
        Some(p) => p.clone(),
        None => {
            eprintln!("need {what}; see qlb-trace --help");
            exit(2);
        }
    }
}

/// Read and parse a whole trace file (exit 2 on I/O or corrupt trace).
fn load_summary(path: &str) -> Summary {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(2);
    });
    Summary::from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{path}: corrupt trace: {e}");
        exit(2);
    })
}

/// A trace without the end-of-run trailer (or cut mid-record) comes from a
/// writer that died or hit a latched I/O error before `finish()` — the
/// analysis is still printed, but the exit status must reflect it.
fn exit_incomplete(path: &str, summary: &Summary) -> ! {
    if summary.truncated {
        eprintln!("{path}: trace cut mid-record — analyzed up to the cut");
    }
    eprintln!("{path}: incomplete trace (no end-of-run trailer): the writer was interrupted or hit an I/O error");
    exit(1);
}

fn analyze_cmd(args: &[String]) {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // Both follow intervals must be strictly positive: a zero poll would
    // spin, a zero idle timeout would bail before the first poll, and a
    // negative value is not a duration. All three are usage errors (exit 2).
    let parse_ms = |flag: &str, default: u64| -> u64 {
        get(flag).map_or(default, |s| {
            let v: u64 = s.parse().unwrap_or_else(|_| {
                eprintln!("bad {flag}: expected a positive integer of milliseconds");
                exit(2)
            });
            if v == 0 {
                eprintln!("bad {flag}: must be positive, got 0");
                exit(2);
            }
            v
        })
    };

    let path = positional(args, "a trace file");
    let follow = args.iter().any(|a| a == "--follow");

    let summary = if follow {
        let idle_ms = parse_ms("--idle-ms", 10_000);
        let poll_ms = parse_ms("--poll-ms", 200);
        follow_trace(&path, idle_ms, poll_ms)
    } else {
        load_summary(&path)
    };

    print!("{}", report(&summary));
    if summary.truncated || !summary.saw_trailer() {
        exit_incomplete(&path, &summary);
    }
}

fn profile_cmd(args: &[String]) {
    let path = positional(args, "a trace file");
    let summary = load_summary(&path);
    print!("{}", profile_report(&summary));
    if summary.truncated || !summary.saw_trailer() {
        exit_incomplete(&path, &summary);
    }
}

/// Tail a growing trace: poll the file for new bytes, parse them
/// incrementally, and print a line per completed round. Returns when the
/// end-of-run trailer arrives or the file stops growing for `idle_ms`.
///
/// A file that does not exist *yet* counts as idle (the writer may still
/// be starting up), but a file that disappears or shrinks *after* bytes
/// were read is gone for good — deleted or rotated under the follower —
/// and waiting out the idle timeout would only hide that. That exits 2
/// immediately (the documented unreadable-trace status).
fn follow_trace(path: &str, idle_ms: u64, poll_ms: u64) -> Summary {
    let mut summary = Summary::default();
    let mut reader = TraceReader::new();
    let mut records: Vec<Record> = Vec::new();
    let mut offset: u64 = 0;
    let mut idle = 0u64;
    let mut buf = Vec::new();
    loop {
        // the writer may not have created the file yet; that counts as idle
        let grew = poll_trace_growth(path, &mut offset, &mut buf, &mut reader, &mut records);
        for record in records.drain(..) {
            if let Record::Event {
                event:
                    Event::RoundEnd {
                        round,
                        migrations,
                        unsatisfied,
                        overload,
                    },
                ..
            } = record
            {
                match overload {
                    Some(phi) => println!(
                        "round {round:>6}: {migrations:>6} migrations, \
                         {unsatisfied:>7} unsatisfied, Φ = {phi}"
                    ),
                    None => println!(
                        "round {round:>6}: {migrations:>6} migrations, \
                         {unsatisfied:>7} unsatisfied"
                    ),
                }
            }
            summary.ingest(&record);
        }
        if summary.saw_trailer() {
            println!("-- run finished (trailer seen) --");
            break;
        }
        if grew {
            idle = 0;
        } else {
            idle += poll_ms;
            if idle >= idle_ms {
                println!("-- no growth for {idle_ms} ms; stopping --");
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        }
    }
    if !reader.pending().is_empty() {
        // the writer died inside a write; everything before the cut counted
        summary.truncated = true;
    }
    summary
}

/// Read any bytes of `path` past `*offset` and feed them to `reader`.
/// Returns whether the file grew. A file that does not exist *yet* counts
/// as no growth (the writer may still be starting up); one that disappears
/// or shrinks after bytes were read is gone for good, and a parse error is
/// a corrupt trace — both exit 2, the documented unreadable-trace status.
fn poll_trace_growth(
    path: &str,
    offset: &mut u64,
    buf: &mut Vec<u8>,
    reader: &mut TraceReader,
    records: &mut Vec<Record>,
) -> bool {
    match std::fs::File::open(path) {
        Err(_) if *offset > 0 => {
            eprintln!("{path}: trace file deleted mid-follow");
            exit(2);
        }
        Ok(mut f) => {
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            if len < *offset {
                eprintln!("{path}: trace file truncated mid-follow (rotated or rewritten)");
                exit(2);
            }
            if len > *offset {
                f.seek(SeekFrom::Start(*offset)).expect("seek");
                buf.clear();
                (&mut f).take(len - *offset).read_to_end(buf).expect("read");
                *offset = len;
                let chunk = String::from_utf8_lossy(buf);
                if let Err(e) = reader.feed(&chunk, records) {
                    eprintln!("{path}: corrupt trace: {e}");
                    exit(2);
                }
                true
            } else {
                false
            }
        }
        Err(_) => false,
    }
}

// ---------- watch: the live telemetry dashboard ----------

/// How many snapshots the live dashboard keeps for its rate sparklines.
const WATCH_HISTORY: usize = 240;

/// Line-oriented client for the daemon socket (watch live mode).
struct StatsClient {
    reader: BufReader<Box<dyn Read>>,
    writer: Box<dyn Write>,
    line: String,
}

impl StatsClient {
    fn connect_tcp(addr: &str) -> std::io::Result<Self> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
            line: String::new(),
        })
    }

    fn connect_unix(path: &str) -> std::io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
            line: String::new(),
        })
    }

    /// One synchronous `{"op":"stats"}` round trip.
    fn poll(&mut self) -> Result<StatsSnapshot, String> {
        self.writer
            .write_all(b"{\"op\":\"stats\"}\n")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        parse_stats_reply(self.line.trim())
    }
}

/// Extract the snapshot out of a `{"ok":true,...,"stats":{...}}` reply.
/// The daemon serializes the snapshot as the *last* reply field, so the
/// object is exactly the suffix between `"stats":` and the reply's closing
/// brace — no JSON-tree-to-struct conversion needed.
fn parse_stats_reply(reply: &str) -> Result<StatsSnapshot, String> {
    if !reply.starts_with("{\"ok\":true") {
        return Err(format!("stats op failed: {reply}"));
    }
    let idx = reply
        .find("\"stats\":")
        .ok_or_else(|| format!("reply has no stats object: {reply}"))?;
    let inner = reply[idx + "\"stats\":".len()..]
        .strip_suffix('}')
        .ok_or_else(|| format!("malformed stats reply: {reply}"))?;
    serde_json::from_str::<StatsSnapshot>(inner).map_err(|e| format!("bad stats object: {e}"))
}

/// First non-flag token that is not the value of a value-taking flag.
fn watch_positional(args: &[String]) -> Option<String> {
    const VALUE_FLAGS: [&str; 4] = ["--interval-ms", "--idle-ms", "--tcp", "--socket"];
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            return Some(a.clone());
        }
    }
    None
}

fn watch_cmd(args: &[String]) {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_ms = |flag: &str, default: u64| -> u64 {
        get(flag).map_or(default, |s| {
            let v: u64 = s.parse().unwrap_or_else(|_| {
                eprintln!("bad {flag}: expected a positive integer of milliseconds");
                exit(2)
            });
            if v == 0 {
                eprintln!("bad {flag}: must be positive, got 0");
                exit(2);
            }
            v
        })
    };
    let once = args.iter().any(|a| a == "--once");
    let interval_ms = parse_ms("--interval-ms", 1_000);
    let idle_ms = parse_ms("--idle-ms", 10_000);
    match (get("--tcp"), get("--socket")) {
        (Some(_), Some(_)) => {
            eprintln!("watch takes at most one of --tcp ADDR or --socket PATH");
            exit(2);
        }
        (None, None) => {
            let Some(path) = watch_positional(args) else {
                eprintln!("watch needs a trace file, --tcp ADDR, or --socket PATH");
                exit(2);
            };
            watch_trace(&path, once, interval_ms, idle_ms);
        }
        (tcp, socket) => watch_live(tcp.as_deref(), socket.as_deref(), once, interval_ms),
    }
}

/// Poll a live daemon's `stats` op and keep redrawing the dashboard.
fn watch_live(tcp: Option<&str>, socket: Option<&str>, once: bool, interval_ms: u64) {
    let target = tcp.or(socket).expect("caller validated").to_string();
    let mut client = match tcp {
        Some(addr) => StatsClient::connect_tcp(addr),
        None => StatsClient::connect_unix(socket.expect("caller validated")),
    }
    .unwrap_or_else(|e| {
        eprintln!("cannot connect to {target}: {e}");
        exit(2);
    });
    let mut history: Vec<StatsSnapshot> = Vec::new();
    loop {
        match client.poll() {
            Ok(snap) => {
                if history.len() == WATCH_HISTORY {
                    history.remove(0);
                }
                history.push(snap);
                if !once {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render_watch(&history, &format!("live {target}")));
                std::io::stdout().flush().ok();
            }
            Err(e) => {
                // a daemon that answered at least once and then went away
                // (e.g. a clean shutdown) ends the watch, not the script
                if history.is_empty() {
                    eprintln!("{target}: {e}");
                    exit(2);
                }
                println!("-- {e}; stopping --");
                return;
            }
        }
        if once {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Render the dashboard from a trace's recorded `StatsSnapshot` records —
/// once from a finished trace, or following a growing one.
fn watch_trace(path: &str, once: bool, interval_ms: u64, idle_ms: u64) {
    if once {
        let summary = load_summary(path);
        if summary.stats_snapshots.is_empty() {
            eprintln!(
                "{path}: no stats snapshots in this trace — record one with \
                 qlb-serve --trace and --stats-every > 0"
            );
            exit(1);
        }
        print!(
            "{}",
            render_watch(&summary.stats_snapshots, &format!("trace {path}"))
        );
        return;
    }
    let mut summary = Summary::default();
    let mut reader = TraceReader::new();
    let mut records: Vec<Record> = Vec::new();
    let mut offset: u64 = 0;
    let mut idle = 0u64;
    let mut buf = Vec::new();
    let mut rendered = 0usize;
    loop {
        let grew = poll_trace_growth(path, &mut offset, &mut buf, &mut reader, &mut records);
        for record in records.drain(..) {
            summary.ingest(&record);
        }
        if summary.stats_snapshots.len() > rendered {
            rendered = summary.stats_snapshots.len();
            print!(
                "\x1b[2J\x1b[H{}",
                render_watch(
                    &summary.stats_snapshots,
                    &format!("trace {path} (following)")
                )
            );
            std::io::stdout().flush().ok();
        }
        if summary.saw_trailer() {
            println!("-- run finished (trailer seen) --");
            break;
        }
        if grew {
            idle = 0;
        } else {
            idle += interval_ms;
            if idle >= idle_ms {
                println!("-- no growth for {idle_ms} ms; stopping --");
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    if summary.stats_snapshots.is_empty() {
        eprintln!(
            "{path}: no stats snapshots in this trace — record one with \
             qlb-serve --trace and --stats-every > 0"
        );
        exit(1);
    }
}

/// A fixed-width `[####......]` fill bar for a fraction in `[0, 1]`.
fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("[{}{}]", "#".repeat(filled), ".".repeat(width - filled))
}

/// One dashboard frame: newest snapshot in full, rate sparklines over the
/// retained history.
fn render_watch(history: &[StatsSnapshot], source: &str) -> String {
    let snap = history.last().expect("render_watch needs a snapshot");
    let mut out = format!(
        "qlb-serve telemetry — {source}\n\
         tick {:>8}   uptime {:>9.1} s   {} snapshots retained\n",
        snap.tick,
        snap.uptime_ms as f64 / 1e3,
        history.len(),
    );
    out.push_str(&format!(
        "placement: {} active, {} unsatisfied; admission rejects \
         pool {} / capacity {} / draining {}\n",
        snap.active,
        snap.unsatisfied,
        snap.rejects_pool,
        snap.rejects_capacity,
        snap.rejects_draining,
    ));
    let util = if snap.budget_max > 0 {
        snap.budget as f64 / snap.budget_max as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "rebalancer: backlog {:>5}   budget {}/{} {} {:>5.1}%   {} starved ticks\n",
        snap.backlog,
        snap.budget,
        snap.budget_max,
        bar(util, 10),
        util * 100.0,
        snap.starved_ticks,
    ));
    if !snap.rates.is_empty() {
        out.push_str("rates                 1s/s       10s/s       60s/s   1s history\n");
        for r in &snap.rates {
            let series: Vec<f64> = history
                .iter()
                .filter_map(|s| s.rates.iter().find(|x| x.name == r.name).map(|x| x.r1s))
                .collect();
            out.push_str(&format!(
                "  {:<16} {:>8.1} {:>11.1} {:>11.1}   {}\n",
                r.name,
                r.r1s,
                r.r10s,
                r.r60s,
                sparkline_fit(&series, 30),
            ));
        }
    }
    if !snap.latency.is_empty() {
        out.push_str("latency (windowed quantiles):\n");
        for d in &snap.latency {
            out.push_str(&format!(
                "  {:<16} p50 {:>8.1} µs   p95 {:>8.1} µs   p99 {:>8.1} µs   ({} samples)\n",
                d.name,
                us(d.p50_ns),
                us(d.p95_ns),
                us(d.p99_ns),
                d.count,
            ));
        }
    }
    if !snap.classes.is_empty() {
        out.push_str("per-class SLO violation (10 s window | lifetime):\n");
        for c in &snap.classes {
            out.push_str(&format!(
                "  class {:<4} {} {:>5.1}% | {:>5.1}%   ({} active, {} unsatisfied)\n",
                c.class,
                bar(c.violation_windowed, 20),
                c.violation_windowed * 100.0,
                c.violation_total * 100.0,
                c.active,
                c.unsatisfied,
            ));
        }
    }
    out
}

/// The full digest: the shared [`Summary::render`] body plus the Φ
/// trajectory sparkline and churn/staleness summaries.
fn report(summary: &Summary) -> String {
    let mut out = String::new();
    if !summary.overload_series.is_empty() {
        let phi: Vec<f64> = summary.overload_series.iter().map(|&v| v as f64).collect();
        out.push_str(&format!("Φ trajectory: {}\n", sparkline_fit(&phi, 60)));
    }
    out.push_str(&summary.render());
    let churn: u64 = summary
        .counters
        .get("churn_episodes")
        .copied()
        .unwrap_or_else(|| {
            summary
                .events_by_kind
                .get("ChurnEpisode")
                .copied()
                .unwrap_or(0)
        });
    let arrivals = summary.counters.get("arrivals").copied().unwrap_or(0);
    let departures = summary.counters.get("departures").copied().unwrap_or(0);
    if churn + arrivals + departures > 0 {
        out.push_str(&format!(
            "churn: {churn} episodes, {arrivals} arrivals, {departures} departures\n"
        ));
    }
    if let Some(&staleness) = summary.gauges.get("snapshot_staleness") {
        let stale = summary
            .counters
            .get("stale_snapshots")
            .copied()
            .unwrap_or(0);
        out.push_str(&format!(
            "staleness: last snapshot staleness {staleness}, {stale} stale snapshots seen\n"
        ));
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The `profile` digest: per-shard utilization table, barrier-skew
/// percentiles, the dispatch wake-latency histogram, and the sampled
/// top-k congestion heatmap.
fn profile_report(summary: &Summary) -> String {
    let mut out = String::new();
    if summary.shards.is_empty() {
        out.push_str(
            "no per-shard profile in this trace — record one with a threaded \
             executor (qlb-sim --executor threaded) and shard timing on\n",
        );
    } else {
        // The longest shard of every pooled round is exactly the aggregate
        // compute phase (the critical path), so per-shard busy time over
        // that total is the utilization of the parallel section.
        let critical_ns = summary.phases.get("compute").map_or(0, |&(_, t, _)| t);
        let rounds = summary.shards.iter().map(|s| s.0).max().unwrap_or(0);
        out.push_str(&format!(
            "per-shard profile: {} shards over {} pooled rounds (critical path {:.3} ms)\n",
            summary.shards.len(),
            rounds,
            ms(critical_ns),
        ));
        out.push_str("  shard    rounds     busy ms   worst round µs   utilization\n");
        for (i, &(rounds, total_ns, max_ns)) in summary.shards.iter().enumerate() {
            let util = if critical_ns > 0 {
                100.0 * total_ns as f64 / critical_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {i:>5}  {rounds:>8}  {:>10.3}  {:>15.1}  {util:>11.1}%\n",
                ms(total_ns),
                us(max_ns),
            ));
        }
        if let Some(util) = summary.mean_round_util_pct {
            // the table above charges every round against the summed
            // critical path, so a few OS-stalled rounds drag all shards
            // down; this is the round-by-round balance of the sharding
            out.push_str(&format!(
                "mean per-round utilization: {util:.1}% \
                 (Σ shard compute / (shards × slowest), averaged per round)\n"
            ));
        }
    }
    if let Some(skew) = summary.latency_hists.get("barrier_skew") {
        out.push_str(&format!(
            "barrier skew (max−min shard compute per round): p50 {:.1} µs, p95 {:.1} µs, \
             max {:.1} µs over {} rounds\n",
            us(skew.p50_ns),
            us(skew.p95_ns),
            us(skew.max_ns),
            skew.count,
        ));
    }
    if let Some(wake) = summary.latency_hists.get("dispatch_wake") {
        out.push_str(&format!(
            "dispatch wake latency (epoch publish → worker start): p50 {:.1} µs, \
             p95 {:.1} µs, max {:.1} µs over {} wakes\n",
            us(wake.p50_ns),
            us(wake.p95_ns),
            us(wake.max_ns),
            wake.count,
        ));
        let peak = wake.buckets.iter().map(|&(_, c)| c).max().unwrap_or(0);
        for &(bucket, count) in &wake.buckets {
            let limit_ns = qlb_obs::Histogram::bucket_limit(bucket as usize);
            let bar = "#".repeat(((count * 40).div_ceil(peak.max(1))) as usize);
            out.push_str(&format!(
                "  < {:>10.1} µs  {count:>8}  {bar}\n",
                us(limit_ns)
            ));
        }
    }
    out.push_str(&topk_heatmap(summary));
    out
}

/// Render the sampled top-k congestion series as one sparkline row per
/// resource (hottest first), each point the resource's load at that sample
/// (0 when it fell out of the top k).
fn topk_heatmap(summary: &Summary) -> String {
    if summary.topk.is_empty() {
        return String::new();
    }
    let samples = &summary.topk;
    // resources ever seen, keyed by their peak load
    let mut peak: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (_, entries) in samples {
        for &(resource, load) in entries {
            let p = peak.entry(resource).or_insert(0);
            *p = (*p).max(load);
        }
    }
    let mut hottest: Vec<(u64, u64)> = peak.into_iter().collect();
    hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let shown = hottest.len().min(10);
    let (first, last) = (samples[0].0, samples[samples.len() - 1].0);
    let mut out = format!(
        "top-k congestion: {} samples over rounds {first}..={last}, {} hot resources \
         ({} shown, hottest first)\n",
        samples.len(),
        hottest.len(),
        shown,
    );
    for &(resource, peak_load) in &hottest[..shown] {
        let series: Vec<f64> = samples
            .iter()
            .map(|(_, entries)| {
                entries
                    .iter()
                    .find(|&&(r, _)| r == resource)
                    .map_or(0.0, |&(_, load)| load as f64)
            })
            .collect();
        out.push_str(&format!(
            "  r{resource:<6} {} peak {peak_load}\n",
            sparkline_fit(&series, 50)
        ));
    }
    out
}

// ---------- spans: causal request spans + lifecycles ----------

/// Quantile of a sorted sample set (nearest-rank; 0 when empty).
fn quantile_of(sorted: &[u64], f: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * f).round() as usize;
    sorted[idx]
}

fn spans_cmd(args: &[String]) {
    let path = positional(args, "a trace file");
    let slowest: usize = args
        .iter()
        .position(|a| a == "--slowest")
        .and_then(|i| args.get(i + 1))
        .map_or(10, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad --slowest");
                exit(2)
            })
        });
    let ticket: Option<u64> = args
        .iter()
        .position(|a| a == "--ticket")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad --ticket");
                exit(2)
            })
        });
    let summary = load_summary(&path);
    if summary.spans.is_empty() {
        eprintln!(
            "{path}: no causal spans in this trace — record them with \
             qlb-serve --trace and --span-sample > 0"
        );
        exit(1);
    }
    print!("{}", spans_report(&summary, slowest, ticket));
    if summary.truncated || !summary.saw_trailer() {
        exit_incomplete(&path, &summary);
    }
}

/// The spans digest: verdict counts, per-phase latency breakdown,
/// slowest-spans table, and ticket lifecycles (admission → moves →
/// depart).
fn spans_report(summary: &Summary, slowest: usize, only_ticket: Option<u64>) -> String {
    let spans = &summary.spans;
    let mut out = format!("causal spans: {} retained\n", spans.len());

    // op / verdict counts
    let mut by_kind: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    for s in spans {
        *by_kind
            .entry((s.op.clone(), s.verdict.clone()))
            .or_insert(0) += 1;
    }
    for ((op, verdict), count) in &by_kind {
        out.push_str(&format!("  {op:<8} {verdict:<10} {count:>8}\n"));
    }

    // per-phase latency breakdown over wire-op spans (migrations are
    // continuation stamps with no clocks of their own)
    let wire: Vec<_> = spans.iter().filter(|s| s.op != "migrate").collect();
    if !wire.is_empty() {
        let mut cols: [(&str, Vec<u64>); 5] = [
            ("parse", Vec::new()),
            ("admit", Vec::new()),
            ("probe", Vec::new()),
            ("reply", Vec::new()),
            ("total", Vec::new()),
        ];
        for s in &wire {
            cols[0].1.push(s.parse_ns);
            cols[1].1.push(s.admit_ns);
            cols[2].1.push(s.probe_ns);
            cols[3].1.push(s.reply_ns);
            cols[4].1.push(s.total_ns);
        }
        out.push_str(&format!(
            "per-phase latency over {} sampled wire ops:\n  phase        p50 µs      p95 µs      p99 µs\n",
            wire.len()
        ));
        for (name, mut v) in cols {
            v.sort_unstable();
            out.push_str(&format!(
                "  {name:<8} {:>9.2} {:>11.2} {:>11.2}\n",
                us(quantile_of(&v, 0.50)),
                us(quantile_of(&v, 0.95)),
                us(quantile_of(&v, 0.99)),
            ));
        }

        // slowest spans
        let mut by_total: Vec<_> = wire.clone();
        by_total.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
        let shown = by_total.len().min(slowest.max(1));
        out.push_str(&format!(
            "slowest {shown} spans:\n  span id  op       verdict      total µs   parse    admit    probe    reply   probes\n"
        ));
        for s in &by_total[..shown] {
            out.push_str(&format!(
                "  {:>7}  {:<8} {:<10} {:>9.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8}\n",
                s.id,
                s.op,
                s.verdict,
                us(s.total_ns),
                us(s.parse_ns),
                us(s.admit_ns),
                us(s.probe_ns),
                us(s.reply_ns),
                s.probes,
            ));
        }
    }

    // lifecycles: group by ticket, order by span id (arrival order)
    let mut lives: std::collections::BTreeMap<u64, Vec<&qlb_obs::SpanRecord>> =
        std::collections::BTreeMap::new();
    for s in spans {
        if let Some(t) = s.ticket {
            if only_ticket.is_none_or(|want| want == t) {
                lives.entry(t).or_default().push(s);
            }
        }
    }
    lives.values_mut().for_each(|v| v.sort_by_key(|s| s.id));
    // only stories with some history are interesting (unless asked for)
    let stories: Vec<_> = lives
        .iter()
        .filter(|(_, v)| only_ticket.is_some() || v.len() > 1)
        .collect();
    if !stories.is_empty() {
        const MAX_STORIES: usize = 20;
        let shown = stories.len().min(MAX_STORIES);
        out.push_str(&format!(
            "lifecycles (admission → moves → depart), {shown} of {} shown:\n",
            stories.len()
        ));
        for (ticket, story) in &stories[..shown] {
            let mut steps: Vec<String> = Vec::new();
            for s in story.iter() {
                let step = match (s.op.as_str(), s.verdict.as_str()) {
                    ("place", "admitted") => match s.resource {
                        Some(r) => format!("admitted r{r}"),
                        None => "admitted".to_string(),
                    },
                    ("place", v) => format!("rejected ({v})"),
                    ("migrate", _) => match (s.from, s.resource) {
                        (Some(a), Some(b)) => format!("moved r{a}->r{b}"),
                        _ => "moved".to_string(),
                    },
                    ("depart", "departed") => "departed".to_string(),
                    (op, v) => format!("{op} ({v})"),
                };
                steps.push(step);
            }
            let ids: Vec<String> = story.iter().map(|s| s.id.to_string()).collect();
            out.push_str(&format!(
                "  ticket {ticket}: {}  [span ids {}]\n",
                steps.join(" -> "),
                ids.join(",")
            ));
        }
    } else if let Some(t) = only_ticket {
        out.push_str(&format!("no spans for ticket {t}\n"));
    }
    out
}

// ---------- blackbox: flight-recorder dump reader ----------

fn blackbox_cmd(args: &[String]) {
    let target = positional(args, "a black-box file or flight-recorder directory");
    // a directory means "the newest dump in it"
    let path = if std::fs::metadata(&target)
        .map(|m| m.is_dir())
        .unwrap_or(false)
    {
        let mut dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&target)
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("blackbox-") && n.ends_with(".jsonl"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        dumps.sort();
        match dumps.pop() {
            Some(p) => p.to_string_lossy().into_owned(),
            None => {
                eprintln!("{target}: no blackbox-*.jsonl dumps in this directory");
                exit(1);
            }
        }
    } else {
        target
    };
    let summary = load_summary(&path);
    let Some((trigger, tick, uptime_ms, spans, dropped)) = summary.blackbox.clone() else {
        eprintln!("{path}: not a black-box dump (no BlackBox header record)");
        exit(1);
    };
    println!(
        "black box {path}\n  trigger: {trigger} at tick {tick} (uptime {:.1} s)\n  \
         evidence: {spans} spans, {} tick marks retained; {dropped} older records \
         dropped by the flight ring",
        uptime_ms as f64 / 1e3,
        summary.tick_marks.len(),
    );
    if !summary.tick_marks.is_empty() {
        const SHOW: usize = 10;
        let marks = &summary.tick_marks;
        let from = marks.len().saturating_sub(SHOW);
        println!(
            "  last {} ticks:    tick   backlog    budget    active   unsatisfied",
            marks.len() - from
        );
        for &(tick, backlog, budget, active, unsatisfied) in &marks[from..] {
            println!(
                "             {tick:>11} {backlog:>9} {budget:>9} {active:>9} {unsatisfied:>13}"
            );
        }
    }
    if !summary.spans.is_empty() {
        print!("{}", spans_report(&summary, 5, None));
    }
}

/// Percentage change from `a` to `b` (None when the baseline is zero).
fn pct(a: u64, b: u64) -> Option<f64> {
    (a > 0).then(|| 100.0 * (b as f64 - a as f64) / a as f64)
}

fn fmt_pct(a: u64, b: u64) -> String {
    match pct(a, b) {
        Some(p) => format!("{p:+.1}%"),
        None if b > 0 => "+∞".into(),
        None => "±0.0%".into(),
    }
}

fn compare_cmd(args: &[String]) {
    let threshold: f64 = args
        .iter()
        .position(|a| a == "--threshold")
        .and_then(|i| args.get(i + 1))
        .map_or(10.0, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad --threshold");
                exit(2)
            })
        });
    // `--threshold 10` leaves its value as a positional-looking token;
    // filter it out by position.
    let mut positionals = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--threshold" {
            skip_next = true;
        } else if !a.starts_with("--") {
            positionals.push(a.clone());
        }
    }
    if positionals.len() != 2 {
        eprintln!("compare needs exactly two trace files; see qlb-trace --help");
        exit(2);
    }
    let (path_a, path_b) = (&positionals[0], &positionals[1]);
    let a = load_summary(path_a);
    let b = load_summary(path_b);
    for (path, s) in [(path_a, &a), (path_b, &b)] {
        if s.truncated || !s.saw_trailer() {
            eprintln!("{path}: incomplete trace — refusing to gate on a partial run");
            exit(1);
        }
    }

    println!("comparing {path_a} (baseline) → {path_b} (candidate), threshold ±{threshold}%");

    // Deterministic protocol work: these are reproducible across machines,
    // so they are the regression gate. Wall-clock deltas below are
    // informational only.
    let mut regressions: Vec<String> = Vec::new();
    let gated = ["rounds", "migrations", "weight_moved"];
    println!("protocol work (gated):");
    for name in gated {
        let (va, vb) = (counter_of(&a, name), counter_of(&b, name));
        if va == 0 && vb == 0 {
            continue;
        }
        let delta = fmt_pct(va, vb);
        let exceeded = match pct(va, vb) {
            Some(p) => p > threshold,
            None => vb > 0, // sprang from zero: always over threshold
        };
        let mark = if exceeded { "  ← REGRESSION" } else { "" };
        println!("  {name:<14} {va:>12} → {vb:>12}  ({delta}){mark}");
        if exceeded {
            regressions.push(format!("{name} {delta} exceeds +{threshold}%"));
        }
    }
    if let (Some(ra), Some(rb)) = (convergence_round(&a), convergence_round(&b)) {
        println!("  convergence round: {ra} → {rb}");
    }

    // Φ-trajectory ratio: area under the overload-potential curve.
    let (phi_a, phi_b) = (phi_area(&a), phi_area(&b));
    if phi_a > 0.0 || phi_b > 0.0 {
        let ratio = if phi_a > 0.0 {
            phi_b / phi_a
        } else {
            f64::INFINITY
        };
        println!("Φ-trajectory area: {phi_a:.0} → {phi_b:.0} (ratio {ratio:.3})");
    }

    // Per-phase wall-clock breakdown (machine-dependent, never gated).
    let phase_names: std::collections::BTreeSet<&String> =
        a.phases.keys().chain(b.phases.keys()).collect();
    if !phase_names.is_empty() {
        println!("phase breakdown (wall-clock, informational):");
        for name in phase_names {
            let ta = a.phases.get(name).map_or(0, |&(_, t, _)| t);
            let tb = b.phases.get(name).map_or(0, |&(_, t, _)| t);
            println!(
                "  {name:<12} {:>10.3} ms → {:>10.3} ms  ({})",
                ms(ta),
                ms(tb),
                fmt_pct(ta, tb)
            );
        }
    }
    // Snapshot-pipeline counters (informational).
    for name in [
        "snapshots_sent",
        "stale_snapshots",
        "arrivals",
        "departures",
    ] {
        let (va, vb) = (counter_of(&a, name), counter_of(&b, name));
        if va + vb > 0 {
            println!("  {name:<14} {va:>12} → {vb:>12}  ({})", fmt_pct(va, vb));
        }
    }

    if regressions.is_empty() {
        println!("no regression beyond ±{threshold}% on gated counters");
    } else {
        for r in &regressions {
            println!("REGRESSION: {r}");
        }
        exit(1);
    }
}

fn counter_of(s: &Summary, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

/// Round of the last `RoundEnd` event — the convergence round for runs
/// that converged (and the cutoff round otherwise).
fn convergence_round(s: &Summary) -> Option<u64> {
    (s.rounds > 0).then(|| s.rounds - 1)
}

/// Area under the Φ (overload-potential) trajectory.
fn phi_area(s: &Summary) -> f64 {
    s.overload_series.iter().map(|&v| v as f64).sum()
}

fn print_help() {
    println!(
        "qlb-trace — inspect and compare qlb JSONL metrics traces\n\n\
         USAGE:\n  qlb-trace FILE.jsonl                analyze a finished or interrupted trace\n  \
         qlb-trace FILE.jsonl --follow       tail a trace that is still being written\n  \
         qlb-trace profile FILE.jsonl        per-shard utilization, barrier skew, wake\n                                      \
         latency, and the top-k congestion heatmap\n  \
         qlb-trace compare A.jsonl B.jsonl   diff two runs (baseline → candidate)\n  \
         qlb-trace watch TARGET              live telemetry dashboard: rate sparklines,\n                                      \
         latency digests, per-class SLO violation\n                                      \
         bars, rebalancer budget utilization\n  \
         qlb-trace spans FILE.jsonl          causal request spans: per-phase latency\n                                      \
         breakdown (parse/admit/probe/reply), the\n                                      \
         slowest-spans table, and per-ticket life-\n                                      \
         cycles (admission → moves → depart)\n                                      \
         [--slowest N] [--ticket T]\n  \
         qlb-trace blackbox PATH             read a flight-recorder dump (or the newest\n                                      \
         blackbox-*.jsonl when PATH is a directory):\n                                      \
         trigger, tick context, retained spans\n\n\
         WATCH TARGETS:\n  \
         --tcp ADDR       poll a live daemon's {{\"op\":\"stats\"}} over TCP\n  \
         --socket PATH    same over a Unix socket\n  \
         FILE.jsonl       replay StatsSnapshot records from a qlb-serve trace\n                   \
         (follows a growing trace; --once renders the newest and exits,\n                   \
         status 1 if the trace has no snapshots)\n  \
         --interval-ms N  refresh interval (default 1000)\n\n\
         OPTIONS:\n  --follow         poll the file and print each round as it lands\n  \
         --idle-ms N      stop following after N ms without growth (default 10000;\n                   \
         must be a positive integer, else exit 2)\n  \
         --poll-ms N      polling interval in ms (default 200; must be a positive\n                   \
         integer, else exit 2)\n  \
         --threshold PCT  compare: flag gated counters that grew more than PCT%\n                   \
         (default 10); wall-clock deltas are never gated\n\n\
         Traces come from qlb-sim --metrics-out FILE.jsonl or qlb-serve\n\
         --trace FILE.jsonl, streamed while the run executes.\n\
         Record the profile inputs with qlb-sim --executor threaded\n\
         [--topk-resources K] [--shard-timing on|off].\n\n\
         EXIT STATUS: 0 clean; 1 incomplete trace (no end-of-run trailer —\n\
         interrupted writer or latched I/O error) or compare regression;\n\
         2 usage error or unreadable/corrupt trace, including a trace file\n\
         deleted or truncated while --follow was tailing it."
    );
}
