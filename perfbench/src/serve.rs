//! `serve-*` workloads: `qlb_serve::run_daemon` on a Unix socket, loaded
//! by two closed-loop client connections of this process.
//!
//! Each connection fills its half of the fleet to 93 % of capacity, then
//! alternates "depart the oldest held ticket" with "place a group of
//! weight 1–4". `serve-sync` keeps one request in flight per connection,
//! `serve-pipelined` a window of 64. A pass is a fixed number of requests
//! per connection; `pass_s` is the median pass time.
//!
//! The traced run adds, after the untraced socket phase:
//! * a socket phase with a recording [`Sink`] in the daemon, for the
//!   exact receipt-to-reply latency of every place (`daemon.*`);
//! * three in-process replays of the same request stream against a
//!   `ServeCore` built the same way, ticked at the socket run's
//!   requests-per-tick cadence: untraced, with `handle_line` timed, and
//!   with `parse_request` and the core calls timed (`proto.*`, `core.*`).

use crate::report::{median, peak_rss_mb, percentile, waterfall_row, LatencyHist, Outcome, Phase};
use crate::Scale;
use qlb_core::{ClassId, UserId};
use qlb_obs::profile::PLACE_HIST_NAME;
use qlb_obs::{Counter, Event, Gauge, NoopSink, Sink};
use qlb_rng::{Rng64, SplitMix64};
use qlb_serve::{
    handle_line, parse_request, run_daemon, DaemonOptions, Request, ServeConfig, ServeCore,
    ServeListener,
};
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Client connections (and client threads): one per core of the host.
pub const CONNECTIONS: usize = 2;
/// Share of total capacity the fill places.
const FILL: f64 = 0.93;
/// Requests in flight per connection during the fill.
const FILL_WINDOW: usize = 64;
/// Largest group weight a place asks for.
const MAX_WEIGHT: u64 = 4;
/// Daemons started (and filled) per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Longest measured phase of one daemon: `stats` gives migrations as a
/// 60 s rate, so a daemon must answer its last `stats` before it is 60 s
/// old. Longer runs start more daemons.
const MAX_DAEMON_S: f64 = 40.0;
/// Cadence of the `query` samples behind `unsat_frac`.
const QUERY_EVERY: Duration = Duration::from_millis(10);
/// A reply slower than this fails the run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Mix requests replayed in-process by the traced run.
const REPLAY_OPS: usize = 300_000;

/// One `serve-*` workload.
pub struct Serve {
    pub name: &'static str,
    /// Requests in flight per connection.
    window: usize,
    /// Requests per connection in one pass.
    pass_ops: usize,
}

pub const SYNC: Serve = Serve {
    name: "serve-sync",
    window: 1,
    pass_ops: 12_500,
};

pub const PIPELINED: Serve = Serve {
    name: "serve-pipelined",
    window: 64,
    pass_ops: 25_000,
};

/// The fleet: capacity 40 on every tenth resource and 6 elsewhere, plus
/// the parking pool size.
fn fleet(scale: Scale) -> (Vec<u32>, usize) {
    let (m, pool) = match scale {
        Scale::Full => (12_500, 200_000),
        Scale::Toy => (500, 8_000),
    };
    (
        (0..m).map(|r| if r % 10 == 0 { 40 } else { 6 }).collect(),
        pool,
    )
}

fn pass_ops(w: &Serve, scale: Scale) -> usize {
    match scale {
        Scale::Full => w.pass_ops,
        Scale::Toy => w.pass_ops / 25,
    }
}

// ---------------------------------------------------------------------
// the request stream
// ---------------------------------------------------------------------

/// A request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Place { weight: u32 },
    Depart { ticket: u32, weight: u32 },
    Query,
}

impl Req {
    fn write(&self, buf: &mut String) {
        use std::fmt::Write as _;
        let _ = match *self {
            Req::Place { weight } => write!(buf, "{{\"op\":\"place\",\"weight\":{weight}}}"),
            Req::Depart { ticket, .. } => write!(buf, "{{\"op\":\"depart\",\"user\":{ticket}}}"),
            Req::Query => write!(buf, "{{\"op\":\"query\"}}"),
        };
    }
}

/// One connection's request stream and ledger of held tickets. Weights
/// come from the workload seed alone; tickets come from the replies.
struct Stream {
    rng: SplitMix64,
    held: VecDeque<(u32, u32)>,
    held_weight: u64,
    depart_next: bool,
}

impl Stream {
    fn new(seed: u64, conn: usize, pool: usize) -> Self {
        Self {
            rng: SplitMix64::new(qlb_rng::mix64_pair(seed, conn as u64 + 1)),
            held: VecDeque::with_capacity(pool),
            held_weight: 0,
            depart_next: false,
        }
    }

    fn place(&mut self) -> Req {
        Req::Place {
            weight: self.rng.range_inclusive(1, MAX_WEIGHT) as u32,
        }
    }

    /// The next mix request: departs of the oldest ticket and places
    /// alternate.
    fn next(&mut self) -> Req {
        self.depart_next = !self.depart_next;
        if self.depart_next {
            if let Some((ticket, weight)) = self.held.pop_front() {
                self.held_weight -= weight as u64;
                return Req::Depart { ticket, weight };
            }
        }
        self.place()
    }

    fn placed(&mut self, ticket: u32, weight: u32) {
        self.held.push_back((ticket, weight));
        self.held_weight += weight as u64;
    }
}

/// A checked reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Placed { ticket: u32 },
    Rejected,
    Departed,
    Query { active: u64, unsatisfied: u64 },
}

/// The unsigned integer after `key` in a reply line.
fn num_after(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse and check the reply to `req`. Place and depart replies have a
/// fixed flat shape and are checked field by field; query replies go
/// through the JSON parser.
fn check_reply(req: Req, line: &str) -> Result<Answer, String> {
    let bad = || format!("reply {line:?} to {req:?}");
    if !line.ends_with('}') {
        return Err(bad());
    }
    match req {
        Req::Place { weight } => {
            if line.starts_with("{\"ok\":true,\"op\":\"place\",\"admitted\":false,\"reason\":\"") {
                return Ok(Answer::Rejected);
            }
            if !line.starts_with("{\"ok\":true,\"op\":\"place\",\"admitted\":true,") {
                return Err(bad());
            }
            let ticket = num_after(line, "\"user\":").ok_or_else(bad)?;
            if num_after(line, "\"weight\":") != Some(weight as u64) || ticket > u32::MAX as u64 {
                return Err(bad());
            }
            Ok(Answer::Placed {
                ticket: ticket as u32,
            })
        }
        Req::Depart { ticket, weight } => {
            let ok = line.starts_with("{\"ok\":true,\"op\":\"depart\",\"user\":")
                && num_after(line, "\"user\":") == Some(ticket as u64)
                && num_after(line, "\"released\":") == Some(weight as u64);
            if ok {
                Ok(Answer::Departed)
            } else {
                Err(bad())
            }
        }
        Req::Query => {
            // The first "active" and "unsatisfied" are the fleet totals;
            // the per-class entries follow them.
            let (active, unsatisfied) = (
                num_after(line, "\"active\":"),
                num_after(line, "\"unsatisfied\":"),
            );
            match (
                line.starts_with("{\"ok\":true,\"op\":\"query\","),
                active,
                unsatisfied,
            ) {
                (true, Some(active), Some(unsatisfied)) => Ok(Answer::Query {
                    active,
                    unsatisfied,
                }),
                _ => Err(bad()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// the socket client
// ---------------------------------------------------------------------

/// What one connection observed.
#[derive(Debug, Default)]
struct Tally {
    ops: Phase,
    place: LatencyHist,
    /// `(unsatisfied, active)` from the periodic queries.
    samples: Vec<(u64, u64)>,
    errors: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Self {
            samples: Vec::with_capacity(1 << 14),
            errors: Vec::with_capacity(8),
            ..Self::default()
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.ops.absorb(other.ops);
        self.place.merge(&other.place);
        self.samples.extend(other.samples);
        self.errors.extend(other.errors);
    }

    fn error(&mut self, msg: String) {
        self.ops.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    line: String,
    out: String,
    inflight: VecDeque<(Req, Instant)>,
}

/// What a connection does until it stops.
#[derive(Clone, Copy)]
enum Job {
    /// Place until the ledger holds `target` slots.
    Fill { target: u64 },
    /// `ops` mix requests, optionally sampling `query` on a cadence.
    Mix {
        ops: usize,
        window: usize,
        sample: bool,
    },
}

impl Conn {
    fn connect(path: &PathBuf) -> Result<Self, String> {
        let s =
            UnixStream::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let w = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(s),
            writer: BufWriter::new(w),
            line: String::with_capacity(1024),
            out: String::with_capacity(64),
            inflight: VecDeque::with_capacity(FILL_WINDOW.max(64)),
        })
    }

    fn send(&mut self, req: Req) -> std::io::Result<()> {
        self.out.clear();
        req.write(&mut self.out);
        self.out.push('\n');
        self.inflight.push_back((req, Instant::now()));
        self.writer.write_all(self.out.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<(Req, Instant)> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let front = self
            .inflight
            .pop_front()
            .expect("a reply answers an in-flight request");
        Ok(front)
    }

    /// One request outside the mix (stats, query, shutdown).
    fn ask(&mut self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("{line}: {e}");
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        self.writer.flush().map_err(io)?;
        self.line.clear();
        self.reader.read_line(&mut self.line).map_err(io)?;
        Ok(self.line.trim_end().to_string())
    }

    /// Run `job` on this connection; I/O errors end it early.
    fn drive(&mut self, stream: &mut Stream, job: Job, tally: &mut Tally) {
        if let Err(e) = self.drive_inner(stream, job, tally) {
            let lost = self.inflight.len() as u64;
            self.inflight.clear();
            tally.ops.failed += lost;
            tally.error(format!("connection I/O: {e}"));
        }
    }

    fn drive_inner(
        &mut self,
        stream: &mut Stream,
        job: Job,
        tally: &mut Tally,
    ) -> std::io::Result<()> {
        let (window, mut left) = match job {
            Job::Fill { .. } => (FILL_WINDOW, usize::MAX),
            Job::Mix { ops, window, .. } => (window, ops),
        };
        let mut pending_weight = 0u64;
        let mut last_query = Instant::now();
        loop {
            while self.inflight.len() < window && left > 0 {
                let req = match job {
                    Job::Fill { target } => {
                        if stream.held_weight + pending_weight >= target {
                            left = 0;
                            break;
                        }
                        stream.place()
                    }
                    Job::Mix { sample: true, .. } if last_query.elapsed() >= QUERY_EVERY => {
                        last_query = Instant::now();
                        Req::Query
                    }
                    Job::Mix { .. } => stream.next(),
                };
                if let Req::Place { weight } = req {
                    pending_weight += weight as u64;
                }
                self.send(req)?;
                tally.ops.attempted += 1;
                left -= 1;
            }
            if self.inflight.is_empty() {
                return Ok(());
            }
            self.writer.flush()?;
            let (req, sent) = self.recv()?;
            let ns = sent.elapsed().as_nanos() as u64;
            if let Req::Place { weight } = req {
                pending_weight -= weight as u64;
                tally.place.record(ns);
            }
            match check_reply(req, self.line.trim_end()) {
                Ok(Answer::Placed { ticket }) => {
                    if let Req::Place { weight } = req {
                        stream.placed(ticket, weight);
                    }
                    tally.ops.succeeded += 1;
                }
                Ok(Answer::Rejected) => tally.ops.rejected += 1,
                Ok(Answer::Departed) => tally.ops.succeeded += 1,
                Ok(Answer::Query {
                    active,
                    unsatisfied,
                }) => {
                    tally.samples.push((unsatisfied, active));
                    tally.ops.succeeded += 1;
                }
                Err(e) => tally.error(e),
            }
        }
    }
}

/// Run `job` on every connection at once; returns the wall time.
fn on_all(
    conns: &mut [Conn],
    streams: &mut [Stream],
    job: impl Fn(usize) -> Job,
    tally: &mut Tally,
) -> Duration {
    // Everything a client thread touches is allocated here, on the calling
    // thread: a client thread that never allocates never gets a malloc
    // arena of its own, which keeps peak RSS independent of the pass count.
    let mut parts: Vec<Tally> = conns.iter().map(|_| Tally::new()).collect();
    let t = Instant::now();
    thread::scope(|sc| {
        for (i, ((c, s), part)) in conns
            .iter_mut()
            .zip(streams.iter_mut())
            .zip(parts.iter_mut())
            .enumerate()
        {
            let job = job(i);
            sc.spawn(move || c.drive(s, job, part));
        }
    });
    let wall = t.elapsed();
    for part in parts {
        tally.absorb(part);
    }
    wall
}

// ---------------------------------------------------------------------
// the daemon
// ---------------------------------------------------------------------

/// The traced socket phase's sink: exact receipt-to-reply latency of each
/// place and the rebalancer's migrations, while `recording` is set.
struct RecordingSink {
    recording: Arc<AtomicBool>,
    place: LatencyHist,
    migrations: u64,
}

impl Sink for RecordingSink {
    const ENABLED: bool = true;

    fn event(&mut self, _ev: Event) {}

    fn add(&mut self, c: Counter, delta: u64) {
        if c == Counter::Migrations && self.recording.load(Ordering::Relaxed) {
            self.migrations += delta;
        }
    }

    fn set(&mut self, _g: Gauge, _value: u64) {}

    fn time(&mut self, _p: qlb_obs::Phase, _ns: u64) {}

    fn latency(&mut self, name: &'static str, ns: u64) {
        if name == PLACE_HIST_NAME && self.recording.load(Ordering::Relaxed) {
            self.place.record(ns);
        }
    }
}

/// A running daemon with its client connections and their streams.
struct Daemon<S> {
    handle: thread::JoinHandle<std::io::Result<S>>,
    path: PathBuf,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
}

/// Start a daemon over the workload fleet and fill it; returns the daemon
/// and the set-up wall time.
fn start<S: Sink + Send + 'static>(
    scale: Scale,
    seed: u64,
    k: usize,
    mut sink: S,
    tally: &mut Tally,
) -> Result<(Daemon<S>, Duration), String> {
    let dir = PathBuf::from(".bench_build");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("perfbench-{}-{k}.sock", std::process::id()));
    let path_s = path.to_str().ok_or("socket path is not UTF-8")?.to_string();

    let t = Instant::now();
    let (caps, pool) = fleet(scale);
    let total: u64 = caps.iter().map(|&c| c as u64).sum();
    let core = ServeCore::with_capacities(&caps, pool, ServeConfig::new(seed))?;
    let listener = ServeListener::bind_unix(&path_s).map_err(|e| format!("bind {path_s}: {e}"))?;
    let handle = thread::spawn(move || {
        run_daemon(core, listener, &mut sink, DaemonOptions::default()).map(|_| sink)
    });
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(&path))
        .collect::<Result<Vec<_>, _>>()?;
    let mut streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|i| Stream::new(seed, i, pool))
        .collect();
    let target = (FILL * total as f64) as u64 / CONNECTIONS as u64;
    on_all(&mut conns, &mut streams, |_| Job::Fill { target }, tally);
    Ok((
        Daemon {
            handle,
            path,
            conns,
            streams,
        },
        t.elapsed(),
    ))
}

/// The fields of a `stats` reply this benchmark reads.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    ticks: u64,
    starved: u64,
    backlog: u64,
    /// Migrations since start, from the 60 s rate over the daemon's
    /// uptime (every daemon here lives less than 60 s).
    migrations: f64,
}

fn stats(conn: &mut Conn) -> Result<Stats, String> {
    let line = conn.ask("{\"op\":\"stats\"}")?;
    let v = serde_json::parse_value_str(&line).map_err(|e| format!("stats reply: {e}"))?;
    let s = v.get("stats").ok_or("stats reply without stats")?;
    let u = |k: &str| {
        s.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("stats without {k}"))
    };
    let uptime_ms = u("uptime_ms")?;
    let rate = match s.get("rates") {
        Some(Value::Array(rates)) => rates
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("migrations"))
            .and_then(|r| r.get("r60s").and_then(Value::as_f64)),
        _ => None,
    }
    .ok_or("stats without a migrations rate")?;
    if uptime_ms >= 60_000 {
        return Err("daemon outlived the 60 s rate window".into());
    }
    Ok(Stats {
        ticks: u("tick")?,
        starved: u("starved_ticks")?,
        backlog: u("backlog")?,
        migrations: rate * uptime_ms as f64 / 1000.0,
    })
}

/// Check the ledger against `query`, shut the daemon down and join it.
fn stop<S>(mut d: Daemon<S>, failures: &mut Vec<String>) -> Option<S> {
    let held: u64 = d.streams.iter().map(|s| s.held_weight).sum();
    // This query goes through the JSON parser: the whole reply must parse.
    let active = d.conns[0].ask("{\"op\":\"query\"}").and_then(|l| {
        serde_json::parse_value_str(&l)
            .ok()
            .and_then(|v| v.get("active").and_then(Value::as_u64))
            .ok_or(format!("query reply {l:?}"))
    });
    match active {
        Ok(active) if active == held => {}
        Ok(active) => failures.push(format!(
            "ledger holds {held} slots, query says {active} are active"
        )),
        Err(e) => failures.push(e),
    }
    if let Err(e) = d.conns[0].ask("{\"op\":\"shutdown\"}") {
        // A daemon that missed its shutdown would never return; it ends
        // with the process.
        failures.push(e);
        return None;
    }
    drop(d.conns);
    let _ = std::fs::remove_file(&d.path);
    match d.handle.join() {
        Ok(Ok(sink)) => Some(sink),
        Ok(Err(e)) => {
            failures.push(format!("daemon: {e}"));
            None
        }
        Err(_) => {
            failures.push("daemon thread panicked".into());
            None
        }
    }
}

/// What the measured phases gave, summed over daemons.
#[derive(Debug, Default)]
struct Measured {
    passes: Vec<f64>,
    wall: Duration,
    tally: Tally,
    ticks: u64,
    starved: u64,
    /// Rebalance migrations (estimated from the 60 s rate).
    migrations: f64,
    /// Request backlog the last tick saw.
    backlog: u64,
}

/// Warm up with one pass, then run passes until `until`; adds the
/// measured phase to `m`.
fn measure<S>(
    w: &Serve,
    scale: Scale,
    d: &mut Daemon<S>,
    until: Instant,
    warm: &mut Tally,
    m: &mut Measured,
) -> Result<(), String> {
    let per_conn = pass_ops(w, scale);
    let mix = |sample| {
        move |i: usize| Job::Mix {
            ops: per_conn,
            window: w.window,
            sample: sample && i == 0,
        }
    };
    on_all(&mut d.conns, &mut d.streams, mix(false), warm);
    let before = stats(&mut d.conns[0])?;
    let t = Instant::now();
    let passes = m.passes.len();
    while m.passes.len() == passes || Instant::now() < until {
        let wall = on_all(&mut d.conns, &mut d.streams, mix(true), &mut m.tally);
        m.passes.push(wall.as_secs_f64());
    }
    m.wall += t.elapsed();
    let after = stats(&mut d.conns[0])?;
    let migrations = after.migrations - before.migrations;
    if migrations < 0.5 {
        return Err("the rebalancer applied no migration in the measured phase".into());
    }
    m.ticks += after.ticks - before.ticks;
    m.starved += after.starved - before.starved;
    m.migrations += migrations;
    m.backlog = after.backlog;
    Ok(())
}

fn unsat_frac(samples: &[(u64, u64)]) -> f64 {
    let fr: Vec<f64> = samples
        .iter()
        .map(|&(u, a)| u as f64 / a.max(1) as f64)
        .collect();
    fr.iter().sum::<f64>() / fr.len().max(1) as f64
}

/// Fold a finished daemon's checks and counts into the outcome.
fn settle(out: &mut Outcome, t: &Tally) {
    out.measured.absorb(t.ops);
    out.failures.extend(t.errors.iter().cloned());
}

/// Run one `serve-*` workload for about `seconds`.
pub fn run(w: &Serve, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (caps, pool) = fleet(scale);
    let mut out = Outcome {
        params: vec![
            ("m", caps.len().to_string()),
            ("capacity", "40 on every tenth resource, 6 elsewhere".into()),
            ("pool_slots", pool.to_string()),
            ("fill", FILL.to_string()),
            ("weights", format!("uniform 1..={MAX_WEIGHT}")),
            ("window", w.window.to_string()),
            ("pass_ops", (pass_ops(w, scale) * CONNECTIONS).to_string()),
            ("config", format!("{:?}", ServeConfig::new(seed))),
        ],
        ..Outcome::default()
    };
    if let Err(e) = run_inner(w, scale, seed, seconds, trace, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(
    w: &Serve,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    // A traced run splits its time between this untraced socket phase and
    // the recording one.
    let measured = if trace { seconds / 2.0 } else { seconds };
    let deadline = Instant::now() + Duration::from_secs_f64(measured);
    let setups = if trace { 1 } else { SETUPS }.max((measured / MAX_DAEMON_S).ceil() as usize);
    let mut setup_s = Vec::new();
    let mut all = Measured::default();
    let mut warm = Tally::default();
    let mut rss = 0.0;
    for k in 0..setups {
        let (mut d, setup) = start(scale, seed, k, NoopSink, &mut warm)?;
        setup_s.push(setup.as_secs_f64());
        let left = deadline.saturating_duration_since(Instant::now());
        let until = Instant::now() + left / (setups - k) as u32;
        let measured = measure(w, scale, &mut d, until, &mut warm, &mut all);
        if k == 0 {
            // Later daemons start new threads, whose malloc arenas would
            // make the high-water mark depend on timing.
            rss = peak_rss_mb();
        }
        stop(d, &mut out.failures);
        measured?;
    }
    out.warmup = warm.ops;
    out.failures.extend(warm.errors.iter().cloned());
    settle(out, &all.tally);

    let t = &all.tally;
    let ops = t.ops.attempted as f64;
    let ops_per_s = ops / all.wall.as_secs_f64();
    let p50 = t.place.quantile(0.5) / 1e3;
    let p99 = t.place.quantile(0.99) / 1e3;
    let reject_frac = t.ops.rejected as f64 / t.place.count().max(1) as f64;
    let passes = all.passes.len() as f64;
    out.set("setup_s", median(&setup_s));
    // The median: under a window of 64, a lower quantile of the passes
    // flipped between a fast and a slow level from run to run.
    out.set("pass_s", median(&all.passes));
    out.set("peak_rss_mb", rss);
    out.set("client.ops_per_s", ops_per_s);
    out.set("client.place_p50_us", p50);
    out.set("client.place_p99_us", p99);
    out.set("client.reject_frac", reject_frac);
    out.set("client.unsat_frac", unsat_frac(&t.samples));
    out.set("daemon.ticks", all.ticks as f64 / passes);
    out.set("daemon.batch_mean", ops / all.ticks.max(1) as f64);
    out.set("daemon.starved_ticks", all.starved as f64 / passes);
    out.set("daemon.rebalance_migrations", all.migrations / passes);
    out.line(format!(
        "{}: pass_s {:.4} s (median of {} passes of {} requests; min {:.4} s, p10 {:.4} s, p25 {:.4} s, p90 {:.4} s), setup_s {:.4} s (median of {} daemon starts + fills)",
        w.name,
        out.get("pass_s"),
        all.passes.len(),
        pass_ops(w, scale) * CONNECTIONS,
        percentile(&all.passes, 0.0),
        percentile(&all.passes, 0.1),
        percentile(&all.passes, 0.25),
        percentile(&all.passes, 0.9),
        out.get("setup_s"),
        setup_s.len()
    ));
    out.line(format!(
        "  ops_per_s {ops_per_s:.0} 1/s   place_p50_us {p50:.2} us   place_p99_us {p99:.2} us ({} places, {} beyond p99)   reject_frac {reject_frac:.6}   unsat_frac {:.6} ({} samples)",
        t.place.count(),
        t.place.count() / 100,
        out.get("client.unsat_frac"),
        t.samples.len()
    ));
    out.line(format!(
        "  rebalancer: {:.0} migrations over {} ticks in the measured phase",
        all.migrations, all.ticks
    ));
    if trace {
        traced(w, scale, seed, seconds, &all, out)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// the traced run
// ---------------------------------------------------------------------

fn traced(
    w: &Serve,
    scale: Scale,
    seed: u64,
    seconds: f64,
    untraced: &Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    // Socket phase with the recording sink in the daemon.
    let recording = Arc::new(AtomicBool::new(false));
    let sink = RecordingSink {
        recording: Arc::clone(&recording),
        place: LatencyHist::default(),
        migrations: 0,
    };
    let mut warm = Tally::default();
    let (mut d, _) = start(scale, seed, SETUPS, sink, &mut warm)?;
    let until = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let per_conn = pass_ops(w, scale);
    on_all(
        &mut d.conns,
        &mut d.streams,
        |_| Job::Mix {
            ops: per_conn,
            window: w.window,
            sample: false,
        },
        &mut warm,
    );
    recording.store(true, Ordering::Relaxed);
    let mut t = Tally::default();
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < until {
        let wall = on_all(
            &mut d.conns,
            &mut d.streams,
            |_| Job::Mix {
                ops: per_conn,
                window: w.window,
                sample: false,
            },
            &mut t,
        );
        passes.push(wall.as_secs_f64());
    }
    recording.store(false, Ordering::Relaxed);
    let sink = stop(d, &mut out.failures).ok_or("the traced daemon did not return its sink")?;
    out.failures.extend(warm.errors);
    settle(out, &t);
    let client = t.place.quantile(0.5);
    let server = sink.place.quantile(0.5);
    if sink.migrations == 0 {
        out.fail("the traced daemon applied no migration in the measured phase".into());
    }

    // In-process replays at the socket run's requests-per-tick cadence.
    let per_tick = out.get("daemon.batch_mean").round().max(1.0) as usize;
    let pending = untraced.backlog as usize;
    let ops = match scale {
        Scale::Full => REPLAY_OPS,
        Scale::Toy => REPLAY_OPS / 100,
    };
    let u = replay(w, scale, seed, ops, per_tick, pending, Timing::Off)?;
    let d = replay(w, scale, seed, ops, per_tick, pending, Timing::Dispatch)?;
    let c = replay(w, scale, seed, ops, per_tick, pending, Timing::Core)?;
    if u.end != d.end || u.end != c.end {
        out.fail(format!(
            "in-process replays diverged: {:?} / {:?} / {:?}",
            u.end, d.end, c.end
        ));
    }
    let n = ops as f64;
    let dispatch_place_p50 = d.place_dispatch.quantile(0.5);
    let core_ns = (c.place_ns + c.depart_ns) as f64 / n;
    out.set("daemon.server_p50_us", server / 1e3);
    out.set("daemon.socket_us", (client - server) / 1e3);
    out.set("daemon.queue_us", (server - dispatch_place_p50) / 1e3);
    out.set("proto.parse_ns", c.parse_ns as f64 / n);
    out.set("proto.dispatch_ns", d.dispatch_ns as f64 / n);
    out.set(
        "proto.reply_ns",
        (d.dispatch_ns as f64 - c.parse_ns as f64) / n - core_ns,
    );
    out.set("core.place_ns", c.place_ns as f64 / c.places.max(1) as f64);
    out.set(
        "core.depart_ns",
        c.depart_ns as f64 / c.departs.max(1) as f64,
    );
    out.set(
        "core.admit_ratio",
        c.admitted as f64 / c.places.max(1) as f64,
    );
    out.set("core.tick.ns", d.tick_ns as f64 / d.ticks.max(1) as f64);
    out.set(
        "core.tick.rounds",
        d.tick_rounds as f64 / d.ticks.max(1) as f64,
    );
    out.set(
        "core.tick.migrations",
        d.tick_migrations as f64 / d.ticks.max(1) as f64,
    );
    let unaccounted = d.wall_ns.saturating_sub(d.dispatch_ns + d.tick_ns);
    out.set("unaccounted_ns", unaccounted as f64 / n);
    out.set(
        "trace_overhead_frac",
        (d.wall_ns as f64 - u.wall_ns as f64) / u.wall_ns.max(1) as f64,
    );

    out.line(format!(
        "waterfall of place_p50_us {:.2} us (traced socket phase, {} places; untraced {:.2} us):",
        client / 1e3,
        t.place.count(),
        out.get("client.place_p50_us")
    ));
    for (label, ns) in [
        ("daemon.socket (client - server)", client - server),
        (
            "daemon.queue (server - dispatch)",
            server - dispatch_place_p50,
        ),
        ("proto.dispatch p50 (place)", dispatch_place_p50),
    ] {
        out.line(waterfall_row(label, ns, client));
    }
    let pass_ns = median(&untraced.passes) * 1e9;
    let reqs = (per_conn * CONNECTIONS) as f64;
    let per = |x: u64| x as f64 / n * reqs;
    let ticks_per_pass = reqs / per_tick as f64;
    let tick_ns = out.get("core.tick.ns") * ticks_per_pass;
    let inproc = per(d.dispatch_ns) + tick_ns + per(unaccounted);
    out.line(format!(
        "waterfall of pass_s {:.3} ms ({} requests; in-process replay of {ops} requests, {per_tick} per tick, tracing overhead {:+.2} %):",
        pass_ns / 1e6,
        reqs,
        100.0 * out.get("trace_overhead_frac")
    ));
    for (label, ns) in [
        ("proto.parse", per(c.parse_ns)),
        ("core.place + core.depart", core_ns * reqs),
        ("proto.reply", out.get("proto.reply_ns") * reqs),
        ("core.tick", tick_ns),
        ("unaccounted (replay loop)", per(unaccounted)),
        ("daemon socket, queue, write", pass_ns - inproc),
    ] {
        out.line(waterfall_row(label, ns, pass_ns));
    }
    Ok(())
}

/// Which layer calls a replay clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timing {
    Off,
    /// `handle_line` per request, `tick` per tick.
    Dispatch,
    /// `parse_request` and the `ServeCore` call per request.
    Core,
}

#[derive(Debug, Default)]
struct Replay {
    wall_ns: u64,
    dispatch_ns: u64,
    place_dispatch: LatencyHist,
    parse_ns: u64,
    place_ns: u64,
    depart_ns: u64,
    places: u64,
    departs: u64,
    admitted: u64,
    ticks: u64,
    tick_ns: u64,
    tick_rounds: u64,
    tick_migrations: u64,
    /// `(active slots, rebalance migrations, final-assignment digest)`.
    end: (u64, u64, u64),
}

/// Replay the fill and `ops` mix requests in-process, connections
/// interleaved a window at a time, with a tick every `per_tick` requests.
fn replay(
    w: &Serve,
    scale: Scale,
    seed: u64,
    ops: usize,
    per_tick: usize,
    pending: usize,
    timing: Timing,
) -> Result<Replay, String> {
    let (caps, pool) = fleet(scale);
    let total: u64 = caps.iter().map(|&c| c as u64).sum();
    let mut core = ServeCore::with_capacities(&caps, pool, ServeConfig::new(seed))?;
    let mut streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|i| Stream::new(seed, i, pool))
        .collect();
    let target = (FILL * total as f64) as u64 / CONNECTIONS as u64;
    let mut r = Replay::default();
    let mut line = String::new();
    let mut since_tick = 0usize;

    // The fill is set-up: untimed.
    for s in streams.iter_mut() {
        while s.held_weight < target {
            let req = s.place();
            line.clear();
            req.write(&mut line);
            let reply = handle_line(&mut core, &line, &mut NoopSink);
            if let Answer::Placed { ticket } = check_reply(req, &reply.text)? {
                if let Req::Place { weight } = req {
                    s.placed(ticket, weight);
                }
            }
            since_tick += 1;
            if since_tick == per_tick {
                core.tick(pending, true, &mut NoopSink);
                since_tick = 0;
            }
        }
    }

    let start = Instant::now();
    let mut done = 0usize;
    while done < ops {
        for s in streams.iter_mut() {
            for _ in 0..w.window.min(ops - done) {
                let req = s.next();
                line.clear();
                req.write(&mut line);
                let answer = match timing {
                    Timing::Off => {
                        check_reply(req, &handle_line(&mut core, &line, &mut NoopSink).text)?
                    }
                    Timing::Dispatch => {
                        let t = Instant::now();
                        let reply = handle_line(&mut core, &line, &mut NoopSink);
                        let ns = t.elapsed().as_nanos() as u64;
                        r.dispatch_ns += ns;
                        if matches!(req, Req::Place { .. }) {
                            r.place_dispatch.record(ns);
                        }
                        check_reply(req, &reply.text)?
                    }
                    Timing::Core => core_call(&mut core, &line, req, &mut r)?,
                };
                if let (Answer::Placed { ticket }, Req::Place { weight }) = (answer, req) {
                    s.placed(ticket, weight);
                }
                done += 1;
                since_tick += 1;
                if since_tick == per_tick {
                    let t = (timing != Timing::Off).then(Instant::now);
                    let tick = core.tick(pending, true, &mut NoopSink);
                    r.tick_ns += t.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    r.ticks += 1;
                    r.tick_rounds += tick.rounds as u64;
                    r.tick_migrations += tick.migrations;
                    since_tick = 0;
                }
            }
        }
    }
    r.wall_ns = start.elapsed().as_nanos() as u64;
    r.end = (
        core.active_slots(),
        core.migrations_total(),
        crate::sim::digest(core.state()),
    );
    Ok(r)
}

/// `parse_request` and the `ServeCore` call behind it, each clocked.
fn core_call(core: &mut ServeCore, line: &str, req: Req, r: &mut Replay) -> Result<Answer, String> {
    let t = Instant::now();
    let parsed = parse_request(line).map_err(|e| e.msg)?;
    r.parse_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    match (parsed, req) {
        (Request::Place { class, weight }, Req::Place { .. }) => {
            let res = core.place(ClassId(class), weight, &mut NoopSink);
            r.place_ns += t.elapsed().as_nanos() as u64;
            r.places += 1;
            Ok(match res {
                Ok(p) => {
                    r.admitted += 1;
                    Answer::Placed { ticket: p.user.0 }
                }
                Err(_) => Answer::Rejected,
            })
        }
        (Request::Depart { user }, Req::Depart { weight, .. }) => {
            let res = core.depart(UserId(user), &mut NoopSink);
            r.depart_ns += t.elapsed().as_nanos() as u64;
            r.departs += 1;
            match res {
                Ok(d) if d.released == weight => Ok(Answer::Departed),
                other => Err(format!("depart {user}: {other:?}")),
            }
        }
        (p, q) => Err(format!("{line} parsed as {p:?}, sent as {q:?}")),
    }
}
