//! The socket daemon: listeners, connections, and the serve loop.
//!
//! Everything runs on the caller's thread, std-only, with no helper
//! threads:
//!
//! * one **readiness loop** waits with `poll(2)` on the listener (Unix or
//!   TCP), the optional `/metrics` listener and every open connection, all
//!   nonblocking. It accepts connections, reads each one's bytes into that
//!   connection's input buffer and splits complete lines there in place,
//!   stamping each with the instant it was read;
//! * the loop owns the [`ServeCore`] and the trace sink exclusively — no
//!   locks, no shared state — and the single-writer discipline keeps the
//!   whole trajectory deterministic for a fixed request interleaving;
//! * it alternates request batches with scheduler ticks: answer up to
//!   [`DaemonOptions::max_batch`] queued requests, then give the background
//!   rebalancer a tick whose round budget shrinks as the backlog grows
//!   ([`ServeCore::tick_budget`]) — requests have priority, the rebalancer
//!   has a floor, neither starves;
//! * a reply is appended to its connection's output buffer and written
//!   at once when no other line of that connection waits for an answer;
//!   otherwise it leaves with the rest of the connection's replies in one
//!   nonblocking `write` at the end of the batch, so a pipelining client
//!   costs one write per poll turn, not one per request. What the socket
//!   does not take waits for `POLLOUT`.
//!
//! Each connection's memory is bounded. A request line longer than
//! 64 KiB is answered once with `"line too long"` and the connection is
//! closed. A connection is not read while more than 64 KiB of its input
//! waits to be answered, nor while more than 1 MiB of its replies wait to
//! be sent, so a client that stops reading is held back by its own socket
//! buffer and other clients do not wait for it. An accept error other than
//! `WouldBlock` (say `EMFILE`) is logged once and takes the listener out
//! of the poll set for one [`DaemonOptions::idle_poll`] instead of
//! spinning.
//!
//! Request latency (receipt → reply written) feeds the
//! [`REQUEST_HIST_NAME`] histogram through the sink; placements
//! additionally feed [`PLACE_HIST_NAME`]. A reply held for the end of the
//! batch is stamped after that write, so the histograms include the wait.
//! Both ride the trace trailer, so `qlb-trace` reports daemon latency
//! percentiles offline or live.

use crate::core::{MoveRecord, PlaceTrace, ServeCore};
use crate::flight::{FlightOptions, FlightRecorder};
use crate::proto::{handle_line_spanned, handle_line_with_stats, OpKind, Reply};
use crate::telemetry::{render_prometheus, ServeTelemetry};
use qlb_obs::profile::{PLACE_HIST_NAME, REQUEST_HIST_NAME};
use qlb_obs::span::{SPAN_OP_DEPART, SPAN_OP_MIGRATE, SPAN_OP_PLACE};
use qlb_obs::{Event, Sink, SpanRecord};
use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::c_short;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};
use sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

/// Longest request line in bytes, not counting its `\n`. A longer line is
/// answered once with `"line too long"` and its connection is closed.
const MAX_LINE: usize = 64 * 1024;
/// Unsent reply bytes above which a connection is not read: the client
/// must take its replies before it may send more, and its own socket
/// buffer holds it back meanwhile.
const MAX_UNSENT: usize = 1024 * 1024;
/// Free input-buffer space offered to one `read`.
const READ_CHUNK: usize = 16 * 1024;
/// A scrape is answered once its HTTP request head ends, reaches this
/// size, or the client half-closes.
const MAX_HTTP_HEAD: usize = 8 * 1024;
/// How long shutdown waits for clients to take their unsent replies.
const FLUSH_TIMEOUT: Duration = Duration::from_millis(500);

/// A bound listening socket.
#[derive(Debug)]
pub enum ServeListener {
    /// Unix-domain stream socket.
    Unix(UnixListener),
    /// TCP socket.
    Tcp(TcpListener),
}

impl ServeListener {
    /// Bind a Unix socket at `path` (removing a stale socket file first).
    pub fn bind_unix(path: &str) -> io::Result<Self> {
        if std::fs::metadata(path).is_ok() {
            std::fs::remove_file(path)?;
        }
        Ok(Self::Unix(UnixListener::bind(path)?))
    }

    /// Bind a TCP socket at `addr` (e.g. `127.0.0.1:7070`).
    pub fn bind_tcp(addr: &str) -> io::Result<Self> {
        Ok(Self::Tcp(TcpListener::bind(addr)?))
    }

    /// Human-readable bound address.
    pub fn describe(&self) -> String {
        match self {
            Self::Unix(l) => match l.local_addr() {
                Ok(a) => format!("unix:{:?}", a),
                Err(_) => "unix:?".into(),
            },
            Self::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp:{a}"),
                Err(_) => "tcp:?".into(),
            },
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            Self::Unix(l) => l.as_raw_fd(),
            Self::Tcp(l) => l.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Self::Unix(l) => l.set_nonblocking(true),
            Self::Tcp(l) => l.set_nonblocking(true),
        }
    }

    /// Accept one pending connection as a nonblocking socket.
    fn accept(&self) -> io::Result<Socket> {
        match self {
            Self::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(Socket::Unix(s))
            }
            Self::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                let _ = s.set_nodelay(true);
                Ok(Socket::Tcp(s))
            }
        }
    }
}

/// Serve-loop tunables.
#[derive(Debug, Clone, Copy)]
pub struct DaemonOptions {
    /// Requests answered per batch before the rebalancer gets a tick.
    pub max_batch: usize,
    /// Readiness-wait timeout when no requests are queued (the wait does
    /// not block while any are); also the idle tick cadence.
    pub idle_poll: Duration,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            max_batch: 256,
            idle_poll: Duration::from_millis(20),
        }
    }
}

/// Telemetry-plane options of the serve loop, separate from
/// [`DaemonOptions`] so existing callers keep their defaults.
#[derive(Debug, Default)]
pub struct TelemetryOptions {
    /// Bound listener for the Prometheus `/metrics` endpoint (`None` =
    /// disabled). The serve loop accepts and answers scrape connections
    /// itself — the exposition is rendered by the single writer,
    /// lock-free.
    pub metrics_http: Option<TcpListener>,
    /// Offer a [`qlb_obs::StatsSnapshot`] to the sink every this many
    /// scheduler ticks (0 = never).
    pub stats_every: u64,
    /// Causal-span head sampling: trace every `N`th wire op (1 = every
    /// op, 0 = spans disabled). The sampling decision is made before
    /// parsing; sampled-out ops pay one branch and a counter increment.
    pub span_sample: u64,
    /// Arm the anomaly-triggered flight recorder (`None` = off). Works
    /// with any sink — a [`qlb_obs::NoopSink`] daemon still dumps black
    /// boxes.
    pub flight: Option<FlightOptions>,
}

impl TelemetryOptions {
    /// Default trailer-snapshot cadence (every 32 scheduler ticks).
    pub const DEFAULT_STATS_EVERY: u64 = 32;

    /// Options with the default snapshot cadence, no HTTP endpoint, no
    /// spans, no flight recorder.
    pub fn with_defaults() -> Self {
        Self {
            metrics_http: None,
            stats_every: Self::DEFAULT_STATS_EVERY,
            span_sample: 0,
            flight: None,
        }
    }
}

/// The serve loop's causal-span state: the head-sampling counters, the
/// reusable probe-trace scratch, and the set of sampled live tickets the
/// rebalancer continuation watches.
struct SpanPlane {
    /// Trace every `sample`th op (0 = off).
    sample: u64,
    /// Wire ops seen (the head-sampling clock).
    ops: u64,
    /// Next span id (migration spans share the counter).
    next_id: u64,
    trace: PlaceTrace,
    /// Tickets of sampled, admitted, still-active placements: their
    /// migrations and departures are part of the causal story.
    tickets: HashSet<u64>,
    /// Reusable migration capture buffer for [`ServeCore::tick_traced`].
    moves: Vec<MoveRecord>,
}

impl SpanPlane {
    fn new(sample: u64) -> Self {
        Self {
            sample,
            ops: 0,
            next_id: 0,
            trace: PlaceTrace::default(),
            tickets: HashSet::new(),
            moves: Vec::new(),
        }
    }

    fn active(&self) -> bool {
        self.sample > 0
    }

    /// Head-sampling decision for the next wire op: `Some(span id)` when
    /// this op is traced. Every op advances the clock.
    fn sample_next(&mut self) -> Option<u64> {
        let take = self.ops.is_multiple_of(self.sample);
        self.ops += 1;
        take.then(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        })
    }

    /// Track the causal set: a sampled admission opens a ticket's story,
    /// its departure closes it.
    fn note(&mut self, span: &SpanRecord) {
        let Some(ticket) = span.ticket else { return };
        if span.op == SPAN_OP_PLACE && span.verdict == "admitted" {
            self.tickets.insert(ticket);
        } else if span.op == SPAN_OP_DEPART && span.verdict == "departed" {
            self.tickets.remove(&ticket);
        }
    }
}

/// The one foreign call: `poll(2)`.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    impl PollFd {
        /// Wait for `events` on `fd`; a negative `fd` is skipped by the wait.
        pub fn new(fd: c_int, events: c_short) -> Self {
            Self {
                fd,
                events,
                revents: 0,
            }
        }
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// Wait until an entry of `fds` is ready or `timeout` (rounded up to
    /// whole milliseconds) passes, filling in every `revents`. A wait cut
    /// short by a signal returns like a timeout.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        let ms = timeout
            .as_nanos()
            .div_ceil(1_000_000)
            .min(c_int::MAX as u128) as c_int;
        let n = NFds::try_from(fds.len()).map_err(|_| io::Error::other("poll set too large"))?;
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd` records and `n` is its length, so the kernel
        // reads and writes only inside it, and only during the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), n, ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// An accepted connection's socket (nonblocking).
enum Socket {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Socket {
    fn fd(&self) -> RawFd {
        match self {
            Self::Unix(s) => s.as_raw_fd(),
            Self::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.write(buf),
            Self::Tcp(s) => s.write(buf),
        }
    }
}

/// A listener in the readiness loop.
struct Acceptor {
    listener: ServeListener,
    /// Its connections are Prometheus scrapes, not request streams.
    http: bool,
    /// Set by an accept error, cleared by the next accept: the listener
    /// sits out of the poll set until this instant, so a lasting error
    /// (`EMFILE`) cannot spin the loop.
    paused_until: Option<Instant>,
}

impl Acceptor {
    fn new(listener: ServeListener, http: bool) -> io::Result<Self> {
        listener.set_nonblocking()?;
        Ok(Self {
            listener,
            http,
            paused_until: None,
        })
    }

    /// The descriptor to wait on: negative (skipped) while paused.
    fn poll_fd(&self, now: Instant) -> RawFd {
        match self.paused_until {
            Some(t) if now < t => -1,
            _ => self.listener.fd(),
        }
    }

    /// Accept every pending connection into a free slot of `conns`.
    fn accept_all(&mut self, now: Instant, pause: Duration, conns: &mut Vec<Option<Conn>>) {
        loop {
            match self.listener.accept() {
                Ok(socket) => {
                    self.paused_until = None;
                    let conn = Conn::new(socket, self.http);
                    match conns.iter().position(Option::is_none) {
                        Some(slot) => conns[slot] = Some(conn),
                        None => conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // the client gave up before we accepted it
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(e) => {
                    if self.paused_until.is_none() {
                        eprintln!(
                            "qlb-serve: accept on {} failed: {e}; retrying after each idle wait",
                            self.listener.describe()
                        );
                    }
                    self.paused_until = Some(now + pause);
                    return;
                }
            }
        }
    }
}

/// A request line (or, as `None`, an over-long line) waiting for its
/// answer.
struct Pending {
    /// Slot of the connection in the loop's connection table.
    slot: usize,
    /// Stream offsets of the line, terminator excluded.
    line: Option<Range<usize>>,
    /// When the loop read the line's last bytes.
    at: Instant,
}

/// One client connection and its buffers. Input positions are *stream*
/// offsets (bytes since the connection opened), so the ranges of queued
/// lines stay valid when the buffer drops its consumed prefix.
struct Conn {
    socket: Socket,
    /// A Prometheus scrape: one HTTP request head in, one response out.
    http: bool,
    /// Input window: `input[..filled]` holds the stream from offset `base`.
    input: Vec<u8>,
    filled: usize,
    base: usize,
    /// Where the unfinished line starts.
    line_start: usize,
    /// How far input has been searched for `\n`.
    scanned: usize,
    /// End of the last line answered.
    answered: usize,
    /// Lines (or the scrape) waiting for an answer.
    queued: usize,
    /// Still reading: false after EOF, a read error, an over-long line or
    /// a complete scrape head.
    reading: bool,
    /// Reply bytes the socket has not taken yet.
    out: Vec<u8>,
    /// Receipt instant and "is a placement" of each reply appended since
    /// the last write attempt; their latency is recorded after it.
    unstamped: Vec<(Instant, bool)>,
    /// A read or write failed: nothing more is read or sent.
    broken: bool,
}

impl Conn {
    fn new(socket: Socket, http: bool) -> Self {
        Self {
            socket,
            http,
            input: Vec::new(),
            filled: 0,
            base: 0,
            line_start: 0,
            scanned: 0,
            answered: 0,
            queued: 0,
            reading: true,
            out: Vec::new(),
            unstamped: Vec::new(),
            broken: false,
        }
    }

    /// Stream offset before which no input is needed any more.
    fn consumed(&self) -> usize {
        if self.queued == 0 {
            self.line_start
        } else {
            self.answered.max(self.base)
        }
    }

    /// Events to wait for (0: leave it out of the poll set).
    fn interest(&self) -> c_short {
        if self.broken {
            return 0;
        }
        let mut events = 0;
        let unanswered = self.base + self.filled - self.consumed();
        if self.reading && self.out.len() <= MAX_UNSENT && unanswered <= MAX_LINE {
            events |= POLLIN;
        }
        if !self.out.is_empty() {
            events |= POLLOUT;
        }
        events
    }

    /// Nothing queued, nothing more to read or send: close it.
    fn finished(&self) -> bool {
        self.queued == 0 && (self.broken || (!self.reading && self.out.is_empty()))
    }

    fn fail(&mut self) {
        self.broken = true;
        self.reading = false;
        self.out = Vec::new();
    }

    /// One nonblocking read. Queues the lines it completes, stamped with
    /// the instant the read returned, or for a scrape connection records
    /// the scrape once its head is in.
    fn read_ready(&mut self, slot: usize, queue: &mut VecDeque<Pending>, scrapes: &mut Vec<usize>) {
        let keep = self.consumed() - self.base;
        if keep > 0 {
            self.input.copy_within(keep..self.filled, 0);
            self.filled -= keep;
            self.base += keep;
        }
        if self.input.len() < self.filled + READ_CHUNK {
            self.input.resize(self.filled + READ_CHUNK, 0);
        }
        let eof = match self.socket.read(&mut self.input[self.filled..]) {
            Ok(0) => true,
            Ok(n) => {
                self.filled += n;
                false
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return
            }
            Err(_) => return self.fail(),
        };
        let at = Instant::now();
        if self.http {
            let head = &self.input[..self.filled];
            if eof || head.len() >= MAX_HTTP_HEAD || head.windows(4).any(|w| w == b"\r\n\r\n") {
                self.reading = false;
                self.queued += 1;
                scrapes.push(slot);
            }
            return;
        }
        let end = self.base + self.filled;
        while let Some(i) = self.input[self.scanned - self.base..self.filled]
            .iter()
            .position(|&b| b == b'\n')
        {
            let line = self.line_start..self.scanned + i;
            self.line_start = line.end + 1;
            self.scanned = self.line_start;
            if !self.queue_line(slot, line, at, queue) {
                return;
            }
        }
        self.scanned = end;
        if eof && self.line_start < end {
            // a last line without its newline still gets an answer
            let line = self.line_start..end;
            self.line_start = end;
            self.queue_line(slot, line, at, queue);
        } else if end - self.line_start > MAX_LINE {
            self.overflow(slot, at, queue);
        }
        if eof {
            self.reading = false;
        }
    }

    /// Queue one line unless it is blank; returns false (and stops
    /// reading) when the line is too long.
    fn queue_line(
        &mut self,
        slot: usize,
        mut line: Range<usize>,
        at: Instant,
        queue: &mut VecDeque<Pending>,
    ) -> bool {
        if line.len() > MAX_LINE {
            self.overflow(slot, at, queue);
            return false;
        }
        let bytes = &self.input[line.start - self.base..line.end - self.base];
        if bytes.last() == Some(&b'\r') {
            line.end -= 1;
        }
        if !bytes.iter().all(u8::is_ascii_whitespace) {
            self.queued += 1;
            queue.push_back(Pending {
                slot,
                line: Some(line),
                at,
            });
        }
        true
    }

    /// The unfinished line outgrew [`MAX_LINE`]: queue its error reply
    /// and read no more.
    fn overflow(&mut self, slot: usize, at: Instant, queue: &mut VecDeque<Pending>) {
        self.reading = false;
        self.queued += 1;
        queue.push_back(Pending {
            slot,
            line: None,
            at,
        });
    }

    /// The bytes of a queued line.
    fn line(&self, line: &Range<usize>) -> &[u8] {
        &self.input[line.start - self.base..line.end - self.base]
    }

    /// Append `parts` to the output and, when no other line of this
    /// connection waits for an answer, offer it to the socket; otherwise
    /// it leaves in the end-of-batch flush.
    fn send(&mut self, parts: &[&[u8]]) {
        if self.broken {
            return;
        }
        for p in parts {
            self.out.extend_from_slice(p);
        }
        if self.queued == 0 {
            self.flush();
        }
    }

    /// Write output until the socket would block.
    fn flush(&mut self) {
        let mut sent = 0;
        while sent < self.out.len() {
            match self.socket.write(&self.out[sent..]) {
                Ok(0) => return self.fail(),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.fail(),
            }
        }
        self.out.drain(..sent);
    }
}

/// Record the latency (receipt → now) of `c`'s replies appended since its
/// last write attempt, in the telemetry and, when recording, the sink.
fn stamp_replies<S: Sink>(c: &mut Conn, tel: &mut ServeTelemetry, sink: &mut S) {
    let now = Instant::now();
    for (at, place) in c.unstamped.drain(..) {
        let ns = now.saturating_duration_since(at).as_nanos() as u64;
        tel.on_request(place, ns);
        if S::ENABLED {
            sink.latency(REQUEST_HIST_NAME, ns);
            if place {
                sink.latency(PLACE_HIST_NAME, ns);
            }
        }
    }
}

/// Give clients up to [`FLUSH_TIMEOUT`] to take their unsent replies —
/// the last of which is usually the `shutdown` acknowledgement.
fn flush_all(conns: &mut [Option<Conn>], fds: &mut Vec<PollFd>) {
    let deadline = Instant::now() + FLUSH_TIMEOUT;
    loop {
        fds.clear();
        fds.extend(
            conns
                .iter()
                .flatten()
                .filter(|c| !c.broken && !c.out.is_empty())
                .map(|c| PollFd::new(c.socket.fd(), POLLOUT)),
        );
        let now = Instant::now();
        if fds.is_empty() || now >= deadline || sys::wait(fds, deadline - now).is_err() {
            return;
        }
        for c in conns.iter_mut().flatten() {
            if !c.broken && !c.out.is_empty() {
                c.flush();
            }
        }
    }
}

/// The HTTP response carrying one Prometheus text exposition.
fn scrape_head(body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
}

/// Run the serve loop until a `shutdown` request arrives, with the
/// default telemetry plane (stats op live, periodic trailer snapshots,
/// no HTTP endpoint). Returns the number of requests served. The caller
/// finishes the sink afterwards (writing the trace trailer). Requests
/// still queued at shutdown go unanswered; replies already made get half
/// a second to reach their clients, then every connection and the
/// listener close.
pub fn run_daemon<S: Sink>(
    core: ServeCore,
    listener: ServeListener,
    sink: &mut S,
    opts: DaemonOptions,
) -> io::Result<u64> {
    run_daemon_telemetry(
        core,
        listener,
        sink,
        opts,
        TelemetryOptions::with_defaults(),
    )
}

/// [`run_daemon`] with an explicit telemetry plane: the serve loop owns a
/// [`ServeTelemetry`] (so `{"op":"stats"}` answers with windowed rates
/// whatever the sink), offers a snapshot to the sink every
/// [`TelemetryOptions::stats_every`] ticks, and — when
/// [`TelemetryOptions::metrics_http`] is bound — answers Prometheus
/// scrapes from the same single-writer loop.
///
/// Runs on the calling thread and spawns none. Errors: setting a
/// listener nonblocking, or the readiness wait itself, failed.
pub fn run_daemon_telemetry<S: Sink>(
    mut core: ServeCore,
    listener: ServeListener,
    sink: &mut S,
    opts: DaemonOptions,
    tel_opts: TelemetryOptions,
) -> io::Result<u64> {
    let mut acceptors = vec![Acceptor::new(listener, false)?];
    if let Some(http) = tel_opts.metrics_http {
        acceptors.push(Acceptor::new(ServeListener::Tcp(http), true)?);
    }
    let mut tel = ServeTelemetry::new(core.num_classes(), core.max_tick_rounds());
    let mut spans = SpanPlane::new(tel_opts.span_sample);
    let mut flight = tel_opts.flight.map(FlightRecorder::new);
    // Connection table; a slot is reused once its connection closes.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut queue: VecDeque<Pending> = VecDeque::new();
    // Slots of connections whose scrape head is in.
    let mut scrapes: Vec<usize> = Vec::new();
    // The poll set: the acceptors, then the connections listed in `polled`.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled: Vec<usize> = Vec::new();
    let mut served = 0u64;
    let mut shutdown = false;

    while !shutdown {
        // Wait for readiness: up to `idle_poll` when nothing is queued,
        // not at all otherwise.
        let now = Instant::now();
        fds.clear();
        polled.clear();
        fds.extend(
            acceptors
                .iter()
                .map(|a| PollFd::new(a.poll_fd(now), POLLIN)),
        );
        for (slot, c) in conns.iter().enumerate() {
            if let Some(c) = c {
                let events = c.interest();
                if events != 0 {
                    fds.push(PollFd::new(c.socket.fd(), events));
                    polled.push(slot);
                }
            }
        }
        let wait = if queue.is_empty() {
            opts.idle_poll
        } else {
            Duration::ZERO
        };
        sys::wait(&mut fds, wait)?;
        let now = Instant::now();
        let (listen_fds, conn_fds) = fds.split_at(acceptors.len());
        for (a, fd) in acceptors.iter_mut().zip(listen_fds) {
            if fd.revents != 0 {
                a.accept_all(now, opts.idle_poll, &mut conns);
            }
        }
        for (&slot, fd) in polled.iter().zip(conn_fds) {
            let c = conns[slot]
                .as_mut()
                .expect("a polled connection stays open until the table sweep");
            if !c.out.is_empty() && fd.revents & (POLLOUT | POLLERR | POLLHUP) != 0 {
                c.flush();
            }
            if fd.events & POLLIN != 0 && fd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                c.read_ready(slot, &mut queue, &mut scrapes);
            }
        }

        // Answer a batch.
        let batch = queue.len().min(opts.max_batch);
        let mut placements = 0u64;
        let mut departures = 0u64;
        for _ in 0..batch {
            let Pending { slot, line, at } = queue.pop_front().expect("batch ≤ queue length");
            let c = conns[slot]
                .as_mut()
                .expect("a connection with queued lines stays open");
            c.queued -= 1;
            let reply = match line {
                None => Reply {
                    text: "{\"ok\":false,\"error\":\"line too long\"}".to_string(),
                    kind: OpKind::Invalid,
                    shutdown: false,
                },
                Some(line) => {
                    c.answered = line.end;
                    // invalid UTF-8 is replaced, so the parser rejects it
                    // with an `ok:false` reply
                    let text = String::from_utf8_lossy(c.line(&line));
                    if spans.active() {
                        let ctx = spans.sample_next().map(|id| (id, &mut spans.trace));
                        let (reply, span) =
                            handle_line_spanned(&mut core, Some(&tel), &text, sink, ctx);
                        if let Some(span) = span {
                            spans.note(&span);
                            if S::ENABLED {
                                sink.span(&span);
                            }
                            if let Some(f) = flight.as_mut() {
                                f.record_span(&span);
                            }
                        }
                        reply
                    } else {
                        handle_line_with_stats(&mut core, Some(&tel), &text, sink)
                    }
                }
            };
            match reply.kind {
                OpKind::Place => placements += 1,
                OpKind::Depart => departures += 1,
                _ => {}
            }
            c.send(&[reply.text.as_bytes(), b"\n"]);
            // latency is measured unconditionally, once the reply is
            // written (now, or after the batch): telemetry always wants
            // it, and the sink gets a copy when recording
            c.unstamped.push((at, reply.kind == OpKind::Place));
            if c.queued == 0 {
                stamp_replies(c, &mut tel, sink);
            }
            served += 1;
            if reply.shutdown {
                shutdown = true;
                break;
            }
        }
        // One write per connection for the replies the batch held back.
        for c in conns.iter_mut().flatten() {
            if !c.unstamped.is_empty() {
                c.flush();
                stamp_replies(c, &mut tel, sink);
            }
        }
        if S::ENABLED && placements + departures > 0 {
            // Open-system vocabulary: a batch is an arrival/departure wave.
            if placements > 0 {
                sink.event(Event::Arrivals {
                    round: core.round(),
                    count: placements,
                });
            }
            if departures > 0 {
                sink.event(Event::Departures {
                    round: core.round(),
                    count: departures,
                });
            }
        }

        // Rebalance between batches; heartbeat when we did request work so
        // a live dashboard sees round records even in a satisfied steady
        // state.
        let backlog = queue.len();
        if spans.active() && !spans.tickets.is_empty() {
            // Causal continuation: capture this tick's migrations and
            // stamp the ones that move a sampled ticket.
            spans.moves.clear();
            core.tick_traced(backlog, batch > 0, sink, &mut spans.moves);
            for i in 0..spans.moves.len() {
                let mv = spans.moves[i];
                let ticket = mv.user.0 as u64;
                if !spans.tickets.contains(&ticket) {
                    continue;
                }
                let id = spans.next_id;
                spans.next_id += 1;
                let span = SpanRecord {
                    id,
                    op: SPAN_OP_MIGRATE.to_string(),
                    ticket: Some(ticket),
                    class: None,
                    verdict: "moved".to_string(),
                    probes: 0,
                    headroom: Vec::new(),
                    resource: Some(mv.to.0 as u64),
                    from: Some(mv.from.0 as u64),
                    parse_ns: 0,
                    admit_ns: 0,
                    probe_ns: 0,
                    reply_ns: 0,
                    total_ns: 0,
                };
                if S::ENABLED {
                    sink.span(&span);
                }
                if let Some(f) = flight.as_mut() {
                    f.record_span(&span);
                }
            }
        } else {
            core.tick(backlog, batch > 0, sink);
        }
        tel.on_tick(&core, backlog);
        if let Some(f) = flight.as_mut() {
            f.record_tick(
                tel.ticks(),
                backlog as u64,
                core.tick_budget(backlog) as u64,
                &core,
            );
            match f.check(&tel, &core, tel.ticks()) {
                Ok(Some((trigger, path))) => {
                    eprintln!(
                        "qlb-serve: flight recorder dumped {} (trigger: {trigger})",
                        path.display()
                    );
                }
                Ok(None) => {}
                Err(e) => eprintln!("qlb-serve: flight recorder dump failed: {e}"),
            }
        }
        if S::ENABLED
            && tel_opts.stats_every > 0
            && tel.ticks().is_multiple_of(tel_opts.stats_every)
        {
            sink.stats_snapshot(&tel.snapshot(&core));
        }

        // Answer any pending Prometheus scrapes: render once per batch,
        // from the single writer — no locks.
        if !scrapes.is_empty() {
            let body = render_prometheus(&tel, &core);
            let head = scrape_head(&body);
            for slot in scrapes.drain(..) {
                let c = conns[slot]
                    .as_mut()
                    .expect("a connection with a queued scrape stays open");
                c.queued -= 1;
                c.send(&[head.as_bytes(), body.as_bytes()]);
            }
        }
        for c in &mut conns {
            if c.as_ref().is_some_and(Conn::finished) {
                *c = None;
            }
        }
    }
    flush_all(&mut conns, &mut fds);
    // Whole-run placement checkpoint: one delta against the assignment at
    // startup, so a trace consumer can rebuild the final placement without
    // a dense dump.
    if S::ENABLED {
        let d = core.export_delta();
        sink.delta_snapshot(&qlb_obs::DeltaSnapshot {
            round: core.round(),
            base_gen: d.base_gen(),
            gen: d.gen(),
            users: d.num_users(),
            changed: d.changed(),
            bytes: &d.to_bytes(),
        });
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::thread;

    fn temp_sock(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "qlb-serve-daemon-{tag}-{}.sock",
            std::process::id()
        ));
        p
    }

    #[test]
    fn unix_daemon_round_trip() {
        let path = temp_sock("unit");
        let path_s = path.to_str().unwrap().to_string();
        let core = ServeCore::with_capacities(&[8; 4], 32, ServeConfig::new(2)).unwrap();
        let listener = ServeListener::bind_unix(&path_s).unwrap();
        let handle = thread::spawn(move || {
            let mut sink = qlb_obs::NoopSink;
            run_daemon(core, listener, &mut sink, DaemonOptions::default()).unwrap()
        });

        let stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let mut line = String::new();
        let mut ask = |req: &str, line: &mut String| {
            w.write_all(req.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            w.flush().unwrap();
            line.clear();
            reader.read_line(line).unwrap();
        };
        ask("{\"op\":\"place\"}", &mut line);
        assert!(line.contains("\"admitted\":true"), "got {line}");
        ask("{\"op\":\"query\"}", &mut line);
        assert!(line.contains("\"active\":1"), "got {line}");
        // unknown ops answer ok:false with the offending op as a
        // structured field (wire contract; qlb-serve-load keys off it)
        ask("{\"op\":\"fly\"}", &mut line);
        assert!(line.contains("\"ok\":false"), "got {line}");
        assert!(line.contains("\"op\":\"fly\""), "got {line}");
        assert!(line.contains("unknown op"), "got {line}");
        ask("{\"op\":\"shutdown\"}", &mut line);
        assert!(line.contains("\"op\":\"shutdown\""), "got {line}");
        let served = handle.join().unwrap();
        assert_eq!(served, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_op_and_metrics_endpoint_answer_live() {
        let core = ServeCore::with_capacities(&[8; 4], 32, ServeConfig::new(2)).unwrap();
        let listener = ServeListener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = match &listener {
            ServeListener::Tcp(l) => l.local_addr().unwrap(),
            _ => unreachable!(),
        };
        let http = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let http_addr = http.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let mut sink = qlb_obs::NoopSink;
            run_daemon_telemetry(
                core,
                listener,
                &mut sink,
                DaemonOptions::default(),
                TelemetryOptions {
                    metrics_http: Some(http),
                    stats_every: 4,
                    span_sample: 0,
                    flight: None,
                },
            )
            .unwrap()
        });
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let mut line = String::new();
        let mut ask = |req: &str, line: &mut String| {
            w.write_all(req.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            w.flush().unwrap();
            line.clear();
            reader.read_line(line).unwrap();
        };
        ask("{\"op\":\"place\"}", &mut line);
        assert!(line.contains("\"admitted\":true"), "got {line}");
        ask("{\"op\":\"stats\"}", &mut line);
        assert!(line.contains("\"op\":\"stats\""), "got {line}");
        assert!(line.contains("\"rates\":["), "got {line}");
        assert!(line.contains("\"classes\":["), "got {line}");
        assert!(line.contains("\"budget_max\":"), "got {line}");

        // Prometheus scrape over real HTTP
        let mut http_conn = std::net::TcpStream::connect(http_addr).unwrap();
        http_conn
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        http_conn.flush().unwrap();
        let mut response = String::new();
        http_conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "got {response}");
        assert!(response.contains("qlb_placements_total 1"), "{response}");
        assert!(response.contains("# TYPE qlb_slo_violation_ratio gauge"));

        ask("{\"op\":\"shutdown\"}", &mut line);
        assert!(line.contains("shutdown"), "got {line}");
        handle.join().unwrap();
    }

    #[test]
    fn tcp_daemon_round_trip() {
        let core = ServeCore::with_capacities(&[8; 4], 32, ServeConfig::new(2)).unwrap();
        let listener = ServeListener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = match &listener {
            ServeListener::Tcp(l) => l.local_addr().unwrap(),
            _ => unreachable!(),
        };
        let handle = thread::spawn(move || {
            let mut sink = qlb_obs::NoopSink;
            run_daemon(core, listener, &mut sink, DaemonOptions::default()).unwrap()
        });
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        w.write_all(b"{\"op\":\"place\",\"weight\":2}\n{\"op\":\"shutdown\"}\n")
            .unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"weight\":2"), "got {line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("shutdown"), "got {line}");
        assert_eq!(handle.join().unwrap(), 2);
    }

    /// A daemon over a small fleet on a fresh Unix socket, served on a
    /// background thread.
    fn unix_daemon(tag: &str) -> (std::path::PathBuf, thread::JoinHandle<u64>) {
        let path = temp_sock(tag);
        let core = ServeCore::with_capacities(&[8; 4], 32, ServeConfig::new(2)).unwrap();
        let listener = ServeListener::bind_unix(path.to_str().unwrap()).unwrap();
        let handle = thread::spawn(move || {
            let mut sink = qlb_obs::NoopSink;
            run_daemon(core, listener, &mut sink, DaemonOptions::default()).unwrap()
        });
        (path, handle)
    }

    /// Send `{"op":"shutdown"}` on a new connection and wait for its reply.
    fn shut_down(path: &std::path::Path) {
        let mut s = UnixStream::connect(path).unwrap();
        s.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        assert!(line.contains("shutdown"), "got {line}");
    }

    #[test]
    fn tcp_framing_splits_joins_and_finishes_lines() {
        let core = ServeCore::with_capacities(&[8; 4], 32, ServeConfig::new(2)).unwrap();
        let listener = ServeListener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = match &listener {
            ServeListener::Tcp(l) => l.local_addr().unwrap(),
            _ => unreachable!(),
        };
        let handle = thread::spawn(move || {
            let mut sink = qlb_obs::NoopSink;
            run_daemon(core, listener, &mut sink, DaemonOptions::default()).unwrap()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let mut line = String::new();
        let mut next = |line: &mut String| {
            line.clear();
            reader.read_line(line).unwrap()
        };

        // a request arriving in two halves is one request
        w.write_all(b"{\"op\":\"pla").unwrap();
        thread::sleep(Duration::from_millis(50));
        w.write_all(b"ce\"}\n").unwrap();
        next(&mut line);
        assert!(line.contains("\"admitted\":true"), "got {line}");
        // CRLF terminators are accepted
        w.write_all(b"{\"op\":\"query\"}\r\n").unwrap();
        next(&mut line);
        assert!(line.contains("\"op\":\"query\",\"active\":1"), "got {line}");
        // invalid UTF-8 is a malformed request, not a lost connection
        w.write_all(b"{\"op\":\"query\xff\"}\n").unwrap();
        next(&mut line);
        assert!(line.contains("\"ok\":false"), "got {line}");
        // two requests in one write get two replies, in order
        w.write_all(b"{\"op\":\"query\"}\n{\"op\":\"place\",\"weight\":2}\n")
            .unwrap();
        next(&mut line);
        assert!(line.contains("\"op\":\"query\""), "got {line}");
        next(&mut line);
        assert!(line.contains("\"weight\":2"), "got {line}");
        // a last line without a newline is answered at EOF
        w.write_all(b"{\"op\":\"place\"}").unwrap();
        w.shutdown(std::net::Shutdown::Write).unwrap();
        next(&mut line);
        assert!(line.contains("\"admitted\":true"), "got {line}");
        // ...and nothing else arrives: exactly one reply per request
        assert_eq!(next(&mut line), 0, "unexpected reply {line}");

        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        line.clear();
        BufReader::new(s).read_line(&mut line).unwrap();
        assert!(line.contains("shutdown"), "got {line}");
        assert_eq!(handle.join().unwrap(), 7);
    }

    #[test]
    fn overlong_line_gets_one_error_then_close() {
        let (path, handle) = unix_daemon("overlong");
        let stream = UnixStream::connect(&path).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut w = stream.try_clone().unwrap();
        // The daemon stops reading part-way, so the tail of this write
        // fails once the connection closes.
        let writer = thread::spawn(move || {
            let _ = w.write_all(&vec![b'x'; 1 << 20]);
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":false"), "got {line}");
        assert!(line.contains("line too long"), "got {line}");
        // Closing with unread input shows as a reset instead of an EOF.
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("expected the connection closed, got {other:?}: {line}"),
        }
        writer.join().unwrap();
        shut_down(&path);
        assert_eq!(handle.join().unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// Counts the request-latency records the daemon hands its sink.
    #[derive(Default)]
    struct LatencyCount {
        requests: u64,
        places: u64,
    }

    impl Sink for LatencyCount {
        const ENABLED: bool = true;
        fn event(&mut self, _ev: Event) {}
        fn add(&mut self, _c: qlb_obs::Counter, _delta: u64) {}
        fn set(&mut self, _g: qlb_obs::Gauge, _value: u64) {}
        fn time(&mut self, _p: qlb_obs::Phase, _ns: u64) {}
        fn latency(&mut self, name: &'static str, _ns: u64) {
            if name == REQUEST_HIST_NAME {
                self.requests += 1;
            } else if name == PLACE_HIST_NAME {
                self.places += 1;
            }
        }
    }

    /// A daemon cutting batches at 4 requests, on a fresh Unix socket.
    fn small_batch_daemon(
        tag: &str,
    ) -> (std::path::PathBuf, thread::JoinHandle<(u64, LatencyCount)>) {
        let path = temp_sock(tag);
        let core = ServeCore::with_capacities(&[8; 4], 32, ServeConfig::new(2)).unwrap();
        let listener = ServeListener::bind_unix(path.to_str().unwrap()).unwrap();
        let opts = DaemonOptions {
            max_batch: 4,
            ..DaemonOptions::default()
        };
        let handle = thread::spawn(move || {
            let mut sink = LatencyCount::default();
            let served = run_daemon(core, listener, &mut sink, opts).unwrap();
            (served, sink)
        });
        (path, handle)
    }

    /// `n` requests for one client write: every fifth a place, the rest
    /// unknown ops named `{tag}-{i}`, whose replies echo the name. Returns
    /// the bytes and, per request, a fragment its reply must contain.
    fn burst(tag: &str, n: usize) -> (String, Vec<String>) {
        let (mut bytes, mut expect) = (String::new(), Vec::new());
        for i in 0..n {
            let op = if i % 5 == 0 {
                "place".to_string()
            } else {
                format!("{tag}-{i}")
            };
            bytes.push_str(&format!("{{\"op\":\"{op}\"}}\n"));
            expect.push(format!("\"op\":\"{op}\""));
        }
        (bytes, expect)
    }

    fn read_replies(reader: &mut BufReader<UnixStream>, expect: &[String]) {
        let mut line = String::new();
        for (i, want) in expect.iter().enumerate() {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(want), "reply {i}: want {want}, got {line}");
        }
    }

    #[test]
    fn pipelined_replies_arrive_in_order_across_batch_cuts() {
        let (path, handle) = small_batch_daemon("pipelined");
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let s = UnixStream::connect(&path).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let (bytes, expect) = burst(&format!("c{c}"), 50);
                (s, bytes, expect)
            })
            .collect();
        for (s, bytes, _) in &clients {
            (&*s).write_all(bytes.as_bytes()).unwrap();
        }
        for (s, _, expect) in clients {
            read_replies(&mut BufReader::new(s), &expect);
        }
        shut_down(&path);
        let (served, sink) = handle.join().unwrap();
        assert_eq!(served, 101);
        // every reply, held or not, is stamped exactly once
        assert_eq!(sink.requests, 101);
        assert_eq!(sink.places, 20);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shutdown_ending_a_burst_is_acknowledged_after_the_replies_before_it() {
        let (path, handle) = small_batch_daemon("burst-shutdown");
        let s = UnixStream::connect(&path).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut bytes, mut expect) = burst("b", 30);
        bytes.push_str("{\"op\":\"shutdown\"}\n");
        expect.push("\"op\":\"shutdown\"".to_string());
        // lines after the shutdown hold its acknowledgement for the
        // end-of-batch write, and go unanswered
        bytes.push_str(&burst("late", 3).0);
        (&s).write_all(bytes.as_bytes()).unwrap();
        let mut reader = BufReader::new(s);
        read_replies(&mut reader, &expect);
        let (served, sink) = handle.join().unwrap();
        assert_eq!(served, 31);
        assert_eq!(sink.requests, 31);
        // nothing follows the acknowledgement: the daemon closed the
        // connection (a reset if it had not read the late lines yet)
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("expected the connection closed, got {other:?}: {line}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn client_that_never_reads_does_not_stall_others() {
        let (path, handle) = unix_daemon("slow");
        let flood = UnixStream::connect(&path).unwrap();
        let mut fw = flood.try_clone().unwrap();
        let (started, wait_started) = mpsc::channel();
        // Pipeline queries and never read a reply; ends when the daemon
        // closes the connection at shutdown.
        let flooder = thread::spawn(move || {
            let chunk = "{\"op\":\"query\"}\n".repeat(4096);
            for i in 0.. {
                if fw.write_all(chunk.as_bytes()).is_err() {
                    return;
                }
                if i == 1 {
                    started.send(()).unwrap();
                }
            }
        });
        wait_started.recv().unwrap();

        let other = UnixStream::connect(&path).unwrap();
        other
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut reader = BufReader::new(other.try_clone().unwrap());
        let mut w = other;
        w.write_all(b"{\"op\":\"place\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"admitted\":true"), "got {line}");

        shut_down(&path);
        handle.join().unwrap();
        flooder.join().unwrap();
        drop(flood);
        let _ = std::fs::remove_file(&path);
    }
}
