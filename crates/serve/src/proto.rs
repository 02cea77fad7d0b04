//! The line-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line; each reply is one JSON
//! object on one line. The grammar (also documented in `DESIGN.md` §8):
//!
//! ```text
//! {"op":"place"[,"class":K][,"weight":W]}     → admission + placement
//! {"op":"depart","user":U}                    → release a placement
//! {"op":"query"[,"resource":R]}               → congestion / satisfaction
//! {"op":"stats"}                              → windowed live telemetry
//! {"op":"drain","resource":R}                 → retire a resource
//! {"op":"shutdown"}                           → flush trailer, exit
//! ```
//!
//! Replies always carry `"ok"`: `true` means the request was understood
//! and processed — note an admission *rejection* is a processed request
//! (`"ok":true,"admitted":false,"reason":…`), not an error. `"ok":false`
//! is reserved for malformed or invalid requests and carries `"error"`.
//!
//! Parsing reads the line's bytes in place first ([`scan_compact`]): the
//! compact form every bundled client sends — `{"op":"<op>"`, then
//! `,"<key>":<digits>` fields, then `}`, with no whitespace, escapes,
//! duplicate or unknown keys — becomes a [`Request`] without an
//! allocation. Every other line goes to the reference parser
//! ([`parse_request_value`], the vendored `serde_json` value tree), which
//! also gives every error its message; the scan only ever returns what
//! the reference parser would. Replies are written straight into a
//! buffer the caller passes ([`handle_line_spanned`]) — the daemon's
//! connection output buffer — with a small integer writer for the place,
//! reject and depart replies.

use crate::core::{PlaceOutcome, PlaceTrace, RejectReason, ServeCore};
use crate::telemetry::{cumulative_snapshot, ServeTelemetry};
use qlb_core::{ClassId, ResourceId, UserId};
use qlb_obs::span::{SPAN_OP_DEPART, SPAN_OP_DRAIN, SPAN_OP_PLACE};
use qlb_obs::{Sink, SpanRecord};
use serde_json::{parse_value_str, Value};
use std::borrow::Cow;
use std::time::Instant;

/// A parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Admission + placement of `weight` slots of `class`.
    Place {
        /// QoS class (default 0).
        class: u32,
        /// Slots requested (default 1).
        weight: u32,
    },
    /// Release the placement with ticket `user`.
    Depart {
        /// Ticket from a `place` reply.
        user: u32,
    },
    /// Congestion / satisfaction snapshot.
    Query {
        /// Optional single-resource focus.
        resource: Option<u32>,
    },
    /// Windowed live-telemetry snapshot (rates, latency digests,
    /// per-class SLO violation fractions, rebalancer health).
    Stats,
    /// Retire a resource.
    Drain {
        /// Resource to drain.
        resource: u32,
    },
    /// Flush the trace trailer and exit.
    Shutdown,
}

/// A rejected request line: the human-readable reason plus — whenever the
/// line at least carried a string `"op"` field — the offending op itself,
/// echoed into the structured `"ok":false` reply so a caller can tell
/// *which* op was misspelled without parsing prose out of the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason, suitable for the `"error"` payload.
    pub msg: String,
    /// The request's `"op"` string, when one was present.
    pub op: Option<String>,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            op: None,
        }
    }
}

/// Parse one request line. The `Err` carries both the reason and (when
/// known) the offending op string for the structured error reply.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    parse_request_bytes(line.as_bytes())
}

/// [`parse_request`] over the raw bytes of a line: the in-place
/// [`scan_compact`], else the reference parser over the line as UTF-8
/// text, invalid sequences replaced (so the parser rejects them).
fn parse_request_bytes(line: &[u8]) -> Result<Request, ParseError> {
    match scan_compact(line) {
        Some(req) => Ok(req),
        None => parse_request_value(&String::from_utf8_lossy(line)),
    }
}

/// The fields of the compact form, in the order [`scan_compact`] keeps
/// their values.
const FIELDS: [&[u8]; 4] = [b"class", b"weight", b"user", b"resource"];

/// Read a request in the compact form without an allocation: exactly
/// `{"op":"<op>"`, then `,"<key>":<value>` for each of up to four
/// distinct keys among `class`, `weight`, `user` and `resource`, then
/// `}`. A value is decimal digits with no sign, fraction, exponent or
/// leading zero, at most `u32::MAX`.
///
/// Returns the request only where [`parse_request_value`] returns the
/// same `Ok`; `None` declines the line (any other shape, an unknown op, a
/// `weight` of 0, a `depart` or `drain` missing its field) and leaves it
/// to that parser. Public only for the wire property tests; callers use
/// [`parse_request`].
#[doc(hidden)]
pub fn scan_compact(line: &[u8]) -> Option<Request> {
    let rest = line.strip_prefix(b"{\"op\":\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    let (op, mut rest) = (&rest[..end], &rest[end + 1..]);
    let mut values = [None; FIELDS.len()];
    while rest != b"}" {
        let field = rest.strip_prefix(b",\"")?;
        let end = field.iter().position(|&b| b == b'"')?;
        let slot = FIELDS.iter().position(|&k| k == &field[..end])?;
        let digits = field[end + 1..].strip_prefix(b":")?;
        let len = digits.iter().take_while(|b| b.is_ascii_digit()).count();
        if values[slot].replace(scan_u32(&digits[..len])?).is_some() {
            return None;
        }
        rest = &digits[len..];
    }
    let [class, weight, user, resource] = values;
    match op {
        b"place" => match weight.unwrap_or(1) {
            0 => None,
            weight => Some(Request::Place {
                class: class.unwrap_or(0),
                weight,
            }),
        },
        b"depart" => Some(Request::Depart { user: user? }),
        b"query" => Some(Request::Query { resource }),
        b"stats" => Some(Request::Stats),
        b"drain" => Some(Request::Drain {
            resource: resource?,
        }),
        b"shutdown" => Some(Request::Shutdown),
        _ => None,
    }
}

/// A run of decimal digits as a `u32`: `None` when empty, with a leading
/// zero, or past `u32::MAX`.
fn scan_u32(digits: &[u8]) -> Option<u32> {
    match digits {
        [] => None,
        [b'0'] => Some(0),
        [b'0', ..] => None,
        _ if digits.len() > 10 => None,
        _ => {
            let n = digits
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
            u32::try_from(n).ok()
        }
    }
}

/// The reference parser: the line as a vendored `serde_json` value tree.
/// It takes any JSON object (whitespace, escapes, any key order, unknown
/// keys ignored, the first of duplicate keys); [`parse_request`] calls it
/// for every line [`scan_compact`] declines. Public only for the wire
/// property tests; callers use [`parse_request`].
#[doc(hidden)]
pub fn parse_request_value(line: &str) -> Result<Request, ParseError> {
    let v = parse_value_str(line).map_err(|e| ParseError::new(format!("bad json: {e}")))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ParseError::new("missing \"op\""))?;
    let with_op = |msg: String| ParseError {
        msg,
        op: Some(op.to_string()),
    };
    let u32_field = |name: &str| -> Result<Option<u32>, ParseError> {
        match v.get(name) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => match x.as_u64() {
                Some(n) if n <= u32::MAX as u64 => Ok(Some(n as u32)),
                _ => Err(with_op(format!("\"{name}\" must be a u32"))),
            },
        }
    };
    match op {
        "place" => {
            let class = u32_field("class")?.unwrap_or(0);
            let weight = u32_field("weight")?.unwrap_or(1);
            if weight == 0 {
                return Err(with_op("\"weight\" must be ≥ 1".into()));
            }
            Ok(Request::Place { class, weight })
        }
        "depart" => {
            let user =
                u32_field("user")?.ok_or_else(|| with_op("\"depart\" needs \"user\"".into()))?;
            Ok(Request::Depart { user })
        }
        "query" => Ok(Request::Query {
            resource: u32_field("resource")?,
        }),
        "stats" => Ok(Request::Stats),
        "drain" => {
            let resource = u32_field("resource")?
                .ok_or_else(|| with_op("\"drain\" needs \"resource\"".into()))?;
            Ok(Request::Drain { resource })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(with_op(format!("unknown op \"{other}\""))),
    }
}

/// Which verb a reply answered — the daemon uses this for latency
/// attribution (placements get their own histogram) and batch events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A `place` (admitted or rejected).
    Place,
    /// A `depart`.
    Depart,
    /// A `query`.
    Query,
    /// A `stats`.
    Stats,
    /// A `drain`.
    Drain,
    /// A `shutdown`.
    Shutdown,
    /// A malformed request.
    Invalid,
}

/// One processed request: the reply line (no trailing newline) plus
/// routing facts for the daemon loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The JSON reply line.
    pub text: String,
    /// What kind of request this answered.
    pub kind: OpKind,
    /// Whether the daemon should stop after sending this reply.
    pub shutdown: bool,
}

/// The routing facts of one dispatch whose reply line went into the
/// caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replied {
    /// What kind of request this answered.
    pub kind: OpKind,
    /// Whether the daemon should stop after sending this reply.
    pub shutdown: bool,
}

impl Replied {
    fn new(kind: OpKind) -> Self {
        Self {
            kind,
            shutdown: false,
        }
    }
}

/// Bytes that hold any place, reject or depart reply line (the longest,
/// an admitted place with five 10-digit fields, takes 153), so
/// [`handle_line`] allocates its reply once.
pub const REPLY_CAPACITY: usize = 160;

/// Append `n` in decimal.
fn push_u32(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn push_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

fn write_error(out: &mut Vec<u8>, msg: &str) {
    out.extend_from_slice(b"{\"ok\":false,\"error\":");
    out.extend_from_slice(json_str(msg).as_bytes());
    out.push(b'}');
}

fn write_parse_error(out: &mut Vec<u8>, e: &ParseError) {
    out.extend_from_slice(b"{\"ok\":false,\"error\":");
    out.extend_from_slice(json_str(&e.msg).as_bytes());
    if let Some(op) = &e.op {
        out.extend_from_slice(b",\"op\":");
        out.extend_from_slice(json_str(op).as_bytes());
    }
    out.push(b'}');
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// enough for the error messages we emit.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_place(out: &mut Vec<u8>, o: &PlaceOutcome) {
    out.extend_from_slice(b"{\"ok\":true,\"op\":\"place\",\"admitted\":true,\"user\":");
    push_u32(out, o.user.0);
    out.extend_from_slice(b",\"resource\":");
    push_u32(out, o.resource.0);
    out.extend_from_slice(b",\"weight\":");
    push_u32(out, o.weight);
    out.extend_from_slice(b",\"load\":");
    push_u32(out, o.load);
    out.extend_from_slice(b",\"cap\":");
    push_u32(out, o.cap);
    out.extend_from_slice(b",\"satisfied\":");
    push_bool(out, o.satisfied);
    out.push(b'}');
}

fn write_reject(out: &mut Vec<u8>, reason: RejectReason) {
    out.extend_from_slice(b"{\"ok\":true,\"op\":\"place\",\"admitted\":false,\"reason\":\"");
    out.extend_from_slice(reason.as_str().as_bytes());
    out.extend_from_slice(b"\"}");
}

fn write_depart(out: &mut Vec<u8>, user: u32, released: u32) {
    out.extend_from_slice(b"{\"ok\":true,\"op\":\"depart\",\"user\":");
    push_u32(out, user);
    out.extend_from_slice(b",\"released\":");
    push_u32(out, released);
    out.push(b'}');
}

fn query_reply(core: &ServeCore, resource: Option<u32>) -> String {
    let (placements, rejects, departures, drains) = core.totals();
    let (pool, capacity, draining) = core.reject_reasons();
    let mut s = format!(
        "{{\"ok\":true,\"op\":\"query\",\"active\":{},\"free\":{},\"unsatisfied\":{},\"round\":{},\"placements\":{},\"rejects\":{},\"reject_reasons\":{{\"pool\":{},\"capacity\":{},\"draining\":{}}},\"departures\":{},\"drains\":{}",
        core.active_slots(),
        core.free_slots(),
        core.unsatisfied(),
        core.round(),
        placements,
        rejects,
        pool,
        capacity,
        draining,
        departures,
        drains
    );
    s.push_str(",\"draining\":[");
    for (i, r) in core.draining_resources().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&r.to_string());
    }
    s.push_str("],\"classes\":[");
    for (i, cs) in core.class_stats().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"class\":{},\"active\":{},\"unsatisfied\":{}}}",
            cs.class.0, cs.active, cs.unsatisfied
        ));
    }
    s.push(']');
    if let Some(r) = resource {
        let rs = core.resource_stats(ResourceId(r));
        s.push_str(&format!(
            ",\"resource\":{{\"id\":{},\"load\":{},\"cap\":{},\"draining\":{},\"drained\":{}}}",
            rs.resource.0, rs.load, rs.cap, rs.draining, rs.drained
        ));
    }
    s.push('}');
    s
}

fn stats_reply(core: &ServeCore, tel: Option<&ServeTelemetry>) -> String {
    let snap = match tel {
        Some(tel) => tel.snapshot(core),
        None => cumulative_snapshot(core),
    };
    let body = serde_json::to_string(&snap).expect("snapshot serializes");
    format!("{{\"ok\":true,\"op\":\"stats\",\"stats\":{body}}}")
}

/// Parse and execute one request line against the core, producing the
/// reply line. This is the entry point of the serve bench and the
/// lifecycle tests; the daemon calls [`handle_line_spanned`], which
/// writes the same reply into its connection buffer. A `stats` request
/// through this entry point answers with cumulative tallies only (no
/// windowed telemetry).
pub fn handle_line<S: Sink>(core: &mut ServeCore, line: &str, sink: &mut S) -> Reply {
    let mut text = Vec::with_capacity(REPLY_CAPACITY);
    let (replied, _) = handle_line_spanned(core, None, line.as_bytes(), sink, None, &mut text);
    Reply {
        text: String::from_utf8(text).expect("replies are UTF-8"),
        kind: replied.kind,
        shutdown: replied.shutdown,
    }
}

/// The clock of a traced dispatch. Each phase starts where the previous
/// one ended, so one clock read closes a phase and opens the next; an
/// untraced dispatch reads no clock.
struct Laps(Option<Instant>);

impl Laps {
    fn start(traced: bool) -> Self {
        Self(traced.then(Instant::now))
    }

    /// Nanoseconds since the previous lap (0 when untraced).
    fn lap(&mut self) -> u64 {
        self.0.as_mut().map_or(0, |at| {
            let now = Instant::now();
            let ns = now.duration_since(*at).as_nanos() as u64;
            *at = now;
            ns
        })
    }
}

/// The dispatch: parse the request line (as [`parse_request`] does),
/// execute it against the core and append its reply line (no newline) to
/// `out`. A live [`ServeTelemetry`] answers the `stats` op with windowed
/// rates; `None` answers it with cumulative tallies.
///
/// With `span = Some((id, trace))` the request is *traced*: the parse /
/// admit / probe / reply phases are individually clocked (the first three
/// back to back, so `total_ns` is their sum) and a
/// `place`/`depart`/`drain` (or malformed) request yields a
/// [`SpanRecord`] the caller emits. With `span = None` no clock is read —
/// sampled-out requests fold to a handful of branches.
pub fn handle_line_spanned<S: Sink>(
    core: &mut ServeCore,
    tel: Option<&ServeTelemetry>,
    line: &[u8],
    sink: &mut S,
    span: Option<(u64, &mut PlaceTrace)>,
    out: &mut Vec<u8>,
) -> (Replied, Option<SpanRecord>) {
    let (span_id, mut trace) = match span {
        Some((id, t)) => (id, Some(t)),
        None => (0, None),
    };
    let traced = trace.is_some();
    let mut laps = Laps::start(traced);
    // A traced span for an op that never reached (or was refused by) the
    // core, taken once its error reply is written: every phase after
    // parse is zero.
    let error_span = |laps: &mut Laps, op: Cow<'static, str>, parse_ns: u64| {
        let total_ns = parse_ns + laps.lap();
        traced.then(|| SpanRecord {
            id: span_id,
            op,
            ticket: None,
            class: None,
            verdict: "error".into(),
            probes: 0,
            headroom: Vec::new(),
            resource: None,
            from: None,
            parse_ns,
            admit_ns: 0,
            probe_ns: 0,
            reply_ns: 0,
            total_ns,
        })
    };
    let parsed = parse_request_bytes(line);
    let parse_ns = laps.lap();
    let req = match parsed {
        Ok(r) => r,
        Err(e) => {
            write_parse_error(out, &e);
            let op = e.op.map_or(Cow::Borrowed("invalid"), Cow::Owned);
            let span = error_span(&mut laps, op, parse_ns);
            return (Replied::new(OpKind::Invalid), span);
        }
    };
    match req {
        Request::Place { class, weight } => {
            if (class as usize) >= core.num_classes() {
                let msg = format!("class {class} out of range (have {})", core.num_classes());
                write_error(out, &msg);
                let span = error_span(&mut laps, SPAN_OP_PLACE.into(), parse_ns);
                return (Replied::new(OpKind::Place), span);
            }
            let res = match trace.as_deref_mut() {
                Some(tr) => core.place_traced(ClassId(class), weight, sink, tr),
                None => core.place(ClassId(class), weight, sink),
            };
            let admit_ns = laps.lap();
            match &res {
                Ok(o) => write_place(out, o),
                Err(reason) => write_reject(out, *reason),
            }
            let reply_ns = laps.lap();
            let span = trace.map(|tr| SpanRecord {
                id: span_id,
                op: SPAN_OP_PLACE.into(),
                ticket: res.as_ref().ok().map(|o| o.user.0 as u64),
                class: Some(class as u64),
                verdict: match &res {
                    Ok(_) => "admitted".into(),
                    Err(reason) => reason.as_str().into(),
                },
                probes: tr.probes,
                headroom: tr.headroom.clone(),
                resource: res.as_ref().ok().map(|o| o.resource.0 as u64),
                from: None,
                parse_ns,
                admit_ns,
                probe_ns: tr.probe_ns,
                reply_ns,
                total_ns: parse_ns + admit_ns + reply_ns,
            });
            (Replied::new(OpKind::Place), span)
        }
        Request::Depart { user } => {
            let res = core.depart(UserId(user), sink);
            let admit_ns = laps.lap();
            match &res {
                Ok(o) => write_depart(out, user, o.released),
                Err(e) => write_error(out, e),
            }
            let reply_ns = laps.lap();
            let span = traced.then(|| SpanRecord {
                id: span_id,
                op: SPAN_OP_DEPART.into(),
                ticket: Some(user as u64),
                class: None,
                verdict: if res.is_ok() { "departed" } else { "error" }.into(),
                probes: 0,
                headroom: Vec::new(),
                resource: None,
                from: None,
                parse_ns,
                admit_ns,
                probe_ns: 0,
                reply_ns,
                total_ns: parse_ns + admit_ns + reply_ns,
            });
            (Replied::new(OpKind::Depart), span)
        }
        Request::Query { resource } => {
            match resource {
                Some(r) if (r as usize) >= core.num_resources() => {
                    let msg = format!("resource {r} out of range (have {})", core.num_resources());
                    write_error(out, &msg);
                }
                _ => out.extend_from_slice(query_reply(core, resource).as_bytes()),
            }
            (Replied::new(OpKind::Query), None)
        }
        Request::Stats => {
            out.extend_from_slice(stats_reply(core, tel).as_bytes());
            (Replied::new(OpKind::Stats), None)
        }
        Request::Drain { resource } => {
            if (resource as usize) >= core.num_resources() {
                let msg = format!(
                    "resource {resource} out of range (have {})",
                    core.num_resources()
                );
                write_error(out, &msg);
                let span = error_span(&mut laps, SPAN_OP_DRAIN.into(), parse_ns);
                return (Replied::new(OpKind::Drain), span);
            }
            let res = core.drain(ResourceId(resource), sink);
            let admit_ns = laps.lap();
            match &res {
                Ok(o) => out.extend_from_slice(
                    format!(
                        "{{\"ok\":true,\"op\":\"drain\",\"resource\":{},\"occupants\":{}}}",
                        o.resource.0, o.occupants
                    )
                    .as_bytes(),
                ),
                Err(e) => write_error(out, e),
            }
            let reply_ns = laps.lap();
            let span = traced.then(|| SpanRecord {
                id: span_id,
                op: SPAN_OP_DRAIN.into(),
                ticket: None,
                class: None,
                verdict: if res.is_ok() { "drained" } else { "error" }.into(),
                probes: 0,
                headroom: Vec::new(),
                resource: Some(resource as u64),
                from: None,
                parse_ns,
                admit_ns,
                probe_ns: 0,
                reply_ns,
                total_ns: parse_ns + admit_ns + reply_ns,
            });
            (Replied::new(OpKind::Drain), span)
        }
        Request::Shutdown => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"shutdown\"}");
            let replied = Replied {
                kind: OpKind::Shutdown,
                shutdown: true,
            };
            (replied, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use qlb_obs::NoopSink;
    use qlb_rng::{Rng64, SplitMix64};

    fn core() -> ServeCore {
        ServeCore::with_capacities(&[4; 8], 64, ServeConfig::new(7)).unwrap()
    }

    fn get<'v>(v: &'v Value, k: &str) -> &'v Value {
        v.get(k).unwrap_or_else(|| panic!("missing key {k}"))
    }

    /// [`handle_line_spanned`] into a fresh buffer: the reply line and the
    /// span.
    fn spanned(
        c: &mut ServeCore,
        tel: Option<&ServeTelemetry>,
        line: &str,
        span: Option<(u64, &mut PlaceTrace)>,
    ) -> (String, Option<SpanRecord>) {
        let mut out = Vec::new();
        let (_, span) = handle_line_spanned(c, tel, line.as_bytes(), &mut NoopSink, span, &mut out);
        (String::from_utf8(out).unwrap(), span)
    }

    #[test]
    fn parse_all_ops() {
        assert_eq!(
            parse_request("{\"op\":\"place\"}").unwrap(),
            Request::Place {
                class: 0,
                weight: 1
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"place\",\"class\":2,\"weight\":3}").unwrap(),
            Request::Place {
                class: 2,
                weight: 3
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"depart\",\"user\":9}").unwrap(),
            Request::Depart { user: 9 }
        );
        assert_eq!(
            parse_request("{\"op\":\"query\"}").unwrap(),
            Request::Query { resource: None }
        );
        assert_eq!(
            parse_request("{\"op\":\"query\",\"resource\":1}").unwrap(),
            Request::Query { resource: Some(1) }
        );
        assert_eq!(
            parse_request("{\"op\":\"drain\",\"resource\":4}").unwrap(),
            Request::Drain { resource: 4 }
        );
        assert_eq!(parse_request("{\"op\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request("{\"op\":\"fly\"}").is_err());
        assert!(parse_request("{\"op\":\"depart\"}").is_err());
        assert!(parse_request("{\"op\":\"drain\"}").is_err());
        assert!(parse_request("{\"op\":\"place\",\"weight\":0}").is_err());
        assert!(parse_request("{\"op\":\"place\",\"weight\":-1}").is_err());
    }

    #[test]
    fn place_reply_roundtrips_as_json() {
        let mut c = core();
        let mut sink = NoopSink;
        let r = handle_line(&mut c, "{\"op\":\"place\"}", &mut sink);
        assert_eq!(r.kind, OpKind::Place);
        assert!(!r.shutdown);
        let v = parse_value_str(&r.text).unwrap();
        assert_eq!(get(&v, "ok").as_bool(), Some(true));
        assert_eq!(get(&v, "admitted").as_bool(), Some(true));
        let user = get(&v, "user").as_u64().unwrap();
        // and the ticket departs cleanly
        let r = handle_line(
            &mut c,
            &format!("{{\"op\":\"depart\",\"user\":{user}}}"),
            &mut sink,
        );
        let v = parse_value_str(&r.text).unwrap();
        assert_eq!(get(&v, "released").as_u64(), Some(1));
    }

    #[test]
    fn rejection_is_ok_true() {
        let mut c = ServeCore::with_capacities(&[1], 2, ServeConfig::new(1)).unwrap();
        let mut sink = NoopSink;
        // cap 1, φ=0.95 → floor 0 admitted slots: immediate capacity reject
        let r = handle_line(&mut c, "{\"op\":\"place\"}", &mut sink);
        let v = parse_value_str(&r.text).unwrap();
        assert_eq!(get(&v, "ok").as_bool(), Some(true));
        assert_eq!(get(&v, "admitted").as_bool(), Some(false));
        assert_eq!(get(&v, "reason").as_str(), Some("capacity"));
    }

    #[test]
    fn query_reports_shape() {
        let mut c = core();
        let mut sink = NoopSink;
        for _ in 0..5 {
            handle_line(&mut c, "{\"op\":\"place\"}", &mut sink);
        }
        handle_line(&mut c, "{\"op\":\"drain\",\"resource\":3}", &mut sink);
        let r = handle_line(&mut c, "{\"op\":\"query\",\"resource\":3}", &mut sink);
        let v = parse_value_str(&r.text).unwrap();
        assert_eq!(get(&v, "active").as_u64(), Some(5));
        assert_eq!(get(&v, "placements").as_u64(), Some(5));
        assert_eq!(get(&v, "drains").as_u64(), Some(1));
        let res = get(&v, "resource");
        assert_eq!(get(res, "id").as_u64(), Some(3));
        assert_eq!(get(res, "draining").as_bool(), Some(true));
        let classes = match get(&v, "classes") {
            Value::Array(a) => a,
            other => panic!("classes not an array: {other:?}"),
        };
        assert_eq!(classes.len(), 1);
    }

    #[test]
    fn query_reports_reject_reasons() {
        let mut c = ServeCore::with_capacities(&[1], 2, ServeConfig::new(1)).unwrap();
        let mut sink = NoopSink;
        handle_line(&mut c, "{\"op\":\"place\"}", &mut sink); // capacity reject
        let r = handle_line(&mut c, "{\"op\":\"query\"}", &mut sink);
        let v = parse_value_str(&r.text).unwrap();
        let reasons = get(&v, "reject_reasons");
        assert_eq!(get(reasons, "pool").as_u64(), Some(0));
        assert_eq!(get(reasons, "capacity").as_u64(), Some(1));
        assert_eq!(get(reasons, "draining").as_u64(), Some(0));
    }

    #[test]
    fn stats_without_telemetry_reports_cumulative_tallies() {
        let mut c = core();
        let mut sink = NoopSink;
        for _ in 0..3 {
            handle_line(&mut c, "{\"op\":\"place\"}", &mut sink);
        }
        let r = handle_line(&mut c, "{\"op\":\"stats\"}", &mut sink);
        assert_eq!(r.kind, OpKind::Stats);
        let v = parse_value_str(&r.text).unwrap();
        assert_eq!(get(&v, "ok").as_bool(), Some(true));
        let stats = get(&v, "stats");
        assert_eq!(get(stats, "active").as_u64(), Some(3));
        assert!(stats.get("classes").is_some());
    }

    #[test]
    fn stats_with_telemetry_reports_windowed_rates() {
        let mut c = core();
        let mut tel = ServeTelemetry::new(c.num_classes(), c.max_tick_rounds());
        let mut sink = NoopSink;
        for _ in 0..4 {
            handle_line(&mut c, "{\"op\":\"place\"}", &mut sink);
        }
        tel.on_request(true, 1_000);
        tel.on_tick_at(&c, 0, 0);
        tel.on_tick_at(&c, 0, 500);
        let (text, _) = spanned(&mut c, Some(&tel), "{\"op\":\"stats\"}", None);
        let v = parse_value_str(&text).unwrap();
        let stats = get(&v, "stats");
        assert_eq!(get(stats, "tick").as_u64(), Some(2));
        let rates = match get(stats, "rates") {
            Value::Array(a) => a,
            other => panic!("rates not an array: {other:?}"),
        };
        assert!(!rates.is_empty());
        let placements = rates
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("placements"))
            .expect("placements rate present");
        assert!(placements.get("r1s").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn invalid_requests_get_ok_false() {
        let mut c = core();
        let mut sink = NoopSink;
        for bad in [
            "nope",
            "{\"op\":\"depart\",\"user\":12345}",
            "{\"op\":\"drain\",\"resource\":99}",
            "{\"op\":\"query\",\"resource\":99}",
            "{\"op\":\"place\",\"class\":7}",
        ] {
            let r = handle_line(&mut c, bad, &mut sink);
            let v = parse_value_str(&r.text).unwrap();
            assert_eq!(get(&v, "ok").as_bool(), Some(false), "line: {bad}");
            assert!(v.get("error").is_some(), "line: {bad}");
        }
    }

    #[test]
    fn shutdown_sets_flag() {
        let mut c = core();
        let mut sink = NoopSink;
        let r = handle_line(&mut c, "{\"op\":\"shutdown\"}", &mut sink);
        assert!(r.shutdown);
        assert_eq!(r.kind, OpKind::Shutdown);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn unknown_op_error_carries_the_offending_op() {
        let mut c = core();
        let mut sink = NoopSink;
        let r = handle_line(&mut c, "{\"op\":\"fly\"}", &mut sink);
        assert_eq!(r.kind, OpKind::Invalid);
        let v = parse_value_str(&r.text).unwrap();
        assert_eq!(get(&v, "ok").as_bool(), Some(false));
        assert_eq!(get(&v, "op").as_str(), Some("fly"));
        assert!(get(&v, "error").as_str().unwrap().contains("unknown op"));
        // field errors on a known op echo the op too
        let r = handle_line(&mut c, "{\"op\":\"depart\"}", &mut sink);
        let v = parse_value_str(&r.text).unwrap();
        assert_eq!(get(&v, "op").as_str(), Some("depart"));
        // but a line with no op at all cannot
        let r = handle_line(&mut c, "{}", &mut sink);
        let v = parse_value_str(&r.text).unwrap();
        assert!(v.get("op").is_none());
    }

    #[test]
    fn spanned_dispatch_captures_phases_and_evidence() {
        let mut c = core();
        let mut trace = PlaceTrace::default();
        let (text, span) = spanned(&mut c, None, "{\"op\":\"place\"}", Some((5, &mut trace)));
        let span = span.expect("place yields a span");
        assert_eq!(span.id, 5);
        assert_eq!(span.op, SPAN_OP_PLACE);
        assert_eq!(span.verdict, "admitted");
        assert_eq!(span.probes, 2);
        assert_eq!(span.headroom.len(), 2);
        assert!(span.total_ns >= span.parse_ns + span.admit_ns);
        assert!(span.admit_ns >= span.probe_ns);
        let v = parse_value_str(&text).unwrap();
        let user = get(&v, "user").as_u64().unwrap();
        assert_eq!(span.ticket, Some(user));
        assert_eq!(span.resource, Some(get(&v, "resource").as_u64().unwrap()));
        // depart closes the lifecycle with the same ticket
        let depart = format!("{{\"op\":\"depart\",\"user\":{user}}}");
        let (_, span) = spanned(&mut c, None, &depart, Some((6, &mut trace)));
        let span = span.expect("depart yields a span");
        assert_eq!(span.op, SPAN_OP_DEPART);
        assert_eq!(span.verdict, "departed");
        assert_eq!(span.ticket, Some(user));
        // a malformed line yields an error span naming the op
        let (_, span) = spanned(&mut c, None, "{\"op\":\"fly\"}", Some((7, &mut trace)));
        let span = span.expect("parse error yields a span");
        assert_eq!(span.op, "fly");
        assert_eq!(span.verdict, "error");
        // untraced calls yield no span and no panic
        let (_, span) = spanned(&mut c, None, "{\"op\":\"place\"}", None);
        assert!(span.is_none());
    }

    #[test]
    fn spanned_dispatch_matches_untraced_replies() {
        // the traced path must produce byte-identical replies and the
        // identical trajectory (same placement targets) as the untraced one
        let run = |traced: bool| {
            let mut c = core();
            let mut trace = PlaceTrace::default();
            let mut replies = Vec::new();
            for i in 0..20u32 {
                let line = match i % 4 {
                    0 | 1 => "{\"op\":\"place\"}".to_string(),
                    2 => format!("{{\"op\":\"depart\",\"user\":{}}}", 63 - i / 4),
                    _ => "{\"op\":\"query\"}".to_string(),
                };
                let text = if traced {
                    spanned(&mut c, None, &line, Some((i as u64, &mut trace))).0
                } else {
                    handle_line(&mut c, &line, &mut NoopSink).text
                };
                replies.push(text);
            }
            replies
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn dispatch_appends_to_the_buffer() {
        let mut c = core();
        let mut out = b"held\n".to_vec();
        let line = b"{\"op\":\"place\"}";
        let (replied, _) = handle_line_spanned(&mut c, None, line, &mut NoopSink, None, &mut out);
        assert_eq!(replied.kind, OpKind::Place);
        assert!(!replied.shutdown);
        let text = std::str::from_utf8(&out).unwrap();
        let reply = text.strip_prefix("held\n").expect("earlier bytes kept");
        assert!(
            reply.starts_with("{\"ok\":true,\"op\":\"place\""),
            "{reply}"
        );
    }

    #[test]
    fn scan_reads_the_compact_form() {
        for (line, want) in [
            (
                "{\"op\":\"place\"}",
                Request::Place {
                    class: 0,
                    weight: 1,
                },
            ),
            (
                "{\"op\":\"place\",\"weight\":4,\"class\":0}",
                Request::Place {
                    class: 0,
                    weight: 4,
                },
            ),
            (
                "{\"op\":\"depart\",\"user\":4294967295}",
                Request::Depart { user: u32::MAX },
            ),
            (
                "{\"op\":\"query\",\"resource\":10}",
                Request::Query { resource: Some(10) },
            ),
            ("{\"op\":\"stats\"}", Request::Stats),
            (
                "{\"op\":\"drain\",\"resource\":0}",
                Request::Drain { resource: 0 },
            ),
            ("{\"op\":\"shutdown\"}", Request::Shutdown),
            // a field another op reads is ignored, as the value tree does
            (
                "{\"op\":\"depart\",\"user\":3,\"weight\":0}",
                Request::Depart { user: 3 },
            ),
        ] {
            assert_eq!(scan_compact(line.as_bytes()), Some(want), "{line}");
            assert_eq!(parse_request_value(line), Ok(want), "{line}");
        }
        for line in [
            "{\"op\":\"place\",\"weight\":0}",
            "{\"op\":\"place\",\"weight\":01}",
            "{\"op\":\"place\",\"weight\":-0}",
            "{\"op\":\"place\",\"weight\":2,\"weight\":3}",
            "{\"op\":\"depart\",\"user\":4294967296}",
            "{\"op\":\"depart\",\"user\":99999999999}",
            "{\"op\":\"depart\"}",
            "{\"op\":\"drain\"}",
            "{\"op\":\"place\", \"weight\":2}",
            "{\"op\":\"place\"}\r",
            "{\"op\":\"pl\\u0061ce\"}",
            "{\"op\":\"place\",\"extra\":1}",
            "{\"op\":\"place\",\"op\":1}",
            "{\"op\":\"place\",\"weight\":null}",
            "{\"op\":\"fly\"}",
            "{\"weight\":2,\"op\":\"place\"}",
            "{\"op\":\"place\"}}",
            "{\"op\":\"place\",}",
            "{\"op\":\"place\"",
            "",
        ] {
            assert_eq!(scan_compact(line.as_bytes()), None, "{line}");
        }
    }

    #[test]
    fn writers_match_the_format_templates() {
        // the templates the replies were formatted with before the writers
        let place = |o: &PlaceOutcome| {
            format!(
                "{{\"ok\":true,\"op\":\"place\",\"admitted\":true,\"user\":{},\"resource\":{},\"weight\":{},\"load\":{},\"cap\":{},\"satisfied\":{}}}",
                o.user.0, o.resource.0, o.weight, o.load, o.cap, o.satisfied
            )
        };
        let reject = |r: RejectReason| {
            format!(
                "{{\"ok\":true,\"op\":\"place\",\"admitted\":false,\"reason\":\"{}\"}}",
                r.as_str()
            )
        };
        let depart = |user: u32, released: u32| {
            format!("{{\"ok\":true,\"op\":\"depart\",\"user\":{user},\"released\":{released}}}")
        };
        let written = |write: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            write(&mut out);
            String::from_utf8(out).unwrap()
        };
        let mut rng = SplitMix64::new(0x5EED);
        // every digit count, with the extremes of each
        let mut value = || match rng.uniform(4) {
            0 => u32::MAX >> rng.uniform(32),
            1 => 10u32.pow(rng.uniform(10) as u32),
            2 => rng.uniform(10) as u32,
            _ => rng.next_u64() as u32,
        };
        for _ in 0..20_000 {
            let o = PlaceOutcome {
                user: UserId(value()),
                resource: ResourceId(value()),
                weight: value(),
                load: value(),
                cap: value(),
                satisfied: value() % 2 == 0,
            };
            assert_eq!(written(&|out| write_place(out, &o)), place(&o));
            let (user, released) = (value(), value());
            assert_eq!(
                written(&|out| write_depart(out, user, released)),
                depart(user, released)
            );
        }
        let longest = PlaceOutcome {
            user: UserId(u32::MAX),
            resource: ResourceId(u32::MAX),
            weight: u32::MAX,
            load: u32::MAX,
            cap: u32::MAX,
            satisfied: false,
        };
        assert!(written(&|out| write_place(out, &longest)).len() <= REPLY_CAPACITY);
        for r in [
            RejectReason::PoolExhausted,
            RejectReason::Capacity,
            RejectReason::AllDraining,
        ] {
            assert_eq!(written(&|out| write_reject(out, r)), reject(r));
        }
    }
}
