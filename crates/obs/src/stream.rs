//! Incremental JSONL export: the streaming half of the observability
//! stack.
//!
//! A post-hoc dump is useless for the multi-hour open-system runs the
//! roadmap calls for, where the interesting question is "what is the
//! trajectory doing *right now*". [`StreamSink`] is the [`Recorder`] with
//! a [`JsonlLog`] in place of its event ring: every event becomes a
//! [`Record`] line as it happens, buffered in memory and pushed to the
//! underlying writer at *round-shaped* flush points — after every
//! [`Event::RoundEnd`] and every [`Event::ChurnEpisode`] — so a reader
//! tailing the file always sees whole rounds.
//!
//! ## Crash-tolerant framing
//!
//! The log only ever hands the writer **complete lines**: the internal
//! buffer is cut at newline boundaries, so the only way a file can end
//! mid-record is the process dying inside a single `write(2)`. The replay
//! reader ([`crate::replay::Summary::from_jsonl`]) treats an unparsable
//! *final* line **without a trailing newline** as exactly that — a
//! truncated tail to report and skip, not an error — while garbage in the
//! middle of a stream still fails loudly.
//!
//! ## Relation to the ring-backed [`Recorder`]
//!
//! Counters, gauges, timers, and the profiling series accumulate in the
//! same fields either way (their JSONL form is cumulative) and are written
//! as the end-of-run trailer by [`Recorder::finish`] — the same trailer
//! [`Recorder::to_jsonl`] ends with. A
//! finished streamed trace of a run is therefore **byte-identical** to the
//! post-hoc dump of a ring-backed recorder attached to the same seeded
//! run, as long as the ring never wrapped (the stream has no ring: nothing
//! is ever dropped). The workspace property tests pin this.

use crate::event::Event;
use crate::recorder::{EventLog, Record, Recorder};
use std::io::{self, Write};

/// A [`Recorder`] that streams events to a writer as JSONL while the run
/// is in flight, and writes the cumulative trailer on
/// [`Recorder::finish`].
///
/// I/O errors do not panic the instrumented run: the log latches the
/// first error, stops writing, and surfaces it from [`Recorder::finish`]
/// (or [`JsonlLog::io_error`] mid-run).
pub type StreamSink<W> = Recorder<JsonlLog<W>>;

/// The streaming [`EventLog`]: each event becomes one [`Record::Event`]
/// line, flushed to the writer after every round end and churn episode.
/// Dropping it unfinished (e.g. a panicking run) still pushes the buffered
/// complete lines — but *no trailer*, which is how a reader tells an
/// interrupted run from a finished one.
#[derive(Debug)]
pub struct JsonlLog<W: Write> {
    /// `None` once [`Recorder::finish`] has handed the writer back.
    writer: Option<W>,
    /// Pending complete lines, cut only at newline boundaries.
    buf: String,
    recorded: u64,
    failed: Option<io::Error>,
}

impl<W: Write> JsonlLog<W> {
    /// The first I/O error hit while streaming, if any. Once set, the log
    /// stops writing (metrics keep accumulating) and [`Recorder::finish`]
    /// returns the error.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.failed.as_ref()
    }

    /// Push the buffered complete lines to the writer and flush it.
    fn flush(&mut self) {
        if let (None, Some(w)) = (&self.failed, self.writer.as_mut()) {
            let result = w.write_all(self.buf.as_bytes()).and_then(|()| w.flush());
            self.failed = result.err();
        }
        self.buf.clear();
    }

    #[cfg(test)]
    fn written(&self) -> &W {
        self.writer.as_ref().expect("writer present until finish")
    }
}

impl<W: Write> EventLog for JsonlLog<W> {
    fn record(&mut self, event: Event) {
        let seq = self.recorded;
        self.recorded += 1;
        if self.failed.is_none() {
            Record::Event { seq, event }.write_line(&mut self.buf);
        }
        // round ends make whole rounds visible to a tailing reader; churn
        // episodes bound the interesting windows of a long run
        if matches!(event, Event::RoundEnd { .. } | Event::ChurnEpisode { .. }) {
            self.flush();
        }
    }

    fn accounting(&self) -> (u64, u64) {
        (self.recorded, 0)
    }
}

impl<W: Write> Drop for JsonlLog<W> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.flush();
        }
    }
}

impl<W: Write> Recorder<JsonlLog<W>> {
    /// A streaming recorder writing to `writer`.
    pub fn new(writer: W) -> Self {
        Self::with_log(JsonlLog {
            writer: Some(writer),
            buf: String::new(),
            recorded: 0,
            failed: None,
        })
    }

    /// Write the end-of-run trailer (ring accounting with zero drops —
    /// the stream keeps everything — then the cumulative records), flush,
    /// and hand the writer back.
    ///
    /// # Errors
    /// Returns the first I/O error hit at any point while streaming.
    pub fn finish(mut self) -> io::Result<W> {
        let mut trailer = std::mem::take(&mut self.events.buf);
        self.write_trailer(&mut trailer);
        let log = &mut self.events;
        log.buf = trailer;
        log.flush();
        match log.failed.take() {
            Some(e) => Err(e),
            None => Ok(log.writer.take().expect("writer present until finish")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Summary;
    use crate::{Counter, Gauge, Phase, Sink, SpanRecord, TopKEntry};

    /// A writer that fails after `ok_writes` successful calls.
    struct FlakyWriter {
        ok_writes: usize,
        written: Vec<u8>,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "flaky"));
            }
            self.ok_writes -= 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive<S: Sink>(sink: &mut S, rounds: u64) {
        for round in 0..rounds {
            sink.event(Event::RoundStart {
                round,
                active: 10 - round,
            });
            sink.add(Counter::Rounds, 1);
            sink.add(Counter::Migrations, 2);
            sink.time(Phase::Decide, 1_000 + round);
            sink.set(Gauge::Unsatisfied, 9 - round);
            sink.shard_round(&[800 + round, 1_200 + round], &[40 + round, 60 + round]);
            sink.latency(crate::profile::REQUEST_HIST_NAME, 3_000 + round);
            sink.span(&SpanRecord {
                id: round,
                op: crate::span::SPAN_OP_PLACE.into(),
                ticket: Some(round),
                class: Some(round % 3),
                verdict: "admitted".into(),
                probes: 2,
                headroom: vec![5 - round as i64, 2],
                resource: Some(round % 4),
                from: None,
                parse_ns: 90 + round,
                admit_ns: 700 + round,
                probe_ns: 400 + round,
                reply_ns: 60 + round,
                total_ns: 900 + round,
            });
            sink.topk(
                round,
                &[
                    TopKEntry {
                        resource: 1,
                        load: 30 - round,
                    },
                    TopKEntry {
                        resource: 4,
                        load: 20 - round,
                    },
                ],
            );
            sink.event(Event::RoundEnd {
                round,
                migrations: 2,
                unsatisfied: 9 - round,
                overload: Some(20 - round),
            });
        }
    }

    #[test]
    fn finished_stream_matches_recorder_dump_bytes() {
        let mut stream = StreamSink::new(Vec::new());
        let mut rec = Recorder::default();
        drive(&mut stream, 5);
        drive(&mut rec, 5);
        let streamed = String::from_utf8(stream.finish().unwrap()).unwrap();
        assert_eq!(streamed, rec.to_jsonl());
    }

    #[test]
    fn round_end_flushes_and_other_events_buffer() {
        let mut stream = StreamSink::new(Vec::new());
        stream.event(Event::RoundStart {
            round: 0,
            active: 3,
        });
        // no round end yet: nothing pushed
        assert!(stream.events().written().is_empty());
        assert!(!stream.events.buf.is_empty());
        stream.event(Event::RoundEnd {
            round: 0,
            migrations: 1,
            unsatisfied: 2,
            overload: None,
        });
        // the round end drains the buffer
        assert!(!stream.events().written().is_empty());
        assert!(stream.events.buf.is_empty());
    }

    #[test]
    fn flushes_end_on_line_boundaries() {
        let mut stream = StreamSink::new(Vec::new());
        drive(&mut stream, 3);
        assert_eq!(stream.events().written().last(), Some(&b'\n'));
        let text = std::str::from_utf8(stream.events().written()).unwrap();
        // mid-run bytes (no trailer yet) parse as a valid, non-truncated
        // prefix of the run
        let s = Summary::from_jsonl(text).unwrap();
        assert!(!s.truncated);
        assert_eq!(s.rounds, 3); // falls back to counting RoundEnd events
    }

    #[test]
    fn churn_episode_forces_flush() {
        let mut stream = StreamSink::new(Vec::new());
        stream.event(Event::ChurnEpisode {
            episode: 0,
            displaced: 7,
        });
        assert!(!stream.events().written().is_empty());
        assert!(stream.events.buf.is_empty());
    }

    #[test]
    fn io_error_is_latched_and_surfaced_at_finish() {
        let writer = FlakyWriter {
            ok_writes: 1,
            written: Vec::new(),
        };
        let mut stream = StreamSink::new(writer);
        drive(&mut stream, 3);
        assert!(stream.events().io_error().is_some());
        // metrics still accumulate after the failure
        assert_eq!(stream.counter(Counter::Rounds), 3);
        assert!(stream.finish().is_err());
    }

    #[test]
    fn drop_pushes_buffered_lines_without_trailer() {
        let mut written = Vec::new();
        {
            let mut stream = StreamSink::new(&mut written);
            drive(&mut stream, 2);
            // a round start after the last round end is still buffered
            // when the sink is dropped
            stream.event(Event::RoundStart {
                round: 2,
                active: 8,
            });
            assert!(!stream.events.buf.is_empty());
        }
        let text = String::from_utf8(written).unwrap();
        let s = Summary::from_jsonl(&text).unwrap();
        assert_eq!(s.events_by_kind["RoundEnd"], 2);
        assert_eq!(s.events_by_kind["RoundStart"], 3);
        // no trailer: counters absent, ring accounting untouched
        assert!(s.counters.is_empty());
        assert_eq!(s.ring, (0, 0));
    }
}
