//! Structured event tracing: typed events in a bounded ring buffer.

use serde::{Deserialize, Serialize};

/// A structured trace event. One vocabulary for every executor and
/// driver; variants carry only derived quantities (never anything a
/// protocol decision depends on), so recording them cannot perturb a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A round is about to be decided. `active` is the number of
    /// unsatisfied users entering the round.
    RoundStart {
        /// Round index (0-based).
        round: u64,
        /// Unsatisfied users entering the round.
        active: u64,
    },
    /// A round's migrations have been applied.
    RoundEnd {
        /// Round index (0-based).
        round: u64,
        /// Migrations applied this round.
        migrations: u64,
        /// Unsatisfied users leaving the round.
        unsatisfied: u64,
        /// Overload potential Φ after the round (single-class runs only).
        overload: Option<u64>,
    },
    /// A round's batch of migrations was produced.
    MigrationBatch {
        /// Round the batch belongs to.
        round: u64,
        /// Number of moves in the batch.
        size: u64,
    },
    /// A convergence check ran.
    ConvergenceCheck {
        /// Round after which the check ran.
        round: u64,
        /// Its verdict.
        converged: bool,
    },
    /// The hybrid executor switched decision strategies.
    ExecutorSwitch {
        /// Round at which the switch takes effect.
        round: u64,
        /// True = dense → sparse (index built); false = running dense.
        sparse: bool,
    },
    /// A churn episode displaced users.
    ChurnEpisode {
        /// Episode index (0-based).
        episode: u64,
        /// Users displaced.
        displaced: u64,
    },
    /// Open-system arrivals were injected this round.
    Arrivals {
        /// Round index.
        round: u64,
        /// Users injected.
        count: u64,
    },
    /// Open-system departures drained this round.
    Departures {
        /// Round index.
        round: u64,
        /// Users drained.
        count: u64,
    },
}

impl Event {
    /// The round this event belongs to, when it has one.
    pub fn round(&self) -> Option<u64> {
        match *self {
            Event::RoundStart { round, .. }
            | Event::RoundEnd { round, .. }
            | Event::MigrationBatch { round, .. }
            | Event::ConvergenceCheck { round, .. }
            | Event::ExecutorSwitch { round, .. }
            | Event::Arrivals { round, .. }
            | Event::Departures { round, .. } => Some(round),
            Event::ChurnEpisode { .. } => None,
        }
    }
}

/// A bounded ring buffer of events. When full, the oldest events are
/// overwritten and counted in [`EventRing::dropped`] — a long run keeps a
/// window of recent history instead of growing without bound.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<(u64, Event)>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    next_seq: u64,
    dropped: u64,
}

/// Default ring capacity: enough for every event of a 100k-round
/// single-executor run (≈5 events/round) without unbounded growth.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 19;

impl Default for EventRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl EventRing {
    /// A ring holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Record an event; returns its sequence number.
    pub fn push(&mut self, event: Event) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push((seq, event));
        } else {
            self.buf[self.head] = (seq, event);
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
        seq
    }

    /// Events currently retained, oldest first, with sequence numbers.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Event)> + '_ {
        let (wrapped, fresh) = self.buf.split_at(self.head);
        fresh.iter().chain(wrapped.iter()).copied()
    }

    /// Events recorded over the ring's lifetime (including dropped ones).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was dropped —
    /// impossible, the ring keeps the newest).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_when_full() {
        let mut ring = EventRing::with_capacity(3);
        for round in 0..5u64 {
            ring.push(Event::RoundStart { round, active: 1 });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.total_recorded(), 5);
        let seqs: Vec<u64> = ring.iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let rounds: Vec<u64> = ring.iter().filter_map(|(_, e)| e.round()).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn ring_preserves_order_before_wrap() {
        let mut ring = EventRing::with_capacity(8);
        ring.push(Event::RoundStart {
            round: 0,
            active: 9,
        });
        ring.push(Event::RoundEnd {
            round: 0,
            migrations: 4,
            unsatisfied: 5,
            overload: None,
        });
        let events: Vec<Event> = ring.iter().map(|(_, e)| e).collect();
        assert!(matches!(events[0], Event::RoundStart { .. }));
        assert!(matches!(events[1], Event::RoundEnd { .. }));
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = [
            Event::RoundStart {
                round: 3,
                active: 17,
            },
            Event::RoundEnd {
                round: 3,
                migrations: 2,
                unsatisfied: 15,
                overload: Some(11),
            },
            Event::ConvergenceCheck {
                round: 3,
                converged: false,
            },
            Event::ExecutorSwitch {
                round: 4,
                sparse: true,
            },
            Event::Arrivals { round: 0, count: 1 },
            Event::ChurnEpisode {
                episode: 2,
                displaced: 40,
            },
        ];
        for ev in events {
            let json = serde_json::to_string(&ev).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev, "{json}");
        }
    }
}
