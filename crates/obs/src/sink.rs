//! The [`Sink`] trait: the single emission point the instrumented crates
//! compile against.
//!
//! Executors take a `&mut S` where `S: Sink` and are monomorphized per
//! sink — there is **no `dyn` on the hot path**. The associated constant
//! [`Sink::ENABLED`] lets emission sites guard the *derivation* of a
//! payload (`if S::ENABLED { … }`), so a [`NoopSink`] run compiles to the
//! uninstrumented loop: the branch is constant-folded and the empty inline
//! methods disappear.

use crate::event::Event;
use crate::metrics::{Counter, Gauge};
use crate::profile::TopKEntry;
use crate::span::SpanRecord;
use crate::timers::Phase;
use crate::window::StatsSnapshot;
use std::time::Instant;

/// A delta-compressed assignment snapshot offered to a sink (borrowed;
/// recording sinks copy what they retain).
///
/// The payload is an opaque `qlb-core` `StateDelta` wire blob
/// (`StateDelta::to_bytes`) — this crate does not depend on `qlb-core`,
/// so the fields a reader needs without decoding ride alongside the raw
/// bytes. Like every emission, snapshots are derived data only: re-running
/// the seed reproduces them.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSnapshot<'a> {
    /// Round (or serve-daemon op sequence) the snapshot describes.
    pub round: u64,
    /// Generation the delta applies on top of (`0` and `full` snapshots
    /// apply anywhere).
    pub base_gen: u64,
    /// Generation reached after applying the delta.
    pub gen: u64,
    /// Users covered by the underlying assignment array.
    pub users: u64,
    /// Users whose assignment the delta changes.
    pub changed: u64,
    /// The serialized `StateDelta` (version, flags, generations, counts,
    /// varint run-length payload).
    pub bytes: &'a [u8],
}

/// A walk over user ids: calling it passes each id, in increasing order,
/// to its argument. See [`Sink::unsatisfied_users`].
pub type UserWalk<'a> = dyn Fn(&mut dyn FnMut(u32)) + 'a;

/// Consumer of observability emissions.
///
/// Implementations must be pure observers: a sink receives derived
/// quantities and must never influence protocol decisions (the workspace
/// property tests enforce this by asserting bit-identical trajectories
/// with and without a recording sink).
pub trait Sink {
    /// Whether this sink records anything. Emission sites use this to skip
    /// computing payloads; `false` makes instrumentation compile away.
    const ENABLED: bool;

    /// Record a structured event.
    fn event(&mut self, ev: Event);

    /// Add to a counter.
    fn add(&mut self, c: Counter, delta: u64);

    /// Set a gauge.
    fn set(&mut self, g: Gauge, value: u64);

    /// Record a phase timing in nanoseconds.
    fn time(&mut self, p: Phase, ns: u64);

    /// Record one pooled round's per-shard profile: `compute_ns[i]` is
    /// shard `i`'s compute time (clipped to the round's wall time by the
    /// pool), `wake_ns[i]` its dispatch wake latency. Default: ignored —
    /// only the recording sinks accumulate
    /// [`ShardTimers`](crate::profile::ShardTimers).
    #[inline]
    fn shard_round(&mut self, _compute_ns: &[u64], _wake_ns: &[u64]) {}

    /// Offer a round's top-k congestion sample (hottest resources by
    /// load). Default: ignored — the recording sinks retain a decimated
    /// [`TopKSeries`](crate::profile::TopKSeries).
    #[inline]
    fn topk(&mut self, _round: u64, _entries: &[TopKEntry]) {}

    /// Record one sample of a named latency series (e.g. the serve
    /// daemon's request latency). Default: ignored — the recording sinks
    /// accumulate [`LatencyHists`](crate::profile::LatencyHists) and
    /// export them as trailer records.
    #[inline]
    fn latency(&mut self, _name: &'static str, _ns: u64) {}

    /// Offer a periodic live-telemetry snapshot (the serve daemon's
    /// windowed view). Default: ignored — the recording sinks retain a
    /// decimated [`StatsSeries`](crate::window::StatsSeries) and export it
    /// as trailer records.
    #[inline]
    fn stats_snapshot(&mut self, _snap: &StatsSnapshot) {}

    /// Offer a delta-compressed assignment snapshot (end-of-run state
    /// export, serve-daemon drain). Default:
    /// ignored — the recording sinks retain the series and export it as
    /// hex-payload trailer records.
    #[inline]
    fn delta_snapshot(&mut self, _d: &DeltaSnapshot<'_>) {}

    /// Offer one causal request span (the serve daemon's sampled
    /// per-operation record). Default: ignored — the recording sinks
    /// retain a bounded [`SpanSeries`](crate::span::SpanSeries) and
    /// export it as trailer records.
    #[inline]
    fn span(&mut self, _s: &SpanRecord) {}

    /// Offer the users left unsatisfied at the end of round `round`: the
    /// closed round loop calls this beside each [`Event::RoundEnd`].
    /// `users` walks them in increasing id order, calling its argument
    /// once per user id, in `O(n)` or `O(active)`; it runs only if the
    /// sink calls it, so ignoring the hook costs `O(1)`. Default: ignored
    /// — only a trace of per-user settling times walks it.
    #[inline]
    fn unsatisfied_users(&mut self, _round: u64, _users: &UserWalk<'_>) {}
}

/// Forward each listed `Sink` method to both halves of a pair, `.0` first.
macro_rules! forward_to_both {
    ($($method:ident($($arg:ident: $ty:ty),*);)*) => {$(
        fn $method(&mut self, $($arg: $ty),*) {
            self.0.$method($($arg),*);
            self.1.$method($($arg),*);
        }
    )*};
}

/// Two sinks as one: every emission goes to both, `.0` first. This is how
/// a run feeds a per-round trace and a recorder at once.
impl<A: Sink, B: Sink> Sink for (&mut A, &mut B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    forward_to_both! {
        event(ev: Event);
        add(c: Counter, delta: u64);
        set(g: Gauge, value: u64);
        time(p: Phase, ns: u64);
        shard_round(compute_ns: &[u64], wake_ns: &[u64]);
        topk(round: u64, entries: &[TopKEntry]);
        latency(name: &'static str, ns: u64);
        stats_snapshot(snap: &StatsSnapshot);
        delta_snapshot(d: &DeltaSnapshot<'_>);
        span(s: &SpanRecord);
        unsatisfied_users(round: u64, users: &UserWalk<'_>);
    }
}

/// The default sink: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl Sink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: Event) {}

    #[inline(always)]
    fn add(&mut self, _c: Counter, _delta: u64) {}

    #[inline(always)]
    fn set(&mut self, _g: Gauge, _value: u64) {}

    #[inline(always)]
    fn time(&mut self, _p: Phase, _ns: u64) {}
}

/// Run `f`, recording its wall-clock duration under `phase` — but only
/// when the sink is enabled: a [`NoopSink`] caller performs no clock
/// reads at all (monotonic clock calls are cheap but not free, and the
/// round loop is the hot path).
#[inline]
pub fn timed<S: Sink, R>(sink: &mut S, phase: Phase, f: impl FnOnce() -> R) -> R {
    if S::ENABLED {
        let start = Instant::now();
        let result = f();
        sink.time(phase, start.elapsed().as_nanos() as u64);
        result
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn noop_sink_is_disabled() {
        const { assert!(!NoopSink::ENABLED) };
        // and calling it is fine
        let mut s = NoopSink;
        s.add(Counter::Rounds, 1);
        s.set(Gauge::Unsatisfied, 1);
        s.time(Phase::Decide, 1);
        s.event(Event::RoundStart {
            round: 0,
            active: 0,
        });
    }

    #[test]
    fn timed_skips_clock_for_noop() {
        let mut s = NoopSink;
        let r = timed(&mut s, Phase::Decide, || 41 + 1);
        assert_eq!(r, 42);
    }

    /// Keeps what the hook offers.
    #[derive(Default)]
    struct UserLog(Vec<(u64, u32)>);

    impl Sink for UserLog {
        const ENABLED: bool = true;
        fn event(&mut self, _ev: Event) {}
        fn add(&mut self, _c: Counter, _delta: u64) {}
        fn set(&mut self, _g: Gauge, _value: u64) {}
        fn time(&mut self, _p: Phase, _ns: u64) {}
        fn unsatisfied_users(&mut self, round: u64, users: &UserWalk<'_>) {
            users(&mut |u| self.0.push((round, u)));
        }
    }

    #[test]
    fn pair_feeds_both_sides() {
        const { assert!(!<(&mut NoopSink, &mut NoopSink)>::ENABLED) };
        const { assert!(<(&mut NoopSink, &mut Recorder)>::ENABLED) };
        let (mut a, mut b) = (UserLog::default(), UserLog::default());
        (&mut a, &mut b).unsatisfied_users(3, &|f| [1, 4].into_iter().for_each(&mut *f));
        assert_eq!(a.0, [(3, 1), (3, 4)]);
        assert_eq!(b.0, a.0);

        let mut rec = Recorder::default();
        let mut pair = (&mut a, &mut rec);
        pair.add(Counter::Rounds, 2);
        pair.set(Gauge::Unsatisfied, 5);
        pair.time(Phase::Apply, 7);
        pair.event(Event::ConvergenceCheck {
            round: 0,
            converged: false,
        });
        pair.unsatisfied_users(4, &|f| f(9));
        assert_eq!(rec.counter(Counter::Rounds), 2);
        assert_eq!(rec.gauge(Gauge::Unsatisfied), 5);
        assert_eq!(rec.timers().histogram(Phase::Apply).count(), 1);
        assert_eq!(rec.events().len(), 1);
        assert_eq!(a.0.last(), Some(&(4, 9)));
    }

    #[test]
    fn timed_records_for_recorder() {
        let mut rec = Recorder::default();
        let r = timed(&mut rec, Phase::Apply, || "done");
        assert_eq!(r, "done");
        assert_eq!(rec.timers().histogram(Phase::Apply).count(), 1);
    }
}
