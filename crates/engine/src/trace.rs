//! Per-round measurement traces.

use qlb_core::{overload_potential, Demands, State};
use qlb_obs::{Counter, Event, Gauge, Phase, Sink, UserWalk};

/// Snapshot of the system after one round (or of the initial state, for
/// `round == 0` entries in a [`Trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Rounds executed so far (0 = initial state).
    pub round: u64,
    /// Number of unsatisfied users.
    pub unsatisfied: u64,
    /// Overload potential `Φ` (single-class instances; `None` otherwise).
    pub overload: Option<u64>,
    /// Migrations applied in this round (0 for the initial entry).
    pub migrations: u64,
}

/// A per-round trace of a run, plus optional per-user satisfaction times.
///
/// A trace is a [`Sink`]: build it from the start state, hand it (or the
/// pair of it and another sink) to [`run_observed`](crate::run_observed),
/// and each [`Event::RoundEnd`] appends that round's entry.
#[derive(Debug, Clone)]
pub struct Trace {
    /// One entry for the initial state and one per executed round.
    pub rounds: Vec<RoundStats>,
    /// For each user, the last round in which it was observed unsatisfied
    /// (`None` = never unsatisfied). Filled only by a trace built with
    /// [`Trace::with_settling_times`]; used by the fairness experiment (E12):
    /// a user's *settling time* is `last_unsatisfied + 1`.
    pub last_unsatisfied: Vec<Option<u64>>,
}

impl Trace {
    /// A trace whose round-0 entry describes `state`, the run's start.
    pub fn new<I: Demands>(inst: &I, state: &State) -> Self {
        let base = inst.instance();
        let overload = (base.num_classes() == 1).then(|| overload_potential(base, state));
        let mut trace = Self {
            rounds: Vec::new(),
            last_unsatisfied: Vec::new(),
        };
        // pushed rather than `vec![..]`, so the first allocation has room
        // for the next rounds too
        trace.rounds.push(RoundStats {
            round: 0,
            unsatisfied: state.num_unsatisfied(inst) as u64,
            overload,
            migrations: 0,
        });
        trace
    }

    /// [`Trace::new`], also tracking each user's last unsatisfied round,
    /// fed by [`Sink::unsatisfied_users`] (`O(n)` per full round).
    pub fn with_settling_times<I: Demands>(inst: &I, state: &State) -> Self {
        let last_unsatisfied = inst
            .instance()
            .users()
            .map(|u| (!state.is_satisfied(inst, u)).then_some(0))
            .collect();
        Self {
            last_unsatisfied,
            ..Self::new(inst, state)
        }
    }

    /// Settling time of each user: first round index from which the user
    /// stayed satisfied to the end of the run (0 = satisfied throughout).
    /// Empty unless built by [`Trace::with_settling_times`].
    pub fn settling_times(&self) -> Vec<u64> {
        self.last_unsatisfied
            .iter()
            .map(|r| r.map_or(0, |x| x + 1))
            .collect()
    }
}

impl Sink for Trace {
    const ENABLED: bool = true;

    fn event(&mut self, ev: Event) {
        if let Event::RoundEnd {
            round,
            migrations,
            unsatisfied,
            overload,
        } = ev
        {
            self.rounds.push(RoundStats {
                round: round + 1,
                unsatisfied,
                overload,
                migrations,
            });
        }
    }

    fn add(&mut self, _c: Counter, _delta: u64) {}

    fn set(&mut self, _g: Gauge, _value: u64) {}

    fn time(&mut self, _p: Phase, _ns: u64) {}

    fn unsatisfied_users(&mut self, round: u64, users: &UserWalk<'_>) {
        // empty unless user times are tracked
        if !self.last_unsatisfied.is_empty() {
            users(&mut |u| self.last_unsatisfied[u as usize] = Some(round + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_core::{Instance, ResourceId};

    fn round_end(round: u64, unsatisfied: u64, overload: Option<u64>) -> Event {
        Event::RoundEnd {
            round,
            migrations: 3,
            unsatisfied,
            overload,
        }
    }

    #[test]
    fn new_records_start_and_round_ends_append() {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let hot = State::all_on(&inst, ResourceId(0));
        let mut t = Trace::new(&inst, &hot);
        assert_eq!(t.rounds.len(), 1);
        assert_eq!(t.rounds[0].round, 0);
        assert_eq!(t.rounds[0].unsatisfied, 8);
        assert_eq!(t.rounds[0].overload, Some(5));
        assert_eq!(t.rounds[0].migrations, 0);
        assert!(t.settling_times().is_empty());
        t.event(Event::RoundStart {
            round: 0,
            active: 8,
        });
        t.event(round_end(0, 2, Some(1)));
        t.unsatisfied_users(0, &|f| f(0)); // not tracked: ignored
        let want = RoundStats {
            round: 1,
            unsatisfied: 2,
            overload: Some(1),
            migrations: 3,
        };
        assert_eq!(t.rounds, [t.rounds[0], want]);
        assert!(t.last_unsatisfied.is_empty());
    }

    #[test]
    fn user_times_track_last_unsatisfied() {
        let inst = Instance::uniform(4, 2, 2).unwrap();
        let hot = State::all_on(&inst, ResourceId(0));
        let mut t = Trace::with_settling_times(&inst, &hot);
        assert_eq!(t.last_unsatisfied, vec![Some(0); 4]);
        t.unsatisfied_users(0, &|f| [1, 3].into_iter().for_each(&mut *f));
        t.unsatisfied_users(1, &|_| {}); // nobody
        assert_eq!(t.last_unsatisfied, [Some(0), Some(1), Some(0), Some(1)]);
        assert_eq!(t.settling_times(), [1, 2, 1, 2]);
    }

    #[test]
    fn settling_time_zero_for_always_satisfied() {
        let inst = Instance::uniform(4, 2, 2).unwrap();
        let legal = State::round_robin(&inst);
        let t = Trace::with_settling_times(&inst, &legal);
        assert_eq!(t.settling_times(), vec![0; 4]);
    }

    #[test]
    fn multi_class_overload_is_none() {
        use qlb_core::InstanceBuilder;
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0])
            .latency_class(1.0, 1)
            .latency_class(2.0, 1)
            .build()
            .unwrap();
        let s = State::all_on(&inst, ResourceId(0));
        let t = Trace::new(&inst, &s);
        assert_eq!(t.rounds[0].overload, None);
    }
}
