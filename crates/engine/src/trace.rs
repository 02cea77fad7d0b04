//! Per-round measurement traces.

use qlb_core::{overload_potential, Demands, State};

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
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One entry for the initial state and one per executed round.
    pub rounds: Vec<RoundStats>,
    /// For each user, the last round in which it was observed unsatisfied
    /// (`None` = never unsatisfied). Populated only when user-time tracking
    /// is enabled in the run config; used by the fairness experiment (E12):
    /// a user's *settling time* is `last_unsatisfied + 1`.
    pub last_unsatisfied: Vec<Option<u64>>,
}

impl Trace {
    pub(crate) fn record<I: Demands>(
        &mut self,
        inst: &I,
        state: &State,
        round: u64,
        migrations: u64,
    ) {
        let base = inst.instance();
        let overload = (base.num_classes() == 1).then(|| overload_potential(base, state));
        self.rounds.push(RoundStats {
            round,
            unsatisfied: state.num_unsatisfied(inst) as u64,
            overload,
            migrations,
        });
    }

    pub(crate) fn record_user_times<I: Demands>(&mut self, inst: &I, state: &State, round: u64) {
        let users = inst.instance().users();
        if self.last_unsatisfied.is_empty() {
            self.last_unsatisfied = vec![None; users.len()];
        }
        for u in users {
            if !state.is_satisfied(inst, u) {
                self.last_unsatisfied[u.index()] = Some(round);
            }
        }
    }

    /// Settling time of each user: first round index from which the user
    /// stayed satisfied to the end of the run (0 = satisfied throughout).
    /// Empty unless user-time tracking was enabled.
    pub fn settling_times(&self) -> Vec<u64> {
        self.last_unsatisfied
            .iter()
            .map(|r| r.map_or(0, |x| x + 1))
            .collect()
    }

    /// The overload-potential series, if single-class.
    pub fn overload_series(&self) -> Option<Vec<u64>> {
        self.rounds.iter().map(|r| r.overload).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_core::{Instance, ResourceId};

    #[test]
    fn record_tracks_rounds_and_overload() {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let hot = State::all_on(&inst, ResourceId(0));
        let mut t = Trace::default();
        t.record(&inst, &hot, 0, 0);
        assert_eq!(t.rounds.len(), 1);
        assert_eq!(t.rounds[0].unsatisfied, 8);
        assert_eq!(t.rounds[0].overload, Some(5));
        assert_eq!(t.overload_series(), Some(vec![5]));
    }

    #[test]
    fn user_times_track_last_unsatisfied() {
        let inst = Instance::uniform(4, 2, 2).unwrap();
        let hot = State::all_on(&inst, ResourceId(0));
        let legal = State::round_robin(&inst);
        let mut t = Trace::default();
        t.record_user_times(&inst, &hot, 0); // everyone unsatisfied
        t.record_user_times(&inst, &legal, 1); // nobody
        assert_eq!(t.last_unsatisfied, vec![Some(0); 4]);
        assert_eq!(t.settling_times(), vec![1; 4]);
    }

    #[test]
    fn settling_time_zero_for_always_satisfied() {
        let inst = Instance::uniform(4, 2, 2).unwrap();
        let legal = State::round_robin(&inst);
        let mut t = Trace::default();
        t.record_user_times(&inst, &legal, 0);
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
        let mut t = Trace::default();
        t.record(&inst, &s, 0, 0);
        assert_eq!(t.rounds[0].overload, None);
        assert_eq!(t.overload_series(), None);
    }
}
