//! Stale observations: the closed loop when users decide on outdated or
//! lost load snapshots (experiments E7 and E16, theorem T4).
//!
//! The users are split into [`USER_BLOCKS`] contiguous blocks and the
//! resources into [`RESOURCE_BLOCKS`]. At the start of round `t` every
//! resource block publishes its slice of the true loads to every user
//! block, and each user block keeps the snapshots it assembled in the
//! last `D + 1` rounds:
//!
//! * **loss** — slice `(i, j, t)`, from resource block `i` to user block
//!   `j`, is lost with probability `p` when `t ≥ 1`; the block then holds
//!   round `t − 1`'s loads for those resources;
//! * **delay** — user `u` decides in round `t` against its block's
//!   snapshot of round `t − d`, with `d` uniform in `0..=min(D, t)`.
//!
//! Both draws come from counter-based streams salted apart from the
//! protocol's own, so staleness never perturbs a user's coin flips. As in
//! the fresh loop, legality is checked on the true loads before each
//! round, so a run stops at the first legal state. A stale observer can
//! act while satisfied, so every round decides all `n` users with
//! [`decide_user`]: neither the SoA kernel nor the active set, whose
//! bitmaps encode fresh satisfaction, runs here.

use crate::run::{emit_round_end, moved_weight, RunConfig, RunOutcome};
use qlb_core::step::decide_user;
use qlb_core::{Demands, Protocol, State, UserId};
use qlb_obs::{timed, Counter, Event, Gauge, Phase, Sink};
use qlb_rng::{mix64_pair, Rng64, RoundStream};

/// User blocks of a stale run; fewer when `n < 4`.
pub const USER_BLOCKS: usize = 4;
/// Resource blocks of a stale run; fewer when `m < 2`.
pub const RESOURCE_BLOCKS: usize = 2;

/// Salt of the per-(user, round) delay stream.
const DELAY_SALT: u64 = 0x0b_5e7d_e1a0;
/// Salt of the per-(slice, round) loss stream.
const STALE_SALT: u64 = 0x10_55;

/// What the users observe: the default is the fresh start-of-round loads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Staleness {
    /// Largest observation delay `D` in rounds.
    pub max_delay: u64,
    /// Probability `p` that a snapshot slice is lost in a round.
    pub loss: f64,
}

impl Staleness {
    /// True when every user observes the fresh loads.
    pub(crate) fn is_fresh(self) -> bool {
        self.max_delay == 0 && self.loss <= 0.0
    }
}

/// The closed loop under `config.staleness`, called by
/// [`run_observed`](crate::run_observed) when it is not fresh. It emits
/// the same round records as the fresh loop, plus
/// [`Counter::SnapshotsSent`] and [`Counter::StaleSnapshots`] per
/// published round and [`Gauge::SnapshotStaleness`], the largest delay
/// drawn in a round. The round a converged run stops at is published too:
/// a distributed implementation learns that the state is legal only after
/// that round's broadcast.
pub(crate) fn run_stale<I: Demands, P: Protocol + ?Sized, S: Sink>(
    inst: &I,
    mut state: State,
    proto: &P,
    config: RunConfig,
    sink: &mut S,
) -> RunOutcome {
    let Staleness { max_delay, loss } = config.staleness;
    let seed = config.seed;
    let base = inst.instance();
    let (n, m) = (base.num_users(), base.num_resources());
    let user_blocks = split(n, USER_BLOCKS.min(n.max(1)));
    let resource_blocks = split(m, RESOURCE_BLOCKS.min(m));
    let slices = (user_blocks.len() * resource_blocks.len()) as u64;
    let (delay_seed, loss_seed) = (mix64_pair(seed, DELAY_SALT), mix64_pair(seed, STALE_SALT));
    let lost = |i: usize, j: usize, round: u64| {
        round >= 1
            && RoundStream::new(loss_seed, (i as u64) << 32 | j as u64, round).bernoulli(loss)
    };
    // snapshots[s % depth][j]: user block j's snapshot of round s, one slot
    // added per round until D + 1 are kept
    let depth = max_delay.saturating_add(1);
    let mut snapshots: Vec<Vec<Vec<u32>>> = Vec::new();
    // the true loads at the start of the previous round
    let mut previous = state.loads().to_vec();
    let mut moves = Vec::new();
    let (mut rounds, mut migrations, mut weight_moved) = (0, 0, 0);
    let mut converged = state.is_legal(inst);
    let mut entering = state.num_unsatisfied(inst) as u64;

    while !converged && rounds < config.max_rounds {
        let t = rounds;
        if (snapshots.len() as u64) < depth {
            snapshots.push(vec![vec![0; m]; user_blocks.len()]);
        }
        let mut stale_slices = 0;
        for (j, snapshot) in snapshots[(t % depth) as usize].iter_mut().enumerate() {
            for (i, &(lo, hi)) in resource_blocks.iter().enumerate() {
                let source = if lost(i, j, t) {
                    stale_slices += 1;
                    &previous
                } else {
                    state.loads()
                };
                snapshot[lo..hi].copy_from_slice(&source[lo..hi]);
            }
        }
        if S::ENABLED {
            sink.event(Event::RoundStart {
                round: t,
                active: entering,
            });
            sink.add(Counter::SnapshotsSent, slices);
            sink.add(Counter::StaleSnapshots, stale_slices);
        }
        let mut staleness = 0;
        timed(sink, Phase::Decide, || {
            moves.clear();
            for (j, &(lo, hi)) in user_blocks.iter().enumerate() {
                for u in lo..hi {
                    let d = if max_delay == 0 {
                        0
                    } else {
                        RoundStream::new(delay_seed, u as u64, t).uniform(max_delay.min(t) + 1)
                    };
                    staleness = staleness.max(d);
                    let observed = &snapshots[((t - d) % depth) as usize][j];
                    let own = state.assignment()[u];
                    let user = UserId(u as u32);
                    moves.extend(decide_user(inst, observed, own, user, proto, seed, t));
                }
            }
        });
        let batch = moves.len() as u64;
        let batch_weight = moved_weight(inst, &moves);
        if S::ENABLED {
            sink.add(Counter::DenseRounds, 1);
            sink.event(Event::MigrationBatch {
                round: t,
                size: batch,
            });
            sink.set(Gauge::SnapshotStaleness, staleness);
        }
        previous.copy_from_slice(state.loads());
        timed(sink, Phase::Apply, || state.apply_moves(inst, &moves));
        rounds += 1;
        migrations += batch;
        weight_moved += batch_weight;
        converged = timed(sink, Phase::Convergence, || state.is_legal(inst));
        if S::ENABLED {
            let unsatisfied = state.num_unsatisfied(inst) as u64;
            let users = |f: &mut dyn FnMut(u32)| {
                for u in base.users().filter(|&u| !state.is_satisfied(inst, u)) {
                    f(u.0);
                }
            };
            emit_round_end(
                inst,
                state.loads(),
                sink,
                t,
                batch,
                batch_weight,
                converged,
                unsatisfied,
                &users,
                config.topk_resources,
            );
            entering = unsatisfied;
        }
    }
    if converged && S::ENABLED {
        let stop_lost = (0..resource_blocks.len())
            .flat_map(|i| (0..user_blocks.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| lost(i, j, rounds))
            .count();
        sink.add(Counter::SnapshotsSent, slices);
        sink.add(Counter::StaleSnapshots, stop_lost as u64);
    }
    RunOutcome {
        converged,
        rounds,
        migrations,
        weight_moved,
        state,
    }
}

/// Split `n` items into `k` contiguous ranges of `⌈n / k⌉`, dropping the
/// empty ones at the end (one empty range when `n == 0`).
fn split(n: usize, k: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(k.max(1)).max(1);
    (0..k)
        .map(|i| ((i * chunk).min(n), ((i + 1) * chunk).min(n)))
        .filter(|(lo, hi)| lo < hi || n == 0)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::run::run_observed;
    use crate::trace::Trace;
    use qlb_core::protocol::{Decision, LocalView};
    use qlb_core::step::reference_run;
    use qlb_core::{registry, Instance, ResourceId, SlackDamped};
    use qlb_obs::NoopSink;

    /// A protocol that also moves satisfied users: toward a target with
    /// room for two more, on a fair coin.
    pub(crate) struct Drift;

    impl Protocol for Drift {
        fn name(&self) -> &'static str {
            "drift"
        }
        fn decide(&self, view: &LocalView, rng: &mut RoundStream) -> Decision {
            if view.target.load + 2 <= view.target.cap && rng.bernoulli(0.5) {
                Decision::Move
            } else {
                Decision::Stay
            }
        }
        fn acts_when_satisfied(&self) -> bool {
            true
        }
    }

    fn hotspot(n: usize, m: usize, cap: u32) -> (Instance, State) {
        let inst = Instance::uniform(n, m, cap).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    /// Fresh observations make the stale loop the dense reference loop,
    /// whatever the protocol, budget or block clamping.
    #[test]
    fn fresh_stale_loop_is_the_reference_loop() {
        for (n, m, cap) in [(300, 16, 25), (3, 1, 3), (7, 5, 2)] {
            let (inst, start) = hotspot(n, m, cap);
            let mut protos = registry(&inst);
            protos.push(Box::new(Drift));
            for proto in &protos {
                for budget in [0, 1, 3, 40] {
                    let label = format!("{} n={n} budget={budget}", proto.name());
                    let config = RunConfig::new(5, budget);
                    let want =
                        reference_run(&inst, start.clone(), proto.as_ref(), 5, budget, |_, _| {});
                    let mut trace = Trace::new(&inst, &start);
                    let got = run_stale(&inst, start.clone(), proto.as_ref(), config, &mut trace);
                    assert_eq!(got.converged, want.converged, "{label}");
                    assert_eq!(got.rounds, want.rounds, "{label}");
                    assert_eq!(got.migrations, want.migrations, "{label}");
                    assert_eq!(got.state, want.state, "{label}");
                    assert_eq!(trace.rounds.len() as u64, got.rounds + 1, "{label}");
                    let plain =
                        run_stale(&inst, start.clone(), proto.as_ref(), config, &mut NoopSink);
                    assert_eq!(plain.state, got.state, "{label}");
                }
            }
        }
    }

    /// A stale run stops at the first legal state and counts every move it
    /// applied: a converged outcome is legal, and the migrations are the
    /// sum of the trace's per-round batches.
    #[test]
    fn stale_runs_stop_legal_and_count_every_move() {
        let (inst, start) = hotspot(512, 64, 10);
        for max_delay in [1, 8] {
            for seed in 0..6 {
                let config = RunConfig::new(seed, 10_000).with_staleness(max_delay, 0.5);
                let mut trace = Trace::new(&inst, &start);
                let out = run_observed(
                    &inst,
                    start.clone(),
                    &SlackDamped::default(),
                    config,
                    &mut trace,
                );
                let label = format!("D={max_delay} seed={seed}");
                assert!(out.converged, "{label}");
                assert!(out.state.is_legal(&inst), "{label}");
                let batches: u64 = trace.rounds.iter().map(|r| r.migrations).sum();
                assert_eq!(out.migrations, batches, "{label}");
                assert_eq!(trace.rounds.last().unwrap().unsatisfied, 0, "{label}");
            }
        }
    }

    #[test]
    fn split_clamps_like_the_block_layout() {
        assert_eq!(split(10, 4), vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(split(6, 4), vec![(0, 2), (2, 4), (4, 6)]);
        assert_eq!(split(1, 1), vec![(0, 1)]);
        assert_eq!(split(0, 1), vec![(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_loss_rejected() {
        let _ = RunConfig::new(1, 1).with_staleness(0, 1.5);
    }
}
