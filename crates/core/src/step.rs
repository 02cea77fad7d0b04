//! One synchronous round, factored for executor reuse.
//!
//! All executors — the sequential loop, the threaded engine, and the
//! message-passing runtime — delegate the per-user logic to
//! [`decide_user`], which encodes the protocol contract (who acts, in what
//! draw order) exactly once. Because decisions read only the *start-of-round*
//! congestion and user-private random streams, decisions for different users
//! are independent and can be computed in any order or in parallel; the
//! result is identical by construction.
//!
//! Every kernel is generic over [`Demands`]: the unit
//! [`Instance`](crate::Instance) compiles to the unit model, a weighted instance adds each user's demand
//! to its [`LocalView`].

use crate::active::{ActiveIndex, IndexShard};
use crate::ids::{ResourceId, UserId};
use crate::instance::Demands;
use crate::protocol::{Decision, LocalView, Protocol, ResourceView};
use crate::state::{Move, State};
use qlb_rng::{fold_round_bases, RoundStream};

/// Decide the action of a single user against start-of-round congestion.
///
/// Returns `Some(move)` iff the user migrates this round. Encodes, in
/// order:
/// 1. satisfied users do nothing (and consume no randomness);
/// 2. gated-out classes ([`Protocol::is_active`]) do nothing;
/// 3. the kernel samples a target, then flips its migration coin.
///
/// `loads` must be the congestion vector at the start of the round and
/// `own` the user's resource at the start of the round.
#[inline]
pub fn decide_user<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    loads: &[u32],
    own: ResourceId,
    user: UserId,
    proto: &P,
    seed: u64,
    round: u64,
) -> Option<Move> {
    let base = inst.instance();
    let class = base.class_of(user);
    let own_cap = base.cap(class, own);
    let own_load = loads[own.index()];
    // Satisfied ⇒ inactive, unless the kernel opts into acting while
    // satisfied (diffusion variants). (cap == 0 can never satisfy.)
    let satisfied = own_cap > 0 && own_load <= own_cap;
    if satisfied && !proto.acts_when_satisfied() {
        return None;
    }
    let mut rng = RoundStream::new(seed, user.0 as u64, round);
    decide_unsatisfied_user(inst, loads, own, user, proto, round, &mut rng)
}

/// The post-gate half of [`decide_user`]: class gating, target sampling,
/// and the migration coin, drawing from a caller-supplied stream.
///
/// The caller must already have applied the satisfied-users-do-nothing
/// gate (or the protocol must act while satisfied), and `rng` must be the
/// **fresh** `(seed, user, round)` stream — typically rebuilt from a
/// precomputed base via [`RoundStream::from_base`] by the batched SoA
/// kernel ([`RoundView`](crate::RoundView)). Draw-for-draw identical to
/// the tail of [`decide_user`] by construction.
#[inline]
pub fn decide_unsatisfied_user<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    loads: &[u32],
    own: ResourceId,
    user: UserId,
    proto: &P,
    round: u64,
    rng: &mut RoundStream,
) -> Option<Move> {
    let base = inst.instance();
    let class = base.class_of(user);
    if !proto.is_active(class, round) {
        return None;
    }
    let target = proto.sample_target(base, own, rng);
    if target == own {
        return None;
    }
    let view = LocalView {
        user,
        class,
        weight: inst.weight(user),
        round,
        own: ResourceView {
            id: own,
            load: loads[own.index()],
            cap: base.cap(class, own),
        },
        target: ResourceView {
            id: target,
            load: loads[target.index()],
            cap: base.cap(class, target),
        },
    };
    match proto.decide(&view, rng) {
        Decision::Move => Some(Move {
            user,
            from: own,
            to: target,
        }),
        Decision::Stay => None,
    }
}

/// Decide a full round sequentially, appending migrations to `out`: the
/// dense reference scan, one [`decide_user`] per user.
///
/// No executor runs it: full rounds run the SoA kernel
/// ([`RoundView::decide_shard_into`](crate::RoundView::decide_shard_into)),
/// and [`reference_run`], the tests and the benches compare that kernel
/// against this scan. `out` is cleared first.
pub fn decide_round_into<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: &State,
    proto: &P,
    seed: u64,
    round: u64,
    out: &mut Vec<Move>,
) {
    out.clear();
    let loads = state.loads();
    let assignment = state.assignment();
    for (idx, &own) in assignment.iter().enumerate() {
        let user = UserId(idx as u32);
        if let Some(mv) = decide_user(inst, loads, own, user, proto, seed, round) {
            out.push(mv);
        }
    }
}

/// Decide a full round sequentially (allocating convenience wrapper).
pub fn decide_round<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: &State,
    proto: &P,
    seed: u64,
    round: u64,
) -> Vec<Move> {
    let mut out = Vec::new();
    decide_round_into(inst, state, proto, seed, round, &mut out);
    out
}

/// Result of a run: of [`reference_run`], and of every engine executor.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// True iff a legal state was reached within the round budget.
    pub converged: bool,
    /// Rounds executed (0 if the initial state was already legal).
    pub rounds: u64,
    /// Total migrations applied.
    pub migrations: u64,
    /// Total demand moved (`Σ` over migrations of the mover's weight) —
    /// the transfer cost of the weighted model; equals `migrations` for
    /// unit demand.
    pub weight_moved: u64,
    /// The final state.
    pub state: State,
}

/// The reference run: [`decide_round_into`] and [`State::apply_moves`],
/// round after round, until `state` is legal or `max_rounds` rounds ran;
/// `each_round` sees the state after every round and that round's moves.
/// No executor runs this loop: it is the expected side the executors are
/// tested (and E10 checks them) against. It shares only the per-user
/// protocol step [`decide_unsatisfied_user`] with them, not their
/// satisfaction filter, base fold, sharding, merge or apply.
pub fn reference_run<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    mut state: State,
    proto: &P,
    seed: u64,
    max_rounds: u64,
    mut each_round: impl FnMut(&State, &[Move]),
) -> RunOutcome {
    let (mut rounds, mut migrations, mut weight_moved) = (0, 0, 0);
    let mut moves = Vec::new();
    while rounds < max_rounds && !state.is_legal(inst) {
        decide_round_into(inst, &state, proto, seed, rounds, &mut moves);
        state.apply_moves(inst, &moves);
        rounds += 1;
        migrations += moves.len() as u64;
        weight_moved += moves
            .iter()
            .map(|mv| inst.weight(mv.user) as u64)
            .sum::<u64>();
        each_round(&state, &moves);
    }
    RunOutcome {
        converged: state.is_legal(inst),
        rounds,
        migrations,
        weight_moved,
        state,
    }
}

/// Decide a full round by visiting **only the unsatisfied users**, in user
/// order, appending migrations to `out` — the sparse-executor primitive.
///
/// Produces output identical to [`decide_round_into`] whenever the protocol
/// never acts while satisfied ([`Protocol::acts_when_satisfied`] is
/// `false`): satisfied users return `None` from [`decide_user`] before
/// consuming any randomness, so skipping them entirely changes nothing.
/// Class gating ([`Protocol::is_active`]) is applied after the satisfaction
/// gate, so gated protocols remain sound here. Cost is `O(n / 4096 +
/// active)` for the ordered bit scan of the active set plus the per-user
/// kernel work: [`decide_shard_into`] over the index's shards in order.
///
/// `active` must be in sync with `state` (see [`ActiveIndex::apply_moves`]).
///
/// # Panics
/// Debug builds panic if the protocol opts into acting while satisfied —
/// callers must fall back to [`decide_round_into`] for such protocols.
pub fn decide_active_into<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: &State,
    active: &ActiveIndex,
    proto: &P,
    seed: u64,
    round: u64,
    out: &mut Vec<Move>,
) {
    out.clear();
    for shard in active.shards() {
        decide_shard_into(inst, state, shard, proto, seed, round, out);
    }
}

/// Users one block of [`decide_shard_into`] gathers before it folds their
/// random-stream bases in one call (as does pass 2 of
/// [`RoundView::decide_shard_into`](crate::RoundView::decide_shard_into)):
/// the block buffers stay on the stack.
pub(crate) const SHARD_BLOCK: usize = 256;

/// Decide the unsatisfied users of one index shard, in user order,
/// appending migrations to `out` — the per-shard kernel of the sparse
/// executors.
///
/// The shard's ordered bit scan writes blocks of up to 256 user ids
/// straight from its bit words; each block folds its [`RoundStream`] bases
/// with one call to [`qlb_rng::fold_round_bases`] (eight per instruction on
/// AVX-512) and then runs [`decide_unsatisfied_user`] per user with no
/// second satisfaction test: the shard, synced with `state`, holds exactly
/// the unsatisfied users.
/// Concatenating the shards' outputs in order reproduces the sequential
/// active-set scan, since each decision is a pure function of
/// `(seed, user, round)` and the start-of-round loads.
///
/// # Panics
/// Debug builds panic if the protocol acts while satisfied, or if the
/// shard holds a satisfied user.
pub fn decide_shard_into<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: &State,
    shard: &IndexShard,
    proto: &P,
    seed: u64,
    round: u64,
    out: &mut Vec<Move>,
) {
    debug_assert!(
        !proto.acts_when_satisfied(),
        "active-set rounds are unsound for protocols that act while satisfied"
    );
    let mut block = [0u32; SHARD_BLOCK];
    shard.active_blocks(&mut block, |ids| {
        decide_block(inst, state, ids, proto, seed, round, out)
    });
}

/// One block of at most [`SHARD_BLOCK`] user ids of [`decide_shard_into`]
/// or [`decide_users_into`].
#[inline]
fn decide_block<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: &State,
    users: &[u32],
    proto: &P,
    seed: u64,
    round: u64,
    out: &mut Vec<Move>,
) {
    let mut bases = [0u64; SHARD_BLOCK];
    let bases = &mut bases[..users.len()];
    fold_round_bases(seed, round, users, bases);
    let (loads, assignment) = (state.loads(), state.assignment());
    for (&id, &base) in users.iter().zip(bases.iter()) {
        let user = UserId(id);
        let own = assignment[user.index()];
        debug_assert!(!state.is_satisfied(inst, user), "{user} is satisfied");
        let mut rng = RoundStream::from_base(base);
        if let Some(mv) = decide_unsatisfied_user(inst, loads, own, user, proto, round, &mut rng) {
            out.push(mv);
        }
    }
}

/// Decide an explicit, already-ordered user list, such as one slice of the
/// sorted active set.
///
/// `users` is one contiguous slice of the sorted active set (see
/// [`ActiveIndex::sorted_active_into`]); concatenating the outputs of the
/// slices in order reproduces [`decide_active_into`] exactly, because each
/// user's decision is a pure function of `(seed, user, round)` and the
/// start-of-round loads. The users run in blocks of 256 as in
/// [`decide_shard_into`], with no second satisfaction test. The same
/// soundness condition applies: the protocol must not act while satisfied.
///
/// # Panics
/// Debug builds panic if the protocol acts while satisfied, or if `users`
/// holds a satisfied user.
pub fn decide_users_into<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: &State,
    users: &[UserId],
    proto: &P,
    seed: u64,
    round: u64,
    out: &mut Vec<Move>,
) {
    debug_assert!(
        !proto.acts_when_satisfied(),
        "active-set shards are unsound for protocols that act while satisfied"
    );
    let mut block = [0u32; SHARD_BLOCK];
    for chunk in users.chunks(SHARD_BLOCK) {
        let ids = &mut block[..chunk.len()];
        for (id, user) in ids.iter_mut().zip(chunk) {
            *id = user.0;
        }
        decide_block(inst, state, ids, proto, seed, round, out);
    }
}

/// Decide a contiguous user range `[lo, hi)` of a round, appending to `out`
/// — the reference for one shard of the SoA kernel. Equivalent to the
/// corresponding slice of [`decide_round_into`]'s output.
#[allow(clippy::too_many_arguments)]
pub fn decide_range_into<I: Demands, P: Protocol + ?Sized>(
    inst: &I,
    state: &State,
    proto: &P,
    seed: u64,
    round: u64,
    lo: usize,
    hi: usize,
    out: &mut Vec<Move>,
) {
    debug_assert!(lo <= hi && hi <= state.num_users());
    let loads = state.loads();
    let assignment = state.assignment();
    for (idx, &own) in assignment[lo..hi].iter().enumerate() {
        let user = UserId((lo + idx) as u32);
        if let Some(mv) = decide_user(inst, loads, own, user, proto, seed, round) {
            out.push(mv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::protocol::{BlindUniform, SlackDamped, ThresholdLevels};

    #[test]
    fn satisfied_users_never_move() {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let state = State::round_robin(&inst); // legal
        for seed in 0..20 {
            for round in 0..20 {
                assert!(
                    decide_round(&inst, &state, &BlindUniform, seed, round).is_empty(),
                    "satisfied user moved"
                );
            }
        }
    }

    #[test]
    fn moves_reference_current_positions() {
        let inst = Instance::uniform(16, 4, 3).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let moves = decide_round(&inst, &state, &SlackDamped::default(), 7, 0);
        assert!(!moves.is_empty());
        for mv in &moves {
            assert_eq!(mv.from, ResourceId(0));
            assert_ne!(mv.to, mv.from);
        }
    }

    #[test]
    fn deciding_is_order_independent() {
        let inst = Instance::uniform(64, 8, 10).unwrap();
        let state = State::all_on(&inst, ResourceId(3));
        let full = decide_round(&inst, &state, &SlackDamped::default(), 5, 2);
        // Shards concatenated in any split must equal the full decision.
        for split in [1usize, 7, 32, 63] {
            let mut a = Vec::new();
            let mut b = Vec::new();
            decide_range_into(
                &inst,
                &state,
                &SlackDamped::default(),
                5,
                2,
                0,
                split,
                &mut a,
            );
            decide_range_into(
                &inst,
                &state,
                &SlackDamped::default(),
                5,
                2,
                split,
                64,
                &mut b,
            );
            a.extend(b);
            assert_eq!(a, full);
        }
    }

    #[test]
    fn repeat_decisions_are_deterministic() {
        let inst = Instance::uniform(64, 8, 10).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let a = decide_round(&inst, &state, &SlackDamped::default(), 5, 0);
        let b = decide_round(&inst, &state, &SlackDamped::default(), 5, 0);
        assert_eq!(a, b);
        let c = decide_round(&inst, &state, &SlackDamped::default(), 6, 0);
        assert_ne!(a, c, "different seed should alter some decision");
    }

    #[test]
    fn class_gating_blocks_inactive_classes() {
        use crate::instance::InstanceBuilder;
        // Two classes, both overloaded on one resource.
        let inst = InstanceBuilder::new()
            .speeds(vec![1.0, 50.0, 50.0])
            .latency_class(1.0, 10)
            .latency_class(1.0, 10)
            .build()
            .unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let proto = ThresholdLevels::new(2);
        // round 0: only class 0 (users 0..10) may move
        let moves = decide_round(&inst, &state, &proto, 1, 0);
        assert!(moves.iter().all(|mv| mv.user.0 < 10));
        assert!(!moves.is_empty());
        // round 1: only class 1
        let moves = decide_round(&inst, &state, &proto, 1, 1);
        assert!(moves.iter().all(|mv| mv.user.0 >= 10));
    }

    #[test]
    fn dyn_protocol_is_usable() {
        let inst = Instance::uniform(8, 4, 1).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let protos: Vec<Box<dyn Protocol>> =
            vec![Box::new(BlindUniform), Box::new(SlackDamped::default())];
        for p in &protos {
            let _ = decide_round(&inst, &state, p.as_ref(), 1, 0);
        }
    }

    #[test]
    fn weighted_moves_only_into_fitting_targets() {
        use crate::protocol::ConditionalUniform;
        use crate::weighted::WeightedInstance;
        let inst = WeightedInstance::new(vec![6; 8], vec![2; 12]).unwrap(); // γ = 2
        let state = State::all_on(&inst, ResourceId(0));
        let protos: [&dyn Protocol; 2] = [&SlackDamped::default(), &ConditionalUniform];
        for proto in protos {
            for seed in 0..10 {
                let moves = decide_round(&inst, &state, proto, seed, 0);
                assert!(!moves.is_empty());
                assert_eq!(moves, decide_round(&inst, &state, proto, seed, 0));
                for mv in &moves {
                    assert_eq!(mv.from, ResourceId(0));
                    assert!(state.load(mv.to) + inst.weight(mv.user) <= 6);
                }
            }
        }
        // satisfied weighted users do nothing
        let inst = WeightedInstance::new(vec![10, 10], vec![2, 2]).unwrap();
        let state = State::new(&inst, vec![ResourceId(0), ResourceId(1)]).unwrap();
        for seed in 0..10 {
            assert!(decide_round(&inst, &state, &SlackDamped::default(), seed, 0).is_empty());
        }
    }

    #[test]
    fn unit_weights_decide_like_the_unit_model() {
        use crate::weighted::WeightedInstance;
        let wi = WeightedInstance::unit(64, 8, 4).unwrap();
        let ui = Instance::uniform(64, 8, 4).unwrap();
        let state = State::all_on(&ui, ResourceId(0));
        for seed in 0..5 {
            for round in 0..3 {
                let proto = SlackDamped::default();
                assert_eq!(
                    decide_round(&wi, &state, &proto, seed, round),
                    decide_round(&ui, &state, &proto, seed, round),
                    "seed {seed} round {round}"
                );
            }
        }
    }

    #[test]
    fn zero_cap_resource_users_always_unsatisfied() {
        let inst = Instance::with_capacities(4, vec![0, 10]).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        // cap 0 → unsatisfied even though load fits "≤ c" vacuously
        let moves = decide_round(&inst, &state, &SlackDamped::default(), 3, 0);
        assert!(!moves.is_empty());
    }
}
