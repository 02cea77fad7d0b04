//! Block decisions: the batched form of the per-user protocol step.
//!
//! Production rounds gather up to 256 unsatisfied users at a time, fold
//! their stream bases in one call ([`qlb_rng::fold_round_bases`]) and hand
//! the block to [`Protocol::decide_block`] as plain slices. A protocol may
//! decide the whole block in one pass ([`SlackDamped`](super::SlackDamped)
//! does, in AVX-512 lanes); the default runs the per-user step
//! [`decide_unsatisfied_user`] on each user, so every decision stays
//! draw-for-draw what the oracles ([`decide_user`](crate::step::decide_user),
//! [`reference_run`](crate::step::reference_run)) compute.

use super::restricted::Restricted;
use super::Protocol;
use crate::ids::{ResourceId, UserId};
use crate::instance::{Demands, Instance};
use crate::step::decide_unsatisfied_user;
use qlb_rng::RoundStream;

/// A block of unsatisfied users of one round, as plain slices: the input
/// of [`Protocol::decide_block`]. Entry `i` of every per-user slice
/// belongs to user `users[i]`, and all of them have the same length.
#[derive(Debug, Clone, Copy)]
pub struct UserBlock<'a> {
    /// The instance: the capacity rows ([`Instance::cap_row`]) and each
    /// user's class.
    pub inst: &'a Instance,
    /// The round.
    pub round: u64,
    /// The start-of-round loads, one per resource of `inst`.
    pub loads: &'a [u32],
    /// The users' ids. The caller has applied the satisfaction gate: no
    /// user of the block is satisfied.
    pub users: &'a [u32],
    /// Each user's resource at the start of the round.
    pub own: &'a [ResourceId],
    /// Each user's fresh stream base, [`RoundStream::base`] of
    /// `(seed, user, round)`.
    pub bases: &'a [u64],
    /// Each user's demand: 1 in the unit model.
    pub weights: &'a [u32],
    /// `Some(k)` when an adaptor ([`RestrictTargets`](super::RestrictTargets))
    /// fixes the target sample to one uniform draw over resources `0..k`;
    /// `None` leaves sampling to [`Protocol::sample_target`].
    pub universe: Option<usize>,
}

impl UserBlock<'_> {
    /// The number of users in the block.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.users.len()
    }
}

/// Decide every user of `block` with the per-user step: the default of
/// [`Protocol::decide_block`], and the fallback of protocols whose batched
/// pass the CPU cannot run.
pub(crate) fn decide_each<P: Protocol + ?Sized>(
    proto: &P,
    block: &UserBlock<'_>,
    targets: &mut [ResourceId],
    moves: &mut [bool],
) {
    let len = block.len();
    for (i, (target, moved)) in targets[..len].iter_mut().zip(&mut moves[..len]).enumerate() {
        let to = decide_one(proto, block, i);
        (*target, *moved) = (to.unwrap_or(block.own[i]), to.is_some());
    }
}

/// Decide user `i` of `block` with [`decide_unsatisfied_user`]: `Some` of
/// its new resource iff it moves.
pub(crate) fn decide_one<P: Protocol + ?Sized>(
    proto: &P,
    block: &UserBlock<'_>,
    i: usize,
) -> Option<ResourceId> {
    let inst = OneDemand {
        inst: block.inst,
        weight: block.weights[i],
    };
    let (loads, round) = (block.loads, block.round);
    let (own, user) = (block.own[i], UserId(block.users[i]));
    let mut rng = RoundStream::from_base(block.bases[i]);
    let mv = match block.universe {
        None => decide_unsatisfied_user(&inst, loads, own, user, proto, round, &mut rng),
        Some(real) => {
            let proto = Restricted { inner: proto, real };
            decide_unsatisfied_user(&inst, loads, own, user, &proto, round, &mut rng)
        }
    };
    mv.map(|mv| mv.to)
}

/// The demand of the one user a [`decide_one`] call decides.
struct OneDemand<'a> {
    inst: &'a Instance,
    weight: u32,
}

impl Demands for OneDemand<'_> {
    const UNIT: bool = false;

    fn instance(&self) -> &Instance {
        self.inst
    }

    fn weight(&self, _u: UserId) -> u32 {
        self.weight
    }
}
