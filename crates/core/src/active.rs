//! Incrementally-maintained active set: who is unsatisfied *right now*.
//!
//! Dense round execution walks all `n` users even when only a handful are
//! still unsatisfied, so the endgame of a run — the long tail where the last
//! few users hunt for room — costs `O(n)` per round. [`ActiveIndex`] makes
//! that tail `O(active)`: it keeps, on flat arrays only,
//!
//! * per-resource **occupant lists** as intrusive doubly-linked lists
//!   (`head[r]`, `next[u]`, `prev[u]`), and
//! * the **unsatisfied set** as a two-level bitset in user order: one bit
//!   per user, one summary bit per nonzero 64-bit word, and a count.
//!
//! Both are maintained under a batch of [`Move`]s by the **recheck rule**:
//! a user's satisfaction depends solely on its own resource's load and its
//! class threshold, so a user who stayed put can flip only on a resource
//! whose load crossed some class's threshold during the batch. Each touched
//! resource's load is recorded at first touch; its occupants are rechecked
//! only if `satisfies(k, r, old) != satisfies(k, r, new)` for some class
//! `k`, and every mover is then rechecked on its own.
//!
//! # Shards
//!
//! The index is split into disjoint user ranges, one [`IndexShard`] each.
//! Every bound is a multiple of 512 users (or `n`), so that no two shards
//! share a cache line of the bitset. A shard owns everything per-user: its
//! own occupant list heads (`head[r]` for *its* users on `r`), its slice of
//! `next` and `prev`, its bit words with their summary and count, and the
//! movers it has yet to take in. Only the `m` loads in [`State`] are shared,
//! so the recheck rule splits in two:
//!
//! * the **coordinator half** ([`ActiveIndex::apply_staged`]) applies the
//!   batch to `State` and turns the touched resources into the *crossing
//!   list* — those whose load crossed a class threshold — in `O(batch)`;
//! * the **shard half** ([`IndexShard::sync`]) relocates the shard's own
//!   movers, rechecks its own occupants of the crossing list, and rechecks
//!   its own movers.
//!
//! [`ActiveIndex::apply_moves`] composes the halves with the shards synced
//! in order on the caller's thread; [`ActiveIndex::apply_reassignments`]
//! relocates each user as it re-homes it, then rechecks. The engine's
//! sparse rounds instead sync every shard on its own pool worker, in the
//! dispatch that decides the shard's users ([`ActiveIndex::step_shards`]).
//! A build splits the users evenly ([`ActiveIndex::new`] builds one
//! shard); [`ActiveIndex::resplit`] moves the bounds to the unsatisfied.
//!
//! [`ActiveIndex::active`] and [`ActiveIndex::sorted_active_into`] produce
//! user order by an ordered bit scan of the shards in order, which is what
//! the sparse executor uses to stay bit-identical to the dense one.

use crate::ids::{ClassId, ResourceId, UserId};
use crate::instance::{Demands, Instance};
use crate::state::{Move, State};

/// End of an occupant list.
const NIL: u32 = u32::MAX;

/// Every shard bound but `n` is a multiple of this many users: eight
/// 64-bit words, one cache line of the bitset.
const SHARD_ALIGN: usize = 512;

/// Occupant lists plus the unsatisfied set, kept in sync with a [`State`]
/// through [`ActiveIndex::apply_moves`]. Works for unit and weighted
/// instances alike (see [`Demands`]): satisfaction is still a function of
/// the user's resource's load alone.
#[derive(Debug, Clone)]
pub struct ActiveIndex {
    /// The user ranges, in user order: contiguous, covering `[0, n)`, each
    /// bound a multiple of `SHARD_ALIGN` or `n`; any shard may be empty.
    shards: Vec<IndexShard>,
    /// `is_touched[r]` iff `r` is in `touched`.
    is_touched: Vec<bool>,
    /// Resources touched by the current batch, with their load at first
    /// touch (the load before the batch).
    touched: Vec<(ResourceId, u32)>,
    /// Resources whose load crossed a class threshold in the last batch;
    /// every shard rechecks its occupants of them at its next sync.
    crossed: Vec<ResourceId>,
    /// A batch was applied to the state and the shards have not synced.
    unsynced: bool,
}

impl ActiveIndex {
    /// Build a one-shard index for `state` in `O(n + m)`, with no
    /// per-resource allocation.
    pub fn new<I: Demands>(inst: &I, state: &State) -> Self {
        Self::with_shards(inst, state, 1)
    }

    /// Build an index of `shards` user ranges (at least one), the shards
    /// one after another on the caller's thread.
    pub fn with_shards<I: Demands>(inst: &I, state: &State, shards: usize) -> Self {
        Self::build_with(inst, state, shards, |shards, build| {
            shards.iter_mut().for_each(build)
        })
    }

    /// Build an index of `shards` user ranges (at least one), handing the
    /// per-shard build to `run`: it must call `build` exactly once on every
    /// shard of the slice, in any order or in parallel. Each shard's build
    /// is `O(its users + m)`.
    ///
    /// # Panics
    /// Panics if `run` left a shard unbuilt.
    pub fn build_with<I, R>(inst: &I, state: &State, shards: usize, run: R) -> Self
    where
        I: Demands,
        R: FnOnce(&mut [IndexShard], &(dyn Fn(&mut IndexShard) + Sync)),
    {
        let n = state.num_users();
        // the even split, rounded up to whole blocks
        let span = n.div_ceil(shards.max(1)).next_multiple_of(SHARD_ALIGN);
        let lows: Vec<usize> = (0..shards.max(1)).map(|s| (s * span).min(n)).collect();
        Self::build_at(inst, state, &lows, run)
    }

    /// [`ActiveIndex::build_with`] with the shards starting at `lows`
    /// (increasing from 0).
    fn build_at<I, R>(inst: &I, state: &State, lows: &[usize], run: R) -> Self
    where
        I: Demands,
        R: FnOnce(&mut [IndexShard], &(dyn Fn(&mut IndexShard) + Sync)),
    {
        let m = inst.instance().num_resources();
        let his = lows[1..].iter().copied().chain([state.num_users()]);
        let mut shards: Vec<IndexShard> = lows
            .iter()
            .zip(his)
            .map(|(&lo, hi)| IndexShard::unbuilt(lo, hi))
            .collect();
        run(&mut shards, &|shard: &mut IndexShard| {
            shard.build(inst, state)
        });
        assert!(
            shards.iter().all(|s| s.head.len() == m),
            "index shard left unbuilt"
        );
        Self {
            shards,
            is_touched: vec![false; m],
            touched: Vec::new(),
            crossed: Vec::new(),
            unsynced: false,
        }
    }

    /// Move the shard bounds to the unsatisfied users: if the busiest shard
    /// holds more than `factor` times the mean, and bounds at the quantiles
    /// of the unsatisfied users, rounded to multiples of 512, would cut its
    /// count by as much, rebuild every shard of `state` there through `run`
    /// (as in [`ActiveIndex::build_with`]) and return true. The first test
    /// costs `O(shards)`, the second `O(n / 4096 + active)` and keeps a
    /// crowd that 512-user blocks cannot spread from rebuilding round after
    /// round. The rebuild takes in any batch the shards have not synced.
    pub fn resplit<I, R>(&mut self, inst: &I, state: &State, factor: f64, run: R) -> bool
    where
        I: Demands,
        R: FnOnce(&mut [IndexShard], &(dyn Fn(&mut IndexShard) + Sync)),
    {
        let (parts, total) = (self.shards.len(), self.num_active());
        let busiest = self.shards.iter().map(|s| s.count).max().unwrap_or(0) as f64;
        if busiest <= factor * total as f64 / parts as f64 {
            return false;
        }
        let mut lows = vec![0];
        for (i, u) in self.active().enumerate() {
            while lows.len() < parts && i == lows.len() * total / parts {
                let low = (u.index() + SHARD_ALIGN / 2) / SHARD_ALIGN * SHARD_ALIGN;
                lows.push(low.min(state.num_users()));
            }
        }
        let mut counts = vec![0; parts];
        for u in self.active() {
            counts[lows.partition_point(|&lo| lo <= u.index()) - 1] += 1;
        }
        if counts.into_iter().max().unwrap_or(0) as f64 * factor > busiest {
            return false;
        }
        *self = Self::build_at(inst, state, &lows, run);
        true
    }

    /// The shards, in user order.
    #[inline]
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// Number of unsatisfied users as of the last sync.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.shards.iter().map(|s| s.count).sum()
    }

    /// True iff every user is satisfied — equivalent to
    /// [`State::is_legal`] on the synchronized state, in O(shards).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.count == 0)
    }

    /// Is `u` currently unsatisfied?
    #[inline]
    pub fn contains(&self, u: UserId) -> bool {
        self.shards[self.shard_of(u)].contains(u)
    }

    /// The unsatisfied users in increasing user order, in
    /// `O(n / 4096 + active)`.
    pub fn active(&self) -> impl Iterator<Item = UserId> + '_ {
        self.shards.iter().flat_map(IndexShard::active)
    }

    /// Users currently on resource `r`, in `O(shards + occupancy)`. The
    /// order is user order after a build and arbitrary once users move.
    pub fn occupants(&self, r: ResourceId) -> impl Iterator<Item = UserId> + '_ {
        self.shards.iter().flat_map(move |s| s.occupants(r))
    }

    /// Fill `buf` with the unsatisfied users in increasing user order —
    /// the collected form of [`ActiveIndex::active`].
    pub fn sorted_active_into(&self, buf: &mut Vec<UserId>) {
        buf.clear();
        buf.reserve(self.num_active());
        buf.extend(self.active());
    }

    /// Apply a batch of migrations to `state` and bring the index up to
    /// date, in time `O(batch + Σ occupancy of resources whose load
    /// crossed a class threshold)`: both halves of the recheck rule, the
    /// shards synced in order on the caller's thread.
    ///
    /// The batch must have been decided against the current `state`
    /// (synchronous-round semantics), exactly as for [`State::apply_moves`].
    pub fn apply_moves<I: Demands>(&mut self, inst: &I, state: &mut State, moves: &[Move]) {
        for mv in moves {
            self.shard_mut(mv.user).movers.push(*mv);
        }
        self.apply_staged(inst, state, moves);
        self.sync(inst, state);
    }

    /// The coordinator half of [`ActiveIndex::apply_moves`]: apply `moves`
    /// to `state` and compute the crossing list, in `O(batch)`. Each mover
    /// must already be staged in its shard ([`IndexShard::stage`]); the
    /// index answers queries again once every shard has synced, through
    /// [`ActiveIndex::step_shards`] or [`ActiveIndex::sync`].
    ///
    /// # Panics
    /// Debug builds panic if the previous batch was never synced, or if
    /// the shards hold a different number of movers than `moves`.
    pub fn apply_staged<I: Demands>(&mut self, inst: &I, state: &mut State, moves: &[Move]) {
        debug_assert!(!self.unsynced, "previous batch not synced");
        debug_assert_eq!(
            self.shards.iter().map(|s| s.movers.len()).sum::<usize>(),
            moves.len(),
            "staged movers disagree with the batch"
        );
        for mv in moves {
            self.touch(mv.from, state.load(mv.from));
            self.touch(mv.to, state.load(mv.to));
        }
        state.apply_moves(inst, moves);
        self.close_batch(inst.instance(), state);
    }

    /// Apply a batch of **driver-side reassignments** (churn: arrivals,
    /// departures, failures re-homing users) to `state` and the index.
    ///
    /// Unlike [`ActiveIndex::apply_moves`], the changes need not reference
    /// start-of-round positions — each entry `(u, to)` re-homes `u` from
    /// wherever it currently is. Cost is `O(batch + Σ occupancy of touched
    /// resources whose load crossed a class threshold)`. A parking resource
    /// of capacity `u32::MAX`, as the open-system driver and the serving
    /// core keep, satisfies every occupant at every load, so its occupant
    /// list — typically the bulk of the pool — is never rechecked.
    pub fn apply_reassignments(
        &mut self,
        inst: &Instance,
        state: &mut State,
        changes: &[(UserId, ResourceId)],
    ) {
        debug_assert!(!self.unsynced, "previous batch not synced");
        for &(user, to) in changes {
            let from = state.resource_of(user);
            if from == to {
                continue;
            }
            self.touch(from, state.load(from));
            self.touch(to, state.load(to));
            state.reassign(user, to);
            self.shard_mut(user).relocate(user, from, to);
        }
        self.close_batch(inst, state);
        // the shard half, the movers already relocated
        for shard in &mut self.shards {
            shard.recheck_crossed(inst, state, &self.crossed);
        }
        for &(user, _) in changes {
            self.shard_mut(user).recheck(inst, state, user);
        }
        self.crossed.clear();
        self.unsynced = false;
        self.shards
            .iter()
            .for_each(|s| s.debug_assert_synced(inst, state));
    }

    /// Sync every shard with the applied batch, in order on the caller's
    /// thread — the shard half of the recheck rule.
    pub fn sync<I: Demands>(&mut self, inst: &I, state: &State) {
        self.step_shards(|crossed, shards| {
            for shard in shards {
                shard.sync(inst, state, crossed);
            }
        });
    }

    /// Hand the crossing list and the shards to `f`, which must
    /// [`IndexShard::sync`] every shard that owns users exactly once — on
    /// any thread — and may then decide and stage the next batch per shard.
    /// The crossing list is consumed.
    pub fn step_shards<T>(&mut self, f: impl FnOnce(&[ResourceId], &mut [IndexShard]) -> T) -> T {
        let out = f(&self.crossed, &mut self.shards);
        self.crossed.clear();
        self.unsynced = false;
        out
    }

    /// The position of the shard owning `u`: a count, not a search, so the
    /// lookup has no branch to mispredict when owners alternate.
    #[inline]
    fn shard_of(&self, u: UserId) -> usize {
        self.shards.iter().filter(|s| s.hi <= u.index()).count()
    }

    /// The shard owning `u`.
    #[inline]
    fn shard_mut(&mut self, u: UserId) -> &mut IndexShard {
        let s = self.shard_of(u);
        &mut self.shards[s]
    }

    /// Turn the touched resources whose load crossed a class threshold
    /// into the crossing list, and clear the touched set.
    // `#[inline]` here and on the helpers below: the generic
    // `apply_moves` calling them is instantiated in the caller's crate,
    // where a non-inline private helper stays an opaque call
    #[inline]
    fn close_batch(&mut self, inst: &Instance, state: &State) {
        debug_assert!(self.crossed.is_empty(), "crossing list left over");
        for &(r, old) in &self.touched {
            self.is_touched[r.index()] = false;
            if crosses_threshold(inst, r, old, state.load(r)) {
                self.crossed.push(r);
            }
        }
        self.touched.clear();
        self.unsynced = true;
    }

    /// Record `r`, at its current `load`, as touched — once per batch.
    #[inline]
    fn touch(&mut self, r: ResourceId, load: u32) {
        if !self.is_touched[r.index()] {
            self.is_touched[r.index()] = true;
            self.touched.push((r, load));
        }
    }

    /// Brute-force consistency check against a from-scratch recomputation;
    /// used by property tests and debug assertions. `O(n + shards · m)`.
    /// Movers staged for a batch not yet applied are allowed: until
    /// [`ActiveIndex::apply_staged`] the index still describes `state`.
    ///
    /// # Panics
    /// Panics with a description of the first divergence found.
    pub fn assert_consistent<I: Demands>(&self, inst: &I, state: &State) {
        assert!(!self.unsynced, "applied batch not synced");
        assert!(self.touched.is_empty(), "touched set left over");
        let n = state.num_users();
        let mut lo = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            let aligned = shard.hi.is_multiple_of(SHARD_ALIGN) || shard.hi == n;
            assert!(
                shard.lo == lo && lo <= shard.hi && aligned,
                "shard {s} owns {:?}: not {SHARD_ALIGN}-aligned from {lo}",
                shard.range()
            );
            shard.assert_consistent(inst, state);
            lo = shard.hi;
        }
        assert_eq!(lo, n, "shards miss users");
        for r in inst.instance().resource_ids() {
            let weight: u32 = self.occupants(r).map(|u| inst.weight(u)).sum();
            assert_eq!(
                weight,
                state.load(r),
                "occupancy of {r} disagrees with load"
            );
        }
    }
}

/// One user range `[lo, hi)` of an [`ActiveIndex`], with everything the
/// index keeps per user. Aligned to two cache lines so that neighbouring
/// shards' counts, written on every set change, never share a line.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub struct IndexShard {
    lo: usize,
    hi: usize,
    /// `head[r]` = first of this shard's occupants of resource `r`, or
    /// [`NIL`].
    head: Vec<u32>,
    /// `next[u - lo]` = the shard's occupant after `u` on its resource, or
    /// [`NIL`].
    next: Vec<u32>,
    /// `prev[u - lo]` = the shard's occupant before `u` on its resource,
    /// or [`NIL`].
    prev: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set iff user `lo + i` is
    /// unsatisfied.
    bits: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` is set iff `bits[w] != 0`.
    summary: Vec<u64>,
    /// Number of set bits in `bits`.
    count: usize,
    /// Movers of an applied or pending batch the shard has yet to relocate
    /// and recheck.
    movers: Vec<Move>,
}

impl IndexShard {
    fn unbuilt(lo: usize, hi: usize) -> Self {
        Self {
            lo,
            hi,
            head: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            bits: Vec::new(),
            summary: Vec::new(),
            count: 0,
            movers: Vec::new(),
        }
    }

    /// Build the lists and the bitset of users `[lo, hi)` of `state`.
    fn build<I: Demands>(&mut self, inst: &I, state: &State) {
        let (lo, len) = (self.lo, self.hi - self.lo);
        let mut head = vec![NIL; inst.instance().num_resources()];
        let mut next = vec![NIL; len];
        let mut prev = vec![NIL; len];
        // pushing at the front in reverse user order leaves every list in
        // user order
        for (i, &r) in state.assignment()[lo..self.hi].iter().enumerate().rev() {
            let h = head[r.index()];
            next[i] = h;
            if h != NIL {
                prev[h as usize - lo] = (lo + i) as u32;
            }
            head[r.index()] = (lo + i) as u32;
        }
        // one word at a time, so each word is stored once
        let mut bits = vec![0u64; len.div_ceil(64)];
        for (w, word) in bits.iter_mut().enumerate() {
            let first = lo + w * 64;
            for u in first..(first + 64).min(self.hi) {
                if !state.is_satisfied(inst, UserId(u as u32)) {
                    *word |= 1 << (u - first);
                }
            }
        }
        let mut summary = vec![0u64; bits.len().div_ceil(64)];
        for (w, &word) in bits.iter().enumerate() {
            if word != 0 {
                summary[w / 64] |= 1 << (w % 64);
            }
        }
        self.count = bits.iter().map(|w| w.count_ones() as usize).sum();
        (self.head, self.next, self.prev) = (head, next, prev);
        (self.bits, self.summary) = (bits, summary);
    }

    /// The users `[lo, hi)` this shard owns.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.lo..self.hi
    }

    #[inline]
    fn contains(&self, u: UserId) -> bool {
        let i = u.index() - self.lo;
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of the shard's users unsatisfied as of its last sync.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.count
    }

    /// The shard's unsatisfied users in increasing user order.
    pub fn active(&self) -> impl Iterator<Item = UserId> + '_ {
        let lo = self.lo;
        ones(&self.summary)
            .flat_map(|w| bits_of(self.bits[w], w))
            .map(move |i| UserId((lo + i) as u32))
    }

    /// The shard's unsatisfied users in increasing user order as raw ids,
    /// written into `buf` and passed to `f` one non-empty prefix at a time:
    /// the block form of [`IndexShard::active`]. A bit word is never split
    /// across two prefixes, so `buf` must hold at least 64 ids.
    pub(crate) fn active_blocks(&self, buf: &mut [u32], mut f: impl FnMut(&[u32])) {
        assert!(buf.len() >= 64, "a block holds at least one bit word");
        let mut len = 0;
        for w in ones(&self.summary) {
            let mut word = self.bits[w];
            if len + word.count_ones() as usize > buf.len() {
                f(&buf[..len]);
                len = 0;
            }
            let base = (self.lo + w * 64) as u32;
            while word != 0 {
                buf[len] = base + word.trailing_zeros();
                word &= word - 1;
                len += 1;
            }
        }
        if len > 0 {
            f(&buf[..len]);
        }
    }

    /// The shard's users on resource `r`.
    fn occupants(&self, r: ResourceId) -> impl Iterator<Item = UserId> + '_ {
        let mut u = self.head[r.index()];
        std::iter::from_fn(move || {
            (u != NIL).then(|| {
                let cur = u;
                u = self.next[cur as usize - self.lo];
                UserId(cur)
            })
        })
    }

    /// Stage moves of this shard's users, decided against the current
    /// state, to be applied by [`ActiveIndex::apply_staged`] and taken in
    /// at the next [`IndexShard::sync`].
    pub fn stage(&mut self, moves: &[Move]) {
        debug_assert!(
            moves
                .iter()
                .all(|mv| self.range().contains(&mv.user.index())),
            "staged a move of another shard's user"
        );
        self.movers.extend_from_slice(moves);
    }

    /// The shard half of the recheck rule, once the batch is applied to
    /// `state`: relocate the shard's movers, recheck its occupants of every
    /// `crossed` resource, then recheck its movers. `O(movers + Σ own
    /// occupancy of crossed resources)`.
    ///
    /// Debug builds then recount the shard's set from scratch in
    /// `O(hi - lo)` and panic on any divergence.
    #[inline]
    pub fn sync<I: Demands>(&mut self, inst: &I, state: &State, crossed: &[ResourceId]) {
        let movers = std::mem::take(&mut self.movers);
        for mv in &movers {
            self.relocate(mv.user, mv.from, mv.to);
        }
        self.recheck_crossed(inst.instance(), state, crossed);
        for mv in &movers {
            self.recheck(inst, state, mv.user);
        }
        self.movers = movers;
        self.movers.clear();
        self.debug_assert_synced(inst, state);
    }

    /// Recheck the shard's occupants of every `crossed` resource.
    #[inline]
    fn recheck_crossed(&mut self, base: &Instance, state: &State, crossed: &[ResourceId]) {
        for &r in crossed {
            let load = state.load(r);
            let mut u = self.head[r.index()];
            while u != NIL {
                let k = base.class_of(UserId(u));
                let i = u as usize - self.lo;
                self.set_active(i, !base.satisfies(k, r, load));
                u = self.next[i];
            }
        }
    }

    /// Recheck the shard's user `u` on its own.
    #[inline]
    fn recheck<I: Demands>(&mut self, inst: &I, state: &State, u: UserId) {
        self.set_active(u.index() - self.lo, !state.is_satisfied(inst, u));
    }

    /// Move `u` from `from`'s occupant list to the front of `to`'s.
    #[inline]
    fn relocate(&mut self, u: UserId, from: ResourceId, to: ResourceId) {
        let i = u.index() - self.lo;
        let (p, nx) = (self.prev[i], self.next[i]);
        if p == NIL {
            debug_assert_eq!(self.head[from.index()], u.0, "occupant list out of sync");
            self.head[from.index()] = nx;
        } else {
            self.next[p as usize - self.lo] = nx;
        }
        if nx != NIL {
            self.prev[nx as usize - self.lo] = p;
        }
        let h = self.head[to.index()];
        self.next[i] = h;
        self.prev[i] = NIL;
        if h != NIL {
            self.prev[h as usize - self.lo] = u.0;
        }
        self.head[to.index()] = u.0;
    }

    /// Insert user `lo + i` into / remove it from the set in O(1).
    #[inline]
    fn set_active(&mut self, i: usize, active: bool) {
        let w = i / 64;
        let bit = 1u64 << (i % 64);
        let old = self.bits[w];
        if (old & bit != 0) == active {
            return;
        }
        let new = old ^ bit;
        self.bits[w] = new;
        let summary_bit = 1u64 << (w % 64);
        if active {
            self.count += 1;
            self.summary[w / 64] |= summary_bit;
        } else {
            self.count -= 1;
            if new == 0 {
                self.summary[w / 64] &= !summary_bit;
            }
        }
    }

    /// In debug builds, recount the shard's set from scratch and panic on
    /// any divergence — the recheck rule's self-check, in the style of
    /// [`State::debug_assert_invariants`].
    #[inline]
    fn debug_assert_synced<I: Demands>(&self, inst: &I, state: &State) {
        #[cfg(debug_assertions)]
        self.assert_unsat_synced(inst, state);
        #[cfg(not(debug_assertions))]
        let _ = (inst, state);
    }

    /// The shard's set, its summary level and its count all match a fresh
    /// recomputation, in `O(hi - lo)`. The test is [`Instance::satisfies`]
    /// written out over flat slices: it runs after every sync in debug
    /// builds, where the calls would not be inlined.
    fn assert_unsat_synced<I: Demands>(&self, inst: &I, state: &State) {
        let base = inst.instance();
        let (assignment, loads) = (state.assignment(), state.loads());
        let (caps, m) = (base.eff_cap_table(), loads.len());
        let single = base.num_classes() == 1;
        let mut bits = vec![0u64; self.bits.len()];
        for u in self.lo..self.hi {
            let r = assignment[u].0 as usize;
            let k = if single {
                0
            } else {
                base.class_of(UserId(u as u32)).0 as usize
            };
            let c = caps[k * m + r];
            if !(c > 0 && loads[r] <= c) {
                bits[(u - self.lo) / 64] |= 1 << ((u - self.lo) % 64);
            }
        }
        if let Some(w) = (0..bits.len()).find(|&w| bits[w] != self.bits[w]) {
            let u = self.lo + w * 64 + (bits[w] ^ self.bits[w]).trailing_zeros() as usize;
            panic!("unsatisfied set out of sync at u{u}");
        }
        let count: u32 = bits.iter().map(|w| w.count_ones()).sum();
        assert_eq!(self.count, count as usize, "unsatisfied count stale");
        for (w, &word) in bits.iter().enumerate() {
            assert_eq!(
                self.summary[w / 64] & (1 << (w % 64)) != 0,
                word != 0,
                "summary bit of word {w} stale"
            );
        }
    }

    /// The shard's lists hold exactly its users, each on its resource with
    /// consistent back links, and its set matches a recount.
    fn assert_consistent<I: Demands>(&self, inst: &I, state: &State) {
        let mut seen = vec![false; self.hi - self.lo];
        for r in inst.instance().resource_ids() {
            let mut before = NIL;
            for u in self.occupants(r) {
                assert!(self.range().contains(&u.index()), "{u} in a foreign shard");
                assert_eq!(
                    state.resource_of(u),
                    r,
                    "occupant list of {r} holds {u} which is elsewhere"
                );
                let i = u.index() - self.lo;
                assert_eq!(self.prev[i], before, "back link of {u} out of sync");
                assert!(!seen[i], "{u} occupies two lists");
                seen[i] = true;
                before = u.0;
            }
        }
        assert!(seen.iter().all(|&s| s), "occupant lists miss a user");
        self.assert_unsat_synced(inst, state);
    }
}

/// Does some class's satisfaction on `r` differ between loads `a` and `b`?
#[inline]
fn crosses_threshold(inst: &Instance, r: ResourceId, a: u32, b: u32) -> bool {
    a != b
        && (0..inst.num_classes() as u32)
            .any(|k| inst.satisfies(ClassId(k), r, a) != inst.satisfies(ClassId(k), r, b))
}

/// Indices of the set bits of `words`, in increasing order.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| bits_of(word, w))
}

/// The set bits of `word`, word `w` of a bitset, as indices `64 · w + bit`.
#[inline]
fn bits_of(mut word: u64, w: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            64 * w + bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn inst_state() -> (Instance, State) {
        let inst = Instance::uniform(8, 4, 3).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        (inst, state)
    }

    fn mv(user: u32, from: u32, to: u32) -> Move {
        Move {
            user: UserId(user),
            from: ResourceId(from),
            to: ResourceId(to),
        }
    }

    #[test]
    fn new_matches_brute_force() {
        let (inst, state) = inst_state();
        let idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 8);
        assert!(!idx.is_empty());
        idx.assert_consistent(&inst, &state);

        let legal = State::round_robin(&inst);
        let idx = ActiveIndex::new(&inst, &legal);
        assert!(idx.is_empty());
        idx.assert_consistent(&inst, &legal);
    }

    #[test]
    fn moves_update_both_sides() {
        let (inst, mut state) = inst_state();
        let mut idx = ActiveIndex::new(&inst, &state);
        // move users 0..=2 off the hotspot; r1 ends at load 3 = cap
        let moves: Vec<Move> = (0..3).map(|u| mv(u, 0, 1)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        idx.assert_consistent(&inst, &state);
        assert!(!idx.contains(UserId(0)), "mover landed within capacity");
        assert!(idx.contains(UserId(3)), "hotspot still overloaded");
        assert_eq!(idx.occupants(ResourceId(1)).count(), 3);
    }

    #[test]
    fn emptying_detects_legality() {
        let (inst, mut state) = inst_state();
        let mut idx = ActiveIndex::new(&inst, &state);
        // spread to loads [2, 2, 2, 2]: legal, set drains to empty
        let moves: Vec<Move> = (2..8).map(|u| mv(u, 0, 1 + (u - 2) / 2)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        idx.assert_consistent(&inst, &state);
        assert!(state.is_legal(&inst));
        assert!(idx.is_empty());
        assert_eq!(idx.num_active(), 0);
    }

    #[test]
    fn sorted_iteration_is_user_order() {
        let (inst, mut state) = inst_state();
        let mut idx = ActiveIndex::new(&inst, &state);
        let moves: Vec<Move> = [5u32, 7, 1].iter().map(|&u| mv(u, 0, 2)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        let mut buf = Vec::new();
        idx.sorted_active_into(&mut buf);
        assert_eq!(buf, state.unsatisfied(&inst));
        assert_eq!(idx.active().collect::<Vec<_>>(), buf);
        assert!(!buf.is_empty());
    }

    #[test]
    fn ordered_scan_crosses_words_and_summary_words() {
        // 9000 users span 141 bit words and 3 summary words; the scan
        // must visit exactly the unsatisfied users, in order, across
        // word boundaries and summary words that go empty; r1 has cap 0,
        // so whoever moves there is unsatisfied
        let inst = Instance::with_capacities(9000, vec![9000, 0]).unwrap();
        let mut state = State::all_on(&inst, ResourceId(0));
        let mut idx = ActiveIndex::new(&inst, &state);
        assert!(idx.is_empty());
        let picks = [0u32, 63, 64, 4095, 4096, 4160, 8999];
        let moves: Vec<Move> = picks.iter().map(|&u| mv(u, 0, 1)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        idx.assert_consistent(&inst, &state);
        let got: Vec<u32> = idx.active().map(|u| u.0).collect();
        assert_eq!(got, picks);
        // drain the middle summary word back to empty
        let back: Vec<Move> = [4096u32, 4160].iter().map(|&u| mv(u, 1, 0)).collect();
        idx.apply_moves(&inst, &mut state, &back);
        idx.assert_consistent(&inst, &state);
        let got: Vec<u32> = idx.active().map(|u| u.0).collect();
        assert_eq!(got, [0, 63, 64, 4095, 8999]);
    }

    #[test]
    fn block_scan_concatenates_to_the_ordered_scan() {
        // r1 has cap 0, so whoever moves there is unsatisfied. Every third
        // of 9000 users gives 21 or 22 ids per bit word, so each buffer
        // flushes before the word that would overflow it and never splits
        // one; a lone user is one block of one id; nobody is no block.
        let inst = Instance::with_capacities(9000, vec![9000, 0]).unwrap();
        let every_third: Vec<u32> = (0..9000).step_by(3).collect();
        for picks in [every_third, vec![4100], vec![]] {
            let mut state = State::all_on(&inst, ResourceId(0));
            let mut idx = ActiveIndex::new(&inst, &state);
            let moves: Vec<Move> = picks.iter().map(|&u| mv(u, 0, 1)).collect();
            idx.apply_moves(&inst, &mut state, &moves);
            for cap in [64, 100, 256] {
                let mut buf = vec![0; cap];
                let mut got = Vec::new();
                idx.shards()[0].active_blocks(&mut buf, |ids| {
                    assert!(!ids.is_empty() && ids.len() <= cap);
                    if let Some(&last) = got.last() {
                        assert_ne!(last / 64, ids[0] / 64, "a bit word split across blocks");
                    }
                    got.extend_from_slice(ids);
                });
                assert_eq!(got, picks, "buffer of {cap}");
            }
        }
    }

    #[test]
    fn mover_without_threshold_crossing_leaves_and_joins() {
        // cap 3 everywhere; r0 holds 5 (over), r1 holds 1 (under)
        let inst = Instance::uniform(6, 2, 3).unwrap();
        let r = |i| ResourceId(i);
        let mut state = State::new(&inst, vec![r(0), r(0), r(0), r(0), r(0), r(1)]).unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 5);
        // r0 5 → 4 stays over cap, r1 1 → 2 stays under: no threshold is
        // crossed, so only the mover recheck can drop user 0
        idx.apply_moves(&inst, &mut state, &[mv(0, 0, 1)]);
        assert!(!idx.contains(UserId(0)), "mover must leave the set");
        assert_eq!(idx.num_active(), 4);
        idx.assert_consistent(&inst, &state);
        // r1 2 → 1 stays under, r0 4 → 5 stays over: the mover joins
        idx.apply_moves(&inst, &mut state, &[mv(5, 1, 0)]);
        assert!(idx.contains(UserId(5)), "mover must join the set");
        assert_eq!(idx.num_active(), 5);
        idx.assert_consistent(&inst, &state);
    }

    #[test]
    fn only_the_strict_threshold_crossed() {
        // lenient classes 0 and 2 (cap 4) around strict class 1 (cap 2),
        // so a check of either end class alone misses the crossing; users
        // 0–3 and 6 are lenient, users 4–5 strict
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0, 4.0])
            .latency_class(1.0, 4)
            .latency_class(0.5, 2)
            .latency_class(1.0, 1)
            .build()
            .unwrap();
        assert_eq!(inst.cap(ClassId(0), ResourceId(0)), 4);
        assert_eq!(inst.cap(ClassId(1), ResourceId(0)), 2);
        let r = |i| ResourceId(i);
        // r0: lenient 0, strict 4 (load 2, both fine); r1: lenient 1–3 and
        // strict 5 (load 4, only 5 over its cap); r2: lenient 6
        let mut state = State::new(&inst, vec![r(0), r(1), r(1), r(1), r(0), r(1), r(2)]).unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.active().collect::<Vec<_>>(), [UserId(5)]);
        // lenient user 1 joins r0: 2 → 3 crosses the strict cap only, so
        // staying strict user 4 must be rechecked and join the set
        idx.apply_moves(&inst, &mut state, &[mv(1, 1, 0)]);
        assert!(idx.contains(UserId(4)), "strict stayer over its cap");
        assert!(!idx.contains(UserId(1)), "lenient mover within its cap");
        idx.assert_consistent(&inst, &state);
        // and back: 3 → 2 frees user 4 again
        idx.apply_moves(&inst, &mut state, &[mv(0, 0, 2)]);
        assert!(!idx.contains(UserId(4)), "strict stayer back within cap");
        idx.assert_consistent(&inst, &state);
    }

    #[test]
    fn load_that_leaves_and_returns_rechecks_only_movers() {
        // cap 3 everywhere; r0 over at load 4, r1 and r2 under
        let inst = Instance::uniform(7, 3, 3).unwrap();
        let r = |i| ResourceId(i);
        let mut state = State::new(&inst, vec![r(0), r(0), r(0), r(0), r(1), r(2), r(2)]).unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 4);
        // one user leaves r0 and one arrives: r0 ends where it started, so
        // its stayers keep their state; the arriving user must join
        idx.apply_moves(&inst, &mut state, &[mv(0, 0, 1), mv(5, 2, 0)]);
        assert_eq!(state.load(r(0)), 4);
        assert!(idx.contains(UserId(5)), "arrival on an overloaded resource");
        assert!(
            !idx.contains(UserId(0)),
            "departure to a resource with room"
        );
        assert_eq!(idx.num_active(), 4);
        idx.assert_consistent(&inst, &state);

        // the same shape through reassignments, with r0 visiting load 3
        // (within cap) mid-batch before returning to 4
        let batch = [(UserId(1), r(2)), (UserId(0), r(0))];
        idx.apply_reassignments(&inst, &mut state, &batch);
        assert_eq!(state.load(r(0)), 4);
        assert!(idx.contains(UserId(0)), "arrival on an overloaded resource");
        assert!(
            !idx.contains(UserId(1)),
            "departure to a resource with room"
        );
        idx.assert_consistent(&inst, &state);
    }

    #[test]
    fn reassignments_update_like_rebuild() {
        // parking trick shape: last resource has effectively infinite cap
        let inst = Instance::with_capacities(8, vec![3, 3, u32::MAX]).unwrap();
        let parking = ResourceId(2);
        let mut state = State::all_on(&inst, parking);
        let mut idx = ActiveIndex::new(&inst, &state);
        assert!(idx.is_empty(), "parked users are satisfied");

        // arrivals: 5 users onto r0 (cap 3) → all 5 unsatisfied
        let arrivals: Vec<(UserId, ResourceId)> =
            (0..5).map(|u| (UserId(u), ResourceId(0))).collect();
        idx.apply_reassignments(&inst, &mut state, &arrivals);
        idx.assert_consistent(&inst, &state);
        assert_eq!(idx.num_active(), 5);

        // mixed batch: two depart back to parking, one hops to r1
        let batch = vec![
            (UserId(0), parking),
            (UserId(1), parking),
            (UserId(2), ResourceId(1)),
        ];
        idx.apply_reassignments(&inst, &mut state, &batch);
        idx.assert_consistent(&inst, &state);
        // r0 now holds users 3, 4 at load 2 ≤ 3; r1 holds user 2 at 1 ≤ 3
        assert!(idx.is_empty());

        // no-op entries (already there) change nothing
        idx.apply_reassignments(&inst, &mut state, &[(UserId(3), ResourceId(0))]);
        idx.assert_consistent(&inst, &state);
        assert!(idx.is_empty());
    }

    #[test]
    fn infinite_capacity_resource_never_crosses() {
        // r2 has capacity u32::MAX, as a parking resource: every load
        // satisfies its occupants, so no batch puts it on the crossing list
        let inst = Instance::with_capacities(8, vec![3, 3, u32::MAX]).unwrap();
        let r = |i| ResourceId(i);
        let mut state = State::new(&inst, [0, 0, 0, 0, 2, 2, 2, 2].map(r).to_vec()).unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        assert_eq!(idx.num_active(), 4);
        // three users park and one leaves parking: r2 goes 4 → 6, r0 4 → 1
        let moves = [mv(0, 0, 2), mv(1, 0, 2), mv(2, 0, 2), mv(4, 2, 1)];
        idx.shards[0].stage(&moves);
        idx.apply_staged(&inst, &mut state, &moves);
        assert_eq!(idx.crossed, [r(0)], "only r0 crossed its capacity");
        idx.sync(&inst, &state);
        idx.assert_consistent(&inst, &state);
        assert!(idx.is_empty());
    }

    #[test]
    fn resplit_follows_crowded_users() {
        // 3000 users over 3 shards of 1024; r1 has cap 0, so whoever moves
        // there is unsatisfied
        let inst = Instance::with_capacities(3000, vec![3000, 0]).unwrap();
        let mut state = State::all_on(&inst, ResourceId(0));
        let mut idx = ActiveIndex::with_shards(&inst, &state, 3);
        let serial = |shards: &mut [IndexShard], build: &(dyn Fn(&mut IndexShard) + Sync)| {
            shards.iter_mut().for_each(build)
        };
        // the top 1200 users crowd into the top two shards
        let moves: Vec<Move> = (1800..3000).map(|u| mv(u, 0, 1)).collect();
        idx.apply_moves(&inst, &mut state, &moves);
        let counts = |idx: &ActiveIndex| {
            idx.shards()
                .iter()
                .map(|s| s.num_active())
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&idx), [0, 248, 952]);
        let before: Vec<UserId> = idx.active().collect();
        assert!(idx.resplit(&inst, &state, 1.5, serial));
        let ranges: Vec<_> = idx.shards().iter().map(IndexShard::range).collect();
        assert_eq!(ranges, [0..2048, 2048..2560, 2560..3000]);
        assert_eq!(counts(&idx), [248, 512, 440]);
        idx.assert_consistent(&inst, &state);
        assert!(idx.active().eq(before));
        // balanced as far as the blocks allow: no second rebuild
        assert!(!idx.resplit(&inst, &state, 1.5, serial));
        // a crowd inside one 512-user block cannot be spread
        let back: Vec<Move> = (1800..2900).map(|u| mv(u, 1, 0)).collect();
        idx.apply_moves(&inst, &mut state, &back);
        assert_eq!(idx.num_active(), 100);
        assert!(!idx.resplit(&inst, &state, 1.5, serial));
        // a factor of 0 forces the rebuild; it still answers the same
        assert!(idx.resplit(&inst, &state, 0.0, serial));
        idx.assert_consistent(&inst, &state);
        assert!(idx.active().map(|u| u.0).eq(2900..3000));
    }

    #[test]
    fn shards_own_aligned_ranges_and_agree_with_one_shard() {
        // 1300 users over 3 shards: spans of 512, the last one partial
        let inst = Instance::with_capacities(1300, vec![420, 420, 420, 400]).unwrap();
        let mut state = State::new(&inst, (0..1300).map(|u| ResourceId(u % 3)).collect()).unwrap();
        let mut one = ActiveIndex::new(&inst, &state);
        let mut three = ActiveIndex::with_shards(&inst, &state, 3);
        let ranges: Vec<_> = three.shards().iter().map(IndexShard::range).collect();
        assert_eq!(ranges, [0..512, 512..1024, 1024..1300]);
        // occupant lists chain shard by shard, so a fresh build lists
        // users in user order
        assert!(three
            .occupants(ResourceId(0))
            .eq(one.occupants(ResourceId(0))));
        three.assert_consistent(&inst, &state);
        assert_eq!(three.num_active(), 1300, "r0..r2 hold 434/433/433");
        // 40 users from all three ranges leave for r3, and each of r0..r2
        // drops to exactly its cap of 420: every stayer in every shard is
        // rechecked through the crossing list
        let moves: Vec<Move> = (0..40)
            .map(|i| {
                let u = i * 32;
                mv(u, u % 3, 3)
            })
            .collect();
        let mut state1 = state.clone();
        one.apply_moves(&inst, &mut state1, &moves);
        three.apply_moves(&inst, &mut state, &moves);
        three.assert_consistent(&inst, &state);
        assert!(three.is_empty() && one.is_empty());
        // more shards than 512-user ranges leaves trailing shards empty
        let wide = ActiveIndex::with_shards(&inst, &state, 8);
        let owners = wide.shards().iter().filter(|s| !s.range().is_empty());
        assert_eq!((wide.shards().len(), owners.count()), (8, 3));
        wide.assert_consistent(&inst, &state);
    }

    #[test]
    fn multi_class_satisfaction_tracked_per_class() {
        // strict cap 2, lenient cap 4 on both channels
        let inst = InstanceBuilder::new()
            .speeds(vec![4.0, 4.0])
            .latency_class(0.5, 1)
            .latency_class(1.0, 5)
            .build()
            .unwrap();
        let mut state = State::new(
            &inst,
            vec![
                ResourceId(0), // strict
                ResourceId(0),
                ResourceId(0),
                ResourceId(1),
                ResourceId(1),
                ResourceId(1),
            ],
        )
        .unwrap();
        let mut idx = ActiveIndex::new(&inst, &state);
        idx.assert_consistent(&inst, &state);
        // load 3 on r0 > strict cap 2, ≤ lenient cap 4: only user 0 active
        assert_eq!(idx.active().collect::<Vec<_>>(), [UserId(0)]);
        // a lenient user joining r0 pushes load to 4: strict still the only
        // unsatisfied one (lenient cap is 4)
        idx.apply_moves(&inst, &mut state, &[mv(3, 1, 0)]);
        idx.assert_consistent(&inst, &state);
        assert_eq!(idx.num_active(), 1);
    }
}
