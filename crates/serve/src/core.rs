//! The serving core: a live open-system instance with admission control.
//!
//! [`ServeCore`] owns the daemon's world: the engine's [`ParkedSystem`],
//! the machine the open-system driver runs, whose index of unsatisfied
//! users keeps rebalance rounds `O(churn + unsatisfied)`, and on top of it
//! admission, placement probes, weighted groups, drain bookkeeping,
//! telemetry and delta export. It is deliberately free of any I/O — the
//! wire protocol ([`crate::proto`]) and the socket daemon
//! ([`crate::daemon`]) drive it, and so do the in-process serve bench and
//! the unit tests, all through the same five verbs:
//!
//! * [`place`](ServeCore::place) — admission decision plus initial
//!   placement (best-of-`probes` sampling among non-draining resources);
//! * [`depart`](ServeCore::depart) — release a placement (all slots of a
//!   weighted group) back to the parking pool;
//! * [`drain`](ServeCore::drain) — retire a resource: stop admitting onto
//!   it and zero its effective capacity so the *protocol kernel itself*
//!   migrates the occupants away over subsequent ticks;
//! * [`tick`](ServeCore::tick) — run a bounded number of
//!   sampling-protocol rounds, each the parked system's active-set round
//!   (sharded over a worker pool when configured and the unsatisfied set
//!   is large), with the budget adapting to request backlog;
//! * the query accessors — per-resource congestion and per-class
//!   satisfaction.
//!
//! ## Admission rule
//!
//! A class-`k` request of weight `w` is admitted iff
//!
//! 1. the parking pool has `w` free class-`k` slots,
//! 2. at least one resource is not draining, and
//! 3. `L + w ≤ ⌊φ · C_k⌋`, where `L` is the total placed load, `C_k` the
//!    summed effective capacity visible to class `k` over non-draining
//!    resources, and `φ` the configured admission utilization
//!    ([`ServeConfig::admit_frac`]).
//!
//! The guard is global-load against per-class capacity: whatever the mix,
//! class `k` can only be fully satisfied if the *total* load fits under
//! the capacity it can use, so admitting past that bound would let a
//! burst of lenient-class traffic wedge a strict class permanently.
//! Placement may still overshoot a single resource — the admitted user
//! simply starts unsatisfied and the background rebalancer repairs it,
//! which is exactly the paper's dynamic.
//!
//! ## Determinism
//!
//! Placement probing draws from a dedicated driver stream (seeded
//! `mix64(seed, SERVE_SALT)`), and rebalance rounds use the standard
//! counter-based `RoundStream(seed, user, round)` — so a fixed request
//! sequence reproduces the exact trajectory, whatever the socket timing.

use qlb_core::{
    ClassId, ConditionalUniform, Instance, Protocol, ResourceId, RestrictTargets, SlackDamped,
    State, StateDelta, UserId,
};
use qlb_engine::{Executor, ParkedSystem};
use qlb_obs::{Counter, Event, Gauge, Sink};
use qlb_rng::{Rng64, SplitMix64};
use qlb_workload::Scenario;
use std::time::Instant;

/// Salt separating the placement-probe driver stream from protocol
/// streams (same pattern as the open-system driver's `OPEN_SALT`).
const SERVE_SALT: u64 = 0x5345_5256; // "SERV"

/// Group-chain terminator for [`ServeCore::group_next`].
const NO_NEXT: u32 = u32::MAX;

/// Which sampling kernel the background rebalancer runs. Only
/// uniform-sampling, load-aware kernels are offered: the target universe
/// must be restrictable to the real resources (see
/// [`RestrictTargets`]), and a load-oblivious kernel (blind) would keep
/// hopping users onto drained, zero-capacity resources forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeProtocol {
    /// The paper's slack-damped kernel (default): move with probability
    /// `(c − x)/c`.
    #[default]
    SlackDamped,
    /// Conditional uniform: move iff the sample has room.
    Conditional,
}

impl ServeProtocol {
    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "slack-damped" => Some(Self::SlackDamped),
            "conditional" => Some(Self::Conditional),
            _ => None,
        }
    }

    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SlackDamped => "slack-damped",
            Self::Conditional => "conditional",
        }
    }

    fn build(self, real_m: usize) -> RestrictTargets<dyn Protocol + Send> {
        let inner: Box<dyn Protocol + Send> = match self {
            Self::SlackDamped => Box::new(SlackDamped::default()),
            Self::Conditional => Box::new(ConditionalUniform),
        };
        RestrictTargets::new(inner, real_m)
    }
}

/// Tunables of a [`ServeCore`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Seed for placement probing and protocol rounds.
    pub seed: u64,
    /// Rebalancing kernel.
    pub protocol: ServeProtocol,
    /// Admission utilization bound `φ` (see the module docs).
    pub admit_frac: f64,
    /// Rebalance rounds per tick when the request queue is empty; the
    /// budget halves for every doubling of the backlog, floor 1.
    pub max_tick_rounds: u32,
    /// Placement candidates sampled per request (best-of-`probes` by
    /// class headroom).
    pub probes: u32,
    /// Worker threads for pooled decide rounds (0 or 1 = always
    /// sequential).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            protocol: ServeProtocol::SlackDamped,
            admit_frac: 0.95,
            max_tick_rounds: 8,
            probes: 2,
            threads: 0,
        }
    }
}

impl ServeConfig {
    /// Default config with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Set the rebalancing kernel.
    pub fn with_protocol(mut self, p: ServeProtocol) -> Self {
        self.protocol = p;
        self
    }

    /// Set the admission utilization bound (clamped to `(0, 1]`).
    pub fn with_admit_frac(mut self, f: f64) -> Self {
        self.admit_frac = f.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Set the per-tick round budget ceiling (min 1).
    pub fn with_max_tick_rounds(mut self, r: u32) -> Self {
        self.max_tick_rounds = r.max(1);
        self
    }

    /// Set the placement probe count (min 1).
    pub fn with_probes(mut self, d: u32) -> Self {
        self.probes = d.max(1);
        self
    }

    /// Set the pooled-decide thread count (0 = sequential).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }
}

/// Why a placement was refused. These are *answers*, not errors: the wire
/// protocol reports them as `admitted: false` with this reason. The
/// declaration order indexes [`ServeCore::reject_reasons`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No (enough) free pool slots of the requested class.
    PoolExhausted,
    /// Admitting would push total load past `φ · C_k`.
    Capacity,
    /// Every resource is draining — nowhere to place.
    AllDraining,
}

impl RejectReason {
    /// Stable wire-protocol name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::PoolExhausted => "pool",
            Self::Capacity => "capacity",
            Self::AllDraining => "draining",
        }
    }
}

/// Probe evidence captured by [`ServeCore::place_traced`] for a causal
/// span: how many placement candidates were evaluated and the class
/// headroom each showed. Reusable scratch — the daemon keeps one and the
/// headroom vector's allocation is amortized away.
#[derive(Debug, Clone, Default)]
pub struct PlaceTrace {
    /// Candidates evaluated (equals the configured probe count unless the
    /// admission was rejected before probing).
    pub probes: u64,
    /// Per-probe headroom (`cap − load`, signed), in probe order.
    pub headroom: Vec<i64>,
    /// Wall-clock spent in the probe loop (ns).
    pub probe_ns: u64,
}

impl PlaceTrace {
    fn clear(&mut self) {
        self.probes = 0;
        self.headroom.clear();
        self.probe_ns = 0;
    }
}

/// One rebalancer migration captured by [`ServeCore::tick_traced`]: the
/// moved user with its source and destination — the causal-continuation
/// feed for sampled placement spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRecord {
    /// The moved user (a slot id; group leaders are the span tickets).
    pub user: UserId,
    /// Resource the user was on before the round.
    pub from: ResourceId,
    /// Resource the round moved it to.
    pub to: ResourceId,
}

/// A successful admission: the ticket (`user`) plus the initial placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceOutcome {
    /// Ticket id; pass back to [`ServeCore::depart`]. For weighted
    /// requests this is the group leader — departing it releases all
    /// `weight` slots.
    pub user: UserId,
    /// The resource the group was placed on.
    pub resource: ResourceId,
    /// Slots occupied (the request weight).
    pub weight: u32,
    /// The resource's load after placement.
    pub load: u32,
    /// Effective capacity of the resource for the request's class.
    pub cap: u32,
    /// Whether the placement is immediately satisfied (`load ≤ cap`); if
    /// not, the background rebalancer will move it.
    pub satisfied: bool,
}

/// A processed departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepartOutcome {
    /// Slots released back to the pool.
    pub released: u32,
}

/// A started drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// The draining resource.
    pub resource: ResourceId,
    /// Its load at drain start — the occupants the kernel must walk off.
    pub occupants: u32,
}

/// What one scheduler tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickOutcome {
    /// Protocol rounds executed (0 when nothing was unsatisfied and no
    /// heartbeat was requested).
    pub rounds: u32,
    /// Migrations applied across those rounds.
    pub migrations: u64,
    /// Unsatisfied users after the tick.
    pub unsatisfied: u64,
}

/// Per-class satisfaction snapshot (a `query` building block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// The class.
    pub class: ClassId,
    /// Placed slots of this class.
    pub active: u64,
    /// Currently unsatisfied users of this class.
    pub unsatisfied: u64,
}

/// Per-resource snapshot (a `query` building block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceStats {
    /// The resource.
    pub resource: ResourceId,
    /// Current load.
    pub load: u32,
    /// Effective capacity for class 0 (the single-class capacity view).
    pub cap: u32,
    /// Whether a drain has been requested.
    pub draining: bool,
    /// Whether a requested drain has completed (load reached 0).
    pub drained: bool,
}

/// The daemon's live world — see the module docs.
pub struct ServeCore {
    sys: ParkedSystem,
    proto: RestrictTargets<dyn Protocol + Send>,
    cfg: ServeConfig,
    real_m: usize,
    /// Weighted-group chain: `group_next[u]` is the next slot of `u`'s
    /// group ([`NO_NEXT`] terminates; free slots carry no link). Only
    /// leaders are valid tickets.
    group_next: Vec<u32>,
    is_leader: Vec<bool>,
    draining: Vec<bool>,
    draining_count: usize,
    /// Draining resources whose load has not reached 0 yet: the others
    /// are drained.
    pending_drains: Vec<ResourceId>,
    /// Per class: Σ effective capacity over non-draining real resources.
    admit_cap: Vec<u64>,
    /// Per class: pool slots, free or placed.
    class_slots: Vec<usize>,
    round: u64,
    place_rng: SplitMix64,
    // lifetime statistics (also exported as counters via the sink)
    placements: u64,
    rejects_by_reason: [u64; 3],
    departures: u64,
    migrations_total: u64,
    /// Assignment at the last [`ServeCore::export_delta`] (the delta
    /// base), stamped with `export_gen`; starts at the initial state.
    export_base: Vec<u32>,
    export_gen: u64,
}

impl ServeCore {
    /// Single-class core: `caps` real resources, a parking pool of `pool`
    /// unit slots, everything initially parked.
    pub fn with_capacities(caps: &[u32], pool: usize, cfg: ServeConfig) -> Result<Self, String> {
        let base = Instance::with_capacities(0, caps.to_vec())
            .map_err(|e| format!("bad capacities: {e}"))?;
        Self::from_parts(base, &[pool], &[], cfg)
    }

    /// Core populated from a [`Scenario`]: the scenario's instance gains a
    /// parking resource plus `extra_slots` spare pool slots (spread over
    /// the classes proportionally to their size), and the scenario's
    /// placement becomes the initially admitted population.
    pub fn from_scenario(
        sc: &Scenario,
        build_seed: u64,
        extra_slots: usize,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        let (base, start) = sc
            .build(build_seed)
            .map_err(|e| format!("scenario build failed: {e}"))?;
        let n0 = base.num_users();
        // Spread spare slots proportionally, the remainder round-robin so
        // that the total is exact (all to class 0 without a population).
        let share = |size: usize| (extra_slots * size).checked_div(n0).unwrap_or(0);
        let mut extra: Vec<usize> = base.class_sizes().into_iter().map(share).collect();
        let classes = if n0 == 0 { 1 } else { extra.len() };
        for k in 0..extra_slots - extra.iter().sum::<usize>() {
            extra[k % classes] += 1;
        }
        let mut core = Self::from_parts(base, &extra, start.assignment(), cfg)?;
        // The scenario population is grandfathered in as weight-1 tickets.
        core.is_leader[..n0].fill(true);
        Ok(core)
    }

    /// `base` with a parking resource and `extra[k]` more class-`k` slots,
    /// its users `u` placed on `placed[u]` and the other slots free.
    fn from_parts(
        base: Instance,
        extra: &[usize],
        placed: &[ResourceId],
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        let real_m = base.num_resources();
        let inst = base
            .with_parking(extra)
            .map_err(|e| format!("cannot augment instance: {e}"))?;
        let pool = inst.num_users();
        let mut assignment = placed.to_vec();
        assignment.resize(pool, ResourceId(real_m as u32));
        let state = State::new(&inst, assignment).map_err(|e| e.to_string())?;
        let kk = inst.num_classes();
        let admit_cap = (0..kk)
            .map(|k| {
                inst.cap_row(ClassId(k as u32))[..real_m]
                    .iter()
                    .map(|&c| c as u64)
                    .sum()
            })
            .collect();
        let proto = cfg.protocol.build(real_m);
        let state_base = state.assignment().iter().map(|r| r.0).collect();
        let class_slots = inst.class_sizes();
        // one thread gets no pool: the rounds then decide sequentially
        let executor = Executor::SparseThreaded(cfg.threads.max(1));
        Ok(Self {
            sys: ParkedSystem::new(inst, state, executor, cfg.seed, true),
            proto,
            cfg,
            real_m,
            group_next: vec![NO_NEXT; pool],
            is_leader: vec![false; pool],
            draining: vec![false; real_m],
            draining_count: 0,
            pending_drains: Vec::new(),
            admit_cap,
            class_slots,
            round: 0,
            place_rng: SplitMix64::new(qlb_rng::mix64_pair(cfg.seed, SERVE_SALT)),
            placements: 0,
            rejects_by_reason: [0; 3],
            departures: 0,
            migrations_total: 0,
            export_base: state_base,
            export_gen: 0,
        })
    }

    // ------------------------------------------------------------------
    // requests
    // ------------------------------------------------------------------

    /// Admit and place a class-`class` request of weight `weight` (slots
    /// co-placed on one resource). See the module docs for the admission
    /// rule and determinism notes.
    ///
    /// # Panics
    /// Panics if `class` is out of range or `weight` is 0 — the wire
    /// layer validates both.
    pub fn place<S: Sink>(
        &mut self,
        class: ClassId,
        weight: u32,
        sink: &mut S,
    ) -> Result<PlaceOutcome, RejectReason> {
        self.place_inner(class, weight, sink, None)
    }

    /// [`ServeCore::place`] with probe evidence captured into `trace` —
    /// the span-instrumented path. The trajectory is identical to an
    /// untraced call: the trace only records headrooms the probe loop
    /// already computed.
    pub fn place_traced<S: Sink>(
        &mut self,
        class: ClassId,
        weight: u32,
        sink: &mut S,
        trace: &mut PlaceTrace,
    ) -> Result<PlaceOutcome, RejectReason> {
        trace.clear();
        self.place_inner(class, weight, sink, Some(trace))
    }

    fn place_inner<S: Sink>(
        &mut self,
        class: ClassId,
        weight: u32,
        sink: &mut S,
        trace: Option<&mut PlaceTrace>,
    ) -> Result<PlaceOutcome, RejectReason> {
        assert!(class.index() < self.num_classes(), "class out of range");
        assert!(weight > 0, "weight must be positive");
        let k = class.index();
        let verdict = if self.draining_count == self.real_m {
            Err(RejectReason::AllDraining)
        } else if self.sys.free(class) < weight as usize {
            Err(RejectReason::PoolExhausted)
        } else if self.active_slots() + weight as u64
            > (self.cfg.admit_frac * self.admit_cap[k] as f64) as u64
        {
            Err(RejectReason::Capacity)
        } else {
            Ok(())
        };
        if let Err(reason) = verdict {
            self.rejects_by_reason[reason as usize] += 1;
            if S::ENABLED {
                sink.add(Counter::AdmissionRejects, 1);
            }
            return Err(reason);
        }
        // Best-of-`probes` by class headroom among non-draining resources.
        let target = match trace {
            Some(tr) => {
                let t0 = Instant::now();
                let target = self.probe_target(class, Some(&mut *tr));
                tr.probe_ns = t0.elapsed().as_nanos() as u64;
                target
            }
            None => self.probe_target(class, None),
        };
        let mut slots = self.sys.arrive(class, weight as usize, || target);
        let leader = slots.next().expect("checked free slots");
        self.is_leader[leader.index()] = true;
        let mut prev = leader;
        for slot in slots {
            self.group_next[prev.index()] = slot.0;
            prev = slot;
        }
        self.placements += 1;
        if S::ENABLED {
            sink.add(Counter::Placements, 1);
        }
        let load = self.sys.state().load(target);
        let cap = self.sys.instance().cap(class, target);
        Ok(PlaceOutcome {
            user: leader,
            resource: target,
            weight,
            load,
            cap,
            satisfied: cap > 0 && load <= cap,
        })
    }

    /// Sample placement candidates and keep the one with the most class
    /// headroom (capacity − load; ties to the first sampled).
    fn probe_target(&mut self, class: ClassId, mut trace: Option<&mut PlaceTrace>) -> ResourceId {
        debug_assert!(self.draining_count < self.real_m);
        let mut best: Option<(ResourceId, i64)> = None;
        let mut probes_left = self.cfg.probes;
        let mut tries = 8 * self.cfg.probes.max(8);
        while probes_left > 0 {
            let r = if tries > 0 {
                tries -= 1;
                let r = ResourceId(self.place_rng.uniform_usize(self.real_m) as u32);
                if self.draining[r.index()] {
                    continue;
                }
                r
            } else {
                // Pathological drain coverage: fall back to the first
                // non-draining resource instead of rejection-sampling on.
                let idx = self
                    .draining
                    .iter()
                    .position(|&d| !d)
                    .expect("checked a non-draining resource exists");
                ResourceId(idx as u32)
            };
            probes_left -= 1;
            let (inst, state) = (self.sys.instance(), self.sys.state());
            let headroom = inst.cap(class, r) as i64 - state.load(r) as i64;
            if let Some(t) = trace.as_deref_mut() {
                t.probes += 1;
                t.headroom.push(headroom);
            }
            if best.is_none_or(|(_, h)| headroom > h) {
                best = Some((r, headroom));
            }
        }
        best.expect("at least one probe").0
    }

    /// Release the placement `user` (a ticket returned by
    /// [`ServeCore::place`], or an initially-populated scenario user).
    /// All slots of the ticket's group return to the parking pool.
    pub fn depart<S: Sink>(&mut self, user: UserId, sink: &mut S) -> Result<DepartOutcome, String> {
        if user.index() >= self.is_leader.len() {
            return Err(format!("unknown user {}", user.0));
        }
        if !self.is_leader[user.index()] {
            return Err(format!("user {} is not an active placement", user.0));
        }
        let (group_next, mut slot) = (&mut self.group_next, user.0);
        let group = std::iter::from_fn(|| {
            let u = UserId(slot);
            (slot != NO_NEXT).then(|| {
                slot = std::mem::replace(&mut group_next[u.index()], NO_NEXT);
                u
            })
        });
        let released = self.sys.depart(group) as u32;
        self.is_leader[user.index()] = false;
        self.departures += 1;
        if S::ENABLED {
            sink.add(Counter::ServeDeparts, released as u64);
        }
        Ok(DepartOutcome { released })
    }

    /// Start draining resource `r`: admission stops immediately, the
    /// resource's effective capacity is zeroed for every class, and its
    /// occupants — now unsatisfied — are walked off by the ordinary
    /// sampling kernel over subsequent ticks. Completion is observable via
    /// [`ServeCore::resource_stats`] (`drained`) once the load hits 0.
    pub fn drain<S: Sink>(&mut self, r: ResourceId, sink: &mut S) -> Result<DrainOutcome, String> {
        if r.index() >= self.real_m {
            return Err(format!("resource {} out of range", r.0));
        }
        if self.draining[r.index()] {
            return Err(format!("resource {} is already draining", r.0));
        }
        self.draining[r.index()] = true;
        self.draining_count += 1;
        for (k, cap) in self.admit_cap.iter_mut().enumerate() {
            *cap -= self.sys.instance().cap(ClassId(k as u32), r) as u64;
        }
        // O(pool + m), once per drain request
        self.sys.drain(r);
        let occupants = self.sys.state().load(r);
        if occupants > 0 {
            self.pending_drains.push(r);
        }
        if S::ENABLED {
            sink.add(Counter::Drains, 1);
            // A drain is a churn episode: `displaced` users must re-place.
            sink.event(Event::ChurnEpisode {
                episode: self.draining_count as u64 - 1,
                displaced: occupants as u64,
            });
        }
        Ok(DrainOutcome {
            resource: r,
            occupants,
        })
    }

    // ------------------------------------------------------------------
    // the scheduler tick
    // ------------------------------------------------------------------

    /// The adaptive round budget: full `max_tick_rounds` on an empty
    /// queue, halved for every doubling of the backlog, floor 1 — the
    /// rebalancer is throttled under load but never starved.
    pub fn tick_budget(&self, pending: usize) -> u32 {
        let max = self.cfg.max_tick_rounds.max(1);
        if pending == 0 {
            return max;
        }
        let halvings = usize::BITS - pending.leading_zeros();
        (max >> halvings.min(31)).max(1)
    }

    /// Run one scheduler tick: up to [`ServeCore::tick_budget`]`(pending)`
    /// protocol rounds, stopping early once nothing is unsatisfied. When
    /// the core is fully satisfied and no rounds run, `heartbeat` emits
    /// one empty round to the sink so a tailing dashboard still sees
    /// progress (and the streaming sink's round-aligned flush fires).
    pub fn tick<S: Sink>(&mut self, pending: usize, heartbeat: bool, sink: &mut S) -> TickOutcome {
        self.tick_inner(pending, heartbeat, sink, None)
    }

    /// [`ServeCore::tick`] with every applied migration captured into
    /// `moves_out` (appended; the caller clears) — the causal-continuation
    /// feed: the daemon matches the moved users against its sampled
    /// tickets and stamps `migrate` spans. Trajectory-identical to an
    /// untraced tick: sources are read from the state the round already
    /// produced, before the moves are applied.
    pub fn tick_traced<S: Sink>(
        &mut self,
        pending: usize,
        heartbeat: bool,
        sink: &mut S,
        moves_out: &mut Vec<MoveRecord>,
    ) -> TickOutcome {
        self.tick_inner(pending, heartbeat, sink, Some(moves_out))
    }

    fn tick_inner<S: Sink>(
        &mut self,
        pending: usize,
        heartbeat: bool,
        sink: &mut S,
        mut moves_out: Option<&mut Vec<MoveRecord>>,
    ) -> TickOutcome {
        let mut out = TickOutcome::default();
        let budget = self.tick_budget(pending);
        for _ in 0..budget {
            if self.sys.index().is_empty() {
                break;
            }
            let moves = self.sys.round(&self.proto, self.round, sink);
            if let Some(out) = moves_out.as_deref_mut() {
                out.extend(moves.iter().map(|mv| MoveRecord {
                    user: mv.user,
                    from: mv.from,
                    to: mv.to,
                }));
            }
            self.round += 1;
            out.migrations += moves.len() as u64;
            out.rounds += 1;
        }
        self.migrations_total += out.migrations;
        if out.rounds == 0 && heartbeat {
            let round = self.round;
            self.round += 1;
            if S::ENABLED {
                sink.add(Counter::Rounds, 1);
                sink.event(Event::RoundStart { round, active: 0 });
                sink.event(Event::RoundEnd {
                    round,
                    migrations: 0,
                    unsatisfied: 0,
                    overload: None,
                });
            }
            out.rounds = 1;
        }
        out.unsatisfied = self.unsatisfied();
        if S::ENABLED {
            sink.set(Gauge::ActiveUsers, self.active_slots());
            sink.set(Gauge::Unsatisfied, out.unsatisfied);
            sink.set(Gauge::ActiveSetSize, out.unsatisfied);
        }
        self.check_drains();
        out
    }

    /// Drop the pending drains whose load reached 0, in
    /// `O(pending drains)`.
    fn check_drains(&mut self) {
        let state = self.sys.state();
        self.pending_drains.retain(|&r| state.load(r) > 0);
    }

    // ------------------------------------------------------------------
    // query accessors
    // ------------------------------------------------------------------

    /// Placed slots (total weight currently admitted).
    pub fn active_slots(&self) -> u64 {
        self.sys.instance().num_users() as u64 - self.free_slots()
    }

    /// Free parking slots over all classes.
    pub fn free_slots(&self) -> u64 {
        (0..self.num_classes())
            .map(|k| self.sys.free(ClassId(k as u32)) as u64)
            .sum()
    }

    /// Currently unsatisfied users.
    pub fn unsatisfied(&self) -> u64 {
        self.sys.index().num_active() as u64
    }

    /// Protocol rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Lifetime `(placements, rejects, departures, drains)`.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let rejects = self.rejects_by_reason.iter().sum();
        let drains = self.draining_count as u64;
        (self.placements, rejects, self.departures, drains)
    }

    /// Lifetime admission rejects broken down by reason:
    /// `(pool, capacity, draining)` — see [`RejectReason::as_str`] for the
    /// wire names.
    pub fn reject_reasons(&self) -> (u64, u64, u64) {
        let [pool, capacity, draining] = self.rejects_by_reason;
        (pool, capacity, draining)
    }

    /// Lifetime migrations applied by the background rebalancer.
    pub fn migrations_total(&self) -> u64 {
        self.migrations_total
    }

    /// The configured per-tick round-budget ceiling
    /// ([`ServeConfig::max_tick_rounds`]) — the denominator of a budget
    /// utilization readout.
    pub fn max_tick_rounds(&self) -> u32 {
        self.cfg.max_tick_rounds.max(1)
    }

    /// Number of real (non-parking) resources.
    pub fn num_resources(&self) -> usize {
        self.real_m
    }

    /// Number of QoS classes.
    pub fn num_classes(&self) -> usize {
        self.sys.instance().num_classes()
    }

    /// Per-class unsatisfied counts into a caller-owned buffer
    /// (`O(unsatisfied)`, allocation-free once the buffer is warm):
    /// `out[k]` becomes the number of unsatisfied active users in class
    /// `k`. The per-tick shape of [`ServeCore::class_stats`] for the
    /// telemetry path.
    pub fn class_unsatisfied_into(&self, out: &mut Vec<u64>) {
        let inst = self.sys.instance();
        out.clear();
        out.resize(inst.num_classes(), 0);
        for u in self.sys.index().active() {
            out[inst.class_of(u).index()] += 1;
        }
    }

    /// Per-class active/unsatisfied breakdown (`O(unsatisfied)`).
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let mut unsat = Vec::new();
        self.class_unsatisfied_into(&mut unsat);
        (0..self.num_classes())
            .map(|k| ClassStats {
                class: ClassId(k as u32),
                active: (self.class_slots[k] - self.sys.free(ClassId(k as u32))) as u64,
                unsatisfied: unsat[k],
            })
            .collect()
    }

    /// Snapshot of one real resource.
    ///
    /// # Panics
    /// Panics if `r` is the parking resource or out of range — the wire
    /// layer validates.
    pub fn resource_stats(&self, r: ResourceId) -> ResourceStats {
        assert!(r.index() < self.real_m, "resource out of range");
        ResourceStats {
            resource: r,
            load: self.sys.state().load(r),
            cap: self.sys.instance().capacity(r),
            draining: self.draining[r.index()],
            drained: self.draining[r.index()] && !self.pending_drains.contains(&r),
        }
    }

    /// Ids of resources currently draining.
    pub fn draining_resources(&self) -> Vec<u32> {
        (0..self.real_m as u32)
            .filter(|&r| self.draining[r as usize])
            .collect()
    }

    /// The `k` hottest real resources by load (for `query` and top-k
    /// trace samples).
    pub fn top_loads(&self, k: usize) -> Vec<qlb_obs::TopKEntry> {
        qlb_obs::top_k_entries(&self.sys.state().loads()[..self.real_m], k)
    }

    /// Direct state access for tests and the bench.
    pub fn state(&self) -> &State {
        self.sys.state()
    }

    /// Export the placement changes since the previous export as a
    /// [`StateDelta`] and advance the export base to the current
    /// assignment. The first call encodes against the initial state;
    /// applying the returned deltas in order to that initial assignment
    /// reproduces [`ServeCore::state`] exactly, so a supervisor can keep
    /// a live replica paying only for the users that actually moved.
    pub fn export_delta(&mut self) -> StateDelta {
        let current: Vec<u32> = self.state().assignment().iter().map(|r| r.0).collect();
        let d = StateDelta::encode(
            &self.export_base,
            &current,
            self.export_gen,
            self.export_gen + 1,
        );
        self.export_base = current;
        self.export_gen += 1;
        d
    }

    /// Generation stamp of the current export base (number of
    /// [`ServeCore::export_delta`] calls so far).
    pub fn export_generation(&self) -> u64 {
        self.export_gen
    }

    /// The (parking-augmented, possibly drained) instance.
    pub fn instance(&self) -> &Instance {
        self.sys.instance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_obs::{NoopSink, Phase, Recorder};

    fn small() -> ServeCore {
        ServeCore::with_capacities(&[4; 8], 64, ServeConfig::new(7)).unwrap()
    }

    #[test]
    fn place_depart_roundtrip() {
        let mut c = small();
        let mut sink = NoopSink;
        let p = c.place(ClassId(0), 1, &mut sink).unwrap();
        assert!(p.satisfied);
        assert_eq!(c.active_slots(), 1);
        assert_eq!(c.free_slots(), 63);
        let d = c.depart(p.user, &mut sink).unwrap();
        assert_eq!(d.released, 1);
        assert_eq!(c.active_slots(), 0);
        assert_eq!(c.free_slots(), 64);
        // double-depart is rejected
        assert!(c.depart(p.user, &mut sink).is_err());
    }

    #[test]
    fn weighted_groups_release_all_slots() {
        let mut c = small();
        let mut sink = NoopSink;
        let p = c.place(ClassId(0), 3, &mut sink).unwrap();
        assert_eq!(p.weight, 3);
        assert_eq!(c.active_slots(), 3);
        assert_eq!(c.state().load(p.resource), 3);
        let d = c.depart(p.user, &mut sink).unwrap();
        assert_eq!(d.released, 3);
        assert_eq!(c.active_slots(), 0);
        assert_eq!(c.free_slots(), 64);
    }

    #[test]
    fn admission_rejects_past_capacity_bound() {
        // 8 × 4 = 32 capacity, φ = 0.95 → admit up to 30 slots
        let mut c = small();
        let mut sink = NoopSink;
        let mut admitted = 0;
        let mut rejected = 0;
        for _ in 0..64 {
            match c.place(ClassId(0), 1, &mut sink) {
                Ok(_) => admitted += 1,
                Err(RejectReason::Capacity) => rejected += 1,
                Err(other) => panic!("unexpected reject {other:?}"),
            }
        }
        assert_eq!(admitted, 30);
        assert_eq!(rejected, 34);
        assert_eq!(c.totals().1, 34);
    }

    #[test]
    fn pool_exhaustion_rejects() {
        let mut c = ServeCore::with_capacities(&[100; 4], 3, ServeConfig::new(7)).unwrap();
        let mut sink = NoopSink;
        for _ in 0..3 {
            c.place(ClassId(0), 1, &mut sink).unwrap();
        }
        assert_eq!(
            c.place(ClassId(0), 1, &mut sink).unwrap_err(),
            RejectReason::PoolExhausted
        );
    }

    #[test]
    fn tick_rebalances_overloaded_placements() {
        // Tiny capacity forces early placements to collide; ticks must
        // spread them to a fully satisfied state.
        let mut c = ServeCore::with_capacities(&[2; 16], 64, ServeConfig::new(3)).unwrap();
        let mut sink = NoopSink;
        for _ in 0..24 {
            c.place(ClassId(0), 1, &mut sink).unwrap();
        }
        let mut ticks = 0;
        while c.unsatisfied() > 0 && ticks < 200 {
            c.tick(0, false, &mut sink);
            ticks += 1;
        }
        assert_eq!(c.unsatisfied(), 0, "did not settle in {ticks} ticks");
        assert_eq!(c.active_slots(), 24);
    }

    #[test]
    fn drain_migrates_everyone_off_via_the_kernel() {
        let mut c = ServeCore::with_capacities(&[4; 8], 64, ServeConfig::new(11)).unwrap();
        let mut sink = NoopSink;
        let mut placed = Vec::new();
        for _ in 0..20 {
            placed.push(c.place(ClassId(0), 1, &mut sink).unwrap());
        }
        // settle first
        for _ in 0..100 {
            c.tick(0, false, &mut sink);
        }
        assert_eq!(c.unsatisfied(), 0);
        let victim = placed[0].resource;
        let before = c.state().load(victim);
        assert!(before > 0, "victim resource should be occupied");
        let d = c.drain(victim, &mut sink).unwrap();
        assert_eq!(d.occupants, before);
        let mut ticks = 0;
        while !c.resource_stats(victim).drained && ticks < 500 {
            c.tick(0, false, &mut sink);
            ticks += 1;
        }
        let rs = c.resource_stats(victim);
        assert!(rs.drained, "drain did not complete in {ticks} ticks");
        assert_eq!(rs.load, 0);
        // nobody was lost and everyone else is satisfied again
        assert_eq!(c.active_slots(), 20);
        assert_eq!(c.unsatisfied(), 0);
        // admission now excludes the drained resource's capacity:
        // 7 × 4 × 0.95 = 26.6 → 26 total slots
        let mut total = 20;
        while c.place(ClassId(0), 1, &mut sink).is_ok() {
            total += 1;
        }
        assert_eq!(total, 26);
        // double-drain is rejected
        assert!(c.drain(victim, &mut sink).is_err());
    }

    #[test]
    fn deterministic_for_a_fixed_request_sequence() {
        let run = || {
            let mut c = ServeCore::with_capacities(&[3; 12], 48, ServeConfig::new(99)).unwrap();
            let mut sink = NoopSink;
            let mut fp = Vec::new();
            for i in 0..30 {
                let _ = c.place(ClassId(0), 1 + (i % 2), &mut sink);
                if i % 5 == 0 {
                    c.tick(i as usize, false, &mut sink);
                }
            }
            for _ in 0..50 {
                c.tick(0, false, &mut sink);
            }
            fp.push(c.state().load_fingerprint());
            fp.push(c.unsatisfied());
            fp
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_place_matches_untraced_trajectory_and_records_probes() {
        let run = |traced: bool| {
            let mut c = ServeCore::with_capacities(&[3; 12], 48, ServeConfig::new(99)).unwrap();
            let mut sink = NoopSink;
            let mut trace = PlaceTrace::default();
            for i in 0..30 {
                if traced {
                    let _ = c.place_traced(ClassId(0), 1 + (i % 2), &mut sink, &mut trace);
                } else {
                    let _ = c.place(ClassId(0), 1 + (i % 2), &mut sink);
                }
                if i % 5 == 0 {
                    c.tick(i as usize, false, &mut sink);
                }
            }
            for _ in 0..50 {
                c.tick(0, false, &mut sink);
            }
            (c.state().load_fingerprint(), c.unsatisfied())
        };
        assert_eq!(run(false), run(true));

        // and the trace carries the probe evidence
        let mut c = small();
        let mut sink = NoopSink;
        let mut trace = PlaceTrace::default();
        let p = c
            .place_traced(ClassId(0), 1, &mut sink, &mut trace)
            .unwrap();
        assert_eq!(trace.probes, 2);
        assert_eq!(trace.headroom.len(), 2);
        // the chosen target's headroom is the max of the probed ones
        let best = trace.headroom.iter().copied().max().unwrap();
        assert_eq!(4 - p.load as i64, best - 1);
    }

    #[test]
    fn tick_traced_captures_migration_sources() {
        let mut c = ServeCore::with_capacities(&[2; 16], 64, ServeConfig::new(3)).unwrap();
        let mut sink = NoopSink;
        for _ in 0..24 {
            c.place(ClassId(0), 1, &mut sink).unwrap();
        }
        let mut moves = Vec::new();
        let mut total = 0u64;
        for _ in 0..200 {
            if c.unsatisfied() == 0 {
                break;
            }
            let out = c.tick_traced(0, false, &mut sink, &mut moves);
            total += out.migrations;
        }
        assert_eq!(c.unsatisfied(), 0);
        assert_eq!(moves.len() as u64, total);
        assert!(total > 0, "collisions should have forced migrations");
        for m in &moves {
            assert_ne!(m.from, m.to, "a captured move must change resources");
        }
        // the last captured move of any user agrees with the final state
        // unless a later un-captured round moved it — there is none here,
        // so replaying the moves over nothing still lands every mover on
        // its final resource
        let mut last: std::collections::BTreeMap<u32, ResourceId> = Default::default();
        for m in &moves {
            last.insert(m.user.0, m.to);
        }
        for (&u, &r) in &last {
            assert_eq!(c.state().resource_of(UserId(u)), r);
        }
    }

    #[test]
    fn budget_halves_with_backlog_and_never_starves() {
        let c = small();
        assert_eq!(c.tick_budget(0), 8);
        assert_eq!(c.tick_budget(1), 4);
        assert_eq!(c.tick_budget(2), 2);
        assert_eq!(c.tick_budget(4), 1);
        assert_eq!(c.tick_budget(1 << 20), 1);
        assert_eq!(c.tick_budget(usize::MAX), 1);
    }

    #[test]
    fn heartbeat_emits_an_empty_round() {
        let mut c = small();
        let mut rec = Recorder::default();
        let out = c.tick(0, true, &mut rec);
        assert_eq!(out.rounds, 1);
        assert_eq!(rec.counter(Counter::Rounds), 1);
        let quiet = c.tick(0, false, &mut rec);
        assert_eq!(quiet.rounds, 0);
        assert_eq!(rec.counter(Counter::Rounds), 1);
    }

    #[test]
    fn counters_flow_to_the_sink() {
        let mut c = ServeCore::with_capacities(&[2; 4], 16, ServeConfig::new(5)).unwrap();
        let mut rec = Recorder::default();
        let p = c.place(ClassId(0), 1, &mut rec).unwrap();
        c.depart(p.user, &mut rec).unwrap();
        // fill to the admission bound, then one reject
        while c.place(ClassId(0), 1, &mut rec).is_ok() {}
        c.drain(ResourceId(0), &mut rec).unwrap();
        assert!(rec.counter(Counter::Placements) >= 2);
        assert!(rec.counter(Counter::AdmissionRejects) >= 1);
        // serve-side departures are their own counter, distinct from the
        // open-system churn counter
        assert_eq!(rec.counter(Counter::ServeDeparts), 1);
        assert_eq!(rec.counter(Counter::Departures), 0);
        assert_eq!(rec.counter(Counter::Drains), 1);
        let (pool, capacity, draining) = c.reject_reasons();
        assert_eq!(pool + capacity + draining, c.totals().1);
        assert!(capacity >= 1);
        assert_eq!(draining, 0);
    }

    #[test]
    fn scenario_population_is_grandfathered() {
        let sc = Scenario::single_class(
            "serve-test",
            96,
            16,
            qlb_workload::CapacityDist::Constant { cap: 8 },
            1.25,
            qlb_workload::Placement::RoundRobin,
        );
        let mut c = ServeCore::from_scenario(&sc, 1, 32, ServeConfig::new(4)).unwrap();
        assert_eq!(c.active_slots(), 96);
        assert_eq!(c.free_slots(), 32);
        let mut sink = NoopSink;
        // scenario users are valid depart tickets
        let d = c.depart(UserId(0), &mut sink).unwrap();
        assert_eq!(d.released, 1);
        assert_eq!(c.active_slots(), 95);
        // and new arrivals take the freed ticket, then the spare slots
        // from the top
        let tickets: Vec<u32> = [1, 3, 1, 2]
            .map(|w| c.place(ClassId(0), w, &mut sink).unwrap().user.0)
            .into();
        assert_eq!(tickets, [0, 127, 124, 123]);

        // the constructor makes one pass over the pool
        let sc = Scenario::single_class(
            "serve-big",
            65_536,
            8192,
            qlb_workload::CapacityDist::Constant { cap: 8 },
            1.25,
            qlb_workload::Placement::RoundRobin,
        );
        let t0 = Instant::now();
        let mut c = ServeCore::from_scenario(&sc, 1, 16_384, ServeConfig::new(4)).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert!(
            secs < if cfg!(debug_assertions) { 10.0 } else { 1.0 },
            "{secs} s"
        );
        assert_eq!((c.active_slots(), c.free_slots()), (65_536, 16_384));
        let tickets: Vec<u32> = [1, 3, 1, 2]
            .map(|w| c.place(ClassId(0), w, &mut sink).unwrap().user.0)
            .into();
        assert_eq!(tickets, [81_919, 81_918, 81_915, 81_914]);
    }

    #[test]
    fn pooled_ticks_match_sequential_ticks() {
        // A hotspot start leaves ~6 000 users unsatisfied, so the first
        // ticks decide far above the 1024-active pooled threshold; the
        // places between ticks add churn to the active set. At tick 24 a
        // burst of 30 groups of 100 slots, each group on one resource,
        // leaves over 3 000 users unsatisfied at the top of the user range,
        // where free slots are taken: the next pooled tick moves the index
        // bounds to them.
        let sc = Scenario::single_class(
            "serve-pooled",
            6000,
            400,
            qlb_workload::CapacityDist::Constant { cap: 20 },
            2.0,
            qlb_workload::Placement::Hotspot,
        );
        let drive = |threads: usize| {
            let cfg = ServeConfig::new(3).with_threads(threads);
            let mut c = ServeCore::from_scenario(&sc, 3, 4000, cfg).unwrap();
            assert!(c.unsatisfied() >= 1024);
            let ranges = |c: &ServeCore| {
                let shards = c.sys.index().shards();
                shards.iter().map(|s| s.range()).collect::<Vec<_>>()
            };
            let mut rec = Recorder::default();
            let mut unsatisfied = Vec::new();
            for tick in 0..40 {
                if tick % 8 == 3 {
                    for _ in 0..40 {
                        let _ = c.place(ClassId(0), 1, &mut rec);
                    }
                }
                let before = ranges(&c);
                if tick == 24 {
                    for _ in 0..30 {
                        c.place(ClassId(0), 100, &mut rec).unwrap();
                    }
                    assert!(c.unsatisfied() >= 3000);
                }
                c.tick(0, false, &mut rec);
                if tick == 24 && threads > 1 {
                    assert_ne!(ranges(&c), before, "threads={threads}: bounds stayed");
                }
                unsatisfied.push(c.unsatisfied());
            }
            (c, rec, unsatisfied)
        };
        let events = |r: &Recorder| r.events().iter().map(|(_, e)| e).collect::<Vec<_>>();
        let (seq, seq_rec, seq_unsat) = drive(0);
        assert_eq!(seq_rec.timers().histogram(Phase::Compute).count(), 0);
        for threads in [2, 3, 8] {
            let (par, rec, unsat) = drive(threads);
            assert_eq!(par.state(), seq.state(), "threads={threads}");
            assert_eq!(
                par.migrations_total(),
                seq.migrations_total(),
                "threads={threads}"
            );
            assert_eq!(unsat, seq_unsat, "threads={threads}");
            assert_eq!(events(&rec), events(&seq_rec), "threads={threads}");
            // the pooled branch was taken: only sharded rounds record Compute
            assert!(
                rec.timers().histogram(Phase::Compute).count() > 0,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn export_delta_chain_tracks_live_state() {
        let mut c = small();
        let mut sink = NoopSink;
        // Replica starts at the initial (all-parked) assignment.
        let mut replica: Vec<u32> = c.state().assignment().iter().map(|r| r.0).collect();
        for step in 0..3 {
            for _ in 0..5 {
                c.place(ClassId(0), 1, &mut sink).unwrap();
            }
            c.tick(0, true, &mut sink);
            if step == 1 {
                c.depart(UserId(c.state().num_users() as u32 - 1), &mut sink)
                    .unwrap();
            }
            let d = c.export_delta();
            assert_eq!(d.base_gen(), step);
            assert_eq!(d.gen(), step + 1);
            d.apply(&mut replica, step).unwrap();
            let live: Vec<u32> = c.state().assignment().iter().map(|r| r.0).collect();
            assert_eq!(replica, live, "replica diverged at export {step}");
        }
        // A quiet period exports an empty (but well-formed) delta.
        let d = c.export_delta();
        assert_eq!(d.changed(), 0);
        assert_eq!(c.export_generation(), 4);
    }
}
