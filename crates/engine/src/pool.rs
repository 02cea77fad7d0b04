//! Persistent worker-pool round executor.
//!
//! The original threaded executor respawned OS threads and reallocated
//! per-shard move buffers **every round** (`std::thread::scope` inside the
//! decide closure). Thread spawn costs tens of microseconds; in the endgame
//! — thousands of near-empty rounds — that fork/join overhead dominates the
//! actual decision work. [`WorkerPool`] fixes the cost model:
//!
//! * workers are spawned **once per run** and parked between rounds;
//!   dispatching a round is an epoch bump plus one `unpark` per
//!   participating worker, roughly two orders of magnitude cheaper than
//!   `threads` spawns (measured in `BENCH_parallel.json`, gated by
//!   `qlb-bench-check`);
//! * dispatch wakes **only the shards that have work**
//!   ([`WorkerPool::run_on`]): a sparse round whose active set fills two
//!   shards leaves the other six workers parked instead of paying their
//!   wake latency every round;
//! * each worker owns a reusable `Vec<Move>` shard buffer that keeps its
//!   capacity across rounds, so steady-state rounds allocate nothing;
//! * per-shard profiling slots are cache-line-isolated atomics
//!   (`PaddedSlot`) — the previous `Vec<Mutex<u64>>` packed eight
//!   hot-written slots into two cache lines, so every timed round
//!   ping-ponged the lines across all workers;
//! * jobs borrow the caller's stack (instance, state, protocol) for the
//!   duration of one dispatch — the [`WorkerPool::run_on`] barrier
//!   returns only after every worker has finished, which is what makes the
//!   borrow sound.
//!
//! The pool is deliberately *not* a work-stealing scheduler: round decisions
//! are uniform-cost scans over contiguous shards, so static sharding (the
//! same partition the scoped executor used) is both optimal and — more
//! importantly — **deterministic**: shard boundaries never depend on timing,
//! so concatenating shard outputs in index order reproduces the sequential
//! move list byte for byte. Shard boundaries are rounded up to 64-byte
//! lines of the struct-of-arrays assignment array ([`shard_chunk`]), so two
//! shards never stream the same cache line.

use crate::run::Executor;
use qlb_core::Move;
use qlb_obs::{Phase, Sink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Type-erased pointer to the per-dispatch job closure.
///
/// The closure is borrowed from [`WorkerPool::run_on`]'s caller; the raw
/// pointer erases that lifetime so it can live in the shared slot. Safety
/// rests on the dispatch barrier: `run_on` does not return until every
/// worker has finished with the pointer.
struct Job {
    f: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointee is `Sync` (bound enforced by `WorkerPool::run_on`) and
// only dereferenced while the originating `run_on` call keeps the borrow
// alive.
unsafe impl Send for Job {}

/// Coordinator/worker shared state: the current job, its epoch, the number
/// of shards participating, and the count of workers still running it.
struct PoolState {
    /// Bumped once per dispatched job; workers wait for it to advance.
    epoch: u64,
    /// The job of the current epoch (present while any worker may run it).
    job: Option<Job>,
    /// Shards participating in the current epoch (`1..=threads`); workers
    /// with shard index `>= active` sit the epoch out and stay parked.
    active: usize,
    /// Workers that have not yet finished the current epoch's job.
    pending: usize,
    /// Set once by `Drop`; workers exit at the next wake.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// The coordinator sleeps here while `pending > 0`. (Workers sleep in
    /// `std::thread::park`, woken individually — a shared condvar would
    /// wake every worker on every dispatch even when only two shards have
    /// work.)
    done: Condvar,
}

/// A per-shard profiling slot on its own pair of cache lines.
///
/// Every worker writes its slot on every timed round; padding to 128 bytes
/// (two lines, defeating the adjacent-line prefetcher) keeps those writes
/// from invalidating each other's lines. Relaxed ordering suffices: the
/// slot is written before the worker's `pending` decrement (a mutex
/// release) and read after the coordinator observes `pending == 0` (a
/// mutex acquire), so the barrier orders the accesses.
#[repr(align(128))]
#[derive(Default)]
struct PaddedSlot(AtomicU64);

const _: () = assert!(std::mem::size_of::<PaddedSlot>() == 128);

/// A pool of long-lived worker threads executing one sharded job at a time.
///
/// Created once per run; [`WorkerPool::run_on`] dispatches a closure to a
/// prefix `0..active` of the shards and blocks until every one of them
/// completed. The coordinator thread executes shard 0 itself, so a
/// 1-thread pool spawns no OS threads at all and `run_on(f, 1)` is exactly
/// `f(0)`.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Per-shard reusable move buffers (index 0 = coordinator's shard).
    shards: Vec<Mutex<Vec<Move>>>,
    /// Per-shard compute time of the last timed dispatch, in ns.
    compute_ns: Vec<PaddedSlot>,
    /// Per-shard dispatch wake latency of the last timed dispatch, in ns:
    /// from just before the epoch bump to the closure starting on the
    /// shard. Shard 0 is the coordinator, so its sample measures the
    /// dispatch lock + unpark cost rather than a real wake.
    wake_ns: Vec<PaddedSlot>,
    /// Reusable (compute, wake) snapshot buffers for
    /// [`WorkerPool::decide_round_observed_on`], so per-shard profiling
    /// adds no steady-state allocation.
    profile_scratch: Mutex<(Vec<u64>, Vec<u64>)>,
}

impl WorkerPool {
    /// Spawn a pool driving `threads` shards (`threads - 1` OS threads; the
    /// coordinator works shard 0).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                pending: 0,
                shutdown: false,
            }),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qlb-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            shards: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            compute_ns: (0..threads).map(|_| PaddedSlot::default()).collect(),
            wake_ns: (0..threads).map(|_| PaddedSlot::default()).collect(),
            profile_scratch: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    /// Number of shards (worker threads + the coordinator).
    #[inline]
    pub fn threads(&self) -> usize {
        self.shards.len()
    }

    /// Execute `f(shard)` for shards `0..active`, in parallel, and return
    /// once all of them completed, leaving the remaining workers parked —
    /// rounds whose work fills fewer shards than the pool has wake only
    /// those. The closure may borrow the caller's stack freely — the
    /// barrier keeps the borrow alive for exactly the dispatch. `active` is
    /// clamped to `1..=threads()`; `run_on(f, 1)` is exactly `f(0)` with
    /// no wake at all.
    pub fn run_on<F: Fn(usize) + Sync>(&self, f: &F, active: usize) {
        let active = active.clamp(1, self.threads());
        if active == 1 {
            f(0);
            return;
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.pending == 0 && st.job.is_none(), "overlapping dispatch");
            let short: &(dyn Fn(usize) + Sync) = f;
            // SAFETY (lifetime erasure): the transmute only extends the
            // borrow's lifetime to `'static` so it fits the shared slot; the
            // pointer is cleared below after `pending` drains to zero,
            // before this borrow of `f` ends.
            let long: &'static (dyn Fn(usize) + Sync + 'static) =
                unsafe { std::mem::transmute(short) };
            st.job = Some(Job {
                f: long as *const _,
            });
            st.epoch += 1;
            st.active = active;
            st.pending = active - 1;
        }
        // Wake only the participating workers (worker i drives shard i+1).
        // The unpark token makes this race-free: a worker that has observed
        // the new epoch already simply consumes the token at its next park.
        for w in &self.workers[..active - 1] {
            w.thread().unpark();
        }
        f(0);
        let mut st = self.shared.state.lock().unwrap();
        while st.pending > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
    }

    /// Dispatch one **decide round** over shards `0..active`: each shard
    /// fills its private reusable buffer via `fill(shard, buf)`, then the
    /// buffers are drained into `out` in shard order (shard 0 first) — the
    /// same concatenation order the sequential scan produces. Buffers keep
    /// their capacity across rounds, so steady-state rounds perform no
    /// allocation.
    ///
    /// Returns the longest single-shard compute time in ns when `timed` is
    /// true (0 otherwise) so callers can split fork/join overhead from
    /// useful work in the phase timers.
    pub fn decide_round_on<F>(
        &self,
        fill: F,
        out: &mut Vec<Move>,
        timed: bool,
        active: usize,
    ) -> u64
    where
        F: Fn(usize, &mut Vec<Move>) + Sync,
    {
        let active = active.clamp(1, self.threads());
        let dispatched = timed.then(Instant::now);
        self.run_on(
            &|shard: usize| {
                if let Some(d0) = dispatched {
                    self.wake_ns[shard]
                        .0
                        .store(d0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                let t0 = timed.then(Instant::now);
                let mut buf = self.shards[shard].lock().unwrap();
                buf.clear();
                fill(shard, &mut buf);
                drop(buf);
                if let Some(t0) = t0 {
                    self.compute_ns[shard]
                        .0
                        .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            },
            active,
        );
        out.clear();
        let mut max_ns = 0u64;
        for (i, shard) in self.shards.iter().take(active).enumerate() {
            out.extend_from_slice(&shard.lock().unwrap());
            if timed {
                max_ns = max_ns.max(self.compute_ns[i].0.load(Ordering::Relaxed));
            }
        }
        max_ns
    }

    /// [`WorkerPool::decide_round_on`] with the observability emission all
    /// observed pooled drivers share: `Decide` is the round's wall time,
    /// `Compute` the longest single shard, `ForkJoin` the remainder
    /// (dispatch, join, and shard-buffer drain). With `shard_timing` the
    /// per-shard compute times of the participating shards (each clipped
    /// to the round's wall time, so their per-round maximum sums exactly
    /// to the `Compute` aggregate) and dispatch wake latencies are
    /// forwarded to [`Sink::shard_round`] as well.
    ///
    /// With a disabled sink this is exactly the untimed
    /// [`WorkerPool::decide_round_on`] — no clock reads, no emission.
    pub fn decide_round_observed_on<S, F>(
        &self,
        fill: F,
        out: &mut Vec<Move>,
        sink: &mut S,
        shard_timing: bool,
        active: usize,
    ) where
        S: Sink,
        F: Fn(usize, &mut Vec<Move>) + Sync,
    {
        let active = active.clamp(1, self.threads());
        if !S::ENABLED {
            self.decide_round_on(fill, out, false, active);
            return;
        }
        let t0 = Instant::now();
        let max_ns = self.decide_round_on(fill, out, true, active);
        let wall = t0.elapsed().as_nanos() as u64;
        let compute = max_ns.min(wall);
        sink.time(Phase::Decide, wall);
        sink.time(Phase::Compute, compute);
        sink.time(Phase::ForkJoin, wall.saturating_sub(compute));
        if shard_timing {
            let mut scratch = self.profile_scratch.lock().unwrap();
            let (compute_v, wake_v) = &mut *scratch;
            compute_v.clear();
            wake_v.clear();
            for i in 0..active {
                compute_v.push(self.compute_ns[i].0.load(Ordering::Relaxed).min(wall));
                wake_v.push(self.wake_ns[i].0.load(Ordering::Relaxed));
            }
            sink.shard_round(compute_v, wake_v);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if index < st.active {
                        break;
                    }
                    // an epoch this worker sits out: acknowledge it so a
                    // later spurious wake cannot mistake it for fresh work
                    seen_epoch = st.epoch;
                }
                drop(st);
                std::thread::park();
                st = shared.state.lock().unwrap();
            }
            seen_epoch = st.epoch;
            let job = st.job.as_ref().expect("job set for new epoch");
            Job { f: job.f }
        };
        // SAFETY: the dispatching `run_on` call blocks until `pending == 0`,
        // so the borrow behind the pointer is alive for this call.
        (unsafe { &*job.f })(index);
        let mut st = shared.state.lock().unwrap();
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_one();
        }
    }
}

/// The shard size the pooled executors use for a round over `len` items on
/// a `threads`-shard pool: the near-equal split, rounded **up to 16 items
/// (one 64-byte cache line of the `u32` SoA arrays)** so consecutive
/// shards never stream the same line of the assignment array.
pub fn shard_chunk(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1)).max(1).next_multiple_of(16)
}

/// Number of non-empty shards a round over `len` items occupies (at least
/// 1 — an empty round still runs the coordinator's no-op shard). This is
/// the `active` argument the pooled drivers pass to
/// [`WorkerPool::run_on`]-based dispatch so workers without a shard stay
/// parked.
pub fn shards_for(len: usize, threads: usize) -> usize {
    len.div_ceil(shard_chunk(len, threads)).max(1)
}

/// Split `0..n` into at most `threads` contiguous shards of near-equal
/// size (boundaries cache-line-rounded per [`shard_chunk`]), dropping
/// empty shards.
pub fn shard_bounds(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunk = shard_chunk(n, threads);
    (0..threads)
        .map(|t| ((t * chunk).min(n), ((t + 1) * chunk).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// The pool a pooled executor runs on for `n` users: one shard per
/// non-empty [`shard_bounds`] range, or `None` for the sequential
/// executors and for populations a single shard covers (the sequential
/// loop is then the same computation without the dispatch). More threads
/// than shards would only park idle workers.
///
/// # Panics
/// Panics on a pooled executor with zero threads.
pub(crate) fn pool_for(executor: Executor, n: usize) -> Option<WorkerPool> {
    match executor {
        Executor::Dense | Executor::Sparse => None,
        Executor::Threaded(threads) | Executor::SparseThreaded(threads) => {
            assert!(threads > 0, "need at least one thread");
            let shards = shards_for(n, threads);
            (shards > 1).then(|| WorkerPool::new(shards))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_shard_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        for _ in 0..100 {
            pool.run_on(
                &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
                pool.threads(),
            );
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 100));
    }

    #[test]
    fn run_on_skips_parked_shards() {
        let pool = WorkerPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        for _ in 0..50 {
            pool.run_on(
                &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
                2,
            );
        }
        assert_eq!(hits[0].load(Ordering::Relaxed), 50);
        assert_eq!(hits[1].load(Ordering::Relaxed), 50);
        assert_eq!(hits[2].load(Ordering::Relaxed), 0);
        assert_eq!(hits[3].load(Ordering::Relaxed), 0);
        // the full pool still works after partial dispatches
        pool.run_on(
            &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
            pool.threads(),
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) >= 1));
        assert_eq!(hits[3].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_on_alternating_widths() {
        // interleave narrow and wide dispatches: every width must hit
        // exactly its prefix, and sat-out workers must rejoin cleanly
        let pool = WorkerPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        let mut expected = [0usize; 4];
        for round in 0..60 {
            let active = 1 + round % 4;
            pool.run_on(
                &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
                active,
            );
            for e in expected.iter_mut().take(active) {
                *e += 1;
            }
        }
        for (h, e) in hits.iter().zip(expected) {
            assert_eq!(h.load(Ordering::Relaxed), e);
        }
    }

    #[test]
    fn single_thread_pool_spawns_nothing() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hit = AtomicUsize::new(0);
        pool.run_on(
            &|i| {
                assert_eq!(i, 0);
                hit.fetch_add(1, Ordering::Relaxed);
            },
            pool.threads(),
        );
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn decide_round_concatenates_in_shard_order() {
        use qlb_core::{ResourceId, UserId};
        let pool = WorkerPool::new(3);
        let mut out = Vec::new();
        for round in 0..50u32 {
            let max_ns = pool.decide_round_on(
                |shard, buf| {
                    for k in 0..=shard as u32 {
                        buf.push(Move {
                            user: UserId(shard as u32 * 100 + k + round),
                            from: ResourceId(0),
                            to: ResourceId(1),
                        });
                    }
                },
                &mut out,
                round % 2 == 0,
                pool.threads(),
            );
            let users: Vec<u32> = out.iter().map(|mv| mv.user.0).collect();
            assert_eq!(
                users,
                vec![
                    round,
                    100 + round,
                    101 + round,
                    200 + round,
                    201 + round,
                    202 + round
                ]
            );
            if round % 2 == 1 {
                assert_eq!(max_ns, 0);
            }
        }
    }

    #[test]
    fn decide_round_on_drains_active_shards_only() {
        use qlb_core::{ResourceId, UserId};
        let pool = WorkerPool::new(4);
        let mut out = Vec::new();
        // seed every shard's buffer with a full dispatch...
        pool.decide_round_on(
            |shard, buf| {
                buf.push(Move {
                    user: UserId(shard as u32),
                    from: ResourceId(0),
                    to: ResourceId(1),
                });
            },
            &mut out,
            false,
            pool.threads(),
        );
        assert_eq!(out.len(), 4);
        // ...then a 2-shard round must not leak shard 2/3's stale moves
        pool.decide_round_on(
            |shard, buf| {
                buf.push(Move {
                    user: UserId(10 + shard as u32),
                    from: ResourceId(0),
                    to: ResourceId(1),
                });
            },
            &mut out,
            false,
            2,
        );
        let users: Vec<u32> = out.iter().map(|mv| mv.user.0).collect();
        assert_eq!(users, vec![10, 11]);
    }

    #[test]
    fn borrows_caller_stack() {
        let pool = WorkerPool::new(2);
        let data = [1u64, 2, 3, 4];
        let sums = [AtomicUsize::new(0), AtomicUsize::new(0)];
        pool.run_on(
            &|i| {
                sums[i].store(data.iter().sum::<u64>() as usize + i, Ordering::Relaxed);
            },
            pool.threads(),
        );
        assert_eq!(sums[0].load(Ordering::Relaxed), 10);
        assert_eq!(sums[1].load(Ordering::Relaxed), 11);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn decide_round_observed_profiles_every_shard() {
        use qlb_core::{ResourceId, UserId};
        use qlb_obs::Recorder;
        let pool = WorkerPool::new(3);
        let mut rec = Recorder::default();
        let mut out = Vec::new();
        for round in 0..20u32 {
            pool.decide_round_observed_on(
                |shard, buf| {
                    buf.push(Move {
                        user: UserId(shard as u32 * 10 + round),
                        from: ResourceId(0),
                        to: ResourceId(1),
                    });
                },
                &mut out,
                &mut rec,
                true,
                pool.threads(),
            );
            assert_eq!(out.len(), 3);
        }
        let st = rec.shard_timers();
        assert_eq!(st.num_shards(), 3);
        assert_eq!(st.rounds(), 20);
        assert_eq!(st.dispatch().count(), 60);
        // per-round shard maxima (clipped to wall) sum exactly to the
        // aggregate Compute phase total
        assert_eq!(st.critical_ns(), rec.timers().total_ns(Phase::Compute));
        assert_eq!(rec.timers().histogram(Phase::Decide).count(), 20);
        assert_eq!(rec.timers().histogram(Phase::ForkJoin).count(), 20);
    }

    #[test]
    fn decide_round_observed_on_profiles_active_prefix() {
        use qlb_obs::Recorder;
        let pool = WorkerPool::new(4);
        let mut rec = Recorder::default();
        let mut out = Vec::new();
        for _ in 0..10 {
            pool.decide_round_observed_on(|_, _| {}, &mut out, &mut rec, true, 2);
        }
        let st = rec.shard_timers();
        assert_eq!(st.num_shards(), 2, "only participating shards profiled");
        assert_eq!(st.dispatch().count(), 20);
    }

    #[test]
    fn decide_round_observed_noop_sink_records_nothing() {
        use qlb_obs::NoopSink;
        let pool = WorkerPool::new(2);
        let mut out = Vec::new();
        pool.decide_round_observed_on(|_, _| {}, &mut out, &mut NoopSink, true, pool.threads());
        // untimed path: the wake/compute slots were never written
        assert_eq!(pool.wake_ns[0].0.load(Ordering::Relaxed), 0);
        assert_eq!(pool.compute_ns[1].0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shard_bounds_cover_range_without_overlap() {
        for n in [0usize, 1, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 2000] {
                let bounds = shard_bounds(n, threads);
                let mut covered = 0usize;
                let mut prev_hi = 0usize;
                for &(lo, hi) in &bounds {
                    assert!(lo < hi);
                    assert_eq!(lo, prev_hi);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, n);
                assert!(bounds.len() <= threads.max(1));
                if n > 0 {
                    assert_eq!(bounds.len(), shards_for(n, threads));
                }
            }
        }
    }

    #[test]
    fn shard_boundaries_are_cache_line_rounded() {
        for n in [100usize, 1000, 1 << 20] {
            for threads in [2usize, 3, 8] {
                let chunk = shard_chunk(n, threads);
                assert_eq!(chunk % 16, 0, "chunk {chunk} not line-rounded");
                for &(lo, hi) in &shard_bounds(n, threads) {
                    assert_eq!(lo % 16, 0, "shard start {lo} mid-line");
                    assert!(hi == n || hi % 16 == 0);
                }
                assert_eq!(shards_for(n, threads), shard_bounds(n, threads).len());
            }
        }
        // tiny rounds collapse to one shard instead of waking the pool
        assert_eq!(shards_for(10, 8), 1);
        assert_eq!(shards_for(0, 8), 1);
        assert_eq!(shards_for(17, 8), 2);
    }

    #[test]
    fn pool_for_caps_threads_at_filled_shards() {
        // 64 users fill 4 cache-line shards: 3 OS threads, not 127
        let pool = pool_for(Executor::SparseThreaded(128), 64).unwrap();
        assert!(pool.threads() <= 4, "{} shards", pool.threads());
        assert_eq!(pool.threads(), shards_for(64, 128));
        assert_eq!(pool_for(Executor::Threaded(128), 64).unwrap().threads(), 4);
        assert_eq!(
            pool_for(Executor::SparseThreaded(2), 125_000)
                .unwrap()
                .threads(),
            2
        );
        // one shard, or a sequential executor: no pool at all
        assert!(pool_for(Executor::Threaded(8), 10).is_none());
        assert!(pool_for(Executor::SparseThreaded(1), 1_000).is_none());
        assert!(pool_for(Executor::Sparse, 1_000).is_none());
        assert!(pool_for(Executor::Dense, 1_000).is_none());
    }
}
