//! Counter-based per-(stream, round) random streams.

use crate::mix::{mix64, mix64_pair, unmix64_pair};
use crate::Rng64;

/// A counter-based random stream addressed by `(seed, stream, round)`.
///
/// `RoundStream::new(seed, u, t)` is the randomness available to user `u`
/// in round `t` of the run identified by `seed`. The `k`-th draw is the pure
/// function `mix64(base + k)` where `base` folds all three coordinates, so:
///
/// * any executor — sequential loop, thread pool, active-set walk — that asks
///   for the same `(seed, u, t, k)` gets the same bits;
/// * streams for different users/rounds are statistically independent
///   (avalanche of [`mix64`] over well-separated bases);
/// * no state needs to be carried between rounds, which keeps actors
///   stateless with respect to randomness.
///
/// This is the Philox/Threefry idea with a cheaper (non-cryptographic) mixer,
/// which is the right trade-off for Monte-Carlo simulation.
#[derive(Debug, Clone)]
pub struct RoundStream {
    base: u64,
    counter: u64,
}

impl RoundStream {
    /// Stream for `stream` (e.g. a user id) in `round` of run `seed`.
    #[inline]
    pub fn new(seed: u64, stream: u64, round: u64) -> Self {
        Self::from_base(Self::base(seed, stream, round))
    }

    /// The folded base of the `(seed, stream, round)` stream — the only
    /// per-stream state. `from_base(base(s, u, t))` is exactly `new(s, u, t)`;
    /// splitting the two lets batch kernels precompute bases for a whole
    /// block of users in one pass (see [`fold_round_bases`]) instead of
    /// re-folding coordinates inside the per-user hot loop.
    #[inline]
    pub fn base(seed: u64, stream: u64, round: u64) -> u64 {
        // Fold the three coordinates with two asymmetric pair-mixes.
        // `seed` and `stream` are mixed first so that all rounds of one user
        // share a well-separated lane; `round` then offsets within the lane.
        let lane = mix64_pair(seed, stream);
        mix64_pair(lane, round)
    }

    /// The `seed` with `base(seed, stream, round) == base`, for tests that
    /// build a run whose streams start where they choose.
    #[doc(hidden)]
    pub fn seed_of_base(base: u64, stream: u64, round: u64) -> u64 {
        unmix64_pair(unmix64_pair(base, round), stream)
    }

    /// Rebuild a fresh (zero-draw) stream from a precomputed base.
    #[inline]
    pub fn from_base(base: u64) -> Self {
        Self { base, counter: 0 }
    }

    /// Number of draws consumed so far.
    #[inline]
    pub fn draws(&self) -> u64 {
        self.counter
    }

    /// Jump directly to draw index `k` (used by tests to verify purity).
    #[inline]
    pub fn at(seed: u64, stream: u64, round: u64, k: u64) -> u64 {
        Self::draw(Self::base(seed, stream, round), k)
    }

    /// Draw `k` of the stream with base `base`: what the `k`-th
    /// [`Rng64::next_u64`] of [`RoundStream::from_base`]`(base)` returns,
    /// for batch kernels that compute a block's draws side by side.
    #[inline]
    pub fn draw(base: u64, k: u64) -> u64 {
        // odd multiplier spreads consecutive counters across the space
        mix64(base.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }
}

impl Rng64 for RoundStream {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = Self::draw(self.base, self.counter);
        self.counter += 1;
        out
    }
}

/// Write the [`RoundStream::base`] of every stream id in `streams` for
/// `(seed, round)` into the matching slot of `out` — the batched-RNG
/// primitive of every batched decide kernel. Callers rebuild each stream
/// with [`RoundStream::from_base`]; draw-for-draw the result is identical
/// to constructing it with [`RoundStream::new`], so batching can never
/// change a decision.
///
/// The loop is compiled three times: for baseline x86-64, with AVX2 and
/// with AVX-512F/DQ, whose `vpmullq` hashes eight bases per instruction.
/// The widest path the CPU supports is picked at run time; off x86-64 only
/// the plain loop exists.
///
/// # Panics
/// If `streams` and `out` differ in length.
pub fn fold_round_bases(seed: u64, round: u64, streams: &[u32], out: &mut [u64]) {
    assert_eq!(streams.len(), out.len(), "one base slot per stream id");
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            // SAFETY: the CPU supports AVX-512F and AVX-512DQ (checked above).
            return unsafe { fold_avx512(seed, round, streams, out) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2 (checked above).
            return unsafe { fold_avx2(seed, round, streams, out) };
        }
    }
    fold_scalar(seed, round, streams, out)
}

/// The one body of [`fold_round_bases`], inlined into each compiled path.
#[inline(always)]
fn fold_body(seed: u64, round: u64, streams: &[u32], out: &mut [u64]) {
    for (base, &s) in out.iter_mut().zip(streams) {
        *base = RoundStream::base(seed, s as u64, round);
    }
}

/// [`fold_body`] for baseline code generation.
fn fold_scalar(seed: u64, round: u64, streams: &[u32], out: &mut [u64]) {
    fold_body(seed, round, streams, out)
}

/// [`fold_body`] compiled for AVX2; call only on a CPU that has it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_avx2(seed: u64, round: u64, streams: &[u32], out: &mut [u64]) {
    fold_body(seed, round, streams, out)
}

/// [`fold_body`] compiled for AVX-512F and AVX-512DQ; call only on a CPU
/// that has both.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fold_avx512(seed: u64, round: u64, streams: &[u32], out: &mut [u64]) {
    fold_body(seed, round, streams, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn identical_coordinates_identical_bits() {
        let mut a = RoundStream::new(1, 2, 3);
        let mut b = RoundStream::new(1, 2, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seed_of_base_inverts_the_fold() {
        for (base, stream, round) in [(0, 0, 0), (42, 7, 3), (u64::MAX, 1 << 31, 99)] {
            let seed = RoundStream::seed_of_base(base, stream, round);
            assert_eq!(RoundStream::base(seed, stream, round), base);
        }
    }

    #[test]
    fn any_coordinate_change_changes_stream() {
        let base: Vec<u64> = {
            let mut s = RoundStream::new(1, 2, 3);
            (0..8).map(|_| s.next_u64()).collect()
        };
        for (seed, stream, round) in [(2, 2, 3), (1, 3, 3), (1, 2, 4)] {
            let mut s = RoundStream::new(seed, stream, round);
            let other: Vec<u64> = (0..8).map(|_| s.next_u64()).collect();
            assert_ne!(base, other);
        }
    }

    #[test]
    fn at_matches_sequential_draws() {
        let mut s = RoundStream::new(7, 11, 13);
        for k in 0..50 {
            assert_eq!(s.next_u64(), RoundStream::at(7, 11, 13, k));
        }
    }

    #[test]
    fn streams_do_not_collide_across_users_and_rounds() {
        // First draw of 100 users × 100 rounds must be all distinct: a
        // collision would mean two users share randomness, i.e. correlated
        // migrations — exactly the bug class this crate exists to prevent.
        let mut seen = HashSet::new();
        for user in 0..100u64 {
            for round in 0..100u64 {
                let mut s = RoundStream::new(0xDEAD_BEEF, user, round);
                assert!(seen.insert(s.next_u64()));
            }
        }
    }

    #[test]
    fn per_stream_uniformity() {
        // Aggregate first draws over many users: should look uniform.
        let n = 100_000u64;
        let buckets = 16usize;
        let mut counts = vec![0u32; buckets];
        for user in 0..n {
            let mut s = RoundStream::new(5, user, 0);
            counts[(s.next_u64() >> 60) as usize] += 1;
        }
        let expected = n as f64 / buckets as f64;
        for &c in &counts {
            assert!(((c as f64 - expected) / expected).abs() < 0.05);
        }
    }

    #[test]
    fn base_round_trip_is_bit_identical() {
        for (seed, stream, round) in [(0, 0, 0), (7, 11, 13), (u64::MAX, 42, 9)] {
            let mut a = RoundStream::new(seed, stream, round);
            let mut b = RoundStream::from_base(RoundStream::base(seed, stream, round));
            for _ in 0..16 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    /// Stream ids biased toward the extremes `0` and `u32::MAX`.
    fn stream_id() -> impl Strategy<Value = u32> {
        (0u8..4, 0..=u32::MAX).prop_map(|(pick, id)| match pick {
            0 => 0,
            1 => u32::MAX,
            _ => id,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lengths up to 300 leave every 4- and 8-lane remainder and span
        /// a whole 256-id block, so each compiled path runs its vector
        /// loop as well as its tail.
        #[test]
        fn every_fold_path_matches_round_stream_base(
            seed in 0..=u64::MAX,
            round in 0..=u64::MAX,
            streams in proptest::collection::vec(stream_id(), 0..=300usize),
        ) {
            let expect: Vec<u64> = streams
                .iter()
                .map(|&s| RoundStream::base(seed, s as u64, round))
                .collect();
            let mut out = vec![0; streams.len()];
            fold_scalar(seed, round, &streams, &mut out);
            prop_assert_eq!(&out, &expect);
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    out.fill(0);
                    // SAFETY: the CPU supports AVX2 (checked above).
                    unsafe { fold_avx2(seed, round, &streams, &mut out) };
                    prop_assert_eq!(&out, &expect);
                }
                if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                    out.fill(0);
                    // SAFETY: the CPU supports AVX-512F and AVX-512DQ
                    // (checked above).
                    unsafe { fold_avx512(seed, round, &streams, &mut out) };
                    prop_assert_eq!(&out, &expect);
                }
            }
            out.fill(0);
            fold_round_bases(seed, round, &streams, &mut out);
            prop_assert_eq!(&out, &expect);
        }
    }

    #[test]
    #[should_panic(expected = "one base slot per stream id")]
    fn fold_rejects_mismatched_lengths() {
        fold_round_bases(1, 2, &[3, 4], &mut [0; 3]);
    }

    #[test]
    fn draws_counter_tracks() {
        let mut s = RoundStream::new(1, 1, 1);
        assert_eq!(s.draws(), 0);
        s.next_u64();
        s.next_u64();
        assert_eq!(s.draws(), 2);
    }
}
