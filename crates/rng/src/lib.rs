//! # qlb-rng — deterministic randomness for distributed simulation
//!
//! Reproducing a randomized distributed protocol across several executors
//! (a sequential engine, a multi-threaded engine, a sparse active-set walk)
//! requires that the random draw a user makes in a given round is a
//! **pure function of `(seed, user, round)`** — independent of the order in
//! which threads happen to evaluate users. Ordinary stateful RNGs
//! cannot provide this: interleaving changes the draw sequence.
//!
//! This crate therefore provides *counter-based* random streams in the style
//! of Salmon et al.'s "Parallel random numbers: as easy as 1, 2, 3"
//! (SC'11): a strong 64-bit mixing function is applied to a counter derived
//! from `(seed, stream, round, draw)`. Any executor that asks for "user
//! `u`'s `k`-th draw in round `t`" gets the same bits, bit-for-bit.
//!
//! The crate also ships two conventional stateful generators —
//! [`SplitMix64`] and [`Xoshiro256pp`] — used where a plain sequential
//! stream is fine (workload generation, seeding), plus distribution helpers
//! ([`Rng64`] provided methods) shared by every layer above.
//!
//! ```
//! use qlb_rng::{RoundStream, Rng64};
//!
//! // user 17's randomness in round 3 of the run with seed 42:
//! let mut s1 = RoundStream::new(42, 17, 3);
//! let mut s2 = RoundStream::new(42, 17, 3);
//! assert_eq!(s1.next_u64(), s2.next_u64()); // identical on any executor
//! ```

#![warn(missing_docs)]

mod mix;
mod splitmix;
mod stream;
mod xoshiro;

pub use mix::{mix64, mix64_pair};
#[doc(hidden)]
pub use mix::{unmix64, unmix64_pair};
pub use splitmix::SplitMix64;
pub use stream::{fold_round_bases, RoundStream};
pub use xoshiro::Xoshiro256pp;

/// The uniform `f64` in `[0, 1)` that [`Rng64::next_f64`] makes of the
/// 64 random bits `bits`: their top 53 bits over 2⁵³.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A minimal 64-bit random generator interface with the derived draws every
/// protocol and generator in this workspace needs.
///
/// The provided methods are implemented once here so that all executors
/// (engine, workload generators) interpret raw bits identically —
/// a prerequisite for cross-executor determinism.
pub trait Rng64 {
    /// Produce the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method: unbiased and needs one
    /// multiplication in the common case.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    fn uniform(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            // rejection zone to remove modulo bias
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`. Convenience wrapper over [`Rng64::uniform`].
    #[inline]
    fn uniform_usize(&mut self, n: usize) -> usize {
        self.uniform(n as u64) as usize
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    ///
    /// `p <= 0` never fires and `p >= 1` always fires, deterministically and
    /// without consuming randomness, so degenerate protocol parameters stay
    /// reproducible and cheap.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.uniform(span + 1)
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.uniform_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample an index from a discrete distribution given by non-negative
    /// `weights` (not necessarily normalized) using inverse-CDF sampling.
    ///
    /// Returns `None` if all weights are zero or the slice is empty.
    fn weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slop: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SplitMix64::new(99);
        for n in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..1000 {
                assert!(rng.uniform(n) < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "uniform(0)")]
    fn uniform_zero_panics() {
        SplitMix64::new(1).uniform(0);
    }

    #[test]
    fn uniform_is_roughly_unbiased() {
        // chi-square-ish sanity check on a small modulus
        let mut rng = SplitMix64::new(2024);
        let n = 10u64;
        let draws = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..draws {
            counts[rng.uniform(n) as usize] += 1;
        }
        let expected = draws as f64 / n as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket deviates {dev} from uniform");
        }
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            assert!(!rng.bernoulli(0.0));
            assert!(!rng.bernoulli(-1.0));
            assert!(rng.bernoulli(1.0));
            assert!(rng.bernoulli(2.0));
        }
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut rng = SplitMix64::new(77);
        let p = 0.3;
        let trials = 200_000;
        let hits = (0..trials).filter(|_| rng.bernoulli(p)).count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - p).abs() < 0.01, "freq {freq} vs p {p}");
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = SplitMix64::new(8);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match rng.range_inclusive(3, 6) {
                3 => saw_lo = true,
                6 => saw_hi = true,
                x => assert!((3..=6).contains(&x)),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn range_inclusive_degenerate() {
        let mut rng = SplitMix64::new(8);
        assert_eq!(rng.range_inclusive(5, 5), 5);
        // full-span range must not overflow
        let _ = rng.range_inclusive(0, u64::MAX);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(13);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_skips_zero_weights() {
        let mut rng = SplitMix64::new(21);
        let weights = [0.0, 2.0, 0.0, 1.0];
        for _ in 0..1000 {
            let i = rng.weighted(&weights).unwrap();
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn weighted_empty_and_zero_total() {
        let mut rng = SplitMix64::new(21);
        assert_eq!(rng.weighted(&[]), None);
        assert_eq!(rng.weighted(&[0.0, 0.0]), None);
    }

    #[test]
    fn weighted_frequency() {
        let mut rng = SplitMix64::new(31);
        let weights = [1.0, 3.0];
        let trials = 100_000;
        let ones = (0..trials)
            .filter(|_| rng.weighted(&weights) == Some(1))
            .count();
        let freq = ones as f64 / trials as f64;
        assert!((freq - 0.75).abs() < 0.01);
    }
}
