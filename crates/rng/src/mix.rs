//! 64-bit mixing functions (finalizers) used by the counter-based streams.

/// Stafford's "Mix13" variant of the MurmurHash3/SplitMix64 finalizer.
///
/// A bijection on `u64` with excellent avalanche behaviour (every input bit
/// flips each output bit with probability ≈ 1/2). This is the core primitive
/// behind both [`crate::SplitMix64`] and [`crate::RoundStream`].
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mix two words into one, with enough asymmetry that `mix64_pair(a, b)` and
/// `mix64_pair(b, a)` are unrelated.
///
/// Used to fold `(seed, stream)` and `(round, draw)` coordinates into the
/// counter of a [`crate::RoundStream`]. The odd constant is the golden-ratio
/// increment of SplitMix64, which guarantees consecutive streams (`stream`,
/// `stream + 1`) land far apart in the mixed space.
#[inline]
pub fn mix64_pair(a: u64, b: u64) -> u64 {
    mix64(a ^ pair_key(b))
}

/// The key [`mix64_pair`] folds its second argument into:
/// `mix64_pair(a, b) == mix64(a ^ pair_key(b))`.
#[inline]
fn pair_key(b: u64) -> u64 {
    mix64(
        b.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491_4f6c_dd1d),
    )
}

/// The inverse of [`mix64`]: `mix64(unmix64(x)) == x`. For tests that
/// need a stream whose draws start where they choose.
#[doc(hidden)]
pub fn unmix64(x: u64) -> u64 {
    // undo `z ^= z >> s` by re-applying it until every bit is recovered
    fn unshift(y: u64, s: u32) -> u64 {
        (0..64 / s).fold(y, |x, _| y ^ (x >> s))
    }
    // the inverse of an odd multiplier mod 2⁶⁴, by Newton's iteration
    fn inverse(c: u64) -> u64 {
        (0..6).fold(c, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)))
        })
    }
    let z = unshift(x, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
    unshift(
        unshift(z, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9)),
        30,
    )
}

/// The `a` with `mix64_pair(a, b) == y`: [`mix64_pair`] is a bijection in
/// its first argument.
#[doc(hidden)]
pub fn unmix64_pair(y: u64, b: u64) -> u64 {
    unmix64(y) ^ pair_key(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_is_injective_on_sample() {
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn mix64_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let trials = 2_000u64;
        let mut total_flips = 0u32;
        for i in 0..trials {
            let base = mix64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for bit in 0..64 {
                let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (1 << bit);
                total_flips += (mix64(x) ^ base).count_ones();
            }
        }
        let avg = total_flips as f64 / (trials * 64) as f64;
        assert!(
            (avg - 32.0).abs() < 1.0,
            "avalanche average {avg} far from 32"
        );
    }

    #[test]
    fn unmix_inverts_mix() {
        for x in [0, 1, 42, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(mix64(unmix64(x)), x);
            assert_eq!(unmix64(mix64(x)), x);
            for b in [0, 7, u64::MAX] {
                assert_eq!(mix64_pair(unmix64_pair(x, b), b), x);
            }
        }
    }

    #[test]
    fn mix64_pair_is_order_sensitive() {
        assert_ne!(mix64_pair(1, 2), mix64_pair(2, 1));
        let mut seen = HashSet::new();
        for a in 0..200u64 {
            for b in 0..200u64 {
                seen.insert(mix64_pair(a, b));
            }
        }
        assert_eq!(seen.len(), 200 * 200, "pair collisions in small grid");
    }
}
