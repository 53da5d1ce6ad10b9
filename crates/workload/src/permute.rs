//! Seeded bijections from popularity ranks to key identifiers.
//!
//! Simulations reason about keys by popularity *rank* (rank 0 = most
//! queried), but the keys an adversary actually touches are an arbitrary
//! subset of the key space. A [`FeistelPermutation`] maps ranks to scattered
//! key ids without materializing an `m`-entry table, so a million-key
//! experiment costs O(1) memory. The mapping is a 4-round Feistel network
//! with cycle-walking to restrict the power-of-two domain to exactly
//! `[0, m)`.

use crate::error::WorkloadError;
use crate::rng::{mix, LANES};
use crate::Result;

const ROUNDS: usize = 4;

/// A seeded bijection on `[0, m)`.
///
/// # Example
///
/// ```
/// use scp_workload::permute::FeistelPermutation;
///
/// let perm = FeistelPermutation::new(1_000_000, 42).unwrap();
/// let key = perm.apply(0);
/// assert!(key < 1_000_000);
/// assert_eq!(perm.invert(key), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeistelPermutation {
    m: u64,
    half_bits: u32,
    half_mask: u64,
    round_keys: [u64; ROUNDS],
}

impl FeistelPermutation {
    /// Creates the permutation for a domain of `m` elements.
    ///
    /// # Errors
    ///
    /// Returns an error if `m == 0`.
    pub fn new(m: u64, seed: u64) -> Result<Self> {
        if m == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "m",
                reason: "domain must be non-empty".to_owned(),
            });
        }
        // Total bits must be even and cover m; each half gets half of them.
        let bits = 64 - (m - 1).max(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let mut round_keys = [0u64; ROUNDS];
        for (r, key) in round_keys.iter_mut().enumerate() {
            *key = mix(&[seed, r as u64, m]);
        }
        Ok(Self {
            m,
            half_bits,
            half_mask: (1u64 << half_bits) - 1,
            round_keys,
        })
    }

    /// Domain size.
    pub fn domain(&self) -> u64 {
        self.m
    }

    fn round_fn(&self, right: u64, round_key: u64) -> u64 {
        mix(&[right, round_key]) & self.half_mask
    }

    fn encrypt_once(&self, value: u64) -> u64 {
        let mut left = (value >> self.half_bits) & self.half_mask;
        let mut right = value & self.half_mask;
        for &rk in &self.round_keys {
            let new_right = left ^ self.round_fn(right, rk);
            left = right;
            right = new_right;
        }
        (left << self.half_bits) | right
    }

    /// [`Self::encrypt_once`] over [`LANES`] values at a time, rounds as
    /// the outer loop so the lanes' independent round functions overlap.
    fn encrypt_lanes(&self, values: &mut [u64; LANES]) {
        let mut left = values.map(|v| (v >> self.half_bits) & self.half_mask);
        let mut right = values.map(|v| v & self.half_mask);
        for &rk in &self.round_keys {
            for (l, r) in left.iter_mut().zip(right.iter_mut()) {
                let new_right = *l ^ self.round_fn(*r, rk);
                *l = *r;
                *r = new_right;
            }
        }
        for (v, (l, r)) in values.iter_mut().zip(left.iter().zip(&right)) {
            *v = (l << self.half_bits) | r;
        }
    }

    /// Finishes a cycle-walk from a first encryption `v`: the Feistel
    /// network permutes `[0, 2^(2*half_bits))`, so iterate until the walk
    /// lands back inside `[0, m)`. Terminates because the walk follows a
    /// cycle of a permutation of the super-domain and the start rank lies
    /// in `[0, m)` on that cycle.
    fn walk_from(&self, mut v: u64) -> u64 {
        while v >= self.m {
            v = self.encrypt_once(v);
        }
        v
    }

    fn decrypt_once(&self, value: u64) -> u64 {
        let mut left = (value >> self.half_bits) & self.half_mask;
        let mut right = value & self.half_mask;
        for &rk in self.round_keys.iter().rev() {
            let new_left = right ^ self.round_fn(left, rk);
            right = left;
            left = new_left;
        }
        (left << self.half_bits) | right
    }

    /// Maps a rank in `[0, m)` to its key id in `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= m`.
    pub fn apply(&self, rank: u64) -> u64 {
        assert!(rank < self.m, "rank {rank} out of domain [0, {})", self.m);
        if self.m == 1 {
            return 0;
        }
        self.walk_from(self.encrypt_once(rank))
    }

    /// Maps the consecutive ranks `start..start + out.len()` into `out`,
    /// bit-identical to [`FeistelPermutation::apply`] on each rank.
    ///
    /// Encrypts [`LANES`] ranks at a time with the rounds as the outer
    /// loop, so their hash chains run side by side instead of one after
    /// another; a lane whose first encryption leaves `[0, m)` finishes its
    /// cycle-walk alone.
    ///
    /// # Errors
    ///
    /// Returns an error if the block reaches past the domain
    /// (`start + out.len() > m`); `out` is then left untouched.
    pub fn apply_block(&self, start: u64, out: &mut [u64]) -> Result<()> {
        let end = u64::try_from(out.len())
            .ok()
            .and_then(|len| start.checked_add(len));
        if end.is_none_or(|end| end > self.m) {
            return Err(WorkloadError::InvalidParameter {
                name: "rank",
                reason: format!(
                    "block of {} ranks from {start} leaves the domain [0, {})",
                    out.len(),
                    self.m
                ),
            });
        }
        if self.m == 1 {
            out.fill(0);
            return Ok(());
        }
        let mut chunks = out.chunks_exact_mut(LANES);
        let mut rank = start;
        for chunk in &mut chunks {
            let mut lanes = [0u64; LANES];
            for (lane, value) in lanes.iter_mut().zip(rank..) {
                *lane = value;
            }
            self.encrypt_lanes(&mut lanes);
            for (slot, first) in chunk.iter_mut().zip(lanes) {
                *slot = self.walk_from(first);
            }
            rank += LANES as u64;
        }
        for (slot, value) in chunks.into_remainder().iter_mut().zip(rank..) {
            *slot = self.walk_from(self.encrypt_once(value));
        }
        Ok(())
    }

    /// Inverse mapping: key id back to rank.
    ///
    /// # Panics
    ///
    /// Panics if `key >= m`.
    pub fn invert(&self, key: u64) -> u64 {
        assert!(key < self.m, "key {key} out of domain [0, {})", self.m);
        if self.m == 1 {
            return 0;
        }
        let mut v = self.decrypt_once(key);
        while v >= self.m {
            v = self.decrypt_once(v);
        }
        v
    }
}

/// The identity mapping, for experiments where rank == key id
/// (e.g. attacking a range partitioner with contiguous keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentityPermutation;

impl IdentityPermutation {
    /// Returns the input unchanged.
    pub fn apply(&self, rank: u64) -> u64 {
        rank
    }
}

/// Either a Feistel scatter or the identity; lets callers pick at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyMapping {
    /// Rank == key id.
    Identity,
    /// Ranks scattered across the key space.
    Feistel(FeistelPermutation),
}

impl KeyMapping {
    /// Builds a scattered mapping over `m` keys.
    ///
    /// # Errors
    ///
    /// Returns an error if `m == 0`.
    pub fn scattered(m: u64, seed: u64) -> Result<Self> {
        Ok(KeyMapping::Feistel(FeistelPermutation::new(m, seed)?))
    }

    /// Maps a rank to a key id.
    pub fn apply(&self, rank: u64) -> u64 {
        match self {
            KeyMapping::Identity => rank,
            KeyMapping::Feistel(p) => p.apply(rank),
        }
    }

    /// Maps the consecutive ranks `start..start + out.len()` into `out`,
    /// bit-identical to [`KeyMapping::apply`] on each rank (see
    /// [`FeistelPermutation::apply_block`]).
    ///
    /// # Errors
    ///
    /// Returns an error if a scattered mapping's block reaches past its
    /// domain.
    pub fn apply_block(&self, start: u64, out: &mut [u64]) -> Result<()> {
        match self {
            KeyMapping::Identity => {
                for (offset, slot) in (0u64..).zip(out.iter_mut()) {
                    *slot = start.wrapping_add(offset);
                }
                Ok(())
            }
            KeyMapping::Feistel(p) => p.apply_block(start, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{next_below, next_f64, Rng, Xoshiro256StarStar};
    use std::collections::HashSet;

    #[test]
    fn rejects_empty_domain() {
        assert!(FeistelPermutation::new(0, 1).is_err());
    }

    #[test]
    fn domain_one_is_identity() {
        let p = FeistelPermutation::new(1, 7).unwrap();
        assert_eq!(p.apply(0), 0);
        assert_eq!(p.invert(0), 0);
    }

    #[test]
    fn is_bijective_on_small_domains() {
        for m in [2u64, 3, 5, 16, 17, 100, 1000] {
            let p = FeistelPermutation::new(m, 99).unwrap();
            let image: HashSet<u64> = (0..m).map(|r| p.apply(r)).collect();
            assert_eq!(image.len() as u64, m, "not bijective for m={m}");
            assert!(image.iter().all(|&k| k < m));
        }
    }

    #[test]
    fn invert_is_inverse_of_apply() {
        let p = FeistelPermutation::new(12345, 5).unwrap();
        for rank in (0..12345).step_by(7) {
            assert_eq!(p.invert(p.apply(rank)), rank);
        }
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let a = FeistelPermutation::new(1000, 1).unwrap();
        let b = FeistelPermutation::new(1000, 2).unwrap();
        let same = (0..1000).filter(|&r| a.apply(r) == b.apply(r)).count();
        assert!(same < 50, "{same} fixed agreements is suspiciously many");
    }

    #[test]
    fn scatters_contiguous_ranks() {
        // The first 100 ranks of a large domain should not land in a tight
        // band of key ids; check the spread covers a good chunk of the range.
        let p = FeistelPermutation::new(1_000_000, 3).unwrap();
        let keys: Vec<u64> = (0..100).map(|r| p.apply(r)).collect();
        let min = *keys.iter().min().unwrap();
        let max = *keys.iter().max().unwrap();
        assert!(max - min > 500_000, "keys clustered in [{min}, {max}]");
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn apply_rejects_out_of_domain() {
        let p = FeistelPermutation::new(10, 1).unwrap();
        let _ = p.apply(10);
    }

    #[test]
    fn key_mapping_identity() {
        assert_eq!(KeyMapping::Identity.apply(42), 42);
        let mut out = [0u64; 3];
        KeyMapping::Identity.apply_block(40, &mut out).unwrap();
        assert_eq!(out, [40, 41, 42]);
    }

    #[test]
    fn apply_block_rejects_blocks_past_the_domain() {
        let p = FeistelPermutation::new(20, 1).unwrap();
        let mut out = [7u64; 5];
        assert!(p.apply_block(16, &mut out).is_err());
        assert!(p.apply_block(u64::MAX, &mut out).is_err());
        assert_eq!(out, [7; 5], "a rejected block must not write");
        assert!(p.apply_block(15, &mut out).is_ok());
        assert!(p.apply_block(20, &mut []).is_ok());
    }

    #[test]
    fn prop_apply_block_equals_apply() {
        // Block lengths and offsets straddle the lane width so both the
        // interleaved chunks and the scalar remainder run.
        let mut gen = Xoshiro256StarStar::seed_from_u64(0xB10C);
        let domains = [1u64, 2, 3, 5, 17, 1000, 1 << 20, (1 << 20) + 1, 1_000_000];
        for &m in &domains {
            for _ in 0..24 {
                let seed = gen.next_u64();
                let map = KeyMapping::scattered(m, seed).unwrap();
                let KeyMapping::Feistel(p) = &map else {
                    unreachable!("scattered mappings are Feistel")
                };
                let len = next_below(&mut gen, (3 * LANES as u64 + 2).min(m + 1));
                let start = next_below(&mut gen, m - len + 1);
                let mut block = vec![0u64; len as usize];
                map.apply_block(start, &mut block).unwrap();
                let want: Vec<u64> = (start..start + len).map(|r| p.apply(r)).collect();
                assert_eq!(block, want, "m={m} seed={seed} start={start} len={len}");
            }
            if m <= 1000 {
                // The whole domain in one block.
                let p = FeistelPermutation::new(m, m).unwrap();
                let mut block = vec![0u64; m as usize];
                p.apply_block(0, &mut block).unwrap();
                assert!(
                    block.iter().zip(0..).all(|(&k, r)| k == p.apply(r)),
                    "m={m}"
                );
            }
        }
    }

    #[test]
    fn key_mapping_scattered_is_in_domain() {
        let map = KeyMapping::scattered(500, 9).unwrap();
        for r in 0..500 {
            assert!(map.apply(r) < 500);
        }
    }

    // Seeded randomized sweeps (stand-ins for property tests; the case
    // generator is deterministic so failures reproduce exactly).

    #[test]
    fn prop_bijective() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0xB17E);
        for _ in 0..48 {
            let m = 1 + next_below(&mut gen, 1999);
            let seed = gen.next_u64();
            let p = FeistelPermutation::new(m, seed).unwrap();
            let mut seen = HashSet::new();
            for r in 0..m {
                let k = p.apply(r);
                assert!(k < m, "m={m} seed={seed}: image {k} out of domain");
                assert!(seen.insert(k), "m={m} seed={seed}: duplicate image {k}");
                assert_eq!(p.invert(k), r, "m={m} seed={seed}");
            }
        }
    }

    #[test]
    fn prop_roundtrip_large() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x1A26E);
        for _ in 0..64 {
            let m = 2000 + next_below(&mut gen, 5_000_000 - 2000);
            let seed = gen.next_u64();
            let rank = ((m - 1) as f64 * next_f64(&mut gen)) as u64;
            let p = FeistelPermutation::new(m, seed).unwrap();
            let k = p.apply(rank);
            assert!(k < m, "m={m} seed={seed} rank={rank}");
            assert_eq!(p.invert(k), rank, "m={m} seed={seed} rank={rank}");
        }
    }
}
