//! Small, fast, seedable 64-bit hashing used by the sketches in this crate.
//!
//! The sketches ([`crate::distinct`], and the group tables in `fd-engine`)
//! need a hash with good avalanche behaviour that maps keys to
//! pseudo-uniform 64-bit values and to uniform reals in `[0, 1)`. We
//! implement the well-known `splitmix64` finalizer (Steele, Lea, Flood 2014)
//! rather than pulling an external hashing crate.

/// The splitmix64 finalizer: a cheap bijective mixer on `u64` with full
/// avalanche (every input bit flips every output bit with probability ≈ ½).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded 64-bit hash function over `u64` keys.
///
/// Different seeds give (empirically) independent hash functions, which is
/// what the KMV distinct sketches require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SeededHash {
    seed: u64,
}

impl SeededHash {
    /// Creates a hash function for the given seed.
    pub fn new(seed: u64) -> Self {
        // Pre-mix the seed so that consecutive small seeds (0, 1, 2, …)
        // still yield unrelated hash functions.
        Self {
            seed: mix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Hashes a key to a pseudo-uniform 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        mix64(key ^ self.seed)
    }

    /// Hashes a key to a uniform real in `[0, 1)`.
    ///
    /// Uses the top 53 bits so the value is exactly representable as `f64`.
    #[inline]
    pub fn unit(&self, key: u64) -> f64 {
        (self.hash(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Hashes an arbitrary byte string to a `u64` (FNV-1a folded through
/// [`mix64`]). Handy for hashing composite keys.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// A [`BuildHasher`] for `u64`-keyed hash maps on per-tuple paths, where
/// SipHash costs more than the rest of the lookup: a `u64` key hashes to
/// `mix64(seed ^ key)`.
///
/// Each instance draws its seed from [`RandomState`], so keys picked to
/// collide under one seed do not collide under another, and iteration
/// order differs between maps as it does for the default hasher.
///
/// [`BuildHasher`]: std::hash::BuildHasher
/// [`RandomState`]: std::collections::hash_map::RandomState
#[derive(Debug, Clone, Copy)]
pub struct Mix64State {
    seed: u64,
}

impl Default for Mix64State {
    fn default() -> Self {
        use std::hash::BuildHasher;
        Self {
            seed: std::collections::hash_map::RandomState::new().hash_one(0u64),
        }
    }
}

impl std::hash::BuildHasher for Mix64State {
    type Hasher = Mix64Hasher;

    #[inline]
    fn build_hasher(&self) -> Mix64Hasher {
        Mix64Hasher { h: self.seed }
    }
}

/// The [`std::hash::Hasher`] of [`Mix64State`]. Each write folds its
/// input into the state through [`mix64`].
#[derive(Debug, Clone, Copy)]
pub struct Mix64Hasher {
    h: u64,
}

impl std::hash::Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.h
    }

    fn write(&mut self, bytes: &[u8]) {
        self.h = mix64(self.h ^ hash_bytes(bytes));
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.h = mix64(self.h ^ key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), 42);
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn mix64_avalanche_single_bit() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = mix64(0x1234_5678_9ABC_DEF0);
        for bit in 0..64 {
            let flipped = mix64(0x1234_5678_9ABC_DEF0 ^ (1u64 << bit));
            let diff = (base ^ flipped).count_ones();
            assert!(
                (16..=48).contains(&diff),
                "bit {bit}: only {diff} bits flipped"
            );
        }
    }

    #[test]
    fn seeded_hashes_differ_by_seed() {
        let h1 = SeededHash::new(1);
        let h2 = SeededHash::new(2);
        let collisions = (0..1000u64).filter(|&k| h1.hash(k) == h2.hash(k)).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn unit_is_in_unit_interval_and_uniformish() {
        let h = SeededHash::new(7);
        let n = 100_000u64;
        let mut sum = 0.0;
        for k in 0..n {
            let u = h.unit(k);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn unit_buckets_are_balanced() {
        // Chi-square-ish check over 16 buckets.
        let h = SeededHash::new(99);
        let n = 160_000u64;
        let mut buckets = [0u32; 16];
        for k in 0..n {
            buckets[(h.unit(k) * 16.0) as usize] += 1;
        }
        let expected = (n / 16) as f64;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (b as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} deviates {dev}");
        }
    }

    #[test]
    fn mix64_state_seeds_each_map() {
        use std::hash::BuildHasher;
        let (a, b) = (Mix64State::default(), Mix64State::default());
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64));
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        assert_ne!(a.hash_one(7u64), a.hash_one(8u64));
        let mut m: std::collections::HashMap<u64, u64, Mix64State> = Default::default();
        for k in 0..1000 {
            m.insert(k, k * 2);
        }
        assert!((0..1000).all(|k| m[&k] == k * 2));
    }

    #[test]
    fn hash_bytes_discriminates() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_eq!(hash_bytes(b"stream"), hash_bytes(b"stream"));
    }
}
