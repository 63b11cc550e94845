//! The workspace's one home for non-cryptographic hashing: FNV-1a at 64
//! and 128 bits, and SplitMix64.
//!
//! Every run digest, checkpoint fingerprint, response-store key, trace
//! structural digest and per-text seed passes through these functions, so
//! their bits are part of the determinism contract: the same input must
//! hash the same in every build. Known-answer tests pin them here and at
//! each caller (`hash_str`/`derive_seed` in `datasculpt-text`, the store's
//! request digest and run fingerprint, servebench's draws).

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// SplitMix64's increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
const MIX_1: u64 = 0xbf58_476d_1ce4_e5b9;
const MIX_2: u64 = 0x94d0_49bb_1331_11eb;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    fn default() -> Self {
        Fnv64(FNV64_OFFSET)
    }
}

impl Fnv64 {
    /// Fold `bytes` into the hash.
    #[inline]
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    /// Fold `v` in as its 8 little-endian bytes.
    #[inline]
    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// The hash of everything eaten so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// Incremental 128-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    /// A hasher at the FNV-1a offset basis.
    fn default() -> Self {
        Fnv128(FNV128_OFFSET)
    }
}

impl Fnv128 {
    /// Fold `bytes` into the hash.
    #[inline]
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Fold `v` in as its 8 little-endian bytes.
    #[inline]
    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// The hash of everything eaten so far.
    pub const fn finish(&self) -> u128 {
        self.0
    }
}

/// Stable 64-bit FNV-1a hash of a string, used to key per-text randomness.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    let mut h = Fnv64::default();
    h.eat(s.as_bytes());
    h.finish()
}

/// The SplitMix64 finalizer: a bijective avalanche of `z`.
#[inline]
const fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(MIX_1);
    let z = (z ^ (z >> 27)).wrapping_mul(MIX_2);
    z ^ (z >> 31)
}

/// Derive a child seed from a base seed and a stream identifier.
///
/// Uses the SplitMix64 finalizer so nearby `(seed, stream)` pairs produce
/// uncorrelated child seeds. All per-instance / per-request randomness in the
/// simulators is keyed this way, making runs independent of iteration order.
#[inline]
pub const fn derive_seed(seed: u64, stream: u64) -> u64 {
    mix64(
        seed.wrapping_mul(GOLDEN_GAMMA)
            .wrapping_add(stream.wrapping_mul(MIX_1))
            .wrapping_add(MIX_2),
    )
}

/// The SplitMix64 generator: a `u64` of state, one finalizer per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose state starts at `seed`.
    pub const fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Advance the state and return the next draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        mix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors_in_any_chunking() {
        // Test vectors of the FNV reference (draft-eastlake-fnv).
        assert_eq!(hash_str(""), FNV64_OFFSET);
        assert_eq!(hash_str("foobar"), 0x8594_4171_f739_67e8);
        let mut chunked = Fnv64::default();
        chunked.eat(b"foo");
        chunked.eat(b"bar");
        assert_eq!(chunked.finish(), hash_str("foobar"));
        let (mut word, mut bytes) = (Fnv64::default(), Fnv64::default());
        word.eat_u64(0x0102_0304_0506_0708);
        bytes.eat(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(word.finish(), bytes.finish());
        let mut wide = Fnv128::default();
        wide.eat(b"a");
        assert_eq!(wide.finish(), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // Vigna's splitmix64.c seeded with 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }
}
