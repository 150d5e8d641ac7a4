//! Vendored FNV-1a hashing (64- and 128-bit).
//!
//! The verdict store needs a stable, dependency-free content hash: cache
//! keys must survive process restarts and be identical across machines,
//! which rules out `std::hash` (`RandomState` is seeded per process and
//! `SipHasher`'s unkeyed form is deprecated). FNV-1a is tiny, fully
//! specified, and plenty for content addressing — 128-bit keys make
//! accidental collisions over even a billion-test corpus astronomically
//! unlikely, and a poisoned entry is merely a wrong cached verdict for an
//! attacker-chosen test, not a memory-safety issue, so a cryptographic
//! hash buys nothing here. Vendored like SplitMix64 in `lkmm-core`: the
//! workspace builds offline with zero external dependencies.

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c20d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Streaming 64-bit FNV-1a (record checksums in the store log).
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(FNV64_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming 128-bit FNV-1a (content-addressed cache keys).
#[derive(Clone, Debug)]
pub struct Fnv128(u128);

impl Fnv128 {
    pub fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_known_vectors() {
        // Reference values of the published FNV-1a test suite.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv128_distinguishes_and_is_stable() {
        let mut a = Fnv128::new();
        a.write(b"hello");
        let mut b = Fnv128::new();
        b.write(b"hellp");
        assert_ne!(a.finish(), b.finish());
        // Streaming in pieces equals one-shot.
        let mut c = Fnv128::new();
        c.write(b"hel");
        c.write(b"lo");
        assert_eq!(a.finish(), c.finish());
    }
}
