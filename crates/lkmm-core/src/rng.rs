//! Minimal deterministic PRNG: the one seeded stream of the workspace.
//!
//! The simulators' Monte-Carlo scheduler, the campaign driver's retry
//! jitter, the benches and the seeded property tests only need a
//! seedable, reproducible stream of 64-bit words and small bounded
//! integers. SplitMix64 (Steele, Lea & Flood 2014) is more than adequate
//! for that — it passes BigCrush when used as a 64-bit generator — and
//! keeps the workspace free of registry dependencies, which an offline
//! build cannot fetch.

/// SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample from `0..bound` (`bound > 0`), by rejection so the
    /// distribution is exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_index bound must be positive");
        let bound = bound as u64;
        // Rejection sampling over the largest multiple of `bound`.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % bound) as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_index_in_bounds_and_covers() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let i = rng.gen_index(5);
            assert!(i < 5);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }
}
