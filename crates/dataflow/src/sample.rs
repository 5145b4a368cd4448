//! Deterministic, seeded sampling coins.
//!
//! The approximate bounding algorithm (paper §4.3, Theorem 4.6) estimates
//! its thresholds from a `p`-fraction sample of the bound table. For the
//! in-memory and dataflow drivers to agree bit for bit, sample membership
//! cannot depend on sharding, scheduling, or iteration order — so the
//! sample is a `filter` on a **per-record coin**: a splitmix64 hash of
//! `(seed, key(record))` mapped to `[0, 1)`. Two runs with the same seed
//! and keys produce the same sample on any number of shards or threads,
//! which is the property the determinism suites pin.

/// splitmix64 finalizer: well-dispersed, order-independent, and stable
/// across platforms. The canonical mixer for every deterministic coin in
/// the workspace (the `submod_dist` sampling coins and partition hash call
/// it, so both drivers flip identical coins and key identical machines).
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a `(seed, key)` pair into 64 dispersed bits.
pub fn mix_seed_key(seed: u64, key: u64) -> u64 {
    splitmix64(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The deterministic sampling coin in `[0, 1)` for `(seed, key)`:
/// the top 53 bits of [`mix_seed_key`] as a dyadic fraction.
pub fn sample_coin(seed: u64, key: u64) -> f64 {
    (mix_seed_key(seed, key) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_is_deterministic_and_uniform_ish() {
        assert_eq!(sample_coin(7, 42), sample_coin(7, 42));
        assert_ne!(sample_coin(7, 42), sample_coin(8, 42));
        let coins: Vec<f64> = (0..10_000).map(|k| sample_coin(1, k)).collect();
        assert!(coins.iter().all(|c| (0.0..1.0).contains(c)));
        let mean = coins.iter().sum::<f64>() / coins.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "coin mean {mean} far from 0.5");
    }

    /// The partition assignments and sampling coins of recorded runs (and
    /// of journals written by earlier builds) depend on these exact bits.
    #[test]
    fn mix_seed_key_matches_the_historical_splitmix64_values() {
        fn reference(state: u64) -> u64 {
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for (seed, node) in [(0u64, 0u64), (1, 2), (17, 93), (u64::MAX, 12345)] {
            let expected = reference(seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            assert_eq!(mix_seed_key(seed, node), expected);
        }
    }
}
