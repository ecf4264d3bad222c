//! Deterministic per-chain RNG streams: the serving stack's per-chain
//! seeds and shard lanes.
//!
//! A single **master seed** is split into one independent stream per
//! Markov chain with [`RngStreams`], and each chain consumes only its own
//! stream. `ember_serve` seeds chain `j` of a sample request with
//! `RngStreams::new(seed).seed(j)` and gives each worker shard its own
//! lane, `subfamily(shard)`. Because no stream is shared across chains,
//! the random numbers a chain sees never depend on how requests are
//! coalesced, sharded or ordered.
//!
//! Streams are derived with SplitMix64 finalization over
//! `master ⊕ f(index)`, the standard recipe for splitting one seed into
//! uncorrelated substreams (also used by upstream rand's
//! `SeedableRng::seed_from_u64`).

/// A family of deterministic RNG streams split from one master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngStreams {
    master: u64,
}

impl RngStreams {
    /// Creates the stream family for `master` seed.
    pub fn new(master: u64) -> Self {
        RngStreams { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The seed of stream `index`.
    pub fn seed(&self, index: u64) -> u64 {
        // SplitMix64 finalizer over a golden-ratio indexed offset: adjacent
        // indices land in statistically independent streams.
        let mut z = self
            .master
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A sub-family for nested splitting (e.g. one family per minibatch,
    /// then one stream per row).
    pub fn subfamily(&self, index: u64) -> RngStreams {
        RngStreams {
            master: self.seed(index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn streams_are_deterministic() {
        let a = RngStreams::new(42);
        let b = RngStreams::new(42);
        for i in 0..16 {
            assert_eq!(a.seed(i), b.seed(i));
        }
    }

    #[test]
    fn streams_differ_across_indices_and_masters() {
        let s = RngStreams::new(1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(s.seed(i)), "seed collision at index {i}");
        }
        assert_ne!(RngStreams::new(1).seed(0), RngStreams::new(2).seed(0));
    }

    #[test]
    fn subfamily_streams_do_not_collide_with_parent() {
        let s = RngStreams::new(7);
        let sub = s.subfamily(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            seen.insert(s.seed(i));
            seen.insert(sub.seed(i));
        }
        assert_eq!(seen.len(), 200);
    }

    #[test]
    fn adjacent_streams_look_independent() {
        // Crude cross-correlation check between neighboring streams.
        let s = RngStreams::new(99);
        let mut r0 = StdRng::seed_from_u64(s.seed(0));
        let mut r1 = StdRng::seed_from_u64(s.seed(1));
        let n = 10_000;
        let mut dot = 0.0;
        for _ in 0..n {
            dot += (r0.random::<f64>() - 0.5) * (r1.random::<f64>() - 0.5);
        }
        let corr = dot / n as f64 / (1.0 / 12.0);
        assert!(corr.abs() < 0.05, "correlation {corr}");
    }
}
