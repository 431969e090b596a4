//! Reproducible named RNG streams.
//!
//! Every stochastic component of a campaign (job runtimes, failure injection,
//! sampler tie-breaking, …) draws from its own stream, derived from a single
//! campaign seed and a component name. This mirrors the paper's requirement
//! that key components "maintain elaborate history files that may be replayed
//! exactly": with per-component streams, adding a consumer of randomness in
//! one module does not perturb any other module.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent, reproducible RNGs from a root seed plus a name.
#[derive(Debug, Clone, Copy)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Creates a stream family rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedStream { root: seed }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the `u64` sub-seed for a component name.
    pub fn seed_for(&self, name: &str) -> u64 {
        let mut h = self.root ^ 0x9e37_79b9_7f4a_7c15;
        for &b in name.as_bytes() {
            h = splitmix64(h ^ b as u64);
        }
        splitmix64(h)
    }

    /// Derives a sub-seed for a (name, index) pair, e.g. per-job streams.
    pub fn seed_for_indexed(&self, name: &str, index: u64) -> u64 {
        splitmix64(self.seed_for(name) ^ splitmix64(index.wrapping_add(1)))
    }

    /// Builds an [`StdRng`] for a component name.
    pub fn rng(&self, name: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed_for(name))
    }

    /// Forks a child stream family, e.g. one per campaign run.
    pub fn fork(&self, name: &str) -> SeedStream {
        SeedStream {
            root: self.seed_for(name),
        }
    }

    /// Forks a child family for a `(name, index)` pair.
    ///
    /// The label is composed as `{name}-{index}`, so this derives exactly
    /// the same family as the historical `fork(&format!("{name}-{i}"))`
    /// call sites — existing seed streams (and therefore traces) are
    /// byte-identical. Indexed forks keep the L9 label-literal lint
    /// satisfiable: callers pass a literal `name` and the run index
    /// separately instead of formatting a dynamic label.
    pub fn fork_indexed(&self, name: &str, index: u64) -> SeedStream {
        self.fork(&format!("{name}-{index}")) // lint: allow(L9: fork_indexed composes the label; uniqueness is checked at its call sites)
    }
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_seed() {
        let s = SeedStream::new(7);
        assert_eq!(s.seed_for("jobs"), s.seed_for("jobs"));
        assert_eq!(s.seed_for_indexed("jobs", 3), s.seed_for_indexed("jobs", 3));
    }

    #[test]
    fn different_names_differ() {
        let s = SeedStream::new(7);
        assert_ne!(s.seed_for("jobs"), s.seed_for("failures"));
        assert_ne!(s.seed_for_indexed("j", 0), s.seed_for_indexed("j", 1));
    }

    #[test]
    fn different_roots_differ() {
        assert_ne!(
            SeedStream::new(1).seed_for("x"),
            SeedStream::new(2).seed_for("x")
        );
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let s = SeedStream::new(42);
        let a: Vec<u32> = s
            .rng("m")
            .sample_iter(rand::distributions::Standard)
            .take(5)
            .collect();
        let b: Vec<u32> = s
            .rng("m")
            .sample_iter(rand::distributions::Standard)
            .take(5)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fork_creates_distinct_family() {
        let s = SeedStream::new(42);
        let f = s.fork("run-1");
        assert_ne!(f.seed_for("jobs"), s.seed_for("jobs"));
        assert_eq!(f.seed_for("jobs"), s.fork("run-1").seed_for("jobs"));
    }

    #[test]
    fn fork_indexed_matches_legacy_formatted_labels() {
        // Seed-compatibility contract: fork_indexed("run", i) must derive
        // the same family the old fork(&format!("run-{i}")) sites did.
        let s = SeedStream::new(42);
        assert_eq!(s.fork_indexed("run", 3).root(), s.fork("run-3").root());
        assert_eq!(s.fork_indexed("run", 0).root(), s.fork("run-0").root());
    }

    #[test]
    fn splitmix_is_a_permutation_on_samples() {
        // Distinct inputs must not collide on a modest sample.
        let mut outs: Vec<u64> = (0..10_000).map(splitmix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }
}
