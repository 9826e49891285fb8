//! Deterministic random-number-generator plumbing.
//!
//! Every stochastic component in the workspace (simulator, live-study model,
//! graph generators, randomized ranking) is seeded explicitly so that
//! experiments are exactly reproducible. This module centralises the policy:
//!
//! * [`new_rng`] builds a `ChaCha8` RNG from a `u64` seed — fast, portable
//!   across platforms, and stable across Rust releases (unlike
//!   `StdRng`, whose algorithm is not guaranteed).
//! * [`SeedSequence`] derives independent child seeds from a root seed so
//!   that, e.g., each parameter point of a sweep gets its own stream and
//!   adding a new point does not perturb the others.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG type used across the workspace.
pub type Rng64 = ChaCha8Rng;

/// Build the workspace-standard RNG from a 64-bit seed.
pub fn new_rng(seed: u64) -> Rng64 {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives statistically independent child seeds from a root seed.
///
/// Child seeds are produced with the SplitMix64 output function, the
/// generator recommended for seeding other PRNGs; distinct indices give
/// well-separated streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `root`.
    pub fn new(root: u64) -> Self {
        SeedSequence { root }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derive the `index`-th child seed.
    pub fn child_seed(&self, index: u64) -> u64 {
        splitmix64(
            self.root
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index + 1)),
        )
    }

    /// Derive a child sequence (for nested sweeps: e.g. one child per
    /// parameter point, grandchildren per repetition).
    pub fn child_sequence(&self, index: u64) -> SeedSequence {
        SeedSequence::new(self.child_seed(index))
    }
}

/// SplitMix64 output function — the workspace-standard mixer for deriving
/// seeds and stream identifiers from hashes or indices. Exported so other
/// crates (e.g. the sweep executor) share this exact mixing instead of
/// duplicating the constants.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = new_rng(123);
        let mut b = new_rng(123);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = new_rng(1);
        let mut b = new_rng(2);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert!(same < 5, "independent streams should rarely collide");
    }

    #[test]
    fn child_seeds_are_distinct() {
        let seq = SeedSequence::new(42);
        let mut seeds: Vec<u64> = (0..1000).map(|i| seq.child_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000, "child seeds must not collide");
    }

    #[test]
    fn child_seeds_are_deterministic() {
        let a = SeedSequence::new(7);
        let b = SeedSequence::new(7);
        assert_eq!(a.child_seed(3), b.child_seed(3));
        assert_eq!(a.root(), 7);
    }

    #[test]
    fn child_sequences_are_independent_of_sibling_count() {
        let seq = SeedSequence::new(99);
        let third = seq.child_seed(3);
        // Deriving other children does not change the third child.
        let _ = seq.child_seed(0);
        let _ = seq.child_seed(100);
        assert_eq!(seq.child_seed(3), third);
    }

    #[test]
    fn nested_sequences_differ_from_parent() {
        let seq = SeedSequence::new(5);
        let child = seq.child_sequence(0);
        assert_ne!(child.root(), seq.root());
        assert_ne!(child.child_seed(0), seq.child_seed(0));
    }
}
