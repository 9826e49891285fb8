//! Property-based tests for the attention model's invariants.

use proptest::prelude::*;
use rrp_attention::{generalized_harmonic, RankBias};

proptest! {
    /// The generalized harmonic number is positive, monotone in `n`, and
    /// bounded above by `n` (every term is at most 1).
    #[test]
    fn harmonic_monotone_and_bounded(n in 1usize..5_000, s in 0.5f64..3.0) {
        let h_n = generalized_harmonic(n, s);
        let h_n1 = generalized_harmonic(n + 1, s);
        prop_assert!(h_n > 0.0);
        prop_assert!(h_n1 > h_n);
        prop_assert!(h_n <= n as f64 + 1e-9);
    }

    /// View probabilities over all rank positions always sum to 1 and decay
    /// monotonically with rank, and the expected visits by rank (the
    /// simulator's daily allocation) spend exactly the visit budget.
    #[test]
    fn rank_bias_probabilities_are_a_distribution(
        positions in 1usize..2_000,
        exponent in 0.5f64..3.0,
        budget in 0.0f64..10_000.0,
        short in 1usize..300,
    ) {
        let bias = RankBias::new(exponent, positions, budget);
        let probs = bias.probabilities_by_rank();
        prop_assert_eq!(probs.len(), positions);
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        for w in probs.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        // Visits scale the same distribution by the budget, which they
        // conserve, a zero budget included.
        let visits = bias.visits_by_rank();
        prop_assert_eq!(visits.len(), positions);
        let total: f64 = visits.iter().sum();
        prop_assert!((total - budget).abs() < 1e-6 * budget.max(1.0), "{} of {}", total, budget);
        // And under the paper's exponent over short lists.
        let total: f64 = RankBias::altavista(short, budget).visits_by_rank().iter().sum();
        prop_assert!((total - budget).abs() < 1e-6 * budget.max(1.0), "{} of {}", total, budget);
    }
}
