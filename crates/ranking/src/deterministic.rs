//! Tests of the three baseline arms of [`PolicyKind`](crate::PolicyKind):
//! popularity ranking, the quality oracle and the fully random shuffle.

mod tests {
    use crate::policy::is_permutation;
    use crate::{PageStats, PolicyKind};
    use rrp_model::{new_rng, PageId};

    fn pages() -> Vec<PageStats> {
        vec![
            PageStats::new(0, PageId::new(0), 0.05, 0.5).with_quality(0.40),
            PageStats::new(1, PageId::new(1), 0.30, 0.9).with_quality(0.30),
            PageStats::new(2, PageId::new(2), 0.00, 0.0).with_quality(0.39),
            PageStats::new(3, PageId::new(3), 0.10, 0.4).with_quality(0.01),
        ]
    }

    #[test]
    fn popularity_ranking_is_descending_popularity() {
        let mut rng = new_rng(0);
        let order = PolicyKind::Popularity.rank(&pages(), &mut rng);
        assert_eq!(order, vec![1, 3, 0, 2]);
        assert!(is_permutation(&order, 4));
        assert_eq!(PolicyKind::Popularity.name(), "no randomization");
    }

    #[test]
    fn quality_oracle_ignores_popularity() {
        let mut rng = new_rng(0);
        let order = PolicyKind::QualityOracle.rank(&pages(), &mut rng);
        assert_eq!(order, vec![0, 2, 1, 3]);
        assert!(PolicyKind::QualityOracle.name().contains("oracle"));
    }

    #[test]
    fn fully_random_is_a_permutation_and_varies() {
        let mut rng = new_rng(1);
        let policy = PolicyKind::FullyRandom;
        let a = policy.rank(&pages(), &mut rng);
        assert!(is_permutation(&a, 4));
        // Over many draws every slot must appear at rank 1 at least once.
        let mut seen_first = [false; 4];
        for _ in 0..200 {
            let o = policy.rank(&pages(), &mut rng);
            seen_first[o[0]] = true;
        }
        assert!(
            seen_first.iter().all(|&s| s),
            "random ranking should explore all first slots"
        );
    }

    #[test]
    fn deterministic_policies_ignore_rng_state() {
        let mut rng_a = new_rng(1);
        let mut rng_b = new_rng(999);
        assert_eq!(
            PolicyKind::Popularity.rank(&pages(), &mut rng_a),
            PolicyKind::Popularity.rank(&pages(), &mut rng_b)
        );
    }

    #[test]
    fn empty_input_yields_empty_ranking() {
        let mut rng = new_rng(0);
        assert!(PolicyKind::Popularity.rank(&[], &mut rng).is_empty());
        assert!(PolicyKind::FullyRandom.rank(&[], &mut rng).is_empty());
        assert!(PolicyKind::QualityOracle.rank(&[], &mut rng).is_empty());
    }

    #[test]
    fn ranking_returns_slot_indices_not_positions() {
        // Slots need not be 0..n in order of the input slice.
        let mut ps = pages();
        ps.reverse();
        let mut rng = new_rng(0);
        let order = PolicyKind::Popularity.rank(&ps, &mut rng);
        assert_eq!(order, vec![1, 3, 0, 2]);
    }
}
