//! Configuration of the randomized rank-promotion scheme (Section 4).
//!
//! Three knobs control the scheme:
//!
//! * the **promotion pool rule** — which pages are candidates for
//!   exploration ([`PromotionRule::Uniform`] includes every page with
//!   probability `r`; [`PromotionRule::Selective`] includes exactly the
//!   zero-awareness pages);
//! * the **starting point** `k ≥ 1` — every page whose natural
//!   (popularity-based) rank is better than `k` is protected from demotion;
//!   `k = 2` preserves the "feeling lucky" top result;
//! * the **degree of randomization** `r ∈ [0, 1]` — the probability that
//!   each remaining result position is filled from the promotion pool.
//!
//! The paper's recommended recipe (Section 6.4) is the selective rule with
//! `r = 0.1` and `k ∈ {1, 2}`; see [`PromotionConfig::recommended`].

use rrp_model::{ModelError, ModelResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Rule deciding which pages enter the promotion pool `P_p`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PromotionRule {
    /// Every page is included in the pool independently with probability
    /// equal to the degree of randomization `r`.
    Uniform,
    /// Exactly the pages whose awareness among monitored users is zero are
    /// included (the paper's recommended rule).
    Selective,
}

impl fmt::Display for PromotionRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromotionRule::Uniform => write!(f, "uniform"),
            PromotionRule::Selective => write!(f, "selective"),
        }
    }
}

/// Full configuration of a randomized rank-promotion policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PromotionConfig {
    /// Which pages are candidates for promotion.
    pub rule: PromotionRule,
    /// Starting point `k ≥ 1`: the top `k − 1` deterministic results are
    /// never displaced.
    pub start_rank: usize,
    /// Degree of randomization `r ∈ [0, 1]`.
    pub degree: f64,
}

impl PromotionConfig {
    /// Construct and validate a configuration.
    pub fn new(rule: PromotionRule, start_rank: usize, degree: f64) -> ModelResult<Self> {
        let config = PromotionConfig {
            rule,
            start_rank,
            degree,
        };
        config.validate()?;
        Ok(config)
    }

    /// The paper's recommendation (Section 6.4): selective promotion,
    /// `r = 0.1`, starting at rank `k` (1 or 2).
    ///
    /// # Panics
    /// Panics if `start_rank` is 0 (ranks are 1-based).
    pub fn recommended(start_rank: usize) -> Self {
        PromotionConfig::new(PromotionRule::Selective, start_rank, 0.1)
            .expect("recommended parameters are valid")
    }

    /// Validate `k ≥ 1` and `r ∈ [0, 1]`.
    pub fn validate(&self) -> ModelResult<()> {
        if self.start_rank == 0 {
            return Err(ModelError::ZeroCount {
                what: "promotion starting rank (k is 1-based)",
            });
        }
        if !self.degree.is_finite() {
            return Err(ModelError::NotFinite {
                what: "degree of randomization",
            });
        }
        if !(0.0..=1.0).contains(&self.degree) {
            return Err(ModelError::OutOfUnitInterval {
                what: "degree of randomization",
                value: self.degree,
            });
        }
        Ok(())
    }

    /// Number of top deterministic results protected from displacement
    /// (`k − 1`).
    #[inline]
    pub fn protected_prefix(&self) -> usize {
        self.start_rank - 1
    }

    /// How many *non-pool* popularity-order entries a shard must
    /// contribute so a top-`k` candidate retrieval can reassemble every
    /// rank the merge may fill from the deterministic list `L_d`: the
    /// protected prefix consumes `min(protected_prefix, k)` entries and
    /// each later position consumes at most one element of either list,
    /// so `k` deterministic candidates always suffice — and with `r = 0`
    /// every one of the `k` ranks comes from `L_d`, so none can be
    /// spared. Its only non-test caller is `benchmark/`, which re-enacts a
    /// candidate retrieval.
    #[inline]
    pub fn candidate_prefix_len(&self, k: usize) -> usize {
        let protected = self.protected_prefix().min(k);
        let coin_positions = k - protected;
        protected + coin_positions
    }

    /// A short label such as `"selective (r=0.10, k=2)"` used in reports.
    pub fn label(&self) -> String {
        format!(
            "{} (r={:.2}, k={})",
            self.rule, self.degree, self.start_rank
        )
    }
}

impl Default for PromotionConfig {
    /// The paper's recommended configuration with the top result protected
    /// (`k = 2`).
    fn default() -> Self {
        PromotionConfig::recommended(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_matches_section_6_4() {
        let c = PromotionConfig::recommended(1);
        assert_eq!(c.rule, PromotionRule::Selective);
        assert_eq!(c.degree, 0.1);
        assert_eq!(c.start_rank, 1);
        assert_eq!(c.protected_prefix(), 0);
        let c2 = PromotionConfig::recommended(2);
        assert_eq!(c2.protected_prefix(), 1);
    }

    #[test]
    fn default_protects_top_result() {
        let c = PromotionConfig::default();
        assert_eq!(c.start_rank, 2);
        assert_eq!(c.rule, PromotionRule::Selective);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(PromotionConfig::new(PromotionRule::Selective, 0, 0.1).is_err());
        assert!(PromotionConfig::new(PromotionRule::Selective, 1, -0.1).is_err());
        assert!(PromotionConfig::new(PromotionRule::Selective, 1, 1.1).is_err());
        assert!(PromotionConfig::new(PromotionRule::Selective, 1, f64::NAN).is_err());
        assert!(PromotionConfig::new(PromotionRule::Uniform, 1, 0.0).is_ok());
        assert!(PromotionConfig::new(PromotionRule::Uniform, 1, 1.0).is_ok());
    }

    #[test]
    fn candidate_prefix_budget_is_one_deterministic_entry_per_rank() {
        // Protected ranks and coin-flip ranks each consume at most one
        // element of `L_d`, so the budget is exactly `k` for every
        // configuration — spelled out here so a change to the merge that
        // invalidates the derivation has a test to argue with.
        for start_rank in [1usize, 2, 4, 9] {
            let c = PromotionConfig::new(PromotionRule::Selective, start_rank, 0.3).unwrap();
            for k in [0usize, 1, 3, 4, 10, 100] {
                assert_eq!(
                    c.candidate_prefix_len(k),
                    k,
                    "start_rank {start_rank}, k {k}"
                );
            }
        }
    }

    #[test]
    fn label_is_informative() {
        let c = PromotionConfig::new(PromotionRule::Uniform, 3, 0.25).unwrap();
        let label = c.label();
        assert!(label.contains("uniform"));
        assert!(label.contains("0.25"));
        assert!(label.contains("k=3"));
    }

    #[test]
    fn rule_display() {
        assert_eq!(PromotionRule::Uniform.to_string(), "uniform");
        assert_eq!(PromotionRule::Selective.to_string(), "selective");
    }

    #[test]
    fn serde_roundtrip() {
        let c = PromotionConfig::recommended(2);
        let json = serde_json::to_string(&c).unwrap();
        let back: PromotionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic]
    fn recommended_with_zero_rank_panics() {
        PromotionConfig::recommended(0);
    }
}
