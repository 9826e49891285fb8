//! Configuration of the live-study reproduction (Appendix A).

use rrp_model::{ModelError, ModelResult};

/// Parameters of the jokes/quotations user study.
///
/// Defaults reproduce Appendix A: 1,000 accessible items per group with
/// 30-day lifetimes, a 45-day study with the last 15 days measured, 962
/// participants split randomly into two groups, and rank promotion (for the
/// treatment group only) that inserts never-viewed items in random order
/// starting at rank position 21.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Number of accessible items at any time (1,000 in the paper).
    pub items: usize,
    /// Item lifetime in days (30 in the paper; initial items get uniform
    /// lifetimes in `[1, lifetime]` to start in steady state).
    pub item_lifetime_days: u64,
    /// Total study duration in days (45).
    pub duration_days: u64,
    /// Measurement window: the final `measure_last_days` days (15).
    pub measure_last_days: u64,
    /// Number of volunteer participants over the whole study (962).
    pub participants: usize,
    /// Number of item pages each participant views during their session.
    pub views_per_user: usize,
    /// Probability that a participant rates an item they viewed.
    pub vote_probability: f64,
    /// Rank position at which never-viewed items are inserted for the
    /// treatment group (21 in the paper — i.e. selective promotion with
    /// `k = 21`, `r = 1`).
    pub promotion_insert_rank: usize,
    /// RNG seed.
    pub seed: u64,
}

impl StudyConfig {
    /// The configuration of the paper's study.
    pub fn paper_default(seed: u64) -> Self {
        StudyConfig {
            items: 1_000,
            item_lifetime_days: 30,
            duration_days: 45,
            measure_last_days: 15,
            participants: 962,
            // The paper does not report per-session depth; jokes-site
            // sessions browse deep. Depth also sets the treatment group's
            // exploration budget (ranks ≥ 21 receive ~7% of rank-biased
            // attention), and shallower sessions starve promoted items of
            // the repeat views they need to climb the vote ranking.
            views_per_user: 60,
            vote_probability: 0.5,
            promotion_insert_rank: 21,
            seed,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> ModelResult<()> {
        if self.items == 0 {
            return Err(ModelError::ZeroCount { what: "items" });
        }
        if self.item_lifetime_days == 0 {
            return Err(ModelError::ZeroCount {
                what: "item lifetime",
            });
        }
        if self.duration_days == 0 {
            return Err(ModelError::ZeroCount {
                what: "study duration",
            });
        }
        if self.measure_last_days > self.duration_days {
            return Err(ModelError::InvalidCommunity {
                reason: format!(
                    "measurement window ({} days) exceeds study duration ({} days)",
                    self.measure_last_days, self.duration_days
                ),
            });
        }
        if self.participants == 0 {
            return Err(ModelError::ZeroCount {
                what: "participants",
            });
        }
        if self.views_per_user == 0 {
            return Err(ModelError::ZeroCount {
                what: "views per user",
            });
        }
        if !(0.0..=1.0).contains(&self.vote_probability) || !self.vote_probability.is_finite() {
            return Err(ModelError::OutOfUnitInterval {
                what: "vote probability",
                value: self.vote_probability,
            });
        }
        if self.promotion_insert_rank == 0 {
            return Err(ModelError::ZeroCount {
                what: "promotion insert rank (1-based)",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_appendix_a() {
        let c = StudyConfig::paper_default(1);
        assert_eq!(c.items, 1_000);
        assert_eq!(c.item_lifetime_days, 30);
        assert_eq!(c.duration_days, 45);
        assert_eq!(c.measure_last_days, 15);
        assert_eq!(c.participants, 962);
        assert_eq!(c.promotion_insert_rank, 21);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_each_field() {
        let base = StudyConfig::paper_default(0);
        let mut c = base;
        c.items = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.item_lifetime_days = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.duration_days = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.measure_last_days = 100;
        assert!(c.validate().is_err());
        let mut c = base;
        c.participants = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.views_per_user = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.vote_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = base;
        c.promotion_insert_rank = 0;
        assert!(c.validate().is_err());
    }
}
