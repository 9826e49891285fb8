//! The joke/quotation item pool and per-group item statistics.
//!
//! The study keeps the same item pool for both user groups (Appendix A:
//! "At all times we used the same joke/quotation items for both user
//! groups"), but tracks views and votes separately per group, because each
//! group's ranking is driven only by its own members' votes.

use rand::Rng;
use rrp_model::{assign_qualities, Rng64, UniformQuality};

/// One joke/quotation item. Funniness plays the role of intrinsic quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Funniness in `[0, 1]` — the probability a visitor who rates the item
    /// rates it "funny".
    pub funniness: f64,
    /// Day the item (or its current replacement) went live.
    pub born_day: u64,
    /// Day the item expires and is replaced.
    pub expires_day: u64,
}

/// Per-group statistics for one item.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupItemStats {
    /// Number of "funny" votes from this group (the popularity measure).
    pub funny_votes: u32,
    /// Total votes from this group.
    pub total_votes: u32,
    /// Whether any member of this group has viewed the item.
    pub viewed: bool,
}

impl GroupItemStats {
    /// Reset when the underlying item is replaced.
    pub fn reset(&mut self) {
        *self = GroupItemStats::default();
    }
}

/// The shared item pool.
#[derive(Debug, Clone)]
pub struct ItemPool {
    items: Vec<Item>,
    lifetime_days: u64,
    replacements: u64,
}

impl ItemPool {
    /// Funniness of the dullest item in the pool.
    pub const MIN_FUNNINESS: f64 = 0.05;
    /// Funniness of the funniest item in the pool.
    pub const MAX_FUNNINESS: f64 = 0.45;

    /// Create a pool of `count` items with funniness spread uniformly over
    /// `[MIN_FUNNINESS, MAX_FUNNINESS]`. Initial lifetimes are drawn
    /// uniformly from `[1, lifetime_days]` so the pool starts in rotation
    /// steady state, exactly as in Appendix A.
    ///
    /// Unlike web-page quality — the heavy-tailed power law used everywhere
    /// else in this workspace, under which only a handful of items per
    /// thousand are any good — curated jokes/quotations span a broad
    /// funniness range with a substantial base rate (the paper's study
    /// measured overall funny-vote ratios high enough that ≈ 3,600 votes
    /// resolved a +60% effect). Drawing funniness from the page-quality
    /// power law instead starves the 45-day study of funny votes (≈ 6 per
    /// group) and makes exploration worthless (nothing good to discover),
    /// which inverts the study's outcome. The uniform spread restores the
    /// regime the live study actually ran in.
    pub fn new(count: usize, lifetime_days: u64, rng: &mut Rng64) -> Self {
        let funniness_distribution = UniformQuality::new(Self::MIN_FUNNINESS, Self::MAX_FUNNINESS)
            .expect("funniness bounds are a valid unit sub-interval");
        let qualities = assign_qualities(&funniness_distribution, count);
        let items = qualities
            .iter()
            .map(|q| Item {
                funniness: q.value(),
                born_day: 0,
                expires_day: rng.gen_range(1..=lifetime_days),
            })
            .collect();
        ItemPool {
            items,
            lifetime_days,
            replacements: 0,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of item replacements performed so far.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Replace every item that expires on or before `day` with a fresh item
    /// of the same funniness and a full lifetime (Appendix A: "when a
    /// particular item expired we replaced it with another item of the same
    /// quality"). Returns the indices of replaced items so callers can reset
    /// the per-group statistics.
    pub fn rotate(&mut self, day: u64) -> Vec<usize> {
        let mut replaced = Vec::new();
        for (idx, item) in self.items.iter_mut().enumerate() {
            if item.expires_day <= day {
                item.born_day = day;
                item.expires_day = day + self.lifetime_days;
                replaced.push(idx);
                self.replacements += 1;
            }
        }
        replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::new_rng;

    #[test]
    fn pool_matches_quality_distribution() {
        let mut rng = new_rng(1);
        let pool = ItemPool::new(1_000, 30, &mut rng);
        assert_eq!(pool.len(), 1_000);
        assert!(!pool.is_empty());
        let max = pool
            .items()
            .iter()
            .map(|i| i.funniness)
            .fold(0.0f64, f64::max);
        let min = pool
            .items()
            .iter()
            .map(|i| i.funniness)
            .fold(1.0f64, f64::min);
        // Deterministic assignment samples quantile midpoints, so the
        // extremes sit half a grid step inside the bounds.
        assert!(
            (max - ItemPool::MAX_FUNNINESS).abs() < 1e-3,
            "funniest item sits at the cap, got {max}"
        );
        assert!(
            (min - ItemPool::MIN_FUNNINESS).abs() < 1e-3,
            "dullest item sits at the floor, got {min}"
        );
        // Uniform spread: the median item is near the middle of the range.
        let mut sorted: Vec<f64> = pool.items().iter().map(|i| i.funniness).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let middle = 0.5 * (ItemPool::MIN_FUNNINESS + ItemPool::MAX_FUNNINESS);
        assert!(
            (median - middle).abs() < 0.01,
            "median funniness {median} should sit near {middle}"
        );
    }

    #[test]
    fn initial_lifetimes_are_spread_out() {
        let mut rng = new_rng(2);
        let pool = ItemPool::new(1_000, 30, &mut rng);
        let mut expiries: Vec<u64> = pool.items().iter().map(|i| i.expires_day).collect();
        expiries.sort_unstable();
        assert!(*expiries.first().unwrap() >= 1);
        assert!(*expiries.last().unwrap() <= 30);
        // Roughly uniform: at least 20 distinct expiry days.
        expiries.dedup();
        assert!(expiries.len() >= 20);
    }

    #[test]
    fn rotation_replaces_expired_items_and_keeps_funniness() {
        let mut rng = new_rng(3);
        let mut pool = ItemPool::new(100, 30, &mut rng);
        let funniness_before: Vec<f64> = pool.items().iter().map(|i| i.funniness).collect();
        let replaced = pool.rotate(15);
        assert!(!replaced.is_empty());
        assert!(replaced.len() < 100, "only expired items are replaced");
        for &idx in &replaced {
            let item = &pool.items()[idx];
            assert_eq!(item.born_day, 15);
            assert_eq!(item.expires_day, 45);
            assert_eq!(item.funniness, funniness_before[idx]);
        }
        assert_eq!(pool.replacements(), replaced.len() as u64);
    }

    #[test]
    fn rotation_is_idempotent_within_a_day() {
        let mut rng = new_rng(4);
        let mut pool = ItemPool::new(100, 30, &mut rng);
        let first = pool.rotate(10);
        let second = pool.rotate(10);
        assert!(!first.is_empty());
        assert!(
            second.is_empty(),
            "already-rotated items have future expiry"
        );
    }

    #[test]
    fn group_stats_reset() {
        let mut stats = GroupItemStats {
            funny_votes: 5,
            total_votes: 9,
            viewed: true,
        };
        stats.reset();
        assert_eq!(stats, GroupItemStats::default());
    }
}
