//! The two-group study simulation (Appendix A / Figure 1).
//!
//! Two user groups browse the same rotating item pool. The **control**
//! group sees items strictly in descending order of the group's own
//! "funny"-vote counts (ties broken by age, older first). The **treatment**
//! group sees the same popularity ranking except that every item no member
//! of the group has viewed yet is inserted, in a fresh random order per
//! user, starting at rank position `k` (21 in the paper) — i.e. selective
//! promotion with `r = 1`.
//!
//! Users view items with the `rank^(-3/2)` attention bias that the paper
//! verified its volunteers follow, rate a viewed item with a fixed
//! probability, and rate it "funny" with probability equal to the item's
//! funniness. The study metric is the ratio of funny votes to total votes
//! over the final 15 days.

use crate::config::StudyConfig;
use crate::items::{GroupItemStats, ItemPool};
use rand::seq::SliceRandom;
use rand::Rng;
use rrp_attention::RankBias;
use rrp_model::{new_rng, Rng64};

/// The two experimental arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Strict ranking by the group's funny-vote counts.
    Control,
    /// Same ranking, plus promotion of never-viewed items at rank `k`.
    Promoted,
}

impl Group {
    /// Index into per-group arrays.
    pub fn index(self) -> usize {
        match self {
            Group::Control => 0,
            Group::Promoted => 1,
        }
    }
}

/// Vote tallies for one group over the measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VoteTally {
    /// "Funny" votes.
    pub funny: u64,
    /// All votes (funny + neutral + not funny).
    pub total: u64,
}

impl VoteTally {
    /// Funny-vote ratio (0 when no votes were cast).
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.funny as f64 / self.total as f64
        }
    }
}

/// Outcome of the study: the per-group funny-vote ratios over the
/// measurement window (the two bars of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyOutcome {
    /// Measurement-window tally for the control group.
    pub control: VoteTally,
    /// Measurement-window tally for the promoted group.
    pub promoted: VoteTally,
    /// Number of participants assigned to each group `[control, promoted]`.
    pub participants: [usize; 2],
}

impl StudyOutcome {
    /// Relative improvement of the promoted group's funny-vote ratio over
    /// the control group's (the paper reports ≈ +60%).
    pub fn relative_improvement(&self) -> f64 {
        let control = self.control.ratio();
        if control <= 0.0 {
            return 0.0;
        }
        self.promoted.ratio() / control - 1.0
    }
}

/// The live-study simulator.
pub struct LiveStudy {
    config: StudyConfig,
    pool: ItemPool,
    /// Per-group, per-item statistics, indexed `[group][item]`.
    stats: [Vec<GroupItemStats>; 2],
    /// Measurement-window tallies per group.
    tallies: [VoteTally; 2],
    /// Participants assigned per group.
    participants: [usize; 2],
    /// Cumulative view-probability table over rank positions.
    rank_cdf: Vec<f64>,
    rng: Rng64,
}

impl LiveStudy {
    /// Set up the study.
    pub fn new(config: StudyConfig) -> Result<Self, rrp_model::ModelError> {
        config.validate()?;
        let mut rng = new_rng(config.seed);
        let pool = ItemPool::new(config.items, config.item_lifetime_days, &mut rng);
        let bias = RankBias::altavista(config.items, 1.0);
        let probabilities = bias.probabilities_by_rank();
        let mut acc = 0.0;
        let mut rank_cdf: Vec<f64> = probabilities
            .iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect();
        if let Some(last) = rank_cdf.last_mut() {
            *last = 1.0;
        }
        Ok(LiveStudy {
            stats: [
                vec![GroupItemStats::default(); config.items],
                vec![GroupItemStats::default(); config.items],
            ],
            tallies: [VoteTally::default(); 2],
            participants: [0; 2],
            pool,
            rank_cdf,
            config,
            rng,
        })
    }

    /// Run the full study and return the outcome.
    pub fn run(mut self) -> StudyOutcome {
        let total_days = self.config.duration_days;
        let measure_from = total_days - self.config.measure_last_days;
        for day in 0..total_days {
            self.run_day(day, day >= measure_from);
        }
        StudyOutcome {
            control: self.tallies[Group::Control.index()],
            promoted: self.tallies[Group::Promoted.index()],
            participants: self.participants,
        }
    }

    /// Simulate one day: rotate expired content, then process the day's new
    /// participants.
    fn run_day(&mut self, day: u64, measuring: bool) {
        // Content rotation resets both groups' statistics for the replaced
        // slots (the replacement is a brand-new item with no votes).
        for idx in self.pool.rotate(day) {
            self.stats[0][idx].reset();
            self.stats[1][idx].reset();
        }

        let users_today = self.users_arriving_on(day);
        for _ in 0..users_today {
            let group = if self.rng.gen::<bool>() {
                Group::Promoted
            } else {
                Group::Control
            };
            self.participants[group.index()] += 1;
            self.simulate_user_session(group, day, measuring);
        }
    }

    /// Number of participants arriving on `day` (participants spread evenly
    /// over the study, remainder on the earliest days).
    fn users_arriving_on(&self, day: u64) -> usize {
        let total = self.config.participants as u64;
        let days = self.config.duration_days;
        let base = total / days;
        let remainder = total % days;
        (base + u64::from(day < remainder)) as usize
    }

    /// One participant's session: build the group's ranking, view items with
    /// the rank-bias law, vote.
    fn simulate_user_session(&mut self, group: Group, _day: u64, measuring: bool) {
        let ranking = self.ranking_for(group);
        let n = ranking.len();
        let mut viewed_positions = Vec::with_capacity(self.config.views_per_user);
        for _ in 0..self.config.views_per_user {
            let u: f64 = self.rng.gen();
            let pos = match self
                .rank_cdf
                .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
            {
                Ok(i) => i,
                Err(i) => i.min(n - 1),
            };
            if !viewed_positions.contains(&pos) {
                viewed_positions.push(pos);
            }
        }
        for pos in viewed_positions {
            let item_idx = ranking[pos];
            let funniness = self.pool.items()[item_idx].funniness;
            let stats = &mut self.stats[group.index()][item_idx];
            stats.viewed = true;
            if self.rng.gen::<f64>() < self.config.vote_probability {
                stats.total_votes += 1;
                let funny = self.rng.gen::<f64>() < funniness;
                if funny {
                    stats.funny_votes += 1;
                }
                if measuring {
                    let tally = &mut self.tallies[group.index()];
                    tally.total += 1;
                    if funny {
                        tally.funny += 1;
                    }
                }
            }
        }
    }

    /// Build the result list shown to a member of `group`.
    fn ranking_for(&mut self, group: Group) -> Vec<usize> {
        let stats = &self.stats[group.index()];
        let items = self.pool.items();
        // Popularity order over all items: funny votes desc, then older
        // first, then index (ties in the real study were broken by age).
        let mut by_popularity: Vec<usize> = (0..items.len()).collect();
        by_popularity.sort_by(|&a, &b| {
            stats[b]
                .funny_votes
                .cmp(&stats[a].funny_votes)
                .then_with(|| items[a].born_day.cmp(&items[b].born_day))
                .then_with(|| a.cmp(&b))
        });

        match group {
            Group::Control => by_popularity,
            Group::Promoted => {
                let k = self.config.promotion_insert_rank;
                let (viewed, mut unviewed): (Vec<usize>, Vec<usize>) =
                    by_popularity.into_iter().partition(|&i| stats[i].viewed);
                unviewed.shuffle(&mut self.rng);
                // Top k−1 viewed items keep their positions, then the whole
                // promotion pool in random order, then the remaining viewed
                // items (selective promotion with r = 1, k = insert rank).
                let prefix = (k - 1).min(viewed.len());
                let mut result = Vec::with_capacity(items.len());
                result.extend_from_slice(&viewed[..prefix]);
                result.extend_from_slice(&unviewed);
                result.extend_from_slice(&viewed[prefix..]);
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> StudyConfig {
        // Smaller pool than the paper so unit tests stay fast; everything
        // else follows the paper's configuration.
        StudyConfig {
            items: 300,
            participants: 400,
            ..StudyConfig::paper_default(seed)
        }
    }

    #[test]
    fn group_indexing() {
        assert_eq!(Group::Control.index(), 0);
        assert_eq!(Group::Promoted.index(), 1);
    }

    #[test]
    fn vote_tally_ratio() {
        let t = VoteTally {
            funny: 3,
            total: 12,
        };
        assert!((t.ratio() - 0.25).abs() < 1e-12);
        assert_eq!(VoteTally::default().ratio(), 0.0);
    }

    #[test]
    fn study_runs_and_collects_votes_in_both_groups() {
        let outcome = LiveStudy::new(quick_config(1)).unwrap().run();
        assert!(
            outcome.control.total > 100,
            "control collected {} votes",
            outcome.control.total
        );
        assert!(outcome.promoted.total > 100);
        assert!(outcome.control.ratio() > 0.0 && outcome.control.ratio() < 1.0);
        assert!(outcome.promoted.ratio() > 0.0 && outcome.promoted.ratio() < 1.0);
        // Participants split roughly evenly.
        let total: usize = outcome.participants.iter().sum();
        assert_eq!(total, 400);
        assert!(outcome.participants[0] > 140 && outcome.participants[1] > 140);
    }

    #[test]
    fn promotion_group_improves_the_funny_ratio() {
        // Single studies are noisy (the per-study improvement spread is
        // roughly ±12%), so average the paper's own configuration over
        // several seeds and require the mean effect to be positive. The
        // mean improvement this model produces (≈ +4%) is well short of
        // the paper's reported +60% — tracked as a fidelity gap in the
        // ROADMAP — but its sign is stable.
        let mut control_ratio = 0.0;
        let mut promoted_ratio = 0.0;
        let seeds = 8;
        for seed in 0..seeds {
            let outcome = LiveStudy::new(StudyConfig::paper_default(seed))
                .unwrap()
                .run();
            control_ratio += outcome.control.ratio() / seeds as f64;
            promoted_ratio += outcome.promoted.ratio() / seeds as f64;
        }
        assert!(
            promoted_ratio > control_ratio * 1.01,
            "promotion should improve the funny-vote ratio: {promoted_ratio:.4} vs {control_ratio:.4}"
        );
    }

    #[test]
    fn outcome_relative_improvement() {
        let outcome = StudyOutcome {
            control: VoteTally {
                funny: 10,
                total: 100,
            },
            promoted: VoteTally {
                funny: 16,
                total: 100,
            },
            participants: [1, 1],
        };
        assert!((outcome.relative_improvement() - 0.6).abs() < 1e-12);
        let degenerate = StudyOutcome {
            control: VoteTally::default(),
            promoted: VoteTally { funny: 1, total: 2 },
            participants: [0, 1],
        };
        assert_eq!(degenerate.relative_improvement(), 0.0);
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = LiveStudy::new(quick_config(9)).unwrap().run();
        let b = LiveStudy::new(quick_config(9)).unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = quick_config(0);
        c.items = 0;
        assert!(LiveStudy::new(c).is_err());
    }

    #[test]
    fn promoted_ranking_protects_top_items_and_promotes_unviewed() {
        let mut study = LiveStudy::new(quick_config(3)).unwrap();
        // Mark items 0..50 as viewed with votes so they occupy the top.
        for i in 0..50usize {
            let s = &mut study.stats[Group::Promoted.index()][i];
            s.viewed = true;
            s.funny_votes = (50 - i) as u32;
            s.total_votes = 60;
        }
        let ranking = study.ranking_for(Group::Promoted);
        // The first 20 positions are the 20 most-voted viewed items.
        for (pos, &item) in ranking.iter().take(20).enumerate() {
            assert_eq!(item, pos, "position {pos} should hold item {pos}");
        }
        // Positions 21.. start the unviewed pool: none of the items ranked
        // 21..=250 should be one of the remaining viewed items (30 viewed
        // items remain and 250 unviewed items were promoted above them).
        let promoted_block: Vec<usize> = ranking[20..270].to_vec();
        assert!(promoted_block.iter().all(|&i| i >= 50));
        // Every item appears exactly once.
        let mut all = ranking.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 300);
    }
}
