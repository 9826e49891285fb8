//! The evolving page population of a simulated community.
//!
//! Each of the `n` page *slots* holds one live page. When a page retires
//! (Poisson process, Section 5.1), the slot is immediately refilled with a
//! brand-new page of the same quality, zero awareness and a fresh
//! [`PageId`] — exactly the stationarity device the paper uses to keep the
//! quality distribution constant over time.

use rand::Rng;
use rrp_model::{
    CommunityConfig, Day, LifetimeModel, PageId, PageIdGenerator, Quality, QualityDistribution,
};

/// One page slot: the live page currently occupying it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageSlot {
    /// Identifier of the live page.
    pub page: PageId,
    /// Intrinsic quality (inherited by every successor in this slot).
    pub quality: f64,
    /// Number of monitored users currently aware of the page (`0..=m`).
    pub aware_users: usize,
    /// Day the page was created.
    pub born: Day,
}

impl PageSlot {
    /// Awareness `A(p, t)` as a fraction of the `m` monitored users.
    #[inline]
    pub fn awareness(&self, monitored_users: usize) -> f64 {
        self.aware_users as f64 / monitored_users as f64
    }

    /// Popularity `P(p, t) = A(p, t) · Q(p)`.
    #[inline]
    pub fn popularity(&self, monitored_users: usize) -> f64 {
        self.awareness(monitored_users) * self.quality
    }

    /// Age in days at time `now`.
    #[inline]
    pub fn age_days(&self, now: Day) -> u64 {
        now.since(self.born)
    }

    /// Whether no monitored user has ever visited the page.
    #[inline]
    pub fn is_unexplored(&self) -> bool {
        self.aware_users == 0
    }
}

/// The full page population of a community.
#[derive(Debug, Clone)]
pub struct PagePopulation {
    slots: Vec<PageSlot>,
    monitored_users: usize,
    lifetime: LifetimeModel,
    ids: PageIdGenerator,
}

impl PagePopulation {
    /// Create a population for `config`, assigning slot qualities by the
    /// deterministic quantile rule of the given distribution (so the
    /// community always contains exactly one page of the maximum quality).
    pub fn new<D: QualityDistribution>(config: &CommunityConfig, distribution: &D) -> Self {
        let qualities = rrp_model::assign_qualities(distribution, config.pages());
        Self::with_qualities(config, &qualities)
    }

    /// Create a population with explicit per-slot qualities.
    pub fn with_qualities(config: &CommunityConfig, qualities: &[Quality]) -> Self {
        assert_eq!(qualities.len(), config.pages(), "one quality per page slot");
        let lifetime = LifetimeModel::new(config.expected_lifetime_days())
            .expect("community config is validated");
        let mut ids = PageIdGenerator::new();
        let slots = qualities
            .iter()
            .map(|q| PageSlot {
                page: ids.next_id(),
                quality: q.value(),
                aware_users: 0,
                born: Day::ZERO,
            })
            .collect();
        PagePopulation {
            slots,
            monitored_users: config.monitored_users(),
            lifetime,
            ids,
        }
    }

    /// Number of page slots `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the population is empty (never true for a valid community).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slots.
    #[inline]
    pub fn slots(&self) -> &[PageSlot] {
        &self.slots
    }

    /// One slot.
    #[inline]
    pub fn slot(&self, index: usize) -> &PageSlot {
        &self.slots[index]
    }

    /// Number of monitored users `m`.
    #[inline]
    pub fn monitored_users(&self) -> usize {
        self.monitored_users
    }

    /// Lifetime model in use.
    #[inline]
    pub fn lifetime(&self) -> &LifetimeModel {
        &self.lifetime
    }

    /// The slot index holding the highest-quality page.
    pub fn best_slot(&self) -> usize {
        self.slots
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.quality
                    .partial_cmp(&b.quality)
                    .expect("quality is never NaN")
            })
            .map(|(i, _)| i)
            .expect("population is non-empty")
    }

    /// Record one monitored-user visit to the page in `slot`: with
    /// probability `1 − A(p, t)` the visitor had not seen the page before
    /// and the awareness count increases.
    ///
    /// Returns `true` iff the awareness count actually changed — i.e. the
    /// slot's popularity key moved and any incremental popularity index
    /// over the population must treat the slot as dirty.
    pub fn record_monitored_visit<R: Rng + ?Sized>(&mut self, slot: usize, rng: &mut R) -> bool {
        let m = self.monitored_users;
        let s = &mut self.slots[slot];
        if s.aware_users >= m {
            return false;
        }
        let unaware_fraction = 1.0 - s.aware_users as f64 / m as f64;
        if rng.gen::<f64>() < unaware_fraction {
            s.aware_users += 1;
            return true;
        }
        false
    }

    /// Replace the page in `slot` with a fresh page of the same quality and
    /// zero awareness, born on `today`.
    pub fn replace_page(&mut self, slot: usize, today: Day) -> PageId {
        let id = self.ids.next_id();
        let s = &mut self.slots[slot];
        s.page = id;
        s.aware_users = 0;
        s.born = today;
        id
    }

    /// Apply one day of Poisson retirement: the number of retirements is
    /// drawn from the binomial `Bin(n, 1 − e^{−λ})` (approximated by a
    /// Poisson/normal draw for large `n`), and that many distinct slots are
    /// replaced, returning the count. Slots listed in `protected` are
    /// exempt (used while probing TBP so the probe page is not retired
    /// mid-measurement). The index of every replaced slot is appended to
    /// `replaced` (not cleared), so callers maintaining incremental ranking
    /// state can mark exactly those slots dirty.
    pub fn retire_daily_recording<R: Rng + ?Sized>(
        &mut self,
        today: Day,
        protected: &[usize],
        rng: &mut R,
        replaced: &mut Vec<usize>,
    ) -> usize {
        let n = self.slots.len();
        let p = self.lifetime.daily_retirement_probability();
        let mean = n as f64 * p;
        let count = sample_count(mean, n, rng);
        let mut retired = 0;
        let mut guard = 0;
        while retired < count && guard < count * 20 + 100 {
            guard += 1;
            let slot = rng.gen_range(0..n);
            if protected.contains(&slot) {
                continue;
            }
            self.replace_page(slot, today);
            replaced.push(slot);
            retired += 1;
        }
        retired
    }

    /// Summary statistics used by metrics: (number of zero-awareness pages,
    /// mean awareness).
    pub fn awareness_summary(&self) -> (usize, f64) {
        let m = self.monitored_users as f64;
        let zero = self.slots.iter().filter(|s| s.aware_users == 0).count();
        let mean = self
            .slots
            .iter()
            .map(|s| s.aware_users as f64 / m)
            .sum::<f64>()
            / self.slots.len().max(1) as f64;
        (zero, mean)
    }
}

/// Draw the number of daily retirements: exact Bernoulli sum for small
/// populations, Poisson (Knuth) for moderate means, normal approximation for
/// large means.
fn sample_count<R: Rng + ?Sized>(mean: f64, max: usize, rng: &mut R) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let draw = if mean < 30.0 {
        // Knuth's Poisson sampler.
        let limit = (-mean).exp();
        let mut k = 0usize;
        let mut product: f64 = 1.0;
        loop {
            product *= rng.gen::<f64>();
            if product <= limit {
                break;
            }
            k += 1;
            if k > max {
                break;
            }
        }
        k
    } else {
        // Normal approximation with continuity correction.
        let std = mean.sqrt();
        let normal = sample_standard_normal(rng);
        (mean + std * normal + 0.5).floor().max(0.0) as usize
    };
    draw.min(max)
}

/// Box–Muller standard normal sample.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::{new_rng, CommunityConfig, PowerLawQuality};

    fn small_config() -> CommunityConfig {
        CommunityConfig::builder()
            .pages(100)
            .users(50)
            .monitored_users(10)
            .total_visits_per_day(50.0)
            .expected_lifetime_days(30.0)
            .build()
            .unwrap()
    }

    /// Pages retired so far: every replacement issues one fresh id.
    fn retired(pop: &PagePopulation) -> u64 {
        pop.ids.issued() - pop.len() as u64
    }

    #[test]
    fn new_population_has_zero_awareness_and_unique_ids() {
        let config = small_config();
        let pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        assert_eq!(pop.len(), 100);
        assert!(!pop.is_empty());
        assert!(pop.slots().iter().all(|s| s.aware_users == 0));
        assert!(pop.slots().iter().all(|s| s.is_unexplored()));
        let mut ids: Vec<u64> = pop.slots().iter().map(|s| s.page.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
        assert_eq!(pop.monitored_users(), 10);
        assert_eq!(retired(&pop), 0);
    }

    #[test]
    fn best_slot_holds_the_max_quality_page() {
        let config = small_config();
        let pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        let best = pop.best_slot();
        let q = pop.slot(best).quality;
        assert!((q - 0.4).abs() < 1e-6);
        assert!(pop.slots().iter().all(|s| s.quality <= q + 1e-12));
    }

    #[test]
    fn popularity_is_awareness_times_quality() {
        let config = small_config();
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        let slot = pop.best_slot();
        pop.slots[slot].aware_users = 5;
        let s = pop.slot(slot);
        assert!((s.awareness(10) - 0.5).abs() < 1e-12);
        assert!((s.popularity(10) - 0.5 * s.quality).abs() < 1e-12);
        assert!(!s.is_unexplored());
        assert_eq!(s.age_days(Day::new(7)), 7);
    }

    #[test]
    fn monitored_visits_eventually_saturate_awareness() {
        let config = small_config();
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        let mut rng = new_rng(1);
        for _ in 0..1_000 {
            pop.record_monitored_visit(3, &mut rng);
        }
        assert_eq!(pop.slot(3).aware_users, 10, "awareness is capped at m");
    }

    #[test]
    fn visit_by_already_aware_user_does_not_increase_awareness() {
        let config = small_config();
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        pop.slots[0].aware_users = 10;
        let mut rng = new_rng(2);
        pop.record_monitored_visit(0, &mut rng);
        assert_eq!(pop.slot(0).aware_users, 10);
    }

    #[test]
    fn replace_page_resets_state_but_keeps_quality() {
        let config = small_config();
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        pop.slots[5].aware_users = 7;
        let old_id = pop.slot(5).page;
        let old_quality = pop.slot(5).quality;
        let new_id = pop.replace_page(5, Day::new(20));
        assert_ne!(new_id, old_id);
        let s = pop.slot(5);
        assert_eq!(s.page, new_id);
        assert_eq!(s.aware_users, 0);
        assert_eq!(s.born, Day::new(20));
        assert_eq!(s.quality, old_quality);
        assert_eq!(retired(&pop), 1);
    }

    #[test]
    fn daily_retirement_rate_matches_lifetime() {
        let config = small_config(); // 30-day lifetime, 100 pages
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        let mut rng = new_rng(3);
        let days = 3_000;
        let (mut total, mut replaced) = (0, Vec::new());
        for d in 0..days {
            total += pop.retire_daily_recording(Day::new(d), &[], &mut rng, &mut replaced);
        }
        let expected = days as f64 * 100.0 * (1.0 - (-1.0f64 / 30.0).exp());
        let observed = total as f64;
        assert!(
            (observed - expected).abs() / expected < 0.1,
            "observed {observed} vs expected {expected}"
        );
    }

    #[test]
    fn protected_slots_are_never_retired() {
        let config = CommunityConfig::builder()
            .pages(10)
            .users(10)
            .monitored_users(5)
            .total_visits_per_day(10.0)
            .expected_lifetime_days(2.0)
            .build()
            .unwrap();
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        let protected = vec![pop.best_slot()];
        let original_id = pop.slot(protected[0]).page;
        let (mut rng, mut replaced) = (new_rng(4), Vec::new());
        for d in 0..200 {
            pop.retire_daily_recording(Day::new(d), &protected, &mut rng, &mut replaced);
        }
        assert!(!replaced.contains(&protected[0]));
        assert_eq!(pop.slot(protected[0]).page, original_id);
        assert!(retired(&pop) > 0, "other slots do retire");
    }

    #[test]
    fn monitored_visit_reports_awareness_changes() {
        let config = small_config();
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        let mut rng = new_rng(9);
        // First visit to a fresh page always raises awareness.
        assert!(pop.record_monitored_visit(2, &mut rng));
        // A saturated page can never change again.
        pop.slots[2].aware_users = 10;
        assert!(!pop.record_monitored_visit(2, &mut rng));
        // Over many visits, the reported changes equal the awareness count.
        let mut changes = 0;
        for _ in 0..1_000 {
            if pop.record_monitored_visit(7, &mut rng) {
                changes += 1;
            }
        }
        assert_eq!(changes, pop.slot(7).aware_users);
    }

    #[test]
    fn recording_retirement_reports_exactly_the_replaced_slots() {
        let config = small_config();
        let mut rng = new_rng(12);
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        let mut replaced = Vec::new();
        for d in 0..200 {
            let before: Vec<PageId> = pop.slots().iter().map(|s| s.page).collect();
            replaced.clear();
            let count = pop.retire_daily_recording(Day::new(d), &[], &mut rng, &mut replaced);
            assert_eq!(replaced.len(), count);
            for (slot, page) in before.into_iter().enumerate() {
                let renewed = pop.slot(slot).page != page;
                assert_eq!(renewed, replaced.contains(&slot), "slot {slot} on day {d}");
                if renewed {
                    assert_eq!(pop.slot(slot).born, Day::new(d));
                }
            }
        }
        assert!(retired(&pop) > 0);
    }

    #[test]
    fn awareness_summary_counts_zero_awareness_pages() {
        let config = small_config();
        let mut pop = PagePopulation::new(&config, &PowerLawQuality::paper_default());
        pop.slots[0].aware_users = 10;
        pop.slots[1].aware_users = 5;
        let (zero, mean) = pop.awareness_summary();
        assert_eq!(zero, 98);
        assert!((mean - (1.0 + 0.5) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn sample_count_matches_mean_for_small_and_large_rates() {
        let mut rng = new_rng(5);
        for &(mean, max) in &[(0.5_f64, 1_000_usize), (5.0, 1_000), (200.0, 10_000)] {
            let trials = 3_000;
            let total: usize = (0..trials).map(|_| sample_count(mean, max, &mut rng)).sum();
            let observed = total as f64 / trials as f64;
            assert!(
                (observed - mean).abs() / mean < 0.1,
                "mean {mean}: observed {observed}"
            );
        }
        assert_eq!(sample_count(0.0, 10, &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "one quality per page slot")]
    fn quality_count_must_match_pages() {
        let config = small_config();
        PagePopulation::with_qualities(&config, &[Quality::new(0.3).unwrap()]);
    }
}
