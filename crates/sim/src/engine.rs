//! The day-by-day Web-community simulator.
//!
//! Mirrors the simulator described in Section 6.2 of the paper: it
//! "maintains an evolving ranked list of pages (the ranking method used is
//! configurable), and distributes user visits to pages according to
//! Equation 4 … keeps track of awareness and popularity values of individual
//! pages as they evolve over time, and creates and retires pages as dictated
//! by our model."
//!
//! Each simulated day:
//!
//! 1. the configured [`PolicyKind`] produces the day's result list from
//!    the pages' current popularity/awareness;
//! 2. the day's *user* visits are spread over the list according to the
//!    `rank^(-3/2)` attention law (plus the random-surfing component of
//!    Section 8 when `surf_fraction > 0`), and the quality of every visited
//!    page is accumulated into the QPC metric;
//! 3. the day's *monitored-user* visits are sampled individually and update
//!    page awareness (a visit from a previously unaware monitored user
//!    raises the page's awareness by `1/m`);
//! 4. pages retire according to the Poisson lifetime model and are replaced
//!    by fresh zero-awareness pages of equal quality.

use crate::community::PagePopulation;
use crate::config::SimConfig;
use crate::metrics::{QpcAccumulator, SimMetrics};
use rand::Rng;
use rrp_attention::RankBias;
use rrp_model::{new_rng, Day, ModelError, ModelResult, Quality, Rng64, SimClock};
use rrp_ranking::{CorpusCache, PageStats, PolicyKind, RankBuffers};

/// The simulator.
pub struct Simulation {
    config: SimConfig,
    population: PagePopulation,
    /// The ranking policy, statically dispatched — no vtable call in the
    /// day loop.
    policy: PolicyKind,
    rng: Rng64,
    clock: SimClock,
    /// Expected visits from the full user population (budget `v_u`) at
    /// each rank, rank 1 first: the rank-bias law, tabulated once.
    total_visits_by_rank: Vec<f64>,
    /// Rank-bias law for monitored users (budget `v`).
    monitored_bias: RankBias,
    /// Cumulative view-probability table over rank positions, used to sample
    /// individual monitored search visits.
    rank_cdf: Vec<f64>,
    qpc: QpcAccumulator,
    ideal_qpc: f64,
    measuring: bool,
    /// Slots exempt from retirement (active TBP probes).
    protected_slots: Vec<usize>,
    /// Today's per-slot snapshot (ages stored as a constant seniority
    /// surrogate — see `slot_stats`), its popularity order and the
    /// promotion pool, repaired incrementally: only slots a monitored
    /// visit raised awareness on, or a retirement replaced, are re-placed
    /// each day. The pool is maintained only for policies that read it.
    cache: CorpusCache,
    /// Slots the population changed since the last ranking, drained into
    /// the cache before each repair.
    dirty_slots: Vec<usize>,
    /// Scratch arena for the allocation-free ranking path.
    buffers: RankBuffers,
    /// Today's result list (slot indices, rank 1 first), reused daily.
    ranking: Vec<usize>,
    /// Popularity CDF for random-surfing visits, reused daily.
    popularity_cdf: Vec<f64>,
}

impl Simulation {
    /// Create a simulation with explicit per-slot qualities.
    ///
    /// `policy` is a [`PolicyKind`], or anything that converts into one
    /// (a `RandomizedRankPromotion` or a `PromotionConfig`) — e.g.
    /// `Simulation::new(config, PolicyKind::Popularity)`.
    pub fn with_qualities(
        config: SimConfig,
        qualities: &[Quality],
        policy: impl Into<PolicyKind>,
    ) -> ModelResult<Self> {
        config.validate()?;
        let n = config.community.pages();
        if qualities.len() != n {
            return Err(ModelError::InvalidCommunity {
                reason: format!("{} qualities for {n} page slots", qualities.len()),
            });
        }
        let population = PagePopulation::with_qualities(&config.community, qualities);
        let total_bias = RankBias::altavista(n, config.community.total_visits_per_day());
        let monitored_bias = RankBias::altavista(n, config.community.monitored_visits_per_day());
        let rank_cdf = cumulative(&monitored_bias.probabilities_by_rank());
        let ideal_qpc = ideal_qpc(&total_bias, qualities);
        let total_visits_by_rank = total_bias.visits_by_rank();
        let policy = policy.into();
        let mut cache = CorpusCache::new();
        cache.set_pool_maintained(policy.reads_pool_index());
        cache.rebuild((0..n).map(|slot| Self::slot_stats(&population, slot)));
        Ok(Simulation {
            rng: new_rng(config.seed),
            config,
            population,
            policy,
            clock: SimClock::new(),
            total_visits_by_rank,
            monitored_bias,
            rank_cdf,
            qpc: QpcAccumulator::default(),
            ideal_qpc,
            measuring: false,
            protected_slots: Vec::new(),
            cache,
            dirty_slots: Vec::new(),
            buffers: RankBuffers::with_capacity(n),
            ranking: Vec::with_capacity(n),
            popularity_cdf: Vec::new(),
        })
    }

    /// Create a simulation whose page qualities follow the paper's default
    /// power-law distribution (deterministic quantile assignment).
    pub fn new(config: SimConfig, policy: impl Into<PolicyKind>) -> ModelResult<Self> {
        let qualities = rrp_model::assign_qualities(
            &rrp_model::PowerLawQuality::paper_default(),
            config.community.pages(),
        );
        Simulation::with_qualities(config, &qualities, policy)
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The current simulated day.
    pub fn today(&self) -> Day {
        self.clock.now()
    }

    /// The page population (read access, for inspection in tests and
    /// experiment drivers).
    pub fn population(&self) -> &PagePopulation {
        &self.population
    }

    /// QPC of the hypothetical quality-ordered ranking for this community
    /// (pure-search attention model).
    pub fn ideal_qpc(&self) -> f64 {
        self.ideal_qpc
    }

    /// Begin accumulating QPC. Call after the warm-up period.
    pub fn start_measurement(&mut self) {
        self.measuring = true;
        self.qpc = QpcAccumulator::default();
    }

    /// Run the simulation for `days` days.
    pub fn run(&mut self, days: u64) {
        for _ in 0..days {
            self.run_day();
        }
    }

    /// Warm up for `warmup` days, measure for `measure` days, return
    /// metrics.
    pub fn run_windows(&mut self, warmup: u64, measure: u64) -> SimMetrics {
        self.run(warmup);
        self.start_measurement();
        self.run(measure);
        self.metrics()
    }

    /// The metrics accumulated since the last [`Simulation::start_measurement`].
    pub fn metrics(&self) -> SimMetrics {
        let absolute = self.qpc.absolute_qpc();
        SimMetrics {
            days_measured: self.qpc.days,
            absolute_qpc: absolute,
            ideal_qpc: self.ideal_qpc,
            normalized_qpc: if self.ideal_qpc > 0.0 {
                absolute / self.ideal_qpc
            } else {
                0.0
            },
            mean_zero_awareness_fraction: self.qpc.mean_zero_awareness_fraction(),
        }
    }

    /// One slot's current [`PageStats`] snapshot entry.
    ///
    /// `age_days` holds an *order-equivalent seniority surrogate*,
    /// `u64::MAX − birthday`, not the literal age: ranking only ever
    /// consumes age through the older-first tie-break of
    /// [`popularity_order`](rrp_ranking::popularity_order), and since every
    /// surviving page ages uniformly, "born earlier" and "older today"
    /// order pages identically — the surrogate yields bit-identical
    /// rankings while never needing a daily `O(n)` re-aging pass over the
    /// snapshot. (Code that needs literal ages reads the population
    /// directly; this snapshot is private to the day loop.)
    fn slot_stats(population: &PagePopulation, slot: usize) -> PageStats {
        let m = population.monitored_users();
        let s = population.slot(slot);
        PageStats {
            slot,
            page: s.page,
            popularity: s.popularity(m),
            awareness: s.awareness(m),
            age_days: u64::MAX - s.born.since(Day::ZERO),
            quality: s.quality,
        }
    }

    /// Drain the population's dirty slots into the cache, repair its
    /// indexes, and rank today's result list into `self.ranking`. Consumes
    /// exactly the RNG draws the policy's `rank` would, so runs are
    /// bit-identical to the historical per-day full-sort path.
    fn rank_today(&mut self) {
        for slot in self.dirty_slots.drain(..) {
            self.cache
                .patch(slot, Self::slot_stats(&self.population, slot));
        }
        debug_assert!((0..self.population.len())
            .all(|s| self.cache.stats()[s] == Self::slot_stats(&self.population, s)));
        self.cache.repair();
        self.policy.rank_view_into(
            &self.cache,
            None,
            &mut self.rng,
            &mut self.buffers,
            &mut self.ranking,
        );
        // Validation is debug-only (compiled out in release) and draws on
        // the reusable scratch mask, so no day step ever allocates for
        // sanity checking.
        debug_assert!(self
            .buffers
            .check_permutation(&self.ranking, self.population.len()));
    }

    /// Simulate one day.
    pub fn run_day(&mut self) {
        let today = self.clock.now();
        let n = self.population.len();

        // 1. Rank today's result list (incremental-index fast path).
        self.rank_today();

        // Popularity mass, needed by the random-surfing component.
        let surf = self.config.surf_fraction;
        let teleport = self.config.teleportation;
        let popularity_sum: f64 = if surf > 0.0 {
            self.cache.stats().iter().map(|s| s.popularity).sum()
        } else {
            0.0
        };

        // 2. Accumulate QPC over the full user population's visits.
        if self.measuring {
            let mut weighted = 0.0;
            let mut visits_total = 0.0;
            // Search-driven visits follow the rank-bias law.
            let search_share = 1.0 - surf;
            if search_share > 0.0 {
                for (&slot, &rank_visits) in self.ranking.iter().zip(&self.total_visits_by_rank) {
                    let visits = search_share * rank_visits;
                    let quality = self.population.slot(slot).quality;
                    weighted += visits * quality;
                    visits_total += visits;
                }
            }
            // Random-surfing visits follow PageRank-style traffic:
            // (1 − c) proportional to popularity + c uniform.
            if surf > 0.0 {
                let vu = self.config.community.total_visits_per_day();
                for (slot, s) in self.population.slots().iter().enumerate() {
                    let link_share = if popularity_sum > 0.0 {
                        self.cache.stats()[slot].popularity / popularity_sum
                    } else {
                        1.0 / n as f64
                    };
                    let visits = surf * vu * ((1.0 - teleport) * link_share + teleport / n as f64);
                    weighted += visits * s.quality;
                    visits_total += visits;
                }
            }
            let (zero, _) = self.population.awareness_summary();
            self.qpc
                .record_day(weighted, visits_total, zero as f64 / n as f64);
        }

        // 3. Monitored-user visits update awareness.
        let monitored_visits = self
            .config
            .community
            .monitored_visits_per_day()
            .round()
            .max(0.0) as u64;
        // Popularity CDF for surf visits, rebuilt in place only when needed.
        let have_cdf = surf > 0.0 && popularity_sum > 0.0;
        if have_cdf {
            let mut acc = 0.0;
            self.popularity_cdf.clear();
            self.popularity_cdf
                .extend(self.cache.stats().iter().map(|s| {
                    acc += s.popularity / popularity_sum;
                    acc
                }));
        }
        for _ in 0..monitored_visits {
            let slot = if self.rng.gen::<f64>() < surf {
                // Random surfing: teleport or follow popularity. (The
                // teleport coin is always drawn first so the RNG stream is
                // independent of whether the CDF exists.)
                let teleported = self.rng.gen::<f64>() < teleport;
                if have_cdf && !teleported {
                    let u: f64 = self.rng.gen();
                    ranking_independent_search(&self.popularity_cdf, u)
                } else {
                    self.rng.gen_range(0..n)
                }
            } else {
                // Search: sample a rank position, then look up the page.
                let u: f64 = self.rng.gen();
                let rank_idx = ranking_independent_search(&self.rank_cdf, u);
                self.ranking[rank_idx.min(n - 1)]
            };
            if self.population.record_monitored_visit(slot, &mut self.rng) {
                self.dirty_slots.push(slot);
            }
        }

        // 4. Retire and replace pages (replacements reset popularity,
        // awareness and age, so they are dirty for the cache).
        let protected = std::mem::take(&mut self.protected_slots);
        self.population.retire_daily_recording(
            today,
            &protected,
            &mut self.rng,
            &mut self.dirty_slots,
        );
        self.protected_slots = protected;

        self.clock.tick();
    }

    /// Protect a slot from retirement (used by TBP probes).
    pub(crate) fn protect_slot(&mut self, slot: usize) {
        if !self.protected_slots.contains(&slot) {
            self.protected_slots.push(slot);
        }
    }

    /// Remove retirement protection from a slot.
    pub(crate) fn unprotect_slot(&mut self, slot: usize) {
        self.protected_slots.retain(|&s| s != slot);
    }

    /// Replace the page in `slot` with a fresh zero-awareness page (probe
    /// management), marking it dirty for the cache.
    pub(crate) fn reset_slot_for_probe(&mut self, slot: usize) {
        let today = self.clock.now();
        self.population.replace_page(slot, today);
        self.dirty_slots.push(slot);
    }

    /// The monitored-user rank-bias law (used by probes to report expected
    /// per-rank visit rates).
    pub(crate) fn monitored_bias(&self) -> &RankBias {
        &self.monitored_bias
    }

    /// Compute the current rank of `slot` under the policy in use, by
    /// re-ranking today's snapshot. Used by probes/traces.
    pub(crate) fn current_rank_of(&mut self, slot: usize) -> usize {
        self.rank_today();
        self.ranking
            .iter()
            .position(|&s| s == slot)
            .expect("slot is always ranked")
            + 1
    }
}

/// QPC of the quality-ordered ideal ranking: rank pages by descending
/// quality and weight by the attention each rank receives.
fn ideal_qpc(bias: &RankBias, qualities: &[Quality]) -> f64 {
    let mut sorted: Vec<f64> = qualities.iter().map(|q| q.value()).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("quality is never NaN"));
    let total = bias.total_visits();
    if total <= 0.0 {
        return 0.0;
    }
    sorted
        .iter()
        .enumerate()
        .map(|(idx, q)| bias.visits_at_rank(idx + 1) * q)
        .sum::<f64>()
        / total
}

/// Binary search over a cumulative distribution table: returns the first
/// index whose cumulative value is ≥ `u`.
fn ranking_independent_search(cdf: &[f64], u: f64) -> usize {
    match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len().saturating_sub(1)),
    }
}

/// Build a cumulative table from probabilities, pinning the final entry to 1.
fn cumulative(probabilities: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut out: Vec<f64> = probabilities
        .iter()
        .map(|p| {
            acc += p;
            acc
        })
        .collect();
    if let Some(last) = out.last_mut() {
        *last = 1.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::CommunityConfig;
    use rrp_ranking::PromotionConfig;

    fn tiny_config(seed: u64) -> SimConfig {
        SimConfig::for_community(
            CommunityConfig::builder()
                .pages(200)
                .users(100)
                .monitored_users(20)
                .total_visits_per_day(100.0)
                .expected_lifetime_days(120.0)
                .build()
                .unwrap(),
            seed,
        )
    }

    #[test]
    fn simulation_construction_and_accessors() {
        let sim = Simulation::new(tiny_config(1), PolicyKind::Popularity).unwrap();
        assert_eq!(sim.population().len(), 200);
        assert_eq!(sim.today(), Day::ZERO);
        assert!(sim.ideal_qpc() > 0.0 && sim.ideal_qpc() <= 0.4);
        assert_eq!(sim.config().seed, 1);
    }

    #[test]
    fn clock_advances_and_pages_retire() {
        let mut sim = Simulation::new(tiny_config(2), PolicyKind::Popularity).unwrap();
        sim.run(100);
        assert_eq!(sim.today(), Day::new(100));
        // Every replacement issues the next page id, so the highest id
        // counts the retirements.
        let pages = sim.population().slots();
        let retired = pages.iter().map(|s| s.page.raw()).max().unwrap() + 1 - pages.len() as u64;
        assert!(
            retired > 50,
            "with a 120-day lifetime and 200 pages, ≈ 166 retirements expected in 100 days, got {retired}"
        );
    }

    #[test]
    fn awareness_grows_over_time() {
        let mut sim = Simulation::new(tiny_config(3), PolicyKind::Popularity).unwrap();
        let (zero_before, mean_before) = sim.population().awareness_summary();
        assert_eq!(zero_before, 200);
        assert_eq!(mean_before, 0.0);
        sim.run(200);
        let (zero_after, mean_after) = sim.population().awareness_summary();
        assert!(zero_after < 200, "some pages must get discovered");
        assert!(mean_after > 0.0);
    }

    #[test]
    fn metrics_require_measurement_window() {
        let mut sim = Simulation::new(tiny_config(4), PolicyKind::Popularity).unwrap();
        sim.run(50);
        let metrics = sim.metrics();
        assert_eq!(metrics.days_measured, 0);
        assert_eq!(metrics.absolute_qpc, 0.0);
        sim.start_measurement();
        sim.run(50);
        let metrics = sim.metrics();
        assert_eq!(metrics.days_measured, 50);
        assert!(metrics.absolute_qpc > 0.0);
        assert!(metrics.normalized_qpc > 0.0 && metrics.normalized_qpc <= 1.0 + 1e-9);
        assert!(metrics.mean_zero_awareness_fraction >= 0.0);
    }

    #[test]
    fn quality_oracle_achieves_nearly_ideal_qpc() {
        let mut sim = Simulation::new(tiny_config(5), PolicyKind::QualityOracle).unwrap();
        let metrics = sim.run_windows(100, 200);
        assert!(
            metrics.normalized_qpc > 0.95,
            "oracle ranking should be ≈ ideal, got {}",
            metrics.normalized_qpc
        );
    }

    #[test]
    fn same_seed_reproduces_the_run_exactly() {
        let run = |seed| {
            let mut sim = Simulation::new(tiny_config(seed), PolicyKind::Popularity).unwrap();
            sim.run_windows(100, 100)
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn selective_promotion_discovers_more_pages_than_baseline() {
        let run = |policy: PolicyKind| {
            let mut sim = Simulation::new(tiny_config(11), policy).unwrap();
            sim.run_windows(300, 300)
        };
        let base = run(PolicyKind::Popularity);
        let promoted = run(PolicyKind::promotion(PromotionConfig::recommended(1)));
        assert!(
            promoted.mean_zero_awareness_fraction < base.mean_zero_awareness_fraction,
            "promotion must reduce never-seen pages: {} vs {}",
            promoted.mean_zero_awareness_fraction,
            base.mean_zero_awareness_fraction
        );
    }

    #[test]
    fn mixed_surfing_distributes_some_visits_by_popularity() {
        let config = tiny_config(12).with_surf_fraction(0.5);
        let mut sim = Simulation::new(config, PolicyKind::Popularity).unwrap();
        let metrics = sim.run_windows(100, 100);
        assert!(metrics.absolute_qpc > 0.0);
        // Pure surfing variant also runs.
        let config = tiny_config(13).with_surf_fraction(1.0);
        let mut sim = Simulation::new(config, PolicyKind::Popularity).unwrap();
        let metrics = sim.run_windows(100, 100);
        assert!(metrics.absolute_qpc > 0.0);
    }

    #[test]
    fn ideal_qpc_helper_matches_hand_computation() {
        let bias = RankBias::altavista(3, 10.0);
        let qualities = vec![
            Quality::new(0.1).unwrap(),
            Quality::new(0.4).unwrap(),
            Quality::new(0.2).unwrap(),
        ];
        let ideal = ideal_qpc(&bias, &qualities);
        let expected = (bias.visits_at_rank(1) * 0.4
            + bias.visits_at_rank(2) * 0.2
            + bias.visits_at_rank(3) * 0.1)
            / 10.0;
        assert!((ideal - expected).abs() < 1e-12);
    }

    #[test]
    fn cumulative_table_and_search() {
        let cdf = cumulative(&[0.2, 0.3, 0.5]);
        assert!((cdf[0] - 0.2).abs() < 1e-12);
        assert!((cdf[1] - 0.5).abs() < 1e-12);
        assert_eq!(cdf[2], 1.0);
        assert_eq!(ranking_independent_search(&cdf, 0.1), 0);
        assert_eq!(ranking_independent_search(&cdf, 0.4), 1);
        assert_eq!(ranking_independent_search(&cdf, 0.99), 2);
        assert_eq!(ranking_independent_search(&cdf, 1.0), 2);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = tiny_config(1).with_surf_fraction(2.0);
        assert!(Simulation::new(config, PolicyKind::Popularity).is_err());
    }

    #[test]
    fn a_quality_per_slot_is_required() {
        for len in [199usize, 201] {
            let qualities = vec![Quality::new(0.1).unwrap(); len];
            match Simulation::with_qualities(tiny_config(1), &qualities, PolicyKind::Popularity) {
                Err(ModelError::InvalidCommunity { reason }) => {
                    assert_eq!(reason, format!("{len} qualities for 200 page slots"))
                }
                other => panic!(
                    "{len} qualities: expected InvalidCommunity, got {:?}",
                    other.err()
                ),
            }
        }
        let qualities = vec![Quality::new(0.1).unwrap(); 200];
        assert!(
            Simulation::with_qualities(tiny_config(1), &qualities, PolicyKind::Popularity).is_ok()
        );
    }
}
