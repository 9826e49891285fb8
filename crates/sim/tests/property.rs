//! Property-based tests for the simulator's configuration and metric types,
//! and for the incremental ranking state (the popularity index, and the
//! `CorpusCache` bundling it with the pool) that keeps the day loop free of
//! per-day sorting.

use proptest::prelude::*;
use rrp_model::{CommunityConfig, PageId};
use rrp_ranking::{popularity_order, CorpusCache, PageStats, PopularityIndex};
use rrp_sim::{PopularityTrace, QpcAccumulator, SimConfig};

/// One mutation of the page population, as the simulator would apply it.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A monitored visit raised the page's awareness (and popularity).
    Visit { slot: usize, gain: f64 },
    /// The page retired and was replaced by a fresh zero-awareness page.
    Retire { slot: usize },
    /// A day passed: every page ages by one day (no slot is dirtied).
    NextDay,
}

fn arb_events(n: usize) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0usize..3, 0usize..n, 0.0f64..0.2), 0..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, slot, gain)| match kind {
                0 => Event::Visit { slot, gain },
                1 => Event::Retire { slot },
                _ => Event::NextDay,
            })
            .collect()
    })
}

proptest! {
    /// After an arbitrary sequence of visits, retirements and day ticks —
    /// with index repairs interleaved at arbitrary points — the incremental
    /// popularity index equals a from-scratch sort of the current stats.
    #[test]
    fn incremental_index_equals_from_scratch_sort(
        events in arb_events(30),
        repair_every in 1usize..8,
    ) {
        let n = 30usize;
        let mut stats: Vec<PageStats> = (0..n)
            .map(|slot| PageStats::new(slot, PageId::new(slot as u64), 0.0, 0.0))
            .collect();
        let mut index = PopularityIndex::build(&stats);
        // Each slot's stats as of the last repair, kept by its first
        // mutation since then.
        let mut displaced: Vec<PageStats> = Vec::new();
        let displace = |displaced: &mut Vec<PageStats>, old: PageStats| {
            if displaced.iter().all(|d| d.slot != old.slot) {
                displaced.push(old);
            }
        };

        for (step, event) in events.iter().enumerate() {
            match *event {
                Event::Visit { slot, gain } => {
                    displace(&mut displaced, stats[slot]);
                    stats[slot].popularity = (stats[slot].popularity + gain).min(1.0);
                    stats[slot].awareness = (stats[slot].awareness + gain).min(1.0);
                }
                Event::Retire { slot } => {
                    displace(&mut displaced, stats[slot]);
                    stats[slot].popularity = 0.0;
                    stats[slot].awareness = 0.0;
                    stats[slot].age_days = 0;
                }
                Event::NextDay => {
                    for p in stats.iter_mut().chain(displaced.iter_mut()) {
                        p.age_days += 1;
                    }
                }
            }
            if step % repair_every == 0 {
                index.repair(&mut stats, &mut displaced);
                prop_assert!(displaced.is_empty());
            }
        }
        index.repair(&mut stats, &mut displaced);

        let mut expected: Vec<usize> = (0..n).collect();
        expected.sort_by(|&a, &b| popularity_order(&stats[a], &stats[b]));
        prop_assert_eq!(index.order(), expected.as_slice());
        prop_assert!(index.is_consistent(&stats));
    }

    /// The day loop's `CorpusCache`, fed the simulator's mutations — visits,
    /// retirements to a fresh page born today (ages are the seniority
    /// surrogate `u64::MAX − birthday`), and day ticks that touch no entry
    /// — with repairs interleaved at arbitrary points, equals a fresh
    /// rebuild of the current stats: same popularity order, same pool.
    #[test]
    fn day_loop_cache_equals_a_fresh_rebuild(
        events in arb_events(30),
        repair_every in 1usize..8,
    ) {
        let fresh_page = |slot: usize, born: u64| {
            PageStats::new(slot, PageId::new(slot as u64), 0.0, 0.0).with_age(u64::MAX - born)
        };
        let mut stats: Vec<PageStats> = (0..30).map(|slot| fresh_page(slot, 0)).collect();
        let mut cache = CorpusCache::new();
        cache.rebuild(stats.iter().copied());
        let mut today = 0u64;

        for (step, event) in events.iter().enumerate() {
            match *event {
                Event::Visit { slot, gain } => {
                    stats[slot].popularity = (stats[slot].popularity + gain).min(1.0);
                    stats[slot].awareness = (stats[slot].awareness + gain).min(1.0);
                    cache.patch(slot, stats[slot]);
                }
                Event::Retire { slot } => {
                    stats[slot] = fresh_page(slot, today);
                    cache.patch(slot, stats[slot]);
                }
                Event::NextDay => today += 1,
            }
            if step % repair_every == 0 {
                cache.repair();
                prop_assert_eq!(cache.dirty_len(), 0);
            }
        }
        cache.repair();

        let mut fresh = CorpusCache::new();
        fresh.rebuild(stats.iter().copied());
        prop_assert_eq!(cache.stats(), fresh.stats());
        prop_assert_eq!(cache.order(), fresh.order());
        prop_assert_eq!(cache.pool().members(), fresh.pool().members());
    }

    /// Config validation accepts exactly the unit interval for the surf
    /// fraction and the teleportation probability.
    #[test]
    fn sim_config_validation_matches_ranges(x in -1.0f64..2.0, c in -1.0f64..2.0) {
        let mut config = SimConfig::paper_default(0).with_surf_fraction(x);
        config.teleportation = c;
        let should_be_valid = (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&c);
        prop_assert_eq!(config.validate().is_ok(), should_be_valid);
    }

    /// The QPC accumulator always reports a ratio bounded by the largest
    /// per-day average quality it has seen, and never goes negative.
    #[test]
    fn qpc_accumulator_is_a_weighted_average(
        days in proptest::collection::vec((0.0f64..100.0, 0.01f64..1.0, 0.0f64..1.0), 1..50)
    ) {
        let mut acc = QpcAccumulator::default();
        let mut max_daily_quality: f64 = 0.0;
        for &(visits, quality, zero_fraction) in &days {
            acc.record_day(visits * quality, visits, zero_fraction);
            max_daily_quality = max_daily_quality.max(quality);
        }
        let qpc = acc.absolute_qpc();
        prop_assert!(qpc >= 0.0);
        prop_assert!(qpc <= max_daily_quality + 1e-9);
        prop_assert_eq!(acc.days, days.len() as u64);
        let zero = acc.mean_zero_awareness_fraction();
        prop_assert!((0.0..=1.0).contains(&zero));
    }

    /// `first_day_above` returns the first index whose popularity meets the
    /// threshold, and `None` exactly when no day does.
    #[test]
    fn trace_first_day_above_is_consistent(
        popularity in proptest::collection::vec(0.0f64..0.4, 0..200),
        threshold in 0.0f64..0.4,
    ) {
        let trace = PopularityTrace {
            daily_visits: vec![0.0; popularity.len()],
            popularity: popularity.clone(),
        };
        match trace.first_day_above(threshold) {
            Some(day) => {
                prop_assert!(popularity[day] >= threshold);
                for &p in &popularity[..day] {
                    prop_assert!(p < threshold);
                }
            }
            None => {
                prop_assert!(popularity.iter().all(|&p| p < threshold));
            }
        }
    }

    /// Recommended warm-up and measurement windows scale linearly with the
    /// expected page lifetime.
    #[test]
    fn recommended_windows_scale_with_lifetime(lifetime_days in 1.0f64..5_000.0) {
        let config = SimConfig::for_community(
            CommunityConfig::builder()
                .expected_lifetime_days(lifetime_days)
                .build()
                .unwrap(),
            0,
        );
        prop_assert_eq!(config.recommended_warmup_days(), (2.0 * lifetime_days).ceil() as u64);
        prop_assert_eq!(config.recommended_measure_days(), (2.0 * lifetime_days).ceil() as u64);
    }
}
