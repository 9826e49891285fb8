//! Property-based tests of the ranking policies.
//!
//! The central invariant: every policy emits a permutation of the input
//! slots — no page is ever dropped or duplicated — and the protected prefix
//! of the randomized policy always equals the deterministic prefix.

use proptest::prelude::*;
use rrp_model::{new_rng, PageId};
use rrp_ranking::{
    is_permutation, lower_bounds, merge_promoted, merge_shard_candidates_into, popularity_order,
    CorpusCache, EngineVersion, MergedCandidates, PageStats, PolicyKind, PoolIndex,
    PopularityIndex, PromotionConfig, PromotionRule, RandomizedRankPromotion, RankBuffers,
    RankSource, ShardCandidates,
};

/// Strategy producing an arbitrary page population of size 1..=120.
fn arb_pages() -> impl Strategy<Value = Vec<PageStats>> {
    prop::collection::vec((0.0f64..=1.0, prop::bool::ANY, 0u64..1000), 1..120).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(slot, (quality, explored, age))| {
                let awareness = if explored { 0.5 } else { 0.0 };
                PageStats::new(
                    slot,
                    PageId::new(slot as u64),
                    quality * awareness,
                    awareness,
                )
                .with_age(age)
                .with_quality(quality)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn every_policy_emits_a_permutation(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        degree in 0.0f64..=1.0,
        k in 1usize..30,
    ) {
        let n = pages.len();
        let mut rng = new_rng(seed);

        let det = PolicyKind::Popularity.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&det, n));

        let oracle = PolicyKind::QualityOracle.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&oracle, n));

        let random = PolicyKind::FullyRandom.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&random, n));

        let promo = PolicyKind::promotion(
            PromotionConfig::new(rule, k, degree).unwrap(),
        );
        let promoted = promo.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&promoted, n));
    }

    #[test]
    fn deterministic_ranking_is_sorted_by_popularity(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = new_rng(seed);
        let order = PolicyKind::Popularity.rank(&pages, &mut rng);
        let by_slot: std::collections::HashMap<usize, &PageStats> =
            pages.iter().map(|p| (p.slot, p)).collect();
        for w in order.windows(2) {
            prop_assert!(
                by_slot[&w[0]].popularity >= by_slot[&w[1]].popularity,
                "popularity must be nonincreasing down the result list"
            );
        }
    }

    #[test]
    fn selective_promotion_protects_top_k_minus_1(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        degree in 0.0f64..=1.0,
        k in 1usize..20,
    ) {
        let mut rng_det = new_rng(seed);
        let det = PolicyKind::Popularity.rank(&pages, &mut rng_det);

        let promo = PolicyKind::promotion(
            PromotionConfig::new(PromotionRule::Selective, k, degree).unwrap(),
        );
        let mut rng = new_rng(seed.wrapping_add(1));
        let promoted = promo.rank(&pages, &mut rng);

        // The selective pool contains only zero-awareness (zero-popularity)
        // pages, so the deterministic prefix of explored pages is identical.
        let explored_count = pages.iter().filter(|p| !p.is_unexplored()).count();
        let protected = (k - 1).min(explored_count);
        prop_assert_eq!(&det[..protected], &promoted[..protected]);
    }

    #[test]
    fn merge_is_a_permutation_of_its_inputs(
        d_len in 0usize..200,
        p_len in 0usize..200,
        k in 1usize..40,
        degree in 0.0f64..=1.0,
        seed in proptest::num::u64::ANY,
    ) {
        let ld: Vec<usize> = (0..d_len).collect();
        let lp: Vec<usize> = (d_len..d_len + p_len).collect();
        let mut rng = new_rng(seed);
        let merged = merge_promoted(&ld, &lp, k, degree, &mut rng);
        prop_assert!(is_permutation(&merged, d_len + p_len));
    }

    #[test]
    fn merge_preserves_relative_order_of_each_list(
        d_len in 1usize..100,
        p_len in 1usize..100,
        degree in 0.0f64..=1.0,
        seed in proptest::num::u64::ANY,
    ) {
        let ld: Vec<usize> = (0..d_len).collect();
        let lp: Vec<usize> = (d_len..d_len + p_len).collect();
        let mut rng = new_rng(seed);
        let merged = merge_promoted(&ld, &lp, 1, degree, &mut rng);
        let pos = |x: usize| merged.iter().position(|&y| y == x).unwrap();
        for w in ld.windows(2) {
            prop_assert!(pos(w[0]) < pos(w[1]));
        }
        for w in lp.windows(2) {
            prop_assert!(pos(w[0]) < pos(w[1]));
        }
    }

    #[test]
    fn oracle_never_ranks_lower_quality_above_higher(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = new_rng(seed);
        let order = PolicyKind::QualityOracle.rank(&pages, &mut rng);
        let by_slot: std::collections::HashMap<usize, &PageStats> =
            pages.iter().map(|p| (p.slot, p)).collect();
        for w in order.windows(2) {
            prop_assert!(by_slot[&w[0]].quality >= by_slot[&w[1]].quality);
        }
    }

    #[test]
    fn same_seed_same_ranking(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
    ) {
        let policy = PolicyKind::recommended(2);
        let mut a = new_rng(seed);
        let mut b = new_rng(seed);
        prop_assert_eq!(policy.rank(&pages, &mut a), policy.rank(&pages, &mut b));
    }

    /// For *any* valid promotion configuration — both rules, any starting
    /// rank, any degree — the policy emits a permutation of the input
    /// slots: no page is ever dropped or duplicated.
    #[test]
    fn arbitrary_config_always_emits_a_permutation(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        k in 1usize..200,
        degree in 0.0f64..=1.0,
    ) {
        let config = PromotionConfig::new(rule, k, degree).unwrap();
        let policy = PolicyKind::promotion(config);
        let mut rng = new_rng(seed);
        let order = policy.rank(&pages, &mut rng);
        prop_assert!(is_permutation(&order, pages.len()));
    }

    /// For every policy and any valid promotion configuration, the
    /// allocation-free `rank_into` (through a reused scratch arena) produces
    /// byte-identical output to the allocating `rank` from the same RNG
    /// state.
    #[test]
    fn rank_into_matches_legacy_rank_for_all_policies(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        k in 1usize..50,
        degree in 0.0f64..=1.0,
    ) {
        let config = PromotionConfig::new(rule, k, degree).unwrap();
        let policies = [
            PolicyKind::Popularity,
            PolicyKind::QualityOracle,
            PolicyKind::FullyRandom,
            PolicyKind::promotion(config),
        ];
        // One arena reused across every policy and call: stale contents
        // from a previous call must never leak into the next result.
        let mut buffers = RankBuffers::new();
        let mut out = vec![99_usize; 3];
        for policy in &policies {
            let legacy = policy.rank(&pages, &mut new_rng(seed));
            policy.rank_into(&pages, &mut new_rng(seed), &mut buffers, &mut out);
            prop_assert_eq!(&out, &legacy, "policy {}", policy.name());
        }
    }

    /// The persistent pool index under arbitrary dirty sequences — visits
    /// flipping awareness on, retirements flipping it back off, inserts
    /// growing the population past its initial capacity, redundant dirty
    /// marks on unchanged slots — with repairs interleaved at arbitrary
    /// points: the incrementally repaired membership always equals a
    /// from-scratch rebuild of the current stats (the mirror of the
    /// `PopularityIndex` ≡ sort property in `rrp-sim`).
    #[test]
    fn pool_index_repair_equals_rebuild_under_arbitrary_dirty_sequences(
        initial in 1usize..40,
        events in prop::collection::vec((0usize..4, 0usize..80), 0..120),
        repair_every in 1usize..8,
    ) {
        let page = |slot: usize, explored: bool| {
            let awareness = if explored { 0.5 } else { 0.0 };
            PageStats::new(slot, PageId::new(slot as u64), awareness, awareness)
        };
        let mut stats: Vec<PageStats> =
            (0..initial).map(|slot| page(slot, slot % 2 == 0)).collect();
        let mut index = PoolIndex::build(&stats);
        let mut dirty: Vec<usize> = Vec::new();

        for (step, &(kind, raw_slot)) in events.iter().enumerate() {
            let slot = raw_slot % stats.len();
            match kind {
                // A first visit: the page leaves the pool.
                0 => {
                    stats[slot].awareness = 0.5;
                    dirty.push(slot);
                }
                // A retirement: a fresh zero-awareness page re-enters.
                1 => {
                    stats[slot].awareness = 0.0;
                    stats[slot].popularity = 0.0;
                    dirty.push(slot);
                }
                // An insert: the population grows (beyond the initial
                // capacity once enough events accumulate).
                2 => {
                    let new_slot = stats.len();
                    stats.push(page(new_slot, raw_slot % 3 == 0));
                    dirty.push(new_slot);
                }
                // A redundant dirty mark: the slot did not change.
                _ => dirty.push(slot),
            }
            if step % repair_every == 0 {
                index.repair(&stats, &dirty);
                dirty.clear();
                prop_assert!(index.is_consistent(&stats));
            }
        }
        index.repair(&stats, &dirty);

        let rebuilt = PoolIndex::build(&stats);
        prop_assert_eq!(index.members(), rebuilt.members());
        prop_assert!(index.is_consistent(&stats));
        prop_assert_eq!(index.len(), rebuilt.len());
    }

    /// The displaced-key repair under arbitrary patch/push schedules, with
    /// repairs interleaved at arbitrary points: after every repair the
    /// cache's order and pool equal a from-scratch rebuild of the current
    /// stats. Keys come from a tiny grid (four popularities, three ages),
    /// so most comparisons tie down to the slot tie-break; the schedule
    /// mixes no-op patches, repeated patches of one slot between repairs
    /// (only the first displaced key counts), jumps to the top and the
    /// bottom, membership flips and inserts.
    #[test]
    fn displaced_key_repair_equals_from_scratch_sort(
        initial in 1usize..40,
        events in prop::collection::vec((0usize..7, 0usize..80, 0usize..12), 0..150),
        repair_every in 1usize..8,
    ) {
        let grid = |slot: usize, cell: usize| {
            let popularity = [0.0, 0.25, 0.5, 0.75][cell % 4];
            let awareness = if cell.is_multiple_of(5) { 0.0 } else { 0.5 };
            PageStats::new(slot, PageId::new(slot as u64), popularity, awareness)
                .with_age((cell / 4) as u64)
        };
        let mut stats: Vec<PageStats> = (0..initial).map(|slot| grid(slot, slot)).collect();
        let mut cache = CorpusCache::new();
        for &stat in &stats {
            cache.push(stat);
        }

        for (step, &(kind, raw_slot, cell)) in events.iter().enumerate() {
            let slot = raw_slot % stats.len();
            match kind {
                // A move on the tie-heavy grid.
                0 => stats[slot] = grid(slot, cell),
                // A no-op patch: the key does not change.
                1 => {}
                // Two patches of one slot before the next repair.
                2 => {
                    cache.patch(slot, grid(slot, cell + 1));
                    stats[slot] = grid(slot, cell);
                }
                // A jump above every other page.
                3 => stats[slot].popularity = 2.0 + cell as f64,
                // A drop to the very bottom (a retirement).
                4 => {
                    stats[slot].popularity = 0.0;
                    stats[slot].awareness = 0.0;
                    stats[slot].age_days = 0;
                }
                // An insert.
                5 => {
                    let new_slot = stats.len();
                    stats.push(grid(new_slot, cell));
                    cache.push(stats[new_slot]);
                    continue;
                }
                // A first visit: the page leaves the pool.
                _ => stats[slot].awareness = 0.5,
            }
            cache.patch(slot, stats[slot]);
            if step % repair_every == 0 {
                cache.repair();
                prop_assert_eq!(cache.dirty_len(), 0);
                let mut fresh = CorpusCache::new();
                fresh.rebuild(stats.iter().copied());
                prop_assert_eq!(cache.order(), fresh.order());
                prop_assert_eq!(cache.pool().members(), fresh.pool().members());
            }
        }
        cache.repair();

        let mut expected: Vec<usize> = (0..stats.len()).collect();
        expected.sort_by(|&a, &b| popularity_order(&stats[a], &stats[b]));
        prop_assert_eq!(cache.stats(), stats.as_slice());
        prop_assert_eq!(cache.order(), expected.as_slice());
        let mut fresh = CorpusCache::new();
        fresh.rebuild(stats.iter().copied());
        prop_assert_eq!(cache.pool().members(), fresh.pool().members());
    }

    /// The lockstep lower bounds against `partition_point`: an arbitrary
    /// sorted list with duplicates (odd entries), probed below its first
    /// entry, on and between every entry (the even probes), above its last
    /// one, and at arbitrary extra points; an empty list answers 0.
    #[test]
    fn lockstep_lower_bounds_equal_partition_point(
        mut values in prop::collection::vec(0usize..50, 0..60),
        extra in prop::collection::vec(0usize..120, 0..20),
    ) {
        values.sort_unstable();
        let list: Vec<usize> = values.iter().map(|v| 2 * v + 1).collect();
        let mut probes: Vec<usize> = (0..=list.last().map_or(1, |&last| last + 1)).collect();
        probes.extend(extra);
        let mut at = vec![7; 3]; // stale contents are overwritten
        lower_bounds(&list, probes.len(), |i, e| e < probes[i], &mut at);
        prop_assert_eq!(at.len(), probes.len());
        for (&found, &probe) in at.iter().zip(&probes) {
            prop_assert_eq!(found, list.partition_point(|&e| e < probe), "probe {}", probe);
        }
    }

    /// The one-pass order edit against a from-scratch sort, through both of
    /// its callers. The source order is sorted over arbitrary old keys on a
    /// tie-heavy grid (four popularities, three ages: most comparisons fall
    /// to the slot tie-break); the change set moves arbitrary slots,
    /// patches some to their own key, may change every slot, and pushes new
    /// ones — an empty source is the bulk load. Editing from the live
    /// source (`repair_from`, over stale or empty scratch) and in place
    /// from displaced keys (`repair`) must both equal a sort of the new
    /// keys.
    #[test]
    fn one_pass_edit_equals_a_from_scratch_sort(
        old_cells in prop::collection::vec(0usize..12, 0..40),
        changes in prop::collection::vec((0usize..40, 0usize..13), 0..40),
        pushes in prop::collection::vec(0usize..12, 0..8),
        every_slot in prop::bool::ANY,
        stale_scratch in prop::bool::ANY,
    ) {
        let grid = |slot: usize, cell: usize| {
            PageStats::new(slot, PageId::new(slot as u64), [0.0, 0.25, 0.5, 0.75][cell % 4], 0.5)
                .with_age((cell / 4) as u64)
        };
        let live_stats: Vec<PageStats> =
            old_cells.iter().enumerate().map(|(slot, &cell)| grid(slot, cell)).collect();
        let live = PopularityIndex::build(&live_stats);
        let indexed = live_stats.len();

        // Each changed slot once, in arrival order; cell 12 patches a slot
        // to its own key.
        let mut stats = live_stats.clone();
        let mut changed: Vec<usize> = Vec::new();
        let mut listed = vec![false; indexed];
        let mut touch = |slot: usize, changed: &mut Vec<usize>| {
            if !std::mem::replace(&mut listed[slot], true) {
                changed.push(slot);
            }
        };
        if every_slot {
            (0..indexed).for_each(|slot| touch(slot, &mut changed));
        }
        for &(raw, cell) in changes.iter().filter(|_| indexed > 0) {
            let slot = raw % indexed;
            if cell < 12 {
                stats[slot] = grid(slot, cell);
            }
            touch(slot, &mut changed);
        }
        for &cell in &pushes {
            let slot = stats.len();
            stats.push(grid(slot, cell));
            changed.push(slot);
        }
        let mut expected: Vec<usize> = (0..stats.len()).collect();
        expected.sort_by(|&a, &b| popularity_order(&stats[a], &stats[b]));

        let mut from_live = if stale_scratch {
            PopularityIndex::build(&stats[..stats.len() / 2])
        } else {
            PopularityIndex::default()
        };
        from_live.repair_from(&live, &live_stats, &stats, &changed);
        prop_assert_eq!(from_live.order(), expected.as_slice());
        prop_assert!(from_live.is_consistent(&stats));

        let mut in_place = live.clone();
        let mut displaced: Vec<PageStats> = changed
            .iter()
            .filter(|&&slot| slot < indexed)
            .map(|&slot| live_stats[slot])
            .collect();
        let current = stats.clone();
        in_place.repair(&mut stats, &mut displaced);
        prop_assert_eq!(in_place.order(), expected.as_slice());
        prop_assert_eq!(stats, current);
    }

    /// The one rank primitive against the scanning reference, for any
    /// population, both rules, both engine versions, any start rank and
    /// any `k`:
    ///
    /// * `rank(source, None)` over a pool index is byte-identical to the
    ///   scanning `rank_into`;
    /// * under V1, `rank(source, Some(k))` is the length-`k` prefix;
    /// * a V2 Selective top-`k` query makes at most `k` pool draws;
    /// * the serving tier's source — a `CorpusCache` filled slot by slot
    ///   and repaired — and, for Selective top-k, the retrieved rest by
    ///   `collect_rest` + `merge_shard_candidates_into` answer exactly as
    ///   the from-scratch source does.
    ///
    /// A single mis-merged, stale or re-ordered entry would shift the RNG
    /// stream, so equality is exact.
    #[test]
    fn pooled_paths_match_scanning_paths(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        v2 in prop::bool::ANY,
        start_rank in 1usize..50,
        degree in 0.0f64..=1.0,
        k in 0usize..140,
    ) {
        let n = pages.len();
        let config = PromotionConfig::new(rule, start_rank, degree).unwrap();
        let version = if v2 { EngineVersion::V2 } else { EngineVersion::V1 };
        let policy = RandomizedRankPromotion::new(config).with_version(version);
        let lazy = version == EngineVersion::V2 && rule == PromotionRule::Selective;
        let mut sorted: Vec<usize> = (0..n).collect();
        sorted.sort_unstable_by(|&a, &b| popularity_order(&pages[a], &pages[b]));
        let pool = PoolIndex::build(&pages);
        let source = RankSource::new(pool.members(), &sorted, |s| pool.contains(s));

        let mut buffers = RankBuffers::new();
        let (mut reference, mut full, mut top, mut out) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        policy.rank_into(&pages, &mut new_rng(seed), &mut buffers, &mut reference);
        policy.rank(source, None, &mut new_rng(seed), &mut buffers, &mut full);
        prop_assert_eq!(&full, &reference);
        policy.rank(source, Some(k), &mut new_rng(seed), &mut buffers, &mut top);
        let draws = buffers.take_pool_draws();
        if lazy {
            prop_assert!(draws <= k as u64, "{} draws for k = {}", draws, k);
            prop_assert_eq!(top.len(), k.min(n));
        } else {
            prop_assert_eq!(&top, &reference[..k.min(n)].to_vec());
            prop_assert_eq!(draws, 0);
        }

        let mut cache = CorpusCache::new();
        for &p in &pages {
            cache.push(p);
        }
        cache.repair();
        policy.rank(cache.source(), None, &mut new_rng(seed), &mut buffers, &mut out);
        prop_assert_eq!(&out, &full);
        policy.rank(cache.source(), Some(k), &mut new_rng(seed), &mut buffers, &mut out);
        prop_assert_eq!(&out, &top);

        if rule == PromotionRule::Selective {
            let limit = config.candidate_prefix_len(k);
            let mut candidates = ShardCandidates::new();
            candidates.collect_rest(&cache, limit);
            let mut merged = MergedCandidates::new();
            merge_shard_candidates_into(&[candidates], limit, &mut merged);
            let rest: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
            policy.rank(RankSource::retrieved(cache.pool().members(), &rest), Some(k), &mut new_rng(seed), &mut buffers, &mut out);
            prop_assert_eq!(&out, &top);
        }
    }

    /// For *any* valid promotion configuration, ranks better than `k` are
    /// never perturbed: the first `k − 1` positions of the randomized
    /// result equal the deterministic popularity ranking of the pages that
    /// stayed outside the promotion pool. (Pool membership itself depends
    /// on the rule — zero-awareness pages for Selective, an `r`-biased coin
    /// per page for Uniform — so the protected prefix is computed against
    /// the policy's own non-pool ordering, reproduced from the same seed.)
    #[test]
    fn arbitrary_config_never_perturbs_ranks_below_k(
        pages in arb_pages(),
        seed in proptest::num::u64::ANY,
        rule in prop_oneof![Just(PromotionRule::Uniform), Just(PromotionRule::Selective)],
        k in 1usize..50,
        degree in 0.0f64..=1.0,
    ) {
        let config = PromotionConfig::new(rule, k, degree).unwrap();
        let policy = PolicyKind::promotion(config);
        let order = policy.rank(&pages, &mut new_rng(seed));

        // Reproduce the policy's own pool split from the same seed: the
        // Uniform rule consumes one coin flip per page, in input order,
        // before anything else; the Selective rule consumes none.
        let mut pool_rng = new_rng(seed);
        let in_pool: Vec<bool> = match rule {
            PromotionRule::Selective => pages.iter().map(|p| p.is_unexplored()).collect(),
            PromotionRule::Uniform => pages
                .iter()
                .map(|_| rand::Rng::gen::<f64>(&mut pool_rng) < degree)
                .collect(),
        };
        let mut non_pool: Vec<&PageStats> = pages
            .iter()
            .filter(|p| !in_pool[p.slot])
            .collect();
        non_pool.sort_by(|a, b| rrp_ranking::popularity_order(a, b));
        let protected = (k - 1).min(non_pool.len());
        let expected: Vec<usize> = non_pool[..protected].iter().map(|p| p.slot).collect();
        prop_assert_eq!(
            &order[..protected],
            expected.as_slice(),
            "ranks 1..k must hold the deterministic non-pool prefix (rule {:?}, k {}, r {})",
            rule,
            k,
            degree
        );
    }
}
