//! The embeddable rank-promotion engine.
//!
//! [`RankPromotionEngine`] is the piece a production search engine would
//! actually adopt: it takes the engine's own ranked candidates (documents
//! with popularity scores and an "unexplored" flag) and re-orders them
//! according to the paper's randomized rank-promotion scheme. The
//! randomization is a pure function of `(engine seed, query, session)`, so
//! a user re-running the same query in the same session sees a stable list,
//! while different users explore different promoted documents.

use crate::document::{Document, QueryContext};
use rrp_model::new_rng;
use rrp_model::PageId;
use rrp_ranking::{
    CorpusCache, EngineVersion, PageStats, PromotionConfig, PromotionRule, RandomizedRankPromotion,
    RankBuffers, RankSource,
};
use serde::{Deserialize, Serialize};

/// Re-ranks query results with randomized rank promotion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankPromotionEngine {
    config: PromotionConfig,
    /// Engine-level seed mixed into every query's randomization.
    seed: u64,
    /// Which observable RNG stream the engine draws. Defaults to
    /// [`EngineVersion::V1`] — engines serialized before versioning
    /// existed deserialize to v1 and keep their recorded goldens valid.
    #[serde(default)]
    version: EngineVersion,
}

impl RankPromotionEngine {
    /// Build an engine with an explicit promotion configuration.
    pub fn new(config: PromotionConfig) -> Self {
        RankPromotionEngine {
            config,
            seed: 0,
            version: EngineVersion::V1,
        }
    }

    /// The paper's recommended configuration (Section 6.4): selective
    /// promotion of unexplored documents, 10% randomization, top result
    /// protected (`k = 2`).
    pub fn recommended() -> Self {
        RankPromotionEngine::new(PromotionConfig::recommended(2))
    }

    /// Set the engine-level seed (e.g. rotated daily so that promoted
    /// positions change over time even for identical sessions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The promotion configuration in use.
    pub fn config(&self) -> PromotionConfig {
        self.config
    }

    /// The engine-level seed mixed into every query's randomization.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Opt into an explicit [`EngineVersion`]. V1 (the default) keeps
    /// every recorded golden valid; v2 serves Selective top-k through the
    /// lazy `O(k)`-draw pool shuffle — a different, distributionally
    /// equivalent RNG stream with its own golden set. Full reranks and
    /// Uniform-rule engines behave identically under either version.
    pub fn with_version(mut self, version: EngineVersion) -> Self {
        self.version = version;
        self
    }

    /// The engine version in use.
    pub fn version(&self) -> EngineVersion {
        self.version
    }

    /// The ranking policy this engine runs: its configuration and version,
    /// ready for the ranking-layer entry points.
    fn policy(&self) -> RandomizedRankPromotion {
        RandomizedRankPromotion::new(self.config).with_version(self.version)
    }

    /// Whether this engine's pooled query paths actually read a
    /// maintained pool index: only the Selective rule does (the Uniform
    /// rule must re-draw its per-page coins every query). Owners of a
    /// [`CorpusCache`] use this to decide whether pool maintenance is
    /// worth paying for — see [`CorpusCache::set_pool_maintained`].
    pub fn reads_pool_index(&self) -> bool {
        self.config.rule == PromotionRule::Selective
    }

    /// The canonical mapping from host-engine [`Document`]s to the
    /// [`PageStats`] the ranking layer consumes, written into `stats`
    /// (cleared first). Exposed so batch servers can build the snapshot
    /// once and serve many queries from it; every rerank path in this crate
    /// uses exactly this mapping.
    pub fn document_stats(documents: &[Document], stats: &mut Vec<PageStats>) {
        stats.clear();
        stats.extend(
            documents
                .iter()
                .enumerate()
                .map(|(slot, d)| Self::document_stat(slot, d)),
        );
    }

    /// The single-document unit of [`document_stats`](Self::document_stats):
    /// the `PageStats` entry for `document` occupying `slot`. Incremental
    /// servers use this to repair one cached snapshot entry after a store
    /// mutation instead of re-deriving all `n`.
    pub fn document_stat(slot: usize, document: &Document) -> PageStats {
        PageStats {
            slot,
            page: PageId::new(document.id),
            // Not `f64::max`: which zero it returns for −0.0 differs
            // between optimisation levels; −0.0 is kept.
            popularity: if document.popularity >= 0.0 {
                document.popularity
            } else {
                0.0
            },
            // Only the zero/non-zero distinction matters to the
            // selective rule.
            awareness: if document.is_unexplored { 0.0 } else { 1.0 },
            age_days: document.age_days,
            quality: 0.0,
        }
    }

    /// Re-rank from maintained serving state, returning slots in display
    /// order: the full ranking with `k = None`, else its first `min(k, n)`
    /// ranks. This is the one slot-level entry every server path takes —
    /// the [`RankSource`] comes off a [`CorpusCache`] (directly, or through
    /// a [`PublishedVersion`](crate::PublishedVersion)). Given a source
    /// equivalent to `documents`, the slots name the documents
    /// [`rerank`](Self::rerank) returns, in its order (its first `k` under
    /// engine v1). See
    /// [`RandomizedRankPromotion::rank`] for the contract and panics.
    pub fn rerank_source_into<F: Fn(usize) -> bool>(
        &self,
        source: RankSource<'_, F>,
        k: Option<usize>,
        context: QueryContext,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        let mut rng = new_rng(context.seed(self.seed));
        self.policy().rank(source, k, &mut rng, buffers, out);
    }

    /// A full rerank over the complete popularity `order`, with the
    /// maintained `pool` and its membership predicate `in_pool`: a
    /// [`RankSource::new`] through [`rerank_source_into`](Self::rerank_source_into).
    /// Kept only because `benchmark/` calls it.
    pub fn rerank_merged_into(
        &self,
        pool: &[usize],
        order: &[u32],
        in_pool: impl Fn(usize) -> bool,
        context: QueryContext,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        self.rerank_source_into(
            RankSource::new(pool, order, in_pool),
            None,
            context,
            buffers,
            out,
        )
    }

    /// A top-`k` rerank from the maintained `pool` and a retrieved
    /// pool-free order prefix `rest`: a [`RankSource::retrieved`] through
    /// [`rerank_source_into`](Self::rerank_source_into) over the first `k`
    /// entries of `rest` (all a top-`k` rank reads), copied into the order's
    /// `u32` slots. Selective engines only. Kept only because `benchmark/`
    /// calls it.
    pub fn rerank_top_k_retrieved_into(
        &self,
        pool: &[usize],
        rest: &[usize],
        k: usize,
        context: QueryContext,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        let rest: Vec<u32> = rest[..k.min(rest.len())]
            .iter()
            .map(|&slot| u32::try_from(slot).expect("a slot fits in u32"))
            .collect();
        self.rerank_source_into(
            RankSource::retrieved(pool, &rest),
            Some(k),
            context,
            buffers,
            out,
        )
    }

    /// Convenience wrapper: the first `min(k, n)` document ids of
    /// [`rerank`](Self::rerank), computed without materialising the full
    /// ranking. Builds a [`CorpusCache`] per call (one stats pass + sort +
    /// pool scan) and ranks from it — batch servers keep the cache alive
    /// across queries instead and pay none of the per-call derivation.
    pub fn rerank_top_k(
        &self,
        documents: &[Document],
        context: QueryContext,
        k: usize,
    ) -> Vec<u64> {
        let mut cache = CorpusCache::new();
        cache.set_pool_maintained(self.reads_pool_index());
        cache.rebuild(
            documents
                .iter()
                .enumerate()
                .map(|(slot, d)| Self::document_stat(slot, d)),
        );
        let mut buffers = RankBuffers::new();
        let mut slots = Vec::with_capacity(k.min(documents.len()));
        self.rerank_source_into(cache.source(), Some(k), context, &mut buffers, &mut slots);
        slots.into_iter().map(|slot| documents[slot].id).collect()
    }

    /// Re-rank `documents` for one query evaluation, returning document ids
    /// in final display order (rank 1 first).
    ///
    /// The input order does not matter; popularity and the unexplored flag
    /// drive the result. Duplicated ids are allowed (they are treated as
    /// distinct result slots). Scans `documents` on every call; servers rank
    /// from a maintained [`CorpusCache`] through
    /// [`rerank_source_into`](Self::rerank_source_into) instead.
    pub fn rerank(&self, documents: &[Document], context: QueryContext) -> Vec<u64> {
        let mut stats = Vec::with_capacity(documents.len());
        Self::document_stats(documents, &mut stats);
        let mut rng = new_rng(context.seed(self.seed));
        let mut slots = Vec::with_capacity(documents.len());
        self.policy()
            .rank_into(&stats, &mut rng, &mut RankBuffers::new(), &mut slots);
        slots.into_iter().map(|slot| documents[slot].id).collect()
    }
}

impl Default for RankPromotionEngine {
    fn default() -> Self {
        RankPromotionEngine::recommended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_ranking::PromotionRule;

    fn corpus() -> Vec<Document> {
        let mut docs: Vec<Document> = (0..20)
            .map(|i| Document::established(i, 1.0 - i as f64 * 0.04).with_age(100))
            .collect();
        docs.extend((20..30).map(Document::unexplored));
        docs
    }

    /// The document ids at `slots`.
    fn ids(docs: &[Document], slots: &[usize]) -> Vec<u64> {
        slots.iter().map(|&slot| docs[slot].id).collect()
    }

    /// A repaired cache over `docs`, as a batch server keeps one.
    fn cache_of(docs: &[Document]) -> CorpusCache {
        let mut stats = Vec::new();
        RankPromotionEngine::document_stats(docs, &mut stats);
        let mut cache = CorpusCache::new();
        cache.rebuild(stats);
        cache
    }

    #[test]
    fn recommended_engine_protects_the_top_result() {
        let engine = RankPromotionEngine::recommended();
        for q in 0..50u64 {
            let order = engine.rerank(&corpus(), QueryContext::new(q, q * 31));
            assert_eq!(order[0], 0, "top result must never be perturbed with k=2");
            assert_eq!(order.len(), 30);
        }
    }

    #[test]
    fn output_is_a_permutation_of_input_ids() {
        let engine = RankPromotionEngine::recommended();
        let mut order = engine.rerank(&corpus(), QueryContext::new(1, 2));
        order.sort_unstable();
        let expected: Vec<u64> = (0..30).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn same_session_same_order_different_sessions_differ() {
        let engine = RankPromotionEngine::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap(),
        );
        let ctx = QueryContext::from_strings("swimming", "alice");
        let a = engine.rerank(&corpus(), ctx);
        let b = engine.rerank(&corpus(), ctx);
        assert_eq!(a, b, "same query + session must be stable");
        let other = engine.rerank(&corpus(), QueryContext::from_strings("swimming", "bob"));
        assert_ne!(a, other, "different sessions should explore differently");
    }

    #[test]
    fn unexplored_documents_sometimes_reach_the_top_ten() {
        let engine = RankPromotionEngine::recommended();
        let mut promoted_in_top10 = 0;
        let trials = 200;
        for q in 0..trials {
            let order = engine.rerank(&corpus(), QueryContext::new(q, 7));
            if order.iter().take(10).any(|&id| id >= 20) {
                promoted_in_top10 += 1;
            }
        }
        // With r = 0.1 roughly one result in ten is promoted, so most
        // queries should show at least one unexplored document in the top
        // ten.
        assert!(
            promoted_in_top10 > trials / 3,
            "promoted docs reached the top ten in only {promoted_in_top10}/{trials} queries"
        );
    }

    #[test]
    fn zero_degree_engine_reduces_to_popularity_order() {
        let engine = RankPromotionEngine::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.0).unwrap(),
        );
        let order = engine.rerank(&corpus(), QueryContext::new(3, 4));
        // Established documents keep strict popularity order at the top…
        let expected_head: Vec<u64> = (0..20).collect();
        assert_eq!(&order[..20], expected_head.as_slice());
        // …and with r = 0 the unexplored pool ends up at the bottom (in the
        // pool's random order, since the coin never selects it earlier).
        let mut tail: Vec<u64> = order[20..].to_vec();
        tail.sort_unstable();
        let expected_tail: Vec<u64> = (20..30).collect();
        assert_eq!(tail, expected_tail);
    }

    #[test]
    fn engine_seed_changes_the_shuffle() {
        let base = RankPromotionEngine::recommended().with_seed(1);
        let rotated = RankPromotionEngine::recommended().with_seed(2);
        let ctx = QueryContext::new(9, 9);
        assert_ne!(base.rerank(&corpus(), ctx), rotated.rerank(&corpus(), ctx));
        assert_eq!(base.config(), rotated.config());
    }

    #[test]
    fn rerank_documents_pairs_ranks_with_documents() {
        // A host that keeps its own per-slot payloads pairs rank `i + 1`
        // with the document at the `i`-th slot the engine returns.
        let engine = RankPromotionEngine::default();
        let docs = corpus();
        let ctx = QueryContext::new(0, 0);
        let mut slots = Vec::new();
        engine.rerank_source_into(
            cache_of(&docs).source(),
            None,
            ctx,
            &mut RankBuffers::new(),
            &mut slots,
        );
        let ranked: Vec<(usize, &Document)> = slots
            .iter()
            .enumerate()
            .map(|(idx, &slot)| (idx + 1, &docs[slot]))
            .collect();
        assert_eq!(ranked.len(), docs.len());
        assert_eq!(ranked[0].0, 1);
        assert_eq!(ranked[0].1.id, 0);
        assert_eq!(ranked.last().unwrap().0, docs.len());
        let ids: Vec<u64> = ranked.iter().map(|&(_, d)| d.id).collect();
        assert_eq!(ids, engine.rerank(&docs, ctx));
    }

    #[test]
    fn empty_input_is_fine() {
        let engine = RankPromotionEngine::recommended();
        assert!(engine.rerank(&[], QueryContext::new(0, 0)).is_empty());
    }

    #[test]
    fn rerank_documents_keeps_duplicate_ids_as_distinct_slots() {
        // Two established results and one unexplored result share id 7 —
        // hosts may legitimately surface the same document id in several
        // result slots. Ranking works on slots, so all three stay distinct.
        let docs = vec![
            Document::established(7, 0.9).with_age(50),
            Document::established(7, 0.3).with_age(10),
            Document::established(3, 0.6).with_age(30),
            Document::unexplored(7),
            Document::unexplored(9),
        ];
        let engine = RankPromotionEngine::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap(),
        );
        let ctx = QueryContext::new(4, 2);
        let mut order = engine.rerank(&docs, ctx);
        assert_eq!(order.len(), docs.len(), "no slot may be dropped");
        let mut slots = Vec::new();
        engine.rerank_source_into(
            cache_of(&docs).source(),
            None,
            ctx,
            &mut RankBuffers::new(),
            &mut slots,
        );
        // The slot order matches rerank()'s id order exactly.
        assert_eq!(ids(&docs, &slots), order);
        // Every input slot appears exactly once.
        let mut seen = slots.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            [0, 1, 2, 3, 4],
            "duplicate ids must stay distinct slots"
        );
        // And the popularity-distinct duplicates keep their own payloads:
        // the 0.9-popularity copy of id 7 outranks the 0.3-popularity copy.
        let rank_of = |slot: usize| slots.iter().position(|&s| s == slot).unwrap();
        assert!(rank_of(0) < rank_of(1));
        order.sort_unstable();
        assert_eq!(order, [3, 7, 7, 7, 9]);
    }

    #[test]
    fn rerank_slots_is_the_common_primitive() {
        // `rerank` is the policy's `rank_into` over `document_stats`, drawn
        // from the query's stream: the scanning reference every server path
        // is held to.
        let docs = corpus();
        let ctx = QueryContext::new(11, 5);
        let engine = RankPromotionEngine::recommended().with_seed(5);
        let mut stats = Vec::new();
        RankPromotionEngine::document_stats(&docs, &mut stats);
        let mut slots = Vec::new();
        engine.policy().rank_into(
            &stats,
            &mut new_rng(ctx.seed(engine.seed())),
            &mut RankBuffers::new(),
            &mut slots,
        );
        assert_eq!(ids(&docs, &slots), engine.rerank(&docs, ctx));
    }

    #[test]
    fn top_k_equals_the_full_rerank_prefix() {
        let docs = corpus();
        let engine = RankPromotionEngine::recommended().with_seed(21);
        for q in 0..40u64 {
            let ctx = QueryContext::new(q, q.wrapping_mul(77));
            let full = engine.rerank(&docs, ctx);
            for k in [0usize, 1, 2, 5, 10, 30, 99] {
                let want = &full[..k.min(full.len())];
                assert_eq!(engine.rerank_top_k(&docs, ctx, k), want, "k={k}, q={q}");
            }
        }
    }

    #[test]
    fn pooled_and_cached_paths_match_the_scanning_path() {
        let docs = corpus();
        let engine = RankPromotionEngine::recommended().with_seed(21);
        let cache = cache_of(&docs);
        let source = cache.source();
        let mut buffers = RankBuffers::new();
        let mut cached = Vec::new();
        for q in 0..40u64 {
            let ctx = QueryContext::new(q, q.wrapping_mul(77));
            let scan = engine.rerank(&docs, ctx);
            engine.rerank_source_into(source, None, ctx, &mut buffers, &mut cached);
            assert_eq!(ids(&docs, &cached), scan, "full cached, q={q}");
            for k in [0usize, 1, 2, 5, 10, 30, 99] {
                engine.rerank_source_into(source, Some(k), ctx, &mut buffers, &mut cached);
                assert_eq!(
                    ids(&docs, &cached),
                    scan[..k.min(scan.len())],
                    "cached k={k}, q={q}"
                );
            }
        }
    }

    #[test]
    fn merged_paths_match_the_scanning_path_for_both_rules() {
        // The two fixed-signature forms: a full rerank over the complete
        // order, and (Selective only) a top-k from a retrieved prefix.
        let docs = corpus();
        let engines = [
            RankPromotionEngine::recommended().with_seed(21),
            RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap())
                .with_seed(21),
        ];
        for engine in engines {
            let cache = cache_of(&docs);
            let pool = cache.pool();
            let mut buffers = RankBuffers::new();
            let mut merged = Vec::new();
            for q in 0..20u64 {
                let ctx = QueryContext::new(q, q.wrapping_mul(77));
                let scan = engine.rerank(&docs, ctx);
                engine.rerank_merged_into(
                    pool.members(),
                    cache.order(),
                    |s| pool.contains(s),
                    ctx,
                    &mut buffers,
                    &mut merged,
                );
                assert_eq!(ids(&docs, &merged), scan, "full merged, q={q}");
                if !engine.reads_pool_index() {
                    continue;
                }
                for k in [0usize, 1, 2, 5, 10, 30, 99] {
                    let rest: Vec<usize> = cache
                        .order()
                        .iter()
                        .map(|&s| s as usize)
                        .filter(|&s| !pool.contains(s))
                        .take(k)
                        .collect();
                    engine.rerank_top_k_retrieved_into(
                        pool.members(),
                        &rest,
                        k,
                        ctx,
                        &mut buffers,
                        &mut merged,
                    );
                    assert_eq!(
                        ids(&docs, &merged),
                        scan[..k.min(scan.len())],
                        "retrieved k={k}, q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn version_defaults_to_v1_and_threads_through_every_top_k_path() {
        let docs = corpus();
        let v1 = RankPromotionEngine::recommended().with_seed(21);
        assert_eq!(v1.version(), EngineVersion::V1);
        let v2 = v1.with_version(EngineVersion::V2);
        assert_eq!(v2.version(), EngineVersion::V2);
        assert_eq!(v2.config(), v1.config());

        let cache = cache_of(&docs);
        let pool = cache.pool();
        let rest: Vec<usize> = cache
            .order()
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| !pool.contains(s))
            .collect();
        let mut buffers = RankBuffers::new();
        let mut retrieved = Vec::new();
        let mut diverged = false;
        for q in 0..20u64 {
            let ctx = QueryContext::new(q, q.wrapping_mul(77));
            // Full reranks are version-independent…
            assert_eq!(v2.rerank(&docs, ctx), v1.rerank(&docs, ctx), "full, q={q}");
            // …and every v2 top-k route draws the same lazy stream.
            let k = 8;
            let top = v2.rerank_top_k(&docs, ctx, k);
            v2.rerank_top_k_retrieved_into(
                pool.members(),
                &rest,
                k,
                ctx,
                &mut buffers,
                &mut retrieved,
            );
            assert_eq!(ids(&docs, &retrieved), top, "retrieved≡rerank_top_k, q={q}");
            if top != v1.rerank_top_k(&docs, ctx, k) {
                diverged = true;
            }
        }
        assert!(diverged, "v2 must draw a genuinely different top-k stream");
    }

    #[test]
    fn serialized_engines_without_a_version_deserialize_to_v1() {
        let engine = RankPromotionEngine::recommended()
            .with_seed(9)
            .with_version(EngineVersion::V2);
        let json = serde_json::to_string(&engine).unwrap();
        let back: RankPromotionEngine = serde_json::from_str(&json).unwrap();
        assert_eq!(back, engine, "explicit versions round-trip");

        // A pre-versioning payload carries no `version` field at all: it
        // must deserialize to v1, keeping its recorded goldens valid.
        let legacy = serde_json::to_string(&RankPromotionEngine::recommended().with_seed(9))
            .unwrap()
            .replace(",\"version\":\"V1\"", "");
        assert!(!legacy.contains("version"), "legacy payload: {legacy}");
        let back: RankPromotionEngine = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.version(), EngineVersion::V1);
        assert_eq!(back.seed(), 9);
    }

    #[test]
    fn document_stat_clamps_below_zero_and_keeps_negative_zero() {
        for (popularity, stat) in [(-0.0, -0.0), (-2.0, 0.0), (f64::NAN, 0.0), (0.25, 0.25)] {
            let document = Document::established(1, popularity);
            let bits = RankPromotionEngine::document_stat(0, &document)
                .popularity
                .to_bits();
            assert_eq!(bits, f64::to_bits(stat), "{popularity}");
        }
    }

    #[test]
    fn document_stat_is_the_unit_of_document_stats() {
        let docs = corpus();
        let mut stats = Vec::new();
        RankPromotionEngine::document_stats(&docs, &mut stats);
        for (slot, d) in docs.iter().enumerate() {
            assert_eq!(stats[slot], RankPromotionEngine::document_stat(slot, d));
        }
    }

    #[test]
    fn scratch_and_presorted_paths_match_the_allocating_path() {
        let docs = corpus();
        let engine = RankPromotionEngine::recommended().with_seed(3);

        // The sorted source built once, as a batch server would.
        let cache = cache_of(&docs);
        let source = cache.source();

        // A caller's scratch: the stats and the arena are rebuilt in place
        // every query and shared with the presorted path.
        let mut stats = Vec::with_capacity(docs.len());
        let mut buffers = RankBuffers::with_capacity(docs.len());
        let mut out = Vec::new();
        for q in 0..50u64 {
            let ctx = QueryContext::new(q, q ^ 0xABCD);
            let expected = engine.rerank(&docs, ctx);

            RankPromotionEngine::document_stats(&docs, &mut stats);
            engine.policy().rank_into(
                &stats,
                &mut new_rng(ctx.seed(engine.seed())),
                &mut buffers,
                &mut out,
            );
            assert_eq!(ids(&docs, &out), expected, "scratch path, query {q}");

            engine.rerank_source_into(source, None, ctx, &mut buffers, &mut out);
            assert_eq!(ids(&docs, &out), expected, "presorted path, query {q}");
        }
        assert_eq!(engine.seed(), 3);
    }
}
