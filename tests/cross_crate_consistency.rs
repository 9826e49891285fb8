//! Cross-crate consistency checks: the public engine, the ranking policies,
//! the analytic model and the simulator must agree with each other where
//! their domains overlap.

use rrp_analytic::{AnalyticModel, QualityGroups, RankingModel};
use rrp_core::{Document, QueryContext, RankPromotionEngine};
use rrp_model::{assign_qualities, new_rng, CommunityConfig, PageId, PowerLawQuality};
use rrp_ranking::{PageStats, PolicyKind, PromotionConfig, PromotionRule};
use rrp_sim::{SimConfig, Simulation};

/// With randomization disabled, the public engine must order documents
/// exactly like the low-level popularity policy orders the equivalent page
/// statistics.
#[test]
fn engine_with_zero_randomization_matches_popularity_policy() {
    let documents: Vec<Document> = (0..200)
        .map(|i| {
            Document::established(i as u64, ((i * 37) % 101) as f64 / 101.0).with_age(i as u64)
        })
        .collect();
    let stats: Vec<PageStats> = documents
        .iter()
        .enumerate()
        .map(|(slot, d)| {
            PageStats::new(slot, PageId::new(d.id), d.popularity, 1.0).with_age(d.age_days)
        })
        .collect();

    let engine =
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Selective, 1, 0.0).unwrap());
    let engine_order = engine.rerank(&documents, QueryContext::new(1, 1));

    let mut rng = new_rng(0);
    let policy_order: Vec<u64> = PolicyKind::Popularity
        .rank(&stats, &mut rng)
        .into_iter()
        .map(|slot| documents[slot].id)
        .collect();

    assert_eq!(engine_order, policy_order);
}

/// The simulator's ideal (quality-ordered) QPC must match the analytic
/// model's ideal QPC for the same community and quality distribution.
#[test]
fn simulator_and_analytic_model_agree_on_the_ideal_qpc() {
    let community = CommunityConfig::builder()
        .pages(1_000)
        .users(100)
        .monitored_users(50)
        .total_visits_per_day(100.0)
        .expected_lifetime_days(547.5)
        .build()
        .unwrap();

    let sim = Simulation::new(
        SimConfig::for_community(community, 1),
        PolicyKind::Popularity,
    )
    .unwrap();
    let sim_ideal = sim.ideal_qpc();

    let groups = QualityGroups::from_distribution(&PowerLawQuality::paper_default(), 1_000);
    let analytic_ideal = AnalyticModel::new(community, groups, RankingModel::NonRandomized)
        .unwrap()
        .solve()
        .ideal_qpc();

    let relative_gap = (sim_ideal - analytic_ideal).abs() / analytic_ideal;
    assert!(
        relative_gap < 0.05,
        "ideal QPC must agree (sim {sim_ideal} vs analysis {analytic_ideal}; the analytic side \
         buckets qualities into groups, so a small gap is expected)"
    );
}

/// The analytic model's qualitative predictions must hold at the fixed
/// point: promotion raises the zero-popularity visit rate, lowers the count
/// of never-seen pages, raises QPC and cuts the expected TBP of the best
/// page.
#[test]
fn analytic_model_predicts_every_benefit_of_promotion() {
    let community = CommunityConfig::builder()
        .scaled_to_pages(2_000)
        .expected_lifetime_years(1.5)
        .build()
        .unwrap();
    let groups = QualityGroups::from_distribution(&PowerLawQuality::paper_default(), 2_000);

    let baseline = AnalyticModel::new(community, groups.clone(), RankingModel::NonRandomized)
        .unwrap()
        .solve();
    let promoted = AnalyticModel::new(
        community,
        groups,
        RankingModel::Selective {
            start_rank: 1,
            degree: 0.1,
        },
    )
    .unwrap()
    .solve();

    assert!(promoted.visit_function.eval(0.0) > baseline.visit_function.eval(0.0));
    assert!(promoted.zero_awareness_pages < baseline.zero_awareness_pages);
    assert!(promoted.normalized_qpc() > baseline.normalized_qpc());
    assert!(promoted.expected_tbp(0.4) < baseline.expected_tbp(0.4));
}

/// The simulated page population must stay consistent with the model crate's
/// invariants over a long run: awareness within [0, m], popularity equal to
/// awareness × quality, and the quality multiset unchanged by page
/// replacement.
#[test]
fn simulation_preserves_model_invariants_over_time() {
    let community = CommunityConfig::builder()
        .pages(500)
        .users(100)
        .monitored_users(20)
        .total_visits_per_day(100.0)
        .expected_lifetime_days(60.0)
        .build()
        .unwrap();
    let expected_qualities = {
        let mut q: Vec<f64> = assign_qualities(&PowerLawQuality::paper_default(), 500)
            .iter()
            .map(|q| q.value())
            .collect();
        q.sort_by(|a, b| a.partial_cmp(b).unwrap());
        q
    };

    let mut sim = Simulation::new(
        SimConfig::for_community(community, 5),
        PolicyKind::Popularity,
    )
    .unwrap();
    sim.run(400);

    let m = sim.population().monitored_users();
    let mut qualities: Vec<f64> = Vec::new();
    for slot in sim.population().slots() {
        assert!(slot.aware_users <= m);
        let popularity = slot.popularity(m);
        assert!((popularity - slot.awareness(m) * slot.quality).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&popularity));
        qualities.push(slot.quality);
    }
    qualities.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (a, b) in qualities.iter().zip(&expected_qualities) {
        assert!(
            (a - b).abs() < 1e-12,
            "page replacement must preserve the quality distribution"
        );
    }
    assert!(
        sim.population().retired_count() > 1_000,
        "with a 60-day lifetime many replacements should have happened"
    );
}
