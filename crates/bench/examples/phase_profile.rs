//! Throwaway phase profiler for the mutated top-k workload: splits one
//! bench iteration into mutate / first-query (publication) / rest-of-batch
//! so a regression can be attributed to a phase. Not part of the gauge.

use rrp_core::{Document, EngineVersion, QueryContext, RankPromotionEngine};
use rrp_serve::ShardedPromotionService;
use std::time::Instant;

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let engine = RankPromotionEngine::recommended().with_version(EngineVersion::V2);
    let service = ShardedPromotionService::new(engine, 8).with_workers(1);
    service.extend((0..n).map(|i| {
        if i % 10 == 0 {
            Document::unexplored(i)
        } else {
            Document::established(i, 0.25 + (i % 1000) as f64 / 1500.0).with_age(i % 30)
        }
    }));
    let qs: Vec<QueryContext> = (0..64u64).map(|q| QueryContext::new(q, q * 31)).collect();
    let mut results = Vec::new();

    // Warm up.
    for round in 0..5u64 {
        mutate(&service, round, n);
        service.rerank_batch_top_k_into(&qs, 10, &mut results);
    }

    let rounds = 50u64;
    let (mut t_mut, mut t_first, mut t_rest) = (0.0f64, 0.0, 0.0);
    for round in 5..5 + rounds {
        let t0 = Instant::now();
        mutate(&service, round, n);
        let t1 = Instant::now();
        // One query forces the publication; the other 63 ride the version.
        service.rerank_batch_top_k_into(&qs[..1], 10, &mut results);
        let t2 = Instant::now();
        service.rerank_batch_top_k_into(&qs[1..], 10, &mut results);
        let t3 = Instant::now();
        t_mut += (t1 - t0).as_secs_f64();
        t_first += (t2 - t1).as_secs_f64();
        t_rest += (t3 - t2).as_secs_f64();
    }
    let per = 1e6 / rounds as f64;
    println!("mutate(32):      {:8.1} us/round", t_mut * per);
    println!("first query:     {:8.1} us/round", t_first * per);
    println!("rest (63 q):     {:8.1} us/round", t_rest * per);
    let stats = service.serve_stats();
    println!(
        "publications {} conflicts {} pool_draws {}",
        stats.version_publications, stats.epoch_conflicts, stats.pool_draws
    );
}

fn mutate(service: &ShardedPromotionService, round: u64, n: u64) {
    for m in 0..32u64 {
        let seq = (round.wrapping_mul(32) + m * 97) % n;
        if m % 2 == 0 {
            service.record_visit(seq);
        } else {
            service.update_popularity(seq, 0.05 + ((seq * 31 + round) % 100) as f64 / 100.0);
        }
    }
}
