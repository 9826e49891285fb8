//! Crash recovery: mutate a durable service, pull the plug, recover
//! bit-identical serving state from the write-ahead log and snapshot.
//!
//! Run with `cargo run --release --example crash_recovery`.

use rrp_core::{Document, QueryContext, RankPromotionEngine};
use rrp_serve::DurableService;

fn main() {
    // A scratch directory for the log + snapshot pair.
    let dir = std::env::temp_dir().join(format!("rrp-crash-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let engine = RankPromotionEngine::recommended().with_seed(7);
    let queries: Vec<QueryContext> = (0..3)
        .map(|q| QueryContext::from_strings("swimming", &format!("session-{q}")))
        .collect();

    // ── Before the crash ────────────────────────────────────────────────
    // Every mutation is appended to wal.log before it touches memory;
    // every 8th mutation also writes an atomic snapshot.
    let (durable, _) = DurableService::open(&dir, engine, 4).expect("open fresh dir");
    let mut durable = durable.with_snapshot_every(8);

    for i in 0..12u64 {
        durable
            .insert(Document::established(1000 + i, 0.9 - i as f64 * 0.06).with_age(100 + i))
            .expect("durable insert");
    }
    durable
        .insert(Document::unexplored(9001))
        .expect("durable insert");
    durable
        .insert(Document::unexplored(9002))
        .expect("durable insert");
    durable.record_visit(12).expect("durable visit");
    durable.update_popularity(3, 0.97).expect("durable update");
    // Two mutations past the last snapshot: recovery will replay exactly
    // these from the log tail.
    durable.record_visit(13).expect("durable visit");
    durable.update_popularity(5, 0.55).expect("durable update");

    let stats = durable.serve_stats();
    println!("before the crash:");
    println!("  wal appends       = {}", stats.wal_appends);
    println!("  snapshots written = {}", stats.snapshots_written);
    let before: Vec<Vec<u64>> = durable.service().rerank_batch(&queries);
    for (ctx, order) in queries.iter().zip(&before) {
        println!("  serve {ctx:?} -> {order:?}");
    }

    // ── The crash ───────────────────────────────────────────────────────
    // No flush call, no shutdown hook: the process is simply gone.
    drop(durable);
    println!();
    println!("…crash (the service is dropped without any shutdown)…");
    println!();

    // ── Recovery ────────────────────────────────────────────────────────
    // Snapshot + tail replay. The report says what was found on disk.
    let (recovered, report) = DurableService::open(&dir, engine, 4).expect("recover");
    println!("after recovery:");
    println!("  snapshot loaded   = {}", report.snapshot_loaded);
    println!("  events replayed   = {}", report.events_replayed);
    println!("  events lost       = {}", report.events_lost);
    println!("  bytes dropped     = {}", report.bytes_dropped);

    let after: Vec<Vec<u64>> = recovered.service().rerank_batch(&queries);
    for (ctx, order) in queries.iter().zip(&after) {
        println!("  serve {ctx:?} -> {order:?}");
    }
    assert_eq!(before, after, "recovered serving state is bit-identical");
    println!();
    println!("every recovered answer equals the pre-crash answer, bit for bit:");
    println!("ranking is a pure function of (engine seed, query, session) over the");
    println!("corpus, and the log + snapshot reproduce that corpus exactly.");

    std::fs::remove_dir_all(&dir).ok();
}
