//! Live replication off the write-ahead log: one durable leader keeps
//! writing while a read replica tails its log file, catching up between
//! serves and reporting its lag — then a second replica time-travels to
//! a historical sequence with a capped replay.
//!
//! Run with `cargo run --release --example replica_tail`.

use rrp_core::{Document, QueryContext, RankPromotionEngine};
use rrp_serve::{DurableService, ReplicaService};

fn main() {
    // One directory, shared by the leader (read-write) and every
    // replica (read-only): the log file is the replication stream.
    let dir = std::env::temp_dir().join(format!("rrp-replica-tail-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let engine = RankPromotionEngine::recommended().with_seed(7);
    let queries: Vec<QueryContext> = (0..2)
        .map(|q| QueryContext::from_strings("swimming", &format!("session-{q}")))
        .collect();

    // ── The leader ──────────────────────────────────────────────────────
    let (leader, _) = DurableService::open(&dir, engine, 4).expect("open fresh dir");
    let mut leader = leader.with_snapshot_every(8);
    for i in 0..10u64 {
        leader
            .insert(Document::established(i, 0.9 - i as f64 * 0.05).with_age(100 + i))
            .expect("durable insert");
    }

    // ── A replica comes up mid-history ──────────────────────────────────
    // Bootstrap from the latest verified snapshot (or the empty state if
    // none exists yet), then open the live log tail. Nothing is applied
    // until the first catch_up().
    let mut replica = ReplicaService::open(&dir, engine, 4).expect("open replica");
    println!("replica bootstrap: {:?}", replica.stats().bootstrap_source);
    let applied = replica.catch_up().expect("catch up");
    println!(
        "first catch_up applied {applied} events -> {:?}",
        replica.stats()
    );

    // ── The leader keeps writing; the replica keeps tailing ─────────────
    // The leader never closes the log. sync_for_followers() returns the
    // mark a follower can reach right now and kicks the leader's syncer,
    // which makes the events power-loss durable in the background.
    leader.record_visit(3).expect("durable visit");
    leader.update_popularity(7, 0.99).expect("durable update");
    leader
        .insert(Document::unexplored(9001))
        .expect("durable insert");
    let mark = leader.sync_for_followers().expect("sync");
    let applied = replica.catch_up().expect("catch up");
    let stats = replica.stats();
    println!();
    println!("leader synced at mark {mark}; catch_up applied {applied} more");
    println!("replica lag: {stats:?}");
    assert_eq!(stats.behind_by, 0, "caught up on a quiesced leader");
    assert_eq!(stats.last_applied_seq, Some(mark - 1));

    // Replica answers are bit-identical to the leader's — same epochs,
    // same coins, same order.
    for &ctx in &queries {
        let leader_order = leader.service().rerank_top_k(ctx, 5);
        let replica_order = replica.service().rerank_top_k(ctx, 5);
        println!("  {ctx:?}: leader {leader_order:?} == replica {replica_order:?}");
        assert_eq!(leader_order, replica_order);
    }

    // ── Time travel ─────────────────────────────────────────────────────
    // A capped replay answers "what did the ranking look like at event
    // 10?" — before the visit, the boost and the late insert. Events
    // past the cap are read but held back, visible as behind_by.
    let mut historian = ReplicaService::open(&dir, engine, 4).expect("open historian");
    historian.apply_up_to(10).expect("capped replay");
    let stats = historian.stats();
    println!();
    println!("historian pinned at event 10: {stats:?}");
    assert_eq!(stats.behind_by, mark - 10, "the rest is held, not lost");
    println!(
        "  {:?} as of event 10: {:?}",
        queries[0],
        historian.service().rerank_top_k(queries[0], 5)
    );
    // Raising the cap drains the backlog without re-reading the file.
    historian.catch_up().expect("drain");
    assert_eq!(
        historian.service().rerank_top_k(queries[0], 5),
        replica.service().rerank_top_k(queries[0], 5),
        "fully caught up, the historian equals any live replica"
    );
    println!("  …and after catch_up() the historian equals the live replica.");

    std::fs::remove_dir_all(&dir).ok();
}
