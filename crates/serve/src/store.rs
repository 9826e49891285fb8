//! The document store: one table of documents in global sequence order.
//!
//! Every insert receives a *global sequence number*, dense (`0..len`, no
//! removal path): it is the document's index in the table, its stable
//! mutation handle ([`record_visit`](ShardedStore::record_visit),
//! [`update_popularity`](ShardedStore::update_popularity)) and its slot in
//! the canonical snapshot and the serving cache — which is what lets the
//! serving tier map store mutations straight onto dirty slots. Ranking is
//! defined by that order alone.
//!
//! The shard count is a routing label, not a layout. Documents route to
//! shards by a stable hash of their id, as a real deployment would
//! partition a corpus across index servers: [`shard_of_id`] and
//! [`shard_len`] report that routing, and recovery checks a snapshot's
//! shard count against the deployment's. No state is kept per shard, so
//! re-sharding the same corpus from 1 to N shards never changes a single
//! query result.
//!
//! [`shard_of_id`]: ShardedStore::shard_of_id
//! [`shard_len`]: ShardedStore::shard_len

use crate::error::ServeError;
use rrp_core::Document;
use serde::{Deserialize, Serialize};

/// A document store indexed by global sequence number, with a shard count
/// that routes document ids but never changes the snapshot order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedStore {
    /// The number of shards document ids route to (at least 1).
    shard_count: usize,
    /// Every document, indexed by its global sequence number.
    documents: Vec<Document>,
}

impl ShardedStore {
    /// An empty store with `shard_count` shards (at least 1).
    pub fn new(shard_count: usize) -> Self {
        ShardedStore {
            shard_count: shard_count.max(1),
            documents: Vec::new(),
        }
    }

    /// Every document, in global sequence order.
    pub(crate) fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Total number of stored documents.
    #[inline]
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the store holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Number of documents whose id routes to `shard`, counted in one
    /// `O(n)` pass (the store keeps no per-shard state). A shard index
    /// past the shard count is a typed [`ServeError::ShardOutOfRange`] —
    /// monitoring endpoints feed this from deployment config, which must
    /// not be able to abort the process.
    pub fn shard_len(&self, shard: usize) -> Result<usize, ServeError> {
        if shard >= self.shard_count {
            return Err(ServeError::ShardOutOfRange {
                shard,
                shards: self.shard_count,
            });
        }
        Ok(self
            .documents
            .iter()
            .filter(|document| self.shard_of_id(document.id) == shard)
            .count())
    }

    /// The shard a document with `id` routes to.
    #[inline]
    pub fn shard_of_id(&self, id: u64) -> usize {
        shard_of(id, self.shard_count)
    }

    /// Insert one document, returning its global sequence number — the
    /// stable handle for later [`record_visit`](Self::record_visit) /
    /// [`update_popularity`](Self::update_popularity) calls, and the
    /// document's slot in the canonical snapshot.
    pub fn insert(&mut self, document: Document) -> u64 {
        self.documents.push(document);
        self.documents.len() as u64 - 1
    }

    /// Insert every document of an iterator, in order.
    pub fn extend(&mut self, documents: impl IntoIterator<Item = Document>) {
        self.documents.extend(documents);
    }

    /// The document with global sequence number `seq`, if it exists.
    pub fn get(&self, seq: u64) -> Option<&Document> {
        Some(&self.documents[self.slot_of(seq)?])
    }

    /// Record a user visit to the document with sequence number `seq`:
    /// clears its unexplored flag (a first recorded exposure removes it
    /// from the selective promotion pool). Returns the updated document,
    /// or `None` if no such sequence exists.
    pub fn record_visit(&mut self, seq: u64) -> Option<Document> {
        let slot = self.slot_of(seq)?;
        let document = &mut self.documents[slot];
        document.is_unexplored = false;
        Some(*document)
    }

    /// Replace the popularity score of the document with sequence number
    /// `seq` (a negative score or NaN becomes 0.0; −0.0 is kept). Returns
    /// the updated document, or `None` if no such sequence exists.
    pub fn update_popularity(&mut self, seq: u64, popularity: f64) -> Option<Document> {
        let slot = self.slot_of(seq)?;
        let document = &mut self.documents[slot];
        // Not `f64::max`: which zero it returns for −0.0 differs between
        // optimisation levels, and the stored bits reach snapshots.
        document.popularity = if popularity >= 0.0 { popularity } else { 0.0 };
        Some(*document)
    }

    /// The canonical snapshot slot of sequence number `seq`, if it exists.
    /// Sequences are dense (`0..len`), so the slot *is* the sequence — but
    /// the `u64 → usize` conversion and the bounds check live here, once,
    /// instead of being re-derived (or skipped) at every mutation call
    /// site that needs to hand a store mutation to the serving tier.
    #[inline]
    pub fn slot_of(&self, seq: u64) -> Option<usize> {
        let slot = usize::try_from(seq).ok()?;
        (slot < self.documents.len()).then_some(slot)
    }

    /// Write the canonical snapshot — all documents in global insertion
    /// order — into `out` (cleared first): one slice copy.
    pub fn snapshot_into(&self, out: &mut Vec<Document>) {
        out.clear();
        out.extend_from_slice(&self.documents);
    }

    /// The canonical snapshot as a fresh vector.
    pub fn snapshot(&self) -> Vec<Document> {
        self.documents.clone()
    }
}

/// Stable shard routing: SplitMix64-style mix of the document id, reduced
/// onto `0..shards` with a Lemire multiply-shift (`(hash · shards) >> 64`)
/// instead of an integer division (`%` costs 20–40 cycles where the
/// multiply-high costs ~3). Deterministic across runs and platforms. Shard
/// routing is invisible in query results, so it is free to evolve.
fn shard_of(id: u64, shards: usize) -> usize {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((u128::from(z) * shards as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(n: u64) -> Vec<Document> {
        (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Document::unexplored(i)
                } else {
                    Document::established(i, 1.0 / (i + 1) as f64).with_age(i)
                }
            })
            .collect()
    }

    #[test]
    fn snapshot_is_insertion_order_for_any_shard_count() {
        let reference = docs(100);
        for shards in [1, 2, 3, 8, 13] {
            let mut store = ShardedStore::new(shards);
            store.extend(reference.iter().copied());
            assert_eq!(store.shard_count(), shards);
            assert_eq!(store.len(), 100);
            assert_eq!(store.snapshot(), reference, "{shards} shards");
        }
    }

    #[test]
    fn popularity_updates_clamp_below_zero_and_keep_negative_zero() {
        let mut store = ShardedStore::new(2);
        store.extend(docs(3));
        for (update, stored) in [(-0.0, -0.0), (-1.5, 0.0), (f64::NAN, 0.0), (0.5, 0.5)] {
            let document = store.update_popularity(1, update).unwrap();
            assert_eq!(
                document.popularity.to_bits(),
                f64::to_bits(stored),
                "{update}"
            );
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.shard_count(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn routing_spreads_documents_across_shards() {
        let mut store = ShardedStore::new(8);
        store.extend(docs(1_000));
        for shard in 0..8 {
            let len = store.shard_len(shard).unwrap();
            assert!(
                (60..190).contains(&len),
                "shard {shard} holds {len} of 1000 documents"
            );
        }
    }

    #[test]
    fn lemire_reduction_stays_in_range_at_extremes() {
        for shards in [1usize, 2, 7, 8, 64, 1023] {
            for id in [0u64, 1, 7, u64::MAX, u64::MAX - 1, 0x8000_0000_0000_0000] {
                assert!(shard_of(id, shards) < shards, "id {id}, {shards} shards");
            }
        }
    }

    #[test]
    fn shard_of_id_reports_where_inserts_land() {
        let mut store = ShardedStore::new(5);
        for doc in docs(200) {
            let shard = store.shard_of_id(doc.id);
            let before = store.shard_len(shard).unwrap();
            store.insert(doc);
            assert_eq!(store.shard_len(shard).unwrap(), before + 1, "id {}", doc.id);
        }
    }

    #[test]
    fn duplicate_ids_stay_distinct_entries() {
        let mut store = ShardedStore::new(4);
        store.insert(Document::established(7, 0.9));
        store.insert(Document::established(7, 0.1));
        store.insert(Document::unexplored(7));
        assert_eq!(store.len(), 3);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].popularity, 0.9);
        assert_eq!(snap[1].popularity, 0.1);
        assert!(snap[2].is_unexplored);
    }

    #[test]
    fn sequence_numbers_address_documents_across_shards() {
        let reference = docs(50);
        let mut store = ShardedStore::new(5);
        let seqs: Vec<u64> = reference.iter().map(|&d| store.insert(d)).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<u64>>(), "sequences are dense");
        for (seq, expected) in seqs.iter().zip(&reference) {
            assert_eq!(store.get(*seq), Some(expected));
        }
        assert_eq!(store.get(50), None);
    }

    #[test]
    fn mutations_update_the_addressed_document_only() {
        let mut store = ShardedStore::new(3);
        store.extend(docs(21));
        let before = store.snapshot();

        let visited = store.record_visit(7).expect("seq 7 exists");
        assert!(!visited.is_unexplored, "visit clears the unexplored flag");
        let bumped = store.update_popularity(3, 0.75).expect("seq 3 exists");
        assert_eq!(bumped.popularity, 0.75);
        let clamped = store.update_popularity(4, -1.0).expect("seq 4 exists");
        assert_eq!(clamped.popularity, 0.0, "scores clamp to non-negative");

        let after = store.snapshot();
        for (seq, (b, a)) in before.iter().zip(&after).enumerate() {
            match seq {
                7 => assert!(!a.is_unexplored),
                3 => assert_eq!(a.popularity, 0.75),
                4 => assert_eq!(a.popularity, 0.0),
                _ => assert_eq!(b, a, "seq {seq} must be untouched"),
            }
        }
        assert!(store.record_visit(999).is_none());
        assert!(store.update_popularity(999, 0.5).is_none());
    }

    #[test]
    fn mutations_agree_across_shard_counts() {
        // Every sequence addresses the same document at any shard count,
        // so a mutation schedule leaves 1-, 2- and 8-shard stores with
        // identical canonical snapshots.
        let reference = docs(120);
        let snapshots: Vec<Vec<Document>> = [1usize, 2, 8]
            .into_iter()
            .map(|shards| {
                let mut store = ShardedStore::new(shards);
                store.extend(reference.iter().copied());
                for seq in (0..120).step_by(7) {
                    assert!(store.record_visit(seq).is_some(), "{shards} shards");
                }
                for seq in (0..120).step_by(5) {
                    let bumped = store.update_popularity(seq, 0.5 + seq as f64 / 240.0);
                    assert!(bumped.is_some(), "{shards} shards");
                }
                assert!(store.record_visit(120).is_none());
                assert!(store.update_popularity(u64::MAX, 1.0).is_none());
                for seq in 0..120 {
                    assert!(store.get(seq).is_some(), "seq {seq}, {shards} shards");
                }
                store.snapshot()
            })
            .collect();
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
    }

    #[test]
    fn slot_of_checks_the_boundary_exactly() {
        let mut store = ShardedStore::new(3);
        store.extend(docs(20));
        assert_eq!(store.slot_of(0), Some(0));
        assert_eq!(store.slot_of(19), Some(19));
        assert_eq!(store.slot_of(20), None, "one past the end is rejected");
        assert_eq!(store.slot_of(u64::MAX), None, "no overflow on conversion");
        // The slot is the sequence: mutations and lookups agree with it.
        for seq in 0..20u64 {
            assert_eq!(store.slot_of(seq), Some(seq as usize));
            assert!(store.get(seq).is_some());
        }
        assert_eq!(ShardedStore::new(1).slot_of(0), None, "empty store");
    }

    #[test]
    fn snapshot_into_reuses_storage() {
        let mut store = ShardedStore::new(2);
        store.extend(docs(50));
        let mut out = Vec::new();
        store.snapshot_into(&mut out);
        let capacity = out.capacity();
        store.snapshot_into(&mut out);
        assert_eq!(out.capacity(), capacity);
        assert_eq!(out.len(), 50);
    }
}
