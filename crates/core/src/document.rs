//! The document view a host search engine hands to the rank-promotion
//! engine.

use serde::{Deserialize, Serialize};

/// One query result as seen by the rank-promotion layer.
///
/// The host engine supplies whatever popularity score it already ranks by
/// (PageRank, in-link count, click count, …) plus a flag marking documents
/// it considers *unexplored* — typically documents whose popularity signal
/// is still zero because they are new. Quality is deliberately absent: the
/// whole point of rank promotion is that intrinsic quality cannot be
/// observed directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// The host engine's identifier for the document.
    pub id: u64,
    /// Popularity score (any non-negative scale; only the ordering matters).
    pub popularity: f64,
    /// Whether the document is unexplored (no recorded user exposure). The
    /// selective promotion rule promotes exactly these documents.
    pub is_unexplored: bool,
    /// Age in days, used only to break popularity ties (older first, as a
    /// stable convention).
    pub age_days: u64,
}

impl Document {
    /// Convenience constructor for an established document.
    pub fn established(id: u64, popularity: f64) -> Self {
        Document {
            id,
            popularity,
            is_unexplored: false,
            age_days: 0,
        }
    }

    /// Convenience constructor for a brand-new, unexplored document.
    pub fn unexplored(id: u64) -> Self {
        Document {
            id,
            popularity: 0.0,
            is_unexplored: true,
            age_days: 0,
        }
    }

    /// Builder-style setter for the document age.
    pub fn with_age(mut self, age_days: u64) -> Self {
        self.age_days = age_days;
        self
    }
}

/// Identifies one query evaluation so that the randomized portion of the
/// ranking is deterministic *per user session* but varies across users and
/// across unrelated queries — the paper's answer to "lest users learn over
/// time to avoid [fixed positions]" while still giving any one user a
/// stable list if they re-run their query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryContext {
    /// Hash of the query string (or canonical query id).
    pub query_hash: u64,
    /// Hash of the user / session identifier.
    pub session_hash: u64,
}

impl QueryContext {
    /// Build a context from raw hashes.
    pub fn new(query_hash: u64, session_hash: u64) -> Self {
        QueryContext {
            query_hash,
            session_hash,
        }
    }

    /// Hash arbitrary query and session strings (FNV-1a, stable across
    /// platforms and releases — `DefaultHasher` is not guaranteed stable).
    pub fn from_strings(query: &str, session: &str) -> Self {
        QueryContext {
            query_hash: fnv1a(query.as_bytes()),
            session_hash: fnv1a(session.as_bytes()),
        }
    }

    /// Mix the two hashes into a single RNG seed.
    pub fn seed(&self, engine_seed: u64) -> u64 {
        // SplitMix-style mixing of the three components.
        let mut z = engine_seed
            .wrapping_add(self.query_hash.rotate_left(17))
            .wrapping_add(self.session_hash.rotate_left(43));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_right_flags() {
        let e = Document::established(7, 0.5).with_age(12);
        assert_eq!(e.id, 7);
        assert_eq!(e.popularity, 0.5);
        assert!(!e.is_unexplored);
        assert_eq!(e.age_days, 12);
        let u = Document::unexplored(9);
        assert!(u.is_unexplored);
        assert_eq!(u.popularity, 0.0);
    }

    #[test]
    fn query_context_seed_depends_on_all_components() {
        let base = QueryContext::new(1, 2);
        assert_ne!(base.seed(0), QueryContext::new(1, 3).seed(0));
        assert_ne!(base.seed(0), QueryContext::new(2, 2).seed(0));
        assert_ne!(base.seed(0), base.seed(1));
        assert_eq!(base.seed(5), QueryContext::new(1, 2).seed(5));
    }

    #[test]
    fn string_hashing_is_stable_and_distinguishes_inputs() {
        let a = QueryContext::from_strings("rust simulator", "session-1");
        let b = QueryContext::from_strings("rust simulator", "session-1");
        let c = QueryContext::from_strings("rust simulator", "session-2");
        let d = QueryContext::from_strings("swimming", "session-1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Known FNV-1a property: empty string hashes to the offset basis.
        assert_eq!(
            QueryContext::from_strings("", "").query_hash,
            0xcbf2_9ce4_8422_2325
        );
    }
}
