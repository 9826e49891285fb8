//! Identifier newtype for pages.
//!
//! Using dedicated newtypes (instead of bare `usize`/`u64`) prevents an
//! entire class of index-confusion bugs in the simulator, where page ids
//! and page slots are both dense integers.

use serde::Serialize;
use std::fmt;

/// Identifier of a Web page within a community (`p ∈ P` in the paper).
///
/// Page ids are dense: the simulator and the analytic model both index pages
/// by `0..n`. When a page is retired and replaced (Section 5.1 of the paper),
/// the replacement *reuses* the same slot but receives a fresh [`PageId`], so
/// ids are unique across the lifetime of a simulation while slots stay dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct PageId(pub u64);

impl PageId {
    /// Construct a page id from a raw integer.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PageId(raw)
    }

    /// The raw integer value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

impl From<u64> for PageId {
    fn from(raw: u64) -> Self {
        PageId(raw)
    }
}

impl From<PageId> for u64 {
    fn from(id: PageId) -> Self {
        id.0
    }
}

/// Monotonically increasing id generator used by the simulator when pages
/// are retired and replaced.
#[derive(Debug, Clone, Default)]
pub struct PageIdGenerator {
    next: u64,
}

impl PageIdGenerator {
    /// Create a generator whose first id is `page#0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a generator that starts at an arbitrary raw value, useful when
    /// resuming a simulation from a checkpoint.
    pub fn starting_at(next: u64) -> Self {
        PageIdGenerator { next }
    }

    /// Produce the next fresh id.
    pub fn next_id(&mut self) -> PageId {
        let id = PageId(self.next);
        self.next += 1;
        id
    }

    /// Number of ids handed out so far.
    pub fn issued(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_roundtrip() {
        let id = PageId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(PageId::from(42u64), id);
        assert_eq!(id.to_string(), "page#42");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(PageId::new(1) < PageId::new(2));
    }

    #[test]
    fn generator_is_monotonic_and_unique() {
        let mut gen = PageIdGenerator::new();
        let a = gen.next_id();
        let b = gen.next_id();
        let c = gen.next_id();
        assert_eq!(a, PageId::new(0));
        assert_eq!(b, PageId::new(1));
        assert_eq!(c, PageId::new(2));
        assert_eq!(gen.issued(), 3);
    }

    #[test]
    fn generator_starting_at_resumes() {
        let mut gen = PageIdGenerator::starting_at(100);
        assert_eq!(gen.next_id(), PageId::new(100));
        assert_eq!(gen.next_id(), PageId::new(101));
    }

    #[test]
    fn ids_serialize_as_plain_integers() {
        let id = PageId::new(5);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "5");
    }
}
