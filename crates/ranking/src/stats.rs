//! The per-page statistics a ranking policy is allowed to see.
//!
//! A real search engine ranks pages using measured popularity (in-links,
//! PageRank, toolbar traffic) — never intrinsic quality, which is
//! unobservable. [`PageStats`] therefore carries popularity, awareness and
//! age; intrinsic quality is included *only* so that the hypothetical
//! quality-oracle baseline (the paper's normalisation for QPC = 1.0) can be
//! expressed, and honest policies must not read it.

use rrp_model::PageId;
use serde::{Deserialize, Serialize};

/// A snapshot of one page as seen by the ranking function at query time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageStats {
    /// Dense slot index of the page inside the community (`0..n`).
    pub slot: usize,
    /// Identifier of the page currently occupying the slot.
    pub page: PageId,
    /// Measured popularity `P(p, t) ∈ [0, 1]` among monitored users.
    pub popularity: f64,
    /// Awareness `A(p, t) ∈ [0, 1]` among monitored users. The selective
    /// promotion rule uses `awareness == 0` as its membership test.
    pub awareness: f64,
    /// Age of the page in days (used only to break popularity ties, older
    /// pages winning, as in the paper's live study).
    pub age_days: u64,
    /// Intrinsic quality `Q(p)`. Only the quality-oracle baseline may use
    /// this field; popularity-based policies must ignore it.
    pub quality: f64,
}

impl PageStats {
    /// Convenience constructor for tests and simple callers.
    pub fn new(slot: usize, page: PageId, popularity: f64, awareness: f64) -> Self {
        PageStats {
            slot,
            page,
            popularity,
            awareness,
            age_days: 0,
            quality: 0.0,
        }
    }

    /// Whether the page has never been visited by any monitored user
    /// (`A(p, t) = 0`), i.e. it is a candidate for selective promotion.
    ///
    /// # Why an exact `== 0.0` comparison is correct here
    ///
    /// Awareness is never the result of accumulating floating-point
    /// increments: producers quantise it to exact multiples of `1/m`
    /// (`m` = monitored users). The simulator stores an *integer* count of
    /// aware users and divides once per snapshot (`aware_users as f64 / m`),
    /// and the serving engine maps its boolean unexplored flag to exactly
    /// `0.0` or `1.0`. A quotient `k/m` with `k ≥ 1` is a positive `f64`
    /// (no underflow for any practical `m`), so `awareness == 0.0` holds
    /// exactly when `k == 0` — a visited page can never drift back into the
    /// promotion pool, and an unvisited one is never excluded by rounding.
    /// Even a producer that *did* accumulate `1/m` steps could not strand a
    /// visited page: IEEE-754 addition of positive values is monotone and
    /// the first step already yields `1/m > 0` (see the
    /// `accumulated_awareness_never_strands_a_visited_page` regression
    /// test).
    #[inline]
    pub fn is_unexplored(&self) -> bool {
        self.awareness == 0.0
    }

    /// Builder-style setter for the page age.
    pub fn with_age(mut self, age_days: u64) -> Self {
        self.age_days = age_days;
        self
    }

    /// Builder-style setter for intrinsic quality (oracle baseline only).
    pub fn with_quality(mut self, quality: f64) -> Self {
        self.quality = quality;
        self
    }
}

/// Compare two pages for deterministic popularity ranking: higher popularity
/// first, then older pages, then lower slot index (a stable, total order).
pub fn popularity_order(a: &PageStats, b: &PageStats) -> std::cmp::Ordering {
    b.popularity
        .partial_cmp(&a.popularity)
        .expect("popularity is never NaN")
        .then_with(|| b.age_days.cmp(&a.age_days))
        .then_with(|| a.slot.cmp(&b.slot))
}

/// Whether `a` ranks strictly before `b` under [`popularity_order`],
/// computed without branches: every comparison is evaluated and the
/// results are combined bitwise, so a binary-search step on it costs no
/// misprediction and the lockstep searches' loads stay in flight.
/// Popularity is never NaN, so this equals
/// `popularity_order(a, b).is_lt()`.
#[inline]
pub(crate) fn precedes(a: &PageStats, b: &PageStats) -> bool {
    let (pa, pb) = (a.popularity, b.popularity);
    (pa > pb)
        | ((pa == pb)
            & ((a.age_days > b.age_days) | ((a.age_days == b.age_days) & (a.slot < b.slot))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(slot: usize, pop: f64, age: u64) -> PageStats {
        PageStats::new(
            slot,
            PageId::new(slot as u64),
            pop,
            if pop > 0.0 { 0.5 } else { 0.0 },
        )
        .with_age(age)
    }

    #[test]
    fn unexplored_means_zero_awareness() {
        let p = PageStats::new(0, PageId::new(0), 0.0, 0.0);
        assert!(p.is_unexplored());
        let q = PageStats::new(1, PageId::new(1), 0.1, 0.2);
        assert!(!q.is_unexplored());
    }

    /// Regression test for the `is_unexplored` invariant: awareness values
    /// reachable from monitored-user visits — the exact quotient `k/m` the
    /// simulator computes, and the worst-case naive accumulation of `k`
    /// increments of `1/m` — are exactly `0.0` iff `k == 0`. A page with at
    /// least one visit must never be re-admitted to the promotion pool by
    /// floating-point artifacts.
    #[test]
    fn accumulated_awareness_never_strands_a_visited_page() {
        for m in [1usize, 2, 3, 7, 10, 33, 100, 1_000, 1_000_000] {
            let step = 1.0 / m as f64;
            let mut accumulated = 0.0f64;
            for k in 0..=m {
                let quotient = k as f64 / m as f64;
                let page = PageStats::new(0, PageId::new(0), 0.0, quotient);
                assert_eq!(
                    page.is_unexplored(),
                    k == 0,
                    "quotient awareness {quotient} at k={k}, m={m}"
                );
                let page = PageStats::new(0, PageId::new(0), 0.0, accumulated);
                assert_eq!(
                    page.is_unexplored(),
                    k == 0,
                    "accumulated awareness {accumulated} at k={k}, m={m}"
                );
                accumulated += step;
            }
        }
    }

    #[test]
    fn popularity_order_sorts_descending() {
        let mut pages = [page(0, 0.1, 0), page(1, 0.9, 0), page(2, 0.5, 0)];
        pages.sort_by(popularity_order);
        let slots: Vec<usize> = pages.iter().map(|p| p.slot).collect();
        assert_eq!(slots, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_age_then_slot() {
        let mut pages = [page(3, 0.5, 10), page(1, 0.5, 30), page(2, 0.5, 30)];
        pages.sort_by(popularity_order);
        let slots: Vec<usize> = pages.iter().map(|p| p.slot).collect();
        // Same popularity: older first (age 30 before age 10); equal age:
        // lower slot first.
        assert_eq!(slots, vec![1, 2, 3]);
    }

    #[test]
    fn precedes_is_the_strict_popularity_order() {
        let pages = [
            page(0, 0.5, 10),
            page(1, 0.5, 30),
            page(2, 0.5, 30),
            page(3, 0.9, 0),
            page(4, 0.0, 0),
            page(5, -0.0, 0),
            page(6, 0.5, 10),
        ];
        for a in &pages {
            for b in &pages {
                assert_eq!(
                    precedes(a, b),
                    popularity_order(a, b).is_lt(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn builders_set_fields() {
        let p = PageStats::new(4, PageId::new(9), 0.2, 0.1)
            .with_age(17)
            .with_quality(0.4);
        assert_eq!(p.age_days, 17);
        assert_eq!(p.quality, 0.4);
        assert_eq!(p.slot, 4);
        assert_eq!(p.page, PageId::new(9));
    }
}
