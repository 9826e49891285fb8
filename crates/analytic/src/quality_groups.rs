//! Grouping pages by quality for the analytic model.
//!
//! The analytic formulas of Section 5 sum over every page in the community.
//! Pages of equal quality are interchangeable, so the implementation groups
//! the `n` pages into at most `max_groups` buckets of (quality, page count)
//! and carries the count as a weight. With the deterministic quantile
//! assignment of `rrp-model`, the highest-quality page keeps its own
//! singleton group — the paper's TBP/popularity-evolution figures all track
//! the quality-0.4 page, so its group must not be smeared together with
//! lower-quality pages.

use rrp_model::{assign_qualities, Quality, QualityDistribution};

/// A set of quality groups: `(quality, number of pages at that quality)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityGroups {
    groups: Vec<QualityGroup>,
    total_pages: usize,
}

/// One group of pages sharing (approximately) the same quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityGroup {
    /// Representative quality of the group.
    pub quality: f64,
    /// Number of pages in the group.
    pub count: usize,
}

impl QualityGroups {
    /// Build groups from an explicit per-page quality list, coalescing into
    /// at most `max_groups` buckets. The `preserve_top` highest-quality
    /// pages keep singleton groups so their individual behaviour (TBP,
    /// popularity evolution) stays exact.
    pub fn from_qualities(qualities: &[Quality], max_groups: usize, preserve_top: usize) -> Self {
        assert!(max_groups >= 1, "need at least one group");
        let mut sorted: Vec<f64> = qualities.iter().map(|q| q.value()).collect();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("quality is never NaN"));
        let total_pages = sorted.len();

        let mut groups: Vec<QualityGroup> = Vec::new();
        let preserve = preserve_top.min(sorted.len());
        for &q in sorted.iter().take(preserve) {
            groups.push(QualityGroup {
                quality: q,
                count: 1,
            });
        }

        let rest = &sorted[preserve..];
        if !rest.is_empty() {
            let buckets = max_groups.saturating_sub(groups.len()).max(1);
            let per_bucket = rest.len().div_ceil(buckets);
            let mut start = 0;
            while start < rest.len() {
                let end = (start + per_bucket).min(rest.len());
                let slice = &rest[start..end];
                // Representative quality: the mean of the bucket.
                let mean = slice.iter().sum::<f64>() / slice.len() as f64;
                groups.push(QualityGroup {
                    quality: mean,
                    count: slice.len(),
                });
                start = end;
            }
        }

        QualityGroups {
            groups,
            total_pages,
        }
    }

    /// Build groups for a community of `n` pages whose qualities follow
    /// `dist` (deterministic quantile assignment), with default bucketing.
    pub fn from_distribution<D: QualityDistribution>(dist: &D, n: usize) -> Self {
        let qualities = assign_qualities(dist, n);
        // 96 buckets + 4 preserved top pages keeps per-iteration cost low
        // while resolving the head of the quality distribution.
        QualityGroups::from_qualities(&qualities, 100, 4)
    }

    /// The groups, highest quality first.
    pub fn groups(&self) -> &[QualityGroup] {
        &self.groups
    }

    /// Total number of pages across all groups.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// The highest quality present (0 if there are no pages).
    pub fn max_quality(&self) -> f64 {
        self.groups.first().map_or(0.0, |g| g.quality)
    }

    /// The per-page quality list implied by the groups (group-representative
    /// qualities repeated by count), highest first. Used to compute the
    /// ideal (quality-ordered) QPC bound.
    pub fn expanded_qualities(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.total_pages);
        for g in &self.groups {
            out.extend(std::iter::repeat_n(g.quality, g.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::PowerLawQuality;

    #[test]
    fn groups_cover_all_pages() {
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 10_000);
        let total: usize = groups.groups().iter().map(|g| g.count).sum();
        assert_eq!(total, 10_000);
        assert_eq!(groups.total_pages(), 10_000);
        assert!(groups.groups().len() <= 104);
    }

    #[test]
    fn top_page_keeps_its_own_group() {
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 10_000);
        let first = groups.groups()[0];
        assert_eq!(first.count, 1);
        assert!((first.quality - 0.4).abs() < 1e-6);
        assert!((groups.max_quality() - 0.4).abs() < 1e-6);
    }

    #[test]
    fn groups_are_sorted_descending_by_quality() {
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 5_000);
        for w in groups.groups().windows(2) {
            assert!(w[0].quality >= w[1].quality - 1e-12);
        }
    }

    #[test]
    fn bucketing_respects_max_groups() {
        let dist = PowerLawQuality::paper_default();
        let qualities = assign_qualities(&dist, 1_000);
        let groups = QualityGroups::from_qualities(&qualities, 8, 2);
        assert!(groups.groups().len() <= 10, "got {}", groups.groups().len());
        let total: usize = groups.groups().iter().map(|g| g.count).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn expanded_qualities_roundtrip_count_and_order() {
        let qs: Vec<Quality> = [0.4, 0.3, 0.3, 0.1, 0.1, 0.1]
            .iter()
            .map(|&q| Quality::new(q).unwrap())
            .collect();
        let groups = QualityGroups::from_qualities(&qs, 3, 1);
        let expanded = groups.expanded_qualities();
        assert_eq!(expanded.len(), 6);
        for w in expanded.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!((expanded[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mean_quality_matches_direct_average() {
        // Each bucket is represented by its mean, so grouping keeps the mean
        // quality over pages at any bucket count.
        let qs: Vec<Quality> = [0.4, 0.2, 0.2, 0.1]
            .iter()
            .map(|&q| Quality::new(q).unwrap())
            .collect();
        for max_groups in [1, 2, 10] {
            let groups = QualityGroups::from_qualities(&qs, max_groups, 1);
            let mean = groups
                .groups()
                .iter()
                .map(|g| g.quality * g.count as f64)
                .sum::<f64>()
                / groups.total_pages() as f64;
            assert!((mean - 0.225).abs() < 1e-12, "max_groups {max_groups}");
        }
    }

    #[test]
    fn empty_quality_list_is_handled() {
        let groups = QualityGroups::from_qualities(&[], 10, 2);
        assert_eq!(groups.total_pages(), 0);
        assert_eq!(groups.max_quality(), 0.0);
        assert!(groups.expanded_qualities().is_empty());
    }

    #[test]
    fn preserve_top_larger_than_population() {
        let qs: Vec<Quality> = [0.4, 0.2]
            .iter()
            .map(|&q| Quality::new(q).unwrap())
            .collect();
        let groups = QualityGroups::from_qualities(&qs, 5, 10);
        assert_eq!(groups.groups().len(), 2);
        assert!(groups.groups().iter().all(|g| g.count == 1));
    }
}
