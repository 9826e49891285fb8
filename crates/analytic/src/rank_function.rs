//! The popularity → expected-rank → expected-visits machinery
//! (`F1`, `F1'` and the assembly of `F = F2 ∘ F1` from Section 5.3).
//!
//! [`RankComputer`] holds one iteration's steady-state awareness
//! distributions (per quality group) and answers two questions:
//!
//! * what is the expected rank of a page of popularity `x` under
//!   nonrandomized ranking (`F1`, Equation 5)?
//! * what is the expected *visit rate* of a page of popularity `x` under a
//!   given [`RankingModel`] — nonrandomized, selective promotion or uniform
//!   promotion?
//!
//! For positive popularity the paper's approximation `F(x) = F2(F1'(x))`
//! (visits at the expected rank) is used. For zero-popularity pages the
//! expected-rank shortcut would be badly wrong — a promoted page sometimes
//! lands at rank 1 and `F2` is highly convex — so `F(0)` is computed as the
//! *average visit rate over the positions the zero-awareness pages occupy*,
//! which is the quantity the awareness balance equations actually need.
//! (The paper notes "the case of x = 0 must be handled separately".)

use crate::quality_groups::QualityGroup;
use rrp_attention::RankBias;

/// Which ranking scheme the analytic model describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankingModel {
    /// Strict descending-popularity ranking (the baseline).
    NonRandomized,
    /// Selective randomized promotion: pool = zero-awareness pages.
    Selective {
        /// Starting rank `k ≥ 1` (top `k − 1` results protected).
        start_rank: usize,
        /// Degree of randomization `r ∈ [0, 1]`.
        degree: f64,
    },
    /// Uniform randomized promotion: every page pooled with probability `r`.
    Uniform {
        /// Starting rank `k ≥ 1` (top `k − 1` results protected).
        start_rank: usize,
        /// Degree of randomization `r ∈ [0, 1]`.
        degree: f64,
    },
}

impl RankingModel {
    /// Human-readable label used in reports.
    pub fn label(&self) -> String {
        match self {
            RankingModel::NonRandomized => "no randomization".to_owned(),
            RankingModel::Selective { start_rank, degree } => {
                format!("selective (r={degree:.2}, k={start_rank})")
            }
            RankingModel::Uniform { start_rank, degree } => {
                format!("uniform (r={degree:.2}, k={start_rank})")
            }
        }
    }

    /// Validate parameters (`k ≥ 1`, `r ∈ [0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            RankingModel::NonRandomized => Ok(()),
            RankingModel::Selective { start_rank, degree }
            | RankingModel::Uniform { start_rank, degree } => {
                if start_rank == 0 {
                    return Err("start rank must be ≥ 1 (ranks are 1-based)".to_owned());
                }
                if !(0.0..=1.0).contains(&degree) || !degree.is_finite() {
                    return Err(format!(
                        "degree of randomization {degree} must be in [0, 1]"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Per-iteration rank/visit computer.
#[derive(Debug)]
pub struct RankComputer<'a> {
    groups: &'a [QualityGroup],
    /// Suffix sums of the awareness distribution per group:
    /// `suffix[g][i] = Σ_{j ≥ i} f_g(a_j)`.
    suffix: Vec<Vec<f64>>,
    /// Number of monitored users `m`.
    m: usize,
    /// Number of pages `n`.
    n: usize,
    /// Expected number of zero-awareness pages `z`.
    z: f64,
    /// Rank-bias law normalised to the monitored visit budget `v`.
    bias: &'a RankBias,
    /// Cumulative visits by rank: `cum[j] = Σ_{i=1..j} F2(i)`, `cum[0] = 0`.
    cumulative_visits: Vec<f64>,
}

impl<'a> RankComputer<'a> {
    /// Build a computer from one iteration's awareness distributions.
    ///
    /// `awareness[g]` must have `m + 1` entries and sum to 1.
    pub fn new(
        groups: &'a [QualityGroup],
        awareness: &[Vec<f64>],
        monitored_users: usize,
        bias: &'a RankBias,
    ) -> Self {
        assert_eq!(groups.len(), awareness.len(), "one distribution per group");
        let m = monitored_users;
        let n: usize = groups.iter().map(|g| g.count).sum();
        assert_eq!(
            bias.positions(),
            n,
            "rank-bias law must cover exactly the n pages"
        );

        let mut suffix = Vec::with_capacity(groups.len());
        let mut z = 0.0;
        for (group, dist) in groups.iter().zip(awareness) {
            assert_eq!(
                dist.len(),
                m + 1,
                "awareness distribution must have m+1 levels"
            );
            let mut s = vec![0.0; m + 2];
            for i in (0..=m).rev() {
                s[i] = s[i + 1] + dist[i];
            }
            z += group.count as f64 * dist[0];
            suffix.push(s);
        }

        let mut cumulative_visits = Vec::with_capacity(n + 1);
        cumulative_visits.push(0.0);
        for rank in 1..=n {
            cumulative_visits.push(cumulative_visits[rank - 1] + bias.visits_at_rank(rank));
        }

        RankComputer {
            groups,
            suffix,
            m,
            n,
            z,
            bias,
            cumulative_visits,
        }
    }

    /// Expected number of zero-awareness pages `z`.
    pub fn zero_awareness_pages(&self) -> f64 {
        self.z
    }

    /// Number of pages `n`.
    pub fn pages(&self) -> usize {
        self.n
    }

    /// Expected number of pages whose popularity strictly exceeds `x`.
    pub fn count_above(&self, x: f64) -> f64 {
        let mut count = 0.0;
        for (group, suffix) in self.groups.iter().zip(&self.suffix) {
            if group.quality <= 0.0 || group.quality <= x {
                // Even full awareness cannot push popularity above x
                // (popularity = a·q ≤ q ≤ x).
                continue;
            }
            // a_i·q > x  ⇔  i > m·x/q  ⇔  i ≥ floor(m·x/q) + 1.
            let threshold = (self.m as f64 * x / group.quality).floor() as usize + 1;
            if threshold <= self.m {
                count += group.count as f64 * suffix[threshold];
            }
        }
        count
    }

    /// Expected rank of a page of popularity `x > 0` under nonrandomized
    /// ranking (`F1`, Equation 5).
    pub fn expected_rank_nonrandomized(&self, x: f64) -> f64 {
        1.0 + self.count_above(x)
    }

    /// Expected rank of a zero-popularity page under nonrandomized ranking:
    /// below every positive-popularity page, in the middle of the
    /// zero-popularity block (ties broken arbitrarily).
    pub fn expected_rank_of_zero_popularity(&self) -> f64 {
        let positive = self.n as f64 - self.z;
        positive + (self.z + 1.0) / 2.0
    }

    /// Sum of `F2(i)` for integer ranks `i` in `[from, to]` (1-based,
    /// inclusive), clamped to `[1, n]`. Fractional bounds are rounded
    /// outward/inward to whole ranks.
    fn visits_in_rank_range(&self, from: f64, to: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let lo = from.ceil().max(1.0) as usize;
        let hi = (to.floor() as usize).min(self.n);
        if lo > hi {
            return 0.0;
        }
        self.cumulative_visits[hi] - self.cumulative_visits[lo - 1]
    }

    /// Expected visit rate of a page of popularity `x > 0` under `model`.
    pub fn expected_visits_positive(&self, x: f64, model: &RankingModel) -> f64 {
        let f1 = self.expected_rank_nonrandomized(x);
        match *model {
            RankingModel::NonRandomized => self.bias.visits_at_fractional_rank(f1),
            RankingModel::Selective { start_rank, degree } => {
                let k = start_rank as f64;
                let rank = if f1 < k {
                    f1
                } else {
                    // F1'(x) = F1(x) + min(r (F1(x) − k + 1)/(1 − r), z)
                    let displacement = if degree >= 1.0 {
                        self.z
                    } else {
                        (degree * (f1 - k + 1.0) / (1.0 - degree)).min(self.z)
                    };
                    f1 + displacement
                };
                self.bias.visits_at_fractional_rank(rank.min(self.n as f64))
            }
            RankingModel::Uniform { start_rank, degree } => {
                let k = start_rank as f64;
                // Not pooled (probability 1 − r): rank among non-pooled
                // pages, stretched by the pooled pages interleaved after
                // the protected prefix.
                let not_pooled_visits = if degree >= 1.0 {
                    0.0
                } else {
                    let rank_np = 1.0 + (1.0 - degree) * (f1 - 1.0);
                    let stretched = if rank_np < k {
                        rank_np
                    } else {
                        (k - 1.0) + (rank_np - (k - 1.0)) / (1.0 - degree)
                    };
                    self.bias
                        .visits_at_fractional_rank(stretched.min(self.n as f64))
                };
                // Pooled (probability r): the page lands at a roughly
                // uniformly distributed position ≥ k, so its expected visit
                // rate is the average of F2 over those positions.
                let pooled_visits = self.mean_visits_from_rank(start_rank);
                (1.0 - degree) * not_pooled_visits + degree * pooled_visits
            }
        }
    }

    /// Average `F2` over positions `start_rank ..= n`.
    fn mean_visits_from_rank(&self, start_rank: usize) -> f64 {
        let k = start_rank.max(1);
        if k > self.n {
            return 0.0;
        }
        let total = self.visits_in_rank_range(k as f64, self.n as f64);
        total / (self.n - k + 1) as f64
    }

    /// Expected visit rate of a zero-popularity (zero-awareness) page under
    /// `model`.
    ///
    /// This is computed as total visits reaching such pages divided by their
    /// expected count `z`, which is the exact quantity the awareness balance
    /// equations need (and avoids the convexity error of evaluating `F2` at
    /// an expected rank).
    pub fn expected_visits_zero(&self, model: &RankingModel) -> f64 {
        if self.z <= 0.0 || self.n == 0 {
            return 0.0;
        }
        match *model {
            RankingModel::NonRandomized => {
                // Zero-popularity pages occupy the bottom z ranks.
                let from = self.n as f64 - self.z + 1.0;
                self.visits_in_rank_range(from, self.n as f64) / self.z
            }
            RankingModel::Selective { start_rank, degree } => {
                if degree <= 0.0 {
                    let from = self.n as f64 - self.z + 1.0;
                    return self.visits_in_rank_range(from, self.n as f64) / self.z;
                }
                let pool_visits = self.promoted_pool_visits(start_rank, degree, self.z);
                pool_visits / self.z
            }
            RankingModel::Uniform { start_rank, degree } => {
                // With probability r the page is pooled and receives the
                // average over positions ≥ k; otherwise it sits at the
                // bottom of the deterministic list (stretched by pooling).
                let pooled = self.mean_visits_from_rank(start_rank);
                let not_pooled = if degree >= 1.0 {
                    0.0
                } else {
                    let f1 = self.expected_rank_of_zero_popularity();
                    let k = start_rank as f64;
                    let rank_np = 1.0 + (1.0 - degree) * (f1 - 1.0);
                    let stretched = if rank_np < k {
                        rank_np
                    } else {
                        (k - 1.0) + (rank_np - (k - 1.0)) / (1.0 - degree)
                    };
                    self.bias
                        .visits_at_fractional_rank(stretched.min(self.n as f64))
                };
                degree * pooled + (1.0 - degree) * not_pooled
            }
        }
    }

    /// Total expected visits per day reaching the promotion pool when the
    /// pool holds `pool_size` pages, under selective promotion with
    /// parameters (`start_rank`, `degree`).
    ///
    /// Positions before `start_rank` never hold pool pages. From
    /// `start_rank` onward each position holds a pool page with probability
    /// `degree` until one of the two lists is exhausted; the remaining
    /// positions are filled entirely from the list that is left.
    fn promoted_pool_visits(&self, start_rank: usize, degree: f64, pool_size: f64) -> f64 {
        let k = start_rank.max(1) as f64;
        let n = self.n as f64;
        let established = (n - pool_size).max(0.0);
        if degree >= 1.0 {
            // All of the pool is placed immediately after the protected
            // prefix.
            let prefix_end = (k - 1.0).min(established);
            return self.visits_in_rank_range(prefix_end + 1.0, prefix_end + pool_size);
        }
        // Interleaving region: pool density `degree` per position, starting
        // at rank k. The pool is exhausted after pool_size/degree positions;
        // the established list after (k-1) + established_remaining/(1-degree)
        // positions (established pages also fill ranks 1..k-1).
        let established_after_prefix = (established - (k - 1.0)).max(0.0);
        let pool_end = (k - 1.0) + pool_size / degree;
        let established_end = (k - 1.0) + established_after_prefix / (1.0 - degree);
        if pool_end <= established_end {
            // Pool exhausted first: density `degree` over [k, pool_end].
            degree * self.visits_in_rank_range(k, pool_end.min(n))
        } else {
            // Established list exhausted first: density `degree` up to
            // established_end, then every remaining position is pool.
            degree * self.visits_in_rank_range(k, established_end.min(n))
                + self.visits_in_rank_range(established_end + 1.0, n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awareness::awareness_distribution;
    use crate::quality_groups::QualityGroups;
    use rrp_model::PowerLawQuality;

    const LAMBDA: f64 = 1.0 / 547.5;

    /// A small synthetic steady state: 2 groups, m = 10 monitored users.
    fn small_computer<'a>(
        groups: &'a [QualityGroup],
        awareness: &[Vec<f64>],
        bias: &'a RankBias,
    ) -> RankComputer<'a> {
        RankComputer::new(groups, awareness, 10, bias)
    }

    fn two_groups() -> Vec<QualityGroup> {
        vec![
            QualityGroup {
                quality: 0.4,
                count: 2,
            },
            QualityGroup {
                quality: 0.1,
                count: 8,
            },
        ]
    }

    /// Awareness distribution with all mass at one level `i` for each group.
    fn point_mass(m: usize, i: usize) -> Vec<f64> {
        let mut v = vec![0.0; m + 1];
        v[i] = 1.0;
        v
    }

    #[test]
    fn count_above_with_point_masses() {
        let groups = two_groups();
        // High-quality pages fully aware (popularity 0.4); low-quality pages
        // half aware (popularity 0.05).
        let awareness = vec![point_mass(10, 10), point_mass(10, 5)];
        let bias = RankBias::altavista(10, 100.0);
        let rc = small_computer(&groups, &awareness, &bias);
        assert_eq!(rc.pages(), 10);
        assert!((rc.count_above(0.2) - 2.0).abs() < 1e-9);
        assert!((rc.count_above(0.04) - 10.0).abs() < 1e-9);
        assert!((rc.count_above(0.05) - 2.0).abs() < 1e-9, "strictly above");
        assert!((rc.count_above(0.5) - 0.0).abs() < 1e-9);
        assert!((rc.expected_rank_nonrandomized(0.2) - 3.0).abs() < 1e-9);
        assert_eq!(rc.zero_awareness_pages(), 0.0);
    }

    #[test]
    fn zero_popularity_rank_is_in_the_middle_of_the_zero_block() {
        let groups = two_groups();
        // Everyone at zero awareness.
        let awareness = vec![point_mass(10, 0), point_mass(10, 0)];
        let bias = RankBias::altavista(10, 100.0);
        let rc = small_computer(&groups, &awareness, &bias);
        assert!((rc.zero_awareness_pages() - 10.0).abs() < 1e-9);
        assert!((rc.expected_rank_of_zero_popularity() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn nonrandomized_visits_decrease_with_lower_popularity() {
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 1_000);
        let m = 50;
        let awareness: Vec<Vec<f64>> = groups
            .groups()
            .iter()
            .map(|g| awareness_distribution(|x| 0.01 + 0.5 * x, g.quality, m, LAMBDA))
            .collect();
        let bias = RankBias::altavista(1_000, 100.0);
        let rc = RankComputer::new(groups.groups(), &awareness, m, &bias);
        let hi = rc.expected_visits_positive(0.4, &RankingModel::NonRandomized);
        let mid = rc.expected_visits_positive(0.05, &RankingModel::NonRandomized);
        let lo = rc.expected_visits_positive(0.001, &RankingModel::NonRandomized);
        assert!(hi > mid, "hi {hi} mid {mid}");
        assert!(mid > lo, "mid {mid} lo {lo}");
    }

    #[test]
    fn selective_promotion_raises_zero_popularity_visits() {
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 10_000);
        let m = 100;
        // Entrenchment-like steady state: low base visit rate.
        let awareness: Vec<Vec<f64>> = groups
            .groups()
            .iter()
            .map(|g| awareness_distribution(|x| 0.0002 + 0.2 * x, g.quality, m, LAMBDA))
            .collect();
        let bias = RankBias::altavista(10_000, 100.0);
        let rc = RankComputer::new(groups.groups(), &awareness, m, &bias);

        let baseline = rc.expected_visits_zero(&RankingModel::NonRandomized);
        let selective = rc.expected_visits_zero(&RankingModel::Selective {
            start_rank: 1,
            degree: 0.2,
        });
        let uniform = rc.expected_visits_zero(&RankingModel::Uniform {
            start_rank: 1,
            degree: 0.2,
        });
        assert!(
            selective > 10.0 * baseline,
            "selective F(0) {selective} should dwarf baseline {baseline}"
        );
        assert!(
            selective > uniform,
            "selective F(0) {selective} should beat uniform {uniform}"
        );
        assert!(uniform > baseline);
    }

    #[test]
    fn selective_promotion_costs_established_pages_some_visits() {
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 1_000);
        let m = 100;
        let awareness: Vec<Vec<f64>> = groups
            .groups()
            .iter()
            .map(|g| awareness_distribution(|x| 0.001 + 0.3 * x, g.quality, m, LAMBDA))
            .collect();
        let bias = RankBias::altavista(1_000, 100.0);
        let rc = RankComputer::new(groups.groups(), &awareness, m, &bias);
        let model = RankingModel::Selective {
            start_rank: 1,
            degree: 0.2,
        };
        for &x in &[0.4, 0.2, 0.05, 0.01] {
            let with = rc.expected_visits_positive(x, &model);
            let without = rc.expected_visits_positive(x, &RankingModel::NonRandomized);
            assert!(
                with <= without + 1e-12,
                "promotion must not increase an established page's visits (x={x})"
            );
        }
    }

    #[test]
    fn protected_prefix_is_unaffected_by_selective_promotion() {
        let groups = two_groups();
        // High-quality pages fully aware -> rank 1 and 2; low-quality at 0.
        let awareness = vec![point_mass(10, 10), point_mass(10, 0)];
        let bias = RankBias::altavista(10, 100.0);
        let rc = small_computer(&groups, &awareness, &bias);
        let model = RankingModel::Selective {
            start_rank: 4,
            degree: 0.9,
        };
        // A page of popularity 0.39 has expected rank 1 + 2 = 3 < k = 4
        // (both quality-0.4 pages are fully aware, popularity 0.4 > 0.39),
        // so it is protected and keeps its nonrandomized visit rate.
        let x = 0.39;
        let with = rc.expected_visits_positive(x, &model);
        let without = rc.expected_visits_positive(x, &RankingModel::NonRandomized);
        assert!((with - without).abs() < 1e-12);
    }

    #[test]
    fn uniform_model_interpolates_between_extremes() {
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 1_000);
        let m = 100;
        let awareness: Vec<Vec<f64>> = groups
            .groups()
            .iter()
            .map(|g| awareness_distribution(|x| 0.001 + 0.3 * x, g.quality, m, LAMBDA))
            .collect();
        let bias = RankBias::altavista(1_000, 100.0);
        let rc = RankComputer::new(groups.groups(), &awareness, m, &bias);
        // r = 0 reduces to nonrandomized for established pages.
        let x = 0.2;
        let r0 = rc.expected_visits_positive(
            x,
            &RankingModel::Uniform {
                start_rank: 1,
                degree: 0.0,
            },
        );
        let baseline = rc.expected_visits_positive(x, &RankingModel::NonRandomized);
        assert!((r0 - baseline).abs() / baseline < 1e-9);
        // r = 1 gives everyone the average tail visit rate.
        let r1 = rc.expected_visits_positive(
            x,
            &RankingModel::Uniform {
                start_rank: 1,
                degree: 1.0,
            },
        );
        assert!((r1 - 100.0 / 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn pool_visit_mass_roughly_r_times_budget_when_pool_is_large() {
        // With a sizeable pool, k = 1, and enough established pages that the
        // deterministic list does not run out, the pool captures ≈ r·v
        // visits.
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 10_000);
        let m = 100;
        let awareness: Vec<Vec<f64>> = groups
            .groups()
            .iter()
            .map(|g| awareness_distribution(|_| 0.01, g.quality, m, LAMBDA))
            .collect();
        let bias = RankBias::altavista(10_000, 100.0);
        let rc = RankComputer::new(groups.groups(), &awareness, m, &bias);
        let z = rc.zero_awareness_pages();
        assert!(z > 1_000.0 && z < 3_000.0, "z = {z}");
        let r = 0.2;
        let f0 = rc.expected_visits_zero(&RankingModel::Selective {
            start_rank: 1,
            degree: r,
        });
        let total_pool_visits = f0 * z;
        assert!(
            (total_pool_visits - r * 100.0).abs() < 0.15 * r * 100.0,
            "pool visits {total_pool_visits} should be ≈ {}",
            r * 100.0
        );
    }

    #[test]
    fn ranking_model_labels_and_validation() {
        assert_eq!(RankingModel::NonRandomized.label(), "no randomization");
        let s = RankingModel::Selective {
            start_rank: 2,
            degree: 0.1,
        };
        assert!(s.label().contains("selective"));
        assert!(s.validate().is_ok());
        assert!(RankingModel::Selective {
            start_rank: 0,
            degree: 0.1
        }
        .validate()
        .is_err());
        assert!(RankingModel::Uniform {
            start_rank: 1,
            degree: 1.5
        }
        .validate()
        .is_err());
        assert!(RankingModel::NonRandomized.validate().is_ok());
    }

    #[test]
    fn degree_zero_selective_equals_nonrandomized_for_zero_popularity() {
        let groups = two_groups();
        let awareness = vec![point_mass(10, 0), point_mass(10, 0)];
        let bias = RankBias::altavista(10, 100.0);
        let rc = small_computer(&groups, &awareness, &bias);
        let a = rc.expected_visits_zero(&RankingModel::NonRandomized);
        let b = rc.expected_visits_zero(&RankingModel::Selective {
            start_rank: 1,
            degree: 0.0,
        });
        assert!((a - b).abs() < 1e-12);
    }
}
