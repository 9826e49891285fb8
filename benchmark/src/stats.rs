//! Sample summaries, the answer digest and the metric map the benchmark
//! prints.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nanosecond samples of one timed operation.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    /// The quantile `q` of the run's unhindered stretches, in nanoseconds,
    /// for samples taken the same number of times in each of `rounds`
    /// rounds: see [`Samples::unhindered`].
    pub fn unhindered_quantile_ns(&self, rounds: u64, q: f64) -> f64 {
        self.unhindered(rounds, |block| quantile(block, q))
    }

    /// The mean sample of the run's unhindered stretches, in nanoseconds:
    /// the per-item cost behind a throughput figure.
    pub fn unhindered_mean_ns(&self, rounds: u64) -> f64 {
        self.unhindered(rounds, |block| {
            block.iter().sum::<u64>() as f64 / block.len() as f64
        })
    }

    /// `statistic` of each block of [`ROUNDS_PER_BLOCK`] consecutive
    /// rounds, then the tenth percentile of those. On a shared machine,
    /// neighbours slow a whole stretch of a run by up to ≈ 1.7× for a
    /// second or more; the fastest tenth of the blocks is the code's cost
    /// when nothing else competes for the caches.
    fn unhindered(&self, rounds: u64, statistic: impl Fn(&[u64]) -> f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let per_round = (self.0.len() / rounds.max(1) as usize).max(1);
        let mut values: Vec<f64> = self
            .0
            .chunks_exact(per_round * ROUNDS_PER_BLOCK)
            .map(&statistic)
            .collect();
        if values.is_empty() {
            values.push(statistic(&self.0));
        }
        values.sort_by(f64::total_cmp);
        let rank = ((0.1 * values.len() as f64).ceil() as usize).max(1);
        values[rank - 1]
    }

    /// Whether the sample supports quantile `q`: at least ten samples lie
    /// beyond it.
    pub fn supports(&self, q: f64) -> bool {
        (self.0.len() as f64) * (1.0 - q) >= 10.0
    }
}

/// Rounds per block of a run's samples: the durable workload's snapshot
/// cadence (1024 events at 32 mutations a round), so that every block of
/// that workload carries the same snapshot work.
pub const ROUNDS_PER_BLOCK: usize = 32;

/// Nearest-rank quantile of unsorted values (0 when empty).
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over 64-bit words: the digest of every answer a run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01b3);
    }

    /// One answer: its length, then its ids.
    pub fn answer(&mut self, ids: &[u64]) {
        self.word(ids.len() as u64);
        ids.iter().for_each(|&id| self.word(id));
    }
}

/// Metrics by name, each a value with its unit, in a stable order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// `<prefix>.p50`, `<prefix>.p99` (µs) and `<prefix>.n` of a timing.
    pub fn timing_us(&mut self, prefix: &str, samples: &Samples) {
        self.set(
            format!("{prefix}.p50"),
            samples.quantile_ns(0.5) / 1e3,
            "us",
        );
        self.set(
            format!("{prefix}.p99"),
            samples.quantile_ns(0.99) / 1e3,
            "us",
        );
        self.set(format!("{prefix}.n"), samples.len() as f64, "count");
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite JSON number with all its digits (non-finite values, which no
/// metric should produce, print as 0 and are caught by the checks).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn unhindered_blocks_skip_a_slow_stretch() {
        // 320 rounds of two samples: ten blocks, the last six 1.5× slower.
        let mut s = Samples::default();
        (0..640).for_each(|i| s.push_ns(if i < 256 { 100 } else { 150 }));
        assert_eq!(s.unhindered_quantile_ns(320, 0.5), 100.0);
        assert_eq!(s.unhindered_mean_ns(320), 100.0);
        // Fewer rounds than a block: one block of everything.
        assert_eq!(s.unhindered_mean_ns(8), s.total_ns() as f64 / 640.0);
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        (0..999).for_each(|i| s.push_ns(i));
        assert!(s.supports(0.5) && !s.supports(0.99));
        s.push_ns(5);
        assert!(s.supports(0.99) && !s.supports(0.999));
    }

    #[test]
    fn digest_sees_order_and_boundaries() {
        let digest = |answers: &[&[u64]]| {
            let mut d = Digest::default();
            answers.iter().for_each(|a| d.answer(a));
            d
        };
        assert_ne!(digest(&[&[1, 2]]), digest(&[&[2, 1]]));
        assert_ne!(digest(&[&[1], &[2]]), digest(&[&[1, 2]]));
    }
}
