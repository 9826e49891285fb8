//! Measurement results collected by the simulator.

/// Running accumulator for quality-per-click.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QpcAccumulator {
    /// Σ visits × quality over the measurement window.
    pub weighted_quality: f64,
    /// Σ visits over the measurement window.
    pub visits: f64,
    /// Number of days accumulated.
    pub days: u64,
    /// Σ (zero-awareness page count / n) over the measurement window.
    pub zero_awareness_fraction_sum: f64,
}

impl QpcAccumulator {
    /// Record one day's totals.
    pub fn record_day(&mut self, weighted_quality: f64, visits: f64, zero_awareness_fraction: f64) {
        self.weighted_quality += weighted_quality;
        self.visits += visits;
        self.zero_awareness_fraction_sum += zero_awareness_fraction;
        self.days += 1;
    }

    /// The absolute quality-per-click accumulated so far (0 if nothing was
    /// measured).
    pub fn absolute_qpc(&self) -> f64 {
        if self.visits <= 0.0 {
            0.0
        } else {
            self.weighted_quality / self.visits
        }
    }

    /// Mean fraction of pages with zero awareness over the window.
    pub fn mean_zero_awareness_fraction(&self) -> f64 {
        if self.days == 0 {
            0.0
        } else {
            self.zero_awareness_fraction_sum / self.days as f64
        }
    }
}

/// Final metrics of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Days included in the measurement window.
    pub days_measured: u64,
    /// Absolute quality-per-click (average quality of visited pages).
    pub absolute_qpc: f64,
    /// QPC of the hypothetical quality-ordered ranking (pure-search model).
    pub ideal_qpc: f64,
    /// `absolute_qpc / ideal_qpc` — the normalisation used in Figures 5–7.
    pub normalized_qpc: f64,
    /// Mean fraction of pages that no monitored user has ever seen.
    pub mean_zero_awareness_fraction: f64,
}

/// Result of a TBP (time-to-become-popular) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TbpResult {
    /// Mean days to become popular over all trials (censored trials counted
    /// at the censoring horizon, making this a lower bound when `completed
    /// < trials`).
    pub mean_days: f64,
    /// Number of trials in which the page reached the popularity threshold.
    pub completed: usize,
    /// Total number of trials.
    pub trials: usize,
    /// The per-trial censoring horizon in days.
    pub max_days: u64,
}

/// A per-day trace of one page's state, used to reproduce the
/// popularity-evolution and visit-rate figures (Figures 2 and 4(a)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PopularityTrace {
    /// Popularity at the end of each day (day 0 = creation day).
    pub popularity: Vec<f64>,
    /// Expected monitored visits per day at the rank the page held that day.
    pub daily_visits: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_computes_the_ratio() {
        let mut acc = QpcAccumulator::default();
        assert_eq!(acc.absolute_qpc(), 0.0);
        acc.record_day(4.0, 10.0, 0.5);
        acc.record_day(2.0, 10.0, 0.3);
        assert!((acc.absolute_qpc() - 0.3).abs() < 1e-12);
        assert_eq!(acc.days, 2);
        assert!((acc.mean_zero_awareness_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = QpcAccumulator::default();
        assert_eq!(acc.absolute_qpc(), 0.0);
        assert_eq!(acc.mean_zero_awareness_fraction(), 0.0);
    }
}
