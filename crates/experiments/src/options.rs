//! Experiment options shared by every figure driver.

use rrp_model::CommunityConfig;

/// How large the experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal scale for unit/integration tests: a few hundred pages and a
    /// few hundred simulated days. Fast even in debug builds, but noisy.
    Tiny,
    /// Default for `cargo bench`: a community scaled down 5× from the paper
    /// (same proportions, so the entrenchment regime is preserved) and
    /// moderate sweeps. Completes the full figure suite in minutes.
    Quick,
    /// The paper's own community sizes and sweep ranges (except where noted
    /// in the per-figure documentation). Expect long runtimes.
    Full,
}

/// Options controlling experiment scale and reproducibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Experiment scale.
    pub scale: Scale,
    /// Root seed; every figure derives its own child seeds from it.
    pub seed: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            scale: Scale::Quick,
            seed: 20_050_304, // the paper's submission date
        }
    }
}

impl ExperimentOptions {
    /// Read options from the environment: `RRP_FULL_SWEEP=1` selects
    /// [`Scale::Full`] (`0` or unset keeps [`Scale::Quick`]), and
    /// `RRP_SEED=<u64>` overrides the seed.
    ///
    /// # Panics
    /// Panics on any other value of either variable, naming the variable and
    /// the value, so a typo never runs a figure at another scale or seed.
    pub fn from_env() -> Self {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Self::parse(var("RRP_FULL_SWEEP").as_deref(), var("RRP_SEED").as_deref())
            .unwrap_or_else(|message| panic!("{message}"))
    }

    /// [`from_env`](Self::from_env)'s parsing, given each variable's value
    /// (`None` when unset).
    fn parse(full_sweep: Option<&str>, seed: Option<&str>) -> Result<Self, String> {
        let mut options = ExperimentOptions::default();
        match full_sweep {
            None | Some("0") => {}
            Some("1") => options.scale = Scale::Full,
            Some(other) => {
                return Err(format!("invalid RRP_FULL_SWEEP {other:?}: expected 0 or 1"))
            }
        }
        if let Some(seed) = seed {
            options.seed = seed.parse().map_err(|_| {
                format!("invalid RRP_SEED {seed:?}: expected an unsigned 64-bit integer")
            })?;
        }
        Ok(options)
    }

    /// Quick-scale options with an explicit seed.
    pub fn quick(seed: u64) -> Self {
        ExperimentOptions {
            scale: Scale::Quick,
            seed,
        }
    }

    /// Tiny-scale options with an explicit seed (for tests).
    pub fn tiny(seed: u64) -> Self {
        ExperimentOptions {
            scale: Scale::Tiny,
            seed,
        }
    }

    /// The "default Web community" (Section 6.1) at this scale: the paper's
    /// `n = 10,000` community in full mode, proportionally scaled-down
    /// versions otherwise (`u/n = 10%`, `m/u = 10%`, one visit per user per
    /// day, 1.5-year lifetimes in every case).
    pub fn default_community(&self) -> CommunityConfig {
        CommunityConfig::builder()
            .scaled_to_pages(self.default_pages())
            .expected_lifetime_years(1.5)
            .build()
            .expect("scaled paper community is always valid")
    }

    /// Number of pages in the default community at this scale.
    pub fn default_pages(&self) -> usize {
        match self.scale {
            Scale::Tiny => 400,
            Scale::Quick => 2_000,
            Scale::Full => 10_000,
        }
    }

    /// Number of simulated warm-up days before measurement.
    pub fn warmup_days(&self) -> u64 {
        match self.scale {
            Scale::Tiny => 250,
            Scale::Quick => 900,
            Scale::Full => 1_100,
        }
    }

    /// Number of measured days for QPC estimates.
    pub fn measure_days(&self) -> u64 {
        match self.scale {
            Scale::Tiny => 250,
            Scale::Quick => 900,
            Scale::Full => 1_100,
        }
    }

    /// Number of independent repetitions averaged for noisy measurements.
    pub fn repetitions(&self) -> usize {
        match self.scale {
            Scale::Tiny => 1,
            Scale::Quick => 2,
            Scale::Full => 3,
        }
    }

    /// Number of TBP probe trials per configuration.
    pub fn tbp_trials(&self) -> usize {
        match self.scale {
            Scale::Tiny => 1,
            Scale::Quick => 2,
            Scale::Full => 4,
        }
    }

    /// Per-trial TBP censoring horizon in days.
    pub fn tbp_max_days(&self) -> u64 {
        match self.scale {
            Scale::Tiny => 400,
            Scale::Quick => 2_500,
            Scale::Full => 4_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quick_with_fixed_seed() {
        let o = ExperimentOptions::default();
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.seed, 20_050_304);
    }

    #[test]
    fn environment_values_parse_in_their_valid_forms() {
        let parse = |full, seed| ExperimentOptions::parse(full, seed).unwrap();
        assert_eq!(parse(None, None), ExperimentOptions::default());
        assert_eq!(parse(Some("0"), None).scale, Scale::Quick);
        assert_eq!(parse(Some("1"), None).scale, Scale::Full);
        assert_eq!(parse(None, Some("0")).seed, 0);
        assert_eq!(parse(None, Some("777")), ExperimentOptions::quick(777));
        assert_eq!(parse(None, Some("18446744073709551615")).seed, u64::MAX);
        let full = parse(Some("1"), Some("20050304"));
        assert_eq!((full.scale, full.seed), (Scale::Full, 20_050_304));
    }

    #[test]
    fn malformed_environment_values_are_refused_by_name_and_value() {
        for seed in ["abc", "", "-1", "18446744073709551616", "true", "2005O304"] {
            let message = ExperimentOptions::parse(None, Some(seed)).unwrap_err();
            assert!(message.contains("RRP_SEED"), "{message}");
            assert!(message.contains(&format!("{seed:?}")), "{message}");
        }
        for full in ["true", "", "2", "yes", " 1"] {
            let message = ExperimentOptions::parse(Some(full), None).unwrap_err();
            assert!(message.contains("RRP_FULL_SWEEP"), "{message}");
            assert!(message.contains(&format!("{full:?}")), "{message}");
        }
    }

    #[test]
    fn quick_community_preserves_paper_proportions() {
        let quick = ExperimentOptions::quick(1).default_community();
        assert_eq!(quick.pages(), 2_000);
        assert_eq!(quick.users(), 200);
        assert_eq!(quick.monitored_users(), 20);
        assert_eq!(quick.total_visits_per_day(), 200.0);
        assert!((quick.total_visits_per_day() / quick.pages() as f64 - 0.1).abs() < 1e-12);
        assert!((quick.expected_lifetime_days() - 547.5).abs() < 1e-9);
    }

    #[test]
    fn full_community_matches_the_paper() {
        let full = ExperimentOptions {
            scale: Scale::Full,
            seed: 0,
        }
        .default_community();
        assert_eq!(full.pages(), 10_000);
        assert_eq!(full.users(), 1_000);
        assert_eq!(full.monitored_users(), 100);
        assert_eq!(full.total_visits_per_day(), 1_000.0);
    }

    #[test]
    fn tiny_scale_is_small_but_valid() {
        let tiny = ExperimentOptions::tiny(3);
        let c = tiny.default_community();
        assert_eq!(c.pages(), 400);
        assert!(c.validate().is_ok());
        assert!(tiny.warmup_days() < 500);
    }

    #[test]
    fn windows_and_repetitions_are_positive_at_every_scale() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            let o = ExperimentOptions { scale, seed: 0 };
            assert!(o.warmup_days() > 0);
            assert!(o.measure_days() > 0);
            assert!(o.repetitions() > 0);
            assert!(o.tbp_trials() > 0);
            assert!(o.tbp_max_days() > 0);
        }
    }
}
