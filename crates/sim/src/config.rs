//! Simulation configuration.

use rrp_model::{CommunityConfig, ModelError, ModelResult};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// The community being simulated (`n`, `u`, `m`, `v_u`, `l`).
    pub community: CommunityConfig,
    /// Fraction of browsing done by random surfing rather than searching
    /// (the `x` of Section 8). `0.0` is the pure-search model used in
    /// Sections 6–7.
    pub surf_fraction: f64,
    /// Teleportation probability of the random surfer (`c`, typically 0.15).
    pub teleportation: f64,
    /// RNG seed; the same seed reproduces the run exactly.
    pub seed: u64,
}

impl SimConfig {
    /// A configuration for the paper's default community (Section 6.1) with
    /// pure search-driven browsing.
    pub fn paper_default(seed: u64) -> Self {
        SimConfig {
            community: CommunityConfig::paper_default(),
            surf_fraction: 0.0,
            teleportation: 0.15,
            seed,
        }
    }

    /// Build a configuration for an arbitrary community with pure
    /// search-driven browsing.
    pub fn for_community(community: CommunityConfig, seed: u64) -> Self {
        SimConfig {
            community,
            surf_fraction: 0.0,
            teleportation: 0.15,
            seed,
        }
    }

    /// Set the mixed-browsing surf fraction `x` (Section 8).
    pub fn with_surf_fraction(mut self, x: f64) -> Self {
        self.surf_fraction = x;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> ModelResult<()> {
        self.community.validate()?;
        if !self.surf_fraction.is_finite() || !(0.0..=1.0).contains(&self.surf_fraction) {
            return Err(ModelError::OutOfUnitInterval {
                what: "surf fraction",
                value: self.surf_fraction,
            });
        }
        if !self.teleportation.is_finite() || !(0.0..=1.0).contains(&self.teleportation) {
            return Err(ModelError::OutOfUnitInterval {
                what: "teleportation probability",
                value: self.teleportation,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::CommunityConfig;

    #[test]
    fn paper_default_is_valid_pure_search() {
        let c = SimConfig::paper_default(42);
        assert!(c.validate().is_ok());
        assert_eq!(c.surf_fraction, 0.0);
        assert_eq!(c.teleportation, 0.15);
        assert_eq!(c.seed, 42);
        assert_eq!(c.community.pages(), 10_000);
    }

    #[test]
    fn surf_fraction_must_be_a_probability() {
        let c = SimConfig::paper_default(0).with_surf_fraction(1.5);
        assert!(c.validate().is_err());
        let c = SimConfig::paper_default(0).with_surf_fraction(-0.1);
        assert!(c.validate().is_err());
        let c = SimConfig::paper_default(0).with_surf_fraction(0.3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn teleportation_must_be_a_probability() {
        let mut c = SimConfig::paper_default(0);
        c.teleportation = 2.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_community_is_rejected() {
        let mut c = SimConfig::paper_default(0);
        c.community = CommunityConfig::builder()
            .pages(100)
            .users(10)
            .monitored_users(5)
            .build()
            .unwrap();
        assert!(c.validate().is_ok());
    }
}
