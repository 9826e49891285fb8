//! Web-community configuration (Section 3 and Section 6.1 of the paper).
//!
//! A *community* is the set of pages `P` devoted to one topic together with
//! the users `U` interested in that topic. The paper characterises a
//! community by a handful of scalars (Table 1):
//!
//! | symbol | meaning | default (§6.1) |
//! |---|---|---|
//! | `n`   | number of pages                | 10 000 |
//! | `u`   | number of users                | 1 000 |
//! | `m`   | number of monitored users      | 100 (10 % of `u`) |
//! | `v_u` | total user visits per day      | 1 000 (1 per user per day) |
//! | `v`   | monitored-user visits per day  | `v_u · m / u` = 100 |
//! | `l`   | expected page lifetime         | 1.5 years |
//!
//! [`CommunityConfig`] validates these constraints and exposes the derived
//! quantities (`v`, the Poisson retirement rate `λ = 1/l`).

use crate::error::{ModelError, ModelResult};
use crate::time::years_to_days;

/// Configuration of one Web community.
///
/// Construct with [`CommunityConfig::builder`] or use
/// [`CommunityConfig::paper_default`] for the paper's default scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityConfig {
    /// Number of pages in the community (`n = |P|`).
    pages: usize,
    /// Number of users in the community (`u = |U|`).
    users: usize,
    /// Number of monitored users (`m = |U_m| ≤ u`).
    monitored_users: usize,
    /// Total number of user visits per day (`v_u`).
    total_visits_per_day: f64,
    /// Expected page lifetime in days (`l`).
    expected_lifetime_days: f64,
}

impl CommunityConfig {
    /// The paper's default Web community (Section 6.1): `n = 10 000`,
    /// `u = 1 000`, `m = 100`, `v_u = 1 000` visits/day, `l = 1.5` years.
    pub fn paper_default() -> Self {
        CommunityConfig {
            pages: 10_000,
            users: 1_000,
            monitored_users: 100,
            total_visits_per_day: 1_000.0,
            expected_lifetime_days: years_to_days(1.5),
        }
    }

    /// Start building a configuration from the paper defaults.
    pub fn builder() -> CommunityConfigBuilder {
        CommunityConfigBuilder::default()
    }

    /// Number of pages `n`.
    #[inline]
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Number of users `u`.
    #[inline]
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of monitored users `m`.
    #[inline]
    pub fn monitored_users(&self) -> usize {
        self.monitored_users
    }

    /// Total user visits per day `v_u`.
    #[inline]
    pub fn total_visits_per_day(&self) -> f64 {
        self.total_visits_per_day
    }

    /// Monitored-user visits per day `v = v_u · m / u`.
    #[inline]
    pub fn monitored_visits_per_day(&self) -> f64 {
        self.total_visits_per_day * self.monitored_users as f64 / self.users as f64
    }

    /// Expected page lifetime `l`, in days.
    #[inline]
    pub fn expected_lifetime_days(&self) -> f64 {
        self.expected_lifetime_days
    }

    /// Poisson page-retirement rate `λ = 1 / l` (per day).
    #[inline]
    pub fn retirement_rate(&self) -> f64 {
        1.0 / self.expected_lifetime_days
    }

    /// Validate the internal consistency of the configuration.
    pub fn validate(&self) -> ModelResult<()> {
        if self.pages == 0 {
            return Err(ModelError::ZeroCount { what: "pages" });
        }
        if self.users == 0 {
            return Err(ModelError::ZeroCount { what: "users" });
        }
        if self.monitored_users == 0 {
            return Err(ModelError::ZeroCount {
                what: "monitored users",
            });
        }
        if self.monitored_users > self.users {
            return Err(ModelError::InvalidCommunity {
                reason: format!(
                    "monitored users ({}) exceed users ({})",
                    self.monitored_users, self.users
                ),
            });
        }
        if !self.total_visits_per_day.is_finite() || self.total_visits_per_day <= 0.0 {
            return Err(ModelError::NonPositive {
                what: "total visits per day",
                value: self.total_visits_per_day,
            });
        }
        if !self.expected_lifetime_days.is_finite() || self.expected_lifetime_days <= 0.0 {
            return Err(ModelError::NonPositive {
                what: "expected page lifetime",
                value: self.expected_lifetime_days,
            });
        }
        Ok(())
    }
}

impl Default for CommunityConfig {
    fn default() -> Self {
        CommunityConfig::paper_default()
    }
}

/// Builder for [`CommunityConfig`]; every field defaults to the paper's
/// default scenario, so experiments can vary one characteristic at a time
/// exactly as Section 7 does.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommunityConfigBuilder {
    config: CommunityConfig,
}

impl CommunityConfigBuilder {
    /// Set the number of pages `n`.
    pub fn pages(mut self, n: usize) -> Self {
        self.config.pages = n;
        self
    }

    /// Set the number of users `u`.
    pub fn users(mut self, u: usize) -> Self {
        self.config.users = u;
        self
    }

    /// Set the number of monitored users `m`.
    pub fn monitored_users(mut self, m: usize) -> Self {
        self.config.monitored_users = m;
        self
    }

    /// Set the total user visits per day `v_u`.
    pub fn total_visits_per_day(mut self, vu: f64) -> Self {
        self.config.total_visits_per_day = vu;
        self
    }

    /// Set the expected page lifetime in days.
    pub fn expected_lifetime_days(mut self, days: f64) -> Self {
        self.config.expected_lifetime_days = days;
        self
    }

    /// Set the expected page lifetime in years (1 year = 365 days).
    pub fn expected_lifetime_years(mut self, years: f64) -> Self {
        self.config.expected_lifetime_days = years_to_days(years);
        self
    }

    /// Scale the community to `n` pages keeping the paper's proportions:
    /// `u/n = 10 %`, `m/u = 10 %`, one visit per user per day. This is the
    /// sweep used in Figure 7(a).
    pub fn scaled_to_pages(mut self, n: usize) -> Self {
        let users = (n as f64 * 0.1).round().max(1.0) as usize;
        let monitored = (users as f64 * 0.1).round().max(1.0) as usize;
        self.config.pages = n;
        self.config.users = users;
        self.config.monitored_users = monitored.min(users);
        self.config.total_visits_per_day = users as f64;
        self
    }

    /// Finish building, validating the configuration.
    pub fn build(self) -> ModelResult<CommunityConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_6_1() {
        let c = CommunityConfig::paper_default();
        assert_eq!(c.pages(), 10_000);
        assert_eq!(c.users(), 1_000);
        assert_eq!(c.monitored_users(), 100);
        assert_eq!(c.total_visits_per_day(), 1_000.0);
        assert!((c.monitored_visits_per_day() - 100.0).abs() < 1e-9);
        assert!((c.expected_lifetime_days() - 547.5).abs() < 1e-9);
        assert!((c.retirement_rate() - 1.0 / 547.5).abs() < 1e-12);
        assert!(c.validate().is_ok());
        assert_eq!(CommunityConfig::default(), c);
    }

    #[test]
    fn builder_varies_one_dimension() {
        let c = CommunityConfig::builder()
            .expected_lifetime_years(3.0)
            .build()
            .unwrap();
        assert_eq!(c.pages(), 10_000);
        assert!((c.expected_lifetime_days() - 1095.0).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_inconsistent_config() {
        assert!(CommunityConfig::builder()
            .monitored_users(2_000)
            .build()
            .is_err());
        assert!(CommunityConfig::builder().pages(0).build().is_err());
        assert!(CommunityConfig::builder().users(0).build().is_err());
        assert!(CommunityConfig::builder()
            .monitored_users(0)
            .build()
            .is_err());
        assert!(CommunityConfig::builder()
            .total_visits_per_day(0.0)
            .build()
            .is_err());
        assert!(CommunityConfig::builder()
            .total_visits_per_day(-5.0)
            .build()
            .is_err());
        assert!(CommunityConfig::builder()
            .expected_lifetime_days(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn scaled_to_pages_keeps_paper_proportions() {
        let c = CommunityConfig::builder()
            .scaled_to_pages(100_000)
            .build()
            .unwrap();
        assert_eq!(c.pages(), 100_000);
        assert_eq!(c.users(), 10_000);
        assert_eq!(c.monitored_users(), 1_000);
        assert_eq!(c.total_visits_per_day(), 10_000.0);
        assert!((c.monitored_visits_per_day() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_to_tiny_community_still_valid() {
        let c = CommunityConfig::builder()
            .scaled_to_pages(10)
            .build()
            .unwrap();
        assert_eq!(c.pages(), 10);
        assert!(c.monitored_users() >= 1);
        assert!(c.monitored_users() <= c.users());
    }

    #[test]
    fn monitored_visits_scale_with_monitored_fraction() {
        let c = CommunityConfig::builder()
            .users(2_000)
            .monitored_users(100)
            .build()
            .unwrap();
        // m/u = 5%, so v = 0.05 * 1000 = 50.
        assert!((c.monitored_visits_per_day() - 50.0).abs() < 1e-9);
    }
}
