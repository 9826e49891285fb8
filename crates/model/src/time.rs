//! Discrete time in the popularity-evolution model.
//!
//! The paper divides time into discrete intervals ("at the end of each
//! interval the search engine measures the popularity of each Web page",
//! Section 3.1). The default unit interval used throughout its evaluation is
//! **one day**: the default community receives `v_u = 1000` visits *per day*
//! and the expected page lifetime is quoted in years (1.5 years).
//!
//! This module provides a [`Day`] time-point type, a [`SimClock`] that the
//! simulator advances, and the years-to-days conversion every lifetime uses
//! (1 year = 365 days).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of days per year used for every lifetime conversion in the
/// workspace (the paper quotes lifetimes in years but simulates in days).
pub const DAYS_PER_YEAR: f64 = 365.0;

/// A discrete time point, measured in days since the start of a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Day(pub u64);

impl Day {
    /// The first day of a simulation.
    pub const ZERO: Day = Day(0);

    /// Construct a day from its index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        Day(index)
    }

    /// The raw day index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The day index as `f64`, convenient for analytic formulas.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Days elapsed since `earlier` (saturating at zero if `earlier` is in
    /// the future).
    #[inline]
    pub fn since(self, earlier: Day) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The next day.
    #[inline]
    pub fn next(self) -> Day {
        Day(self.0 + 1)
    }
}

impl fmt::Display for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "day {}", self.0)
    }
}

impl Add<u64> for Day {
    type Output = Day;
    fn add(self, rhs: u64) -> Day {
        Day(self.0 + rhs)
    }
}

impl AddAssign<u64> for Day {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Day> for Day {
    type Output = u64;
    fn sub(self, rhs: Day) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

/// Convert a duration expressed in years to days (e.g. the paper's default
/// expected lifetime of 1.5 years becomes 547.5 days).
#[inline]
pub fn years_to_days(years: f64) -> f64 {
    years * DAYS_PER_YEAR
}

/// The simulation clock: a thin wrapper over [`Day`] that only moves
/// forwards. Keeping it as a separate type (rather than a bare counter in
/// the simulator) makes the "time only advances" invariant explicit.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Day,
}

impl SimClock {
    /// A clock positioned at day 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock positioned at an arbitrary day (checkpoint restore).
    pub fn starting_at(day: Day) -> Self {
        SimClock { now: day }
    }

    /// The current day.
    #[inline]
    pub fn now(&self) -> Day {
        self.now
    }

    /// Advance the clock by one day and return the *new* current day.
    pub fn tick(&mut self) -> Day {
        self.now = self.now.next();
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_arithmetic() {
        let d = Day::new(10);
        assert_eq!(d + 5, Day::new(15));
        assert_eq!(Day::new(15) - d, 5);
        assert_eq!(d.since(Day::new(3)), 7);
        assert_eq!(Day::new(3).since(d), 0, "since saturates at zero");
        assert_eq!(d.next(), Day::new(11));
    }

    #[test]
    fn day_display_and_accessors() {
        let d = Day::new(4);
        assert_eq!(d.to_string(), "day 4");
        assert_eq!(d.index(), 4);
        assert_eq!(d.as_f64(), 4.0);
        assert_eq!(Day::ZERO, Day::new(0));
    }

    #[test]
    fn year_day_conversions_are_inverse() {
        let years = 1.5;
        let days = years_to_days(years);
        assert!((days - 547.5).abs() < 1e-12);
        // Dividing by `DAYS_PER_YEAR` undoes the conversion.
        assert!((days / DAYS_PER_YEAR - years).abs() < 1e-12);
        assert_eq!(years_to_days(1.0), DAYS_PER_YEAR);
    }

    #[test]
    fn clock_only_moves_forward() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), Day::ZERO);
        assert_eq!(clock.tick(), Day::new(1));
        assert_eq!(clock.tick(), Day::new(2));
        assert_eq!(clock.now(), Day::new(2));
    }

    #[test]
    fn clock_can_resume_from_checkpoint() {
        let mut clock = SimClock::starting_at(Day::new(100));
        assert_eq!(clock.now(), Day::new(100));
        clock.tick();
        assert_eq!(clock.now(), Day::new(101));
    }

    #[test]
    fn mut_add_assign() {
        let mut d = Day::new(1);
        d += 2;
        assert_eq!(d, Day::new(3));
    }
}
