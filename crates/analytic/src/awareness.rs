//! Steady-state awareness distribution (Theorem 1) and expected awareness
//! trajectories.
//!
//! Theorem 1 of the paper gives, for pages of quality `q`, the steady-state
//! fraction of pages whose awareness is `a_i = i/m`:
//!
//! ```text
//! f(a_i | q) = λ / ((λ + F(0)) (1 − a_i)) · Π_{j=1..i} F(a_{j−1} q) / (λ + F(a_j q))
//! ```
//!
//! The formula follows from the per-step balance equations (Appendix B);
//! the boundary level `a_m = 1` is absorbing (no further awareness growth),
//! so its mass follows from the flux balance
//! `f(a_m) · λ = f(a_{m−1}) · F(q · a_{m−1}) · (1 − a_{m−1})` rather than
//! from the closed form (which has a removable singularity there). The
//! implementation evaluates the recurrence of Equation 9 directly and
//! normalises, which is numerically equivalent and avoids under/overflow in
//! the long products.

/// Steady-state awareness distribution for pages of quality `quality`.
///
/// * `visit_fn` — the popularity → monitored-visit-rate function `F`;
/// * `quality` — the page quality `q`;
/// * `monitored_users` — `m`; the returned vector has `m + 1` entries, the
///   probability of awareness `i/m` for `i = 0..=m`;
/// * `retirement_rate` — the Poisson page-retirement rate `λ` per day.
///
/// The result is normalised to sum to 1.
pub fn awareness_distribution<F>(
    visit_fn: F,
    quality: f64,
    monitored_users: usize,
    retirement_rate: f64,
) -> Vec<f64>
where
    F: Fn(f64) -> f64,
{
    assert!(monitored_users >= 1, "need at least one monitored user");
    assert!(retirement_rate > 0.0, "retirement rate must be positive");
    assert!((0.0..=1.0).contains(&quality), "quality must be in [0, 1]");

    let m = monitored_users;
    let lambda = retirement_rate;
    let mut f = vec![0.0_f64; m + 1];
    f[0] = 1.0;

    for i in 1..=m {
        let a_prev = (i - 1) as f64 / m as f64;
        let a_cur = i as f64 / m as f64;
        let inflow = visit_fn(quality * a_prev).max(0.0) * (1.0 - a_prev);
        let ratio = if i < m {
            let outflow = (lambda + visit_fn(quality * a_cur).max(0.0)) * (1.0 - a_cur);
            inflow / outflow
        } else {
            // Absorbing top level: only retirement removes mass.
            inflow / lambda
        };
        f[i] = f[i - 1] * ratio;
        if !f[i].is_finite() {
            // Extremely peaked distribution: everything is at full
            // awareness. Renormalise on the spot.
            f.iter_mut().take(i).for_each(|x| *x = 0.0);
            f[i] = 1.0;
        }
    }

    let total: f64 = f.iter().sum();
    if total > 0.0 {
        f.iter_mut().for_each(|x| *x /= total);
    }
    f
}

/// Direct evaluation of the closed-form Equation 3 for `i < m`
/// (unnormalised, relative to `f(a_0)`). Kept public as an oracle: it
/// checks the solver's recurrence against the paper's closed form.
pub fn theorem1_unnormalized<F>(
    visit_fn: F,
    quality: f64,
    monitored_users: usize,
    retirement_rate: f64,
    i: usize,
) -> f64
where
    F: Fn(f64) -> f64,
{
    let m = monitored_users;
    assert!(i < m, "closed form is valid for i < m");
    let lambda = retirement_rate;
    let a_i = i as f64 / m as f64;
    let mut value = lambda / ((lambda + visit_fn(0.0)) * (1.0 - a_i));
    for j in 1..=i {
        let a_jm1 = (j - 1) as f64 / m as f64;
        let a_j = j as f64 / m as f64;
        value *= visit_fn(quality * a_jm1) / (lambda + visit_fn(quality * a_j));
    }
    value
}

/// Expected-awareness trajectory of a single page of quality `quality`
/// created at day 0 with zero awareness:
///
/// ```text
/// da/dt = F(q · a) · (1 − a) / m
/// ```
///
/// integrated with an explicit Euler scheme at `steps_per_day` sub-steps.
/// Returns the awareness at the end of each day, `day 0 ..= days`
/// (`days + 1` entries). The popularity trajectory is simply
/// `q · awareness`.
pub fn awareness_trajectory<F>(
    visit_fn: F,
    quality: f64,
    monitored_users: usize,
    days: usize,
    steps_per_day: usize,
) -> Vec<f64>
where
    F: Fn(f64) -> f64,
{
    assert!(monitored_users >= 1, "need at least one monitored user");
    assert!(
        steps_per_day >= 1,
        "need at least one integration step per day"
    );
    let m = monitored_users as f64;
    let dt = 1.0 / steps_per_day as f64;
    let mut a: f64 = 0.0;
    let mut out = Vec::with_capacity(days + 1);
    out.push(0.0);
    for _ in 0..days {
        for _ in 0..steps_per_day {
            let rate = visit_fn(quality * a).max(0.0) * (1.0 - a) / m;
            a = (a + rate * dt).min(1.0);
        }
        out.push(a);
    }
    out
}

/// Expected awareness trajectory computed on the *discrete* awareness
/// ladder `a_i = i/m` (master equation of the birth chain), rather than the
/// continuous mean-field ODE of [`awareness_trajectory`].
///
/// The distinction matters for new pages under entrenchment: in the discrete
/// chain a page sits at awareness exactly 0 until its first monitored visit
/// (an exponential wait with rate `F(0)`), whereas the continuous ODE lets
/// awareness creep up immediately and then ride the much larger visit rates
/// of positive popularity. The master equation is what the paper's Figure
/// 4(a) curves describe.
///
/// Returns the expected awareness at the end of each day, `day 0 ..= days`.
/// Page death is not modelled (the figure tracks a page over its lifetime).
pub fn awareness_chain_trajectory<F>(
    visit_fn: F,
    quality: f64,
    monitored_users: usize,
    days: usize,
) -> Vec<f64>
where
    F: Fn(f64) -> f64,
{
    assert!(monitored_users >= 1, "need at least one monitored user");
    let m = monitored_users;
    // Transition rate out of level i (per day): one more monitored user
    // discovers the page.
    let rates: Vec<f64> = (0..m)
        .map(|i| {
            let a_i = i as f64 / m as f64;
            (visit_fn(quality * a_i).max(0.0) * (1.0 - a_i)).max(0.0)
        })
        .collect();
    let max_rate = rates.iter().cloned().fold(0.0, f64::max);
    let substeps = (max_rate.ceil() as usize + 1).clamp(1, 1024);
    let dt = 1.0 / substeps as f64;

    let mut p = vec![0.0; m + 1];
    p[0] = 1.0;
    let mut out = Vec::with_capacity(days + 1);
    let expected = |p: &[f64]| -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &q)| q * i as f64 / m as f64)
            .sum()
    };
    out.push(expected(&p));
    for _ in 0..days {
        for _ in 0..substeps {
            // Forward Euler on the master equation, processed top-down so a
            // unit of probability moves at most one level per substep.
            for i in (0..m).rev() {
                let flow = (rates[i] * p[i] * dt).min(p[i]);
                p[i] -= flow;
                p[i + 1] += flow;
            }
        }
        out.push(expected(&p));
    }
    out
}

/// Expected time (days) for a page of quality `quality` starting at zero
/// awareness to first reach awareness ≥ `threshold`, computed as the sum of
/// expected dwell times on the discrete awareness ladder:
///
/// ```text
/// E[TBP] = Σ_{i : a_i < threshold} 1 / (F(q a_i) · (1 − a_i))
/// ```
///
/// Returns `f64::INFINITY` if some intermediate level has zero visit rate.
pub fn expected_hitting_time<F>(
    visit_fn: F,
    quality: f64,
    monitored_users: usize,
    threshold: f64,
) -> f64
where
    F: Fn(f64) -> f64,
{
    assert!(monitored_users >= 1, "need at least one monitored user");
    let m = monitored_users;
    let target = (threshold * m as f64).ceil() as usize;
    let mut total = 0.0;
    for i in 0..target.min(m) {
        let a_i = i as f64 / m as f64;
        let rate = visit_fn(quality * a_i).max(0.0) * (1.0 - a_i);
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        total += 1.0 / rate;
    }
    total
}

/// Time (in days, possibly fractional via linear interpolation) for the
/// expected awareness to reach `threshold`, or `None` if it does not within
/// `max_days`.
pub fn time_to_awareness<F>(
    visit_fn: F,
    quality: f64,
    monitored_users: usize,
    threshold: f64,
    max_days: usize,
) -> Option<f64>
where
    F: Fn(f64) -> f64,
{
    let trajectory = awareness_trajectory(visit_fn, quality, monitored_users, max_days, 4);
    for (day, window) in trajectory.windows(2).enumerate() {
        let (before, after) = (window[0], window[1]);
        if after >= threshold {
            if after == before {
                return Some(day as f64 + 1.0);
            }
            let fraction = ((threshold - before) / (after - before)).clamp(0.0, 1.0);
            return Some(day as f64 + fraction);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAMBDA: f64 = 1.0 / 547.5;

    #[test]
    fn distribution_sums_to_one() {
        let f = awareness_distribution(|_| 0.01, 0.4, 100, LAMBDA);
        assert_eq!(f.len(), 101);
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(f.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn tiny_visit_rate_traps_pages_at_zero_awareness() {
        // If pages essentially never get visited, almost all mass sits at
        // awareness 0 (the entrenchment regime of Figure 3, left).
        let f = awareness_distribution(|_| 1e-6, 0.4, 100, LAMBDA);
        assert!(f[0] > 0.99, "f(0) = {}", f[0]);
    }

    #[test]
    fn large_visit_rate_pushes_pages_to_full_awareness() {
        // If pages are visited heavily, almost all mass sits at awareness 1
        // (the randomized-promotion regime of Figure 3, right).
        let f = awareness_distribution(|x| 2.0 + 10.0 * x, 0.4, 100, LAMBDA);
        assert!(f[100] > 0.75, "f(1) = {}", f[100]);
        assert!(f[0] < 0.01);
    }

    #[test]
    fn middle_awareness_levels_hold_little_mass() {
        // The paper observes the rise to high awareness is nearly a step
        // function: mass concentrates at the two ends.
        let f = awareness_distribution(|x| 0.002 + 10.0 * x, 0.4, 100, LAMBDA);
        let middle: f64 = f[20..80].iter().sum();
        let ends = f[0] + f[100];
        assert!(
            middle < ends,
            "middle mass {middle} should be below end mass {ends}"
        );
    }

    #[test]
    fn recurrence_matches_closed_form_for_small_i() {
        let visit = |x: f64| 0.02 + 0.3 * x;
        let m = 50;
        let f = awareness_distribution(visit, 0.3, m, LAMBDA);
        // The closed form is un-normalised; compare ratios f(a_i)/f(a_0).
        for i in 1..10 {
            let closed_i = theorem1_unnormalized(visit, 0.3, m, LAMBDA, i);
            let closed_0 = theorem1_unnormalized(visit, 0.3, m, LAMBDA, 0);
            let expected_ratio = closed_i / closed_0;
            let actual_ratio = f[i] / f[0];
            assert!(
                (expected_ratio - actual_ratio).abs() / expected_ratio < 1e-9,
                "i={i}: closed {expected_ratio} vs recurrence {actual_ratio}"
            );
        }
    }

    #[test]
    fn higher_quality_pages_reach_higher_awareness() {
        let visit = |x: f64| 0.001 + 2.0 * x;
        let low = awareness_distribution(visit, 0.05, 100, LAMBDA);
        let high = awareness_distribution(visit, 0.4, 100, LAMBDA);
        let mean = |f: &[f64]| -> f64 {
            f.iter()
                .enumerate()
                .map(|(i, &p)| p * i as f64 / 100.0)
                .sum()
        };
        assert!(
            mean(&high) > mean(&low),
            "high quality mean {} should exceed low quality mean {}",
            mean(&high),
            mean(&low)
        );
    }

    #[test]
    fn zero_quality_page_never_gains_awareness_weighted_popularity() {
        // quality 0 means F is evaluated at popularity 0 everywhere; the
        // distribution still sums to 1 and is well defined.
        let f = awareness_distribution(|_| 0.01, 0.0, 20, LAMBDA);
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_is_monotone_and_bounded() {
        let t = awareness_trajectory(|x| 0.1 + x, 0.4, 100, 2_000, 2);
        assert_eq!(t.len(), 2_001);
        assert_eq!(t[0], 0.0);
        for w in t.windows(2) {
            assert!(w[1] >= w[0]);
            assert!(w[1] <= 1.0);
        }
    }

    #[test]
    fn faster_visit_rate_means_faster_awareness() {
        let slow = awareness_trajectory(|_| 0.05, 0.4, 100, 1_000, 2);
        let fast = awareness_trajectory(|_| 1.0, 0.4, 100, 1_000, 2);
        assert!(fast[500] > slow[500]);
    }

    #[test]
    fn time_to_awareness_interpolates() {
        // Constant visit rate v: da/dt = v (1-a)/m  ⇒ a(t) = 1 − exp(−v t / m).
        // Threshold 0.99 ⇒ t = m ln(100) / v.
        let v = 2.0;
        let m = 100;
        let expected = m as f64 * 100.0_f64.ln() / v;
        let t = time_to_awareness(|_| v, 0.4, m, 0.99, 2_000).unwrap();
        assert!(
            (t - expected).abs() / expected < 0.02,
            "t = {t}, expected ≈ {expected}"
        );
    }

    #[test]
    fn time_to_awareness_none_when_never_reached() {
        let t = time_to_awareness(|_| 1e-9, 0.4, 100, 0.99, 500);
        assert!(t.is_none());
    }

    #[test]
    fn chain_trajectory_matches_ode_for_constant_rate() {
        // With a popularity-independent visit rate the mean-field ODE and
        // the master equation have identical expectations.
        let ode = awareness_trajectory(|_| 0.5, 0.4, 50, 400, 4);
        let chain = awareness_chain_trajectory(|_| 0.5, 0.4, 50, 400);
        for (day, (a, b)) in ode.iter().zip(&chain).enumerate() {
            assert!((a - b).abs() < 0.02, "day {day}: ode {a} vs chain {b}");
        }
    }

    #[test]
    fn chain_trajectory_is_monotone_and_bounded() {
        let t = awareness_chain_trajectory(|x| 0.01 + 5.0 * x, 0.4, 100, 500);
        assert_eq!(t.len(), 501);
        assert_eq!(t[0], 0.0);
        for w in t.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
            assert!(w[1] <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn chain_waits_for_the_first_visit_unlike_the_ode() {
        // Entrenchment-style visit function: essentially no visits at zero
        // popularity, plenty once the page has any popularity. The chain
        // stays near zero awareness; the ODE races ahead.
        let visit = |x: f64| if x <= 0.0 { 1e-4 } else { 1.0 + 10.0 * x };
        let chain = awareness_chain_trajectory(visit, 0.4, 100, 200);
        let ode = awareness_trajectory(visit, 0.4, 100, 200, 4);
        assert!(
            chain[200] < 0.1,
            "chain should still be waiting: {}",
            chain[200]
        );
        assert!(ode[200] > 0.5, "ode races ahead: {}", ode[200]);
    }

    #[test]
    fn hitting_time_constant_rate_closed_form() {
        // Constant rate v: E[T] = Σ_{i<target} 1/(v (1 - i/m)) = (m/v) Σ 1/(m-i) = (m/v) H(m - target + 1 .. m).
        let v = 2.0;
        let m = 100usize;
        let threshold = 0.99;
        let target = (threshold * m as f64).ceil() as usize;
        let expected: f64 = (0..target)
            .map(|i| 1.0 / (v * (1.0 - i as f64 / m as f64)))
            .sum();
        let t = expected_hitting_time(|_| v, 0.4, m, threshold);
        assert!((t - expected).abs() < 1e-9);
    }

    #[test]
    fn hitting_time_reflects_zero_popularity_bottleneck() {
        let entrenched =
            expected_hitting_time(|x| if x <= 0.0 { 1e-4 } else { 1.0 }, 0.4, 100, 0.99);
        let promoted = expected_hitting_time(|x| if x <= 0.0 { 0.5 } else { 1.0 }, 0.4, 100, 0.99);
        assert!(entrenched > 10_000.0);
        assert!(promoted < 600.0);
        assert!(entrenched > promoted);
    }

    #[test]
    fn hitting_time_infinite_when_rate_is_zero() {
        let t = expected_hitting_time(|_| 0.0, 0.4, 10, 0.5);
        assert!(t.is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one monitored user")]
    fn zero_monitored_users_panics() {
        awareness_distribution(|_| 0.1, 0.4, 0, LAMBDA);
    }

    #[test]
    #[should_panic(expected = "retirement rate")]
    fn zero_retirement_rate_panics() {
        awareness_distribution(|_| 0.1, 0.4, 10, 0.0);
    }
}
