//! Tunable constants for the Server Overclocking Agent.
//!
//! Defaults follow the concrete values the paper gives in §IV-B/§IV-D: a
//! 20 W exploration step, ~30 s exploration window, 100 MHz frequency steps,
//! a power buffer below the limit for the feedback loop's hold band, a
//! 15-minute exhaustion-warning window, and a weekly lifetime epoch with a
//! 10 % overclocking budget.

use simcore::time::SimDuration;
use soc_power::units::{MegaHertz, Watts};

/// Configuration of a [`crate::soa::ServerOverclockAgent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoaConfig {
    /// Fraction of lifetime that may be spent overclocked (default 10 %).
    pub overclock_time_fraction: f64,
    /// Lifetime-budget epoch (default one week).
    pub epoch: SimDuration,
    /// Exploration budget increment (default 20 W).
    pub explore_step: Watts,
    /// How long to hold an exploration step before concluding it is safe
    /// (default 30 s).
    pub explore_wait: SimDuration,
    /// How long to exploit a discovered budget before re-exploring
    /// (default 5 minutes).
    pub exploit_time: SimDuration,
    /// Initial backoff after a warning (default 60 s, doubled per warning).
    pub backoff_initial: SimDuration,
    /// Cap on the exponential backoff (default 30 minutes).
    pub backoff_max: SimDuration,
    /// Frequency control step (default 100 MHz).
    pub freq_step: MegaHertz,
    /// Hold band below the power budget: the feedback loop holds frequency
    /// when `budget - buffer <= draw < budget` (default 15 W).
    pub power_buffer: Watts,
    /// Exhaustion warning window: notify the WI agent when power or budget
    /// exhaustion is predicted within this horizon (default 15 minutes).
    pub exhaustion_window: SimDuration,
    /// Cap on cumulative exploration above the assigned budget
    /// (default 200 W).
    pub explore_cap: Watts,
    /// How stale the gOA-assigned budget may grow before the agent enters
    /// degraded mode (freeze exploration, enforce the last assignment).
    /// Only applies when budgets are stamped via
    /// `ServerOverclockAgent::set_power_budget_at`. Default 6 minutes —
    /// three missed 2-minute refresh cycles.
    pub budget_staleness_limit: SimDuration,
    /// Per-part admission risk budget in `[0, 1]`: with binned silicon
    /// (`ServerOverclockAgent::set_silicon`) a request is admitted only
    /// while the part's risk score × its normalized overclock fraction
    /// stays at or below this budget; otherwise it is down-binned or
    /// denied. Default 1.0 — admit everything the part's bin certifies
    /// (and a no-op for uniform silicon, whose risk is zero).
    pub risk_budget: f64,
}

impl SoaConfig {
    /// The paper-default configuration.
    pub fn reference() -> SoaConfig {
        SoaConfig {
            overclock_time_fraction: 0.10,
            epoch: SimDuration::WEEK,
            explore_step: Watts::new(20.0),
            explore_wait: SimDuration::from_secs(30),
            exploit_time: SimDuration::from_minutes(5),
            backoff_initial: SimDuration::from_secs(60),
            backoff_max: SimDuration::from_minutes(30),
            freq_step: MegaHertz::new(100),
            power_buffer: Watts::new(15.0),
            exhaustion_window: SimDuration::from_minutes(15),
            explore_cap: Watts::new(200.0),
            budget_staleness_limit: SimDuration::from_minutes(6),
            risk_budget: 1.0,
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics if any field is out of range.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.overclock_time_fraction),
            "overclock fraction must be in [0, 1]"
        );
        assert!(!self.epoch.is_zero(), "epoch must be non-zero");
        assert!(
            self.explore_step.get() > 0.0,
            "explore step must be positive"
        );
        assert!(
            !self.explore_wait.is_zero(),
            "explore wait must be non-zero"
        );
        assert!(
            !self.exploit_time.is_zero(),
            "exploit time must be non-zero"
        );
        assert!(!self.backoff_initial.is_zero(), "backoff must be non-zero");
        assert!(
            self.backoff_max >= self.backoff_initial,
            "backoff max below initial"
        );
        assert!(self.freq_step.get() > 0, "frequency step must be positive");
        assert!(
            self.power_buffer.get() >= 0.0,
            "power buffer must be non-negative"
        );
        assert!(
            !self.exhaustion_window.is_zero(),
            "exhaustion window must be non-zero"
        );
        assert!(
            self.explore_cap.get() >= 0.0,
            "explore cap must be non-negative"
        );
        assert!(
            !self.budget_staleness_limit.is_zero(),
            "budget staleness limit must be non-zero"
        );
        assert!(
            self.risk_budget.is_finite() && (0.0..=1.0).contains(&self.risk_budget),
            "risk budget must be in [0, 1]"
        );
    }
}

impl Default for SoaConfig {
    fn default() -> Self {
        SoaConfig::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_paper_constants() {
        let c = SoaConfig::reference();
        assert_eq!(c.explore_step, Watts::new(20.0));
        assert_eq!(c.explore_wait, SimDuration::from_secs(30));
        assert_eq!(c.freq_step, MegaHertz::new(100));
        assert_eq!(c.exhaustion_window, SimDuration::from_minutes(15));
        assert_eq!(c.epoch, SimDuration::WEEK);
        assert_eq!(c.budget_staleness_limit, SimDuration::from_minutes(6));
        assert!((c.overclock_time_fraction - 0.10).abs() < 1e-12);
        assert!((c.risk_budget - 1.0).abs() < 1e-12);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "risk budget must be in [0, 1]")]
    fn validate_rejects_bad_risk_budget() {
        let mut c = SoaConfig::reference();
        c.risk_budget = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "explore step must be positive")]
    fn validate_rejects_zero_step() {
        let mut c = SoaConfig::reference();
        c.explore_step = Watts::ZERO;
        c.validate();
    }
}
