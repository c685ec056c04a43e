//! Outcome containers and Table I aggregation for the large-scale sim.

use smartoclock::policy::PolicyKind;
use soc_power::units::Watts;

/// Raw per-rack counters from one policy run.
#[derive(Debug, Clone, PartialEq)]
pub struct RackOutcome {
    /// Rack index.
    pub rack: usize,
    /// Mean baseline rack power utilization (for High/Medium/Low grouping).
    pub mean_utilization: f64,
    /// Evaluated steps.
    pub steps: u64,
    /// Steps during which the rack was at or over its limit.
    pub capping_steps: u64,
    /// Distinct capping events (consecutive over-limit steps count once).
    pub capping_events: u64,
    /// Overclocking requests (one per server per step with demand).
    pub requests: u64,
    /// Requests granted at admission.
    pub granted: u64,
    /// Sum of frequency penalties over capping steps (see
    /// [`record_penalty`](Self::record_penalty)).
    pub penalty_sum: f64,
    /// Number of penalty observations (capping steps).
    pub penalty_samples: u64,
    /// Sum of effective speedups over demand-server-steps.
    pub perf_sum: f64,
    /// Number of demand-server-steps.
    pub perf_samples: u64,
    /// Steps on which the post-enforcement rack draw still exceeded the
    /// contracted limit — the paper's safety invariant violated. Stays zero
    /// under SmartOClock even with fault injection; only a fail-open
    /// centralized baseline accrues these.
    pub violation_steps: u64,
    /// Steps spent running on stale budgets (gOA unreachable).
    pub stale_budget_steps: u64,
    /// Injected sOA restarts.
    pub restarts: u64,
    /// Highest post-enforcement rack draw observed.
    pub max_draw: Watts,
    /// The contracted rack power limit; zero until the sim sets it.
    pub limit: Watts,
    /// Servers whose binned silicon was denied all overclocking by the
    /// configured risk budget (counted once per rack run; zero for the
    /// uniform fleet).
    pub bin_denied: u64,
    /// Servers risk-admitted below the plan's maximum overclock
    /// (down-binned; counted once per rack run).
    pub down_binned: u64,
    /// Accumulated per-part overclock ageing across the rack's servers, in
    /// days of lifetime (zero for the uniform fleet, where wear accounting
    /// is not attributed per part).
    pub wear_days: f64,
}

impl RackOutcome {
    /// Fresh counters for a rack.
    pub fn new(rack: usize, mean_utilization: f64) -> RackOutcome {
        RackOutcome {
            rack,
            mean_utilization,
            steps: 0,
            capping_steps: 0,
            capping_events: 0,
            requests: 0,
            granted: 0,
            penalty_sum: 0.0,
            penalty_samples: 0,
            perf_sum: 0.0,
            perf_samples: 0,
            violation_steps: 0,
            stale_budget_steps: 0,
            restarts: 0,
            max_draw: Watts::ZERO,
            limit: Watts::ZERO,
            bin_denied: 0,
            down_binned: 0,
            wear_days: 0.0,
        }
    }

    /// Record the frequency penalty non-overclocked servers suffered during
    /// one capping step.
    pub fn record_penalty(&mut self, frequency_penalty: f64) {
        self.penalty_sum += frequency_penalty;
        self.penalty_samples += 1;
    }

    /// Request success rate (1.0 when no requests).
    pub fn success_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.granted as f64 / self.requests as f64
        }
    }
}

/// Aggregated Table I row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyMetrics {
    /// The policy.
    pub policy: PolicyKind,
    /// Total capping events across racks (consecutive over-limit steps
    /// merged).
    pub capping_events: u64,
    /// Total capped steps across racks (the paper-comparable "number of
    /// power caps": every enforcement interval at or over the limit).
    pub capping_steps: u64,
    /// Total requests.
    pub requests: u64,
    /// Total granted.
    pub granted: u64,
    /// Overall success rate.
    pub success_rate: f64,
    /// Mean frequency penalty during capping events (the paper's "Penalty on
    /// Power Cap").
    pub capping_penalty: f64,
    /// Mean effective speedup over turbo for demand servers (the paper's
    /// "Norm. Performance"; max turbo = 1.0, full overclock ≈ 1.21).
    pub normalized_performance: f64,
    /// Total steps with the post-enforcement draw above the rack limit
    /// (power-budget violations; the chaos suite pins this at zero for
    /// SmartOClock).
    pub violation_steps: u64,
    /// Total steps spent on stale budgets (gOA unreachable).
    pub stale_budget_steps: u64,
    /// Total injected sOA restarts.
    pub restarts: u64,
    /// Total servers denied all overclocking by per-part risk binning.
    pub bin_denied: u64,
    /// Total servers risk-admitted below the maximum overclock.
    pub down_binned: u64,
    /// Total per-part overclock ageing across the fleet, in days.
    pub wear_days: f64,
}

impl PolicyMetrics {
    /// Aggregate per-rack outcomes into one row.
    pub fn aggregate(policy: PolicyKind, outcomes: &[RackOutcome]) -> PolicyMetrics {
        let capping_events = outcomes.iter().map(|o| o.capping_events).sum();
        let capping_steps = outcomes.iter().map(|o| o.capping_steps).sum();
        let requests: u64 = outcomes.iter().map(|o| o.requests).sum();
        let granted: u64 = outcomes.iter().map(|o| o.granted).sum();
        let penalty_sum: f64 = outcomes.iter().map(|o| o.penalty_sum).sum();
        let penalty_samples: u64 = outcomes.iter().map(|o| o.penalty_samples).sum();
        let perf_sum: f64 = outcomes.iter().map(|o| o.perf_sum).sum();
        let perf_samples: u64 = outcomes.iter().map(|o| o.perf_samples).sum();
        PolicyMetrics {
            policy,
            capping_events,
            capping_steps,
            requests,
            granted,
            success_rate: if requests == 0 {
                1.0
            } else {
                granted as f64 / requests as f64
            },
            capping_penalty: if penalty_samples == 0 {
                0.0
            } else {
                penalty_sum / penalty_samples as f64
            },
            normalized_performance: if perf_samples == 0 {
                1.0
            } else {
                perf_sum / perf_samples as f64
            },
            violation_steps: outcomes.iter().map(|o| o.violation_steps).sum(),
            stale_budget_steps: outcomes.iter().map(|o| o.stale_budget_steps).sum(),
            restarts: outcomes.iter().map(|o| o.restarts).sum(),
            bin_denied: outcomes.iter().map(|o| o.bin_denied).sum(),
            down_binned: outcomes.iter().map(|o| o.down_binned).sum(),
            wear_days: outcomes.iter().map(|o| o.wear_days).sum(),
        }
    }
}

/// Split racks into High/Medium/Low power groups by mean utilization
/// terciles (Table I's cluster grouping). Returns `(high, medium, low)`
/// rack-index sets based on the provided outcomes.
pub fn power_groups(outcomes: &[RackOutcome]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut order: Vec<(usize, f64)> = outcomes
        .iter()
        .map(|o| (o.rack, o.mean_utilization))
        .collect();
    order.sort_by(|a, b| b.1.total_cmp(&a.1));
    let n = order.len();
    let high: Vec<usize> = order.iter().take(n / 3).map(|&(r, _)| r).collect();
    let medium: Vec<usize> = order
        .iter()
        .skip(n / 3)
        .take(n - 2 * (n / 3))
        .map(|&(r, _)| r)
        .collect();
    let low: Vec<usize> = order.iter().skip(n - n / 3).map(|&(r, _)| r).collect();
    (high, medium, low)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(rack: usize, util: f64, requests: u64, granted: u64, caps: u64) -> RackOutcome {
        let mut o = RackOutcome::new(rack, util);
        o.requests = requests;
        o.granted = granted;
        o.capping_events = caps;
        o.perf_sum = granted as f64 * 1.21 + (requests - granted) as f64;
        o.perf_samples = requests;
        o
    }

    #[test]
    fn success_rate_handles_zero_requests() {
        let o = RackOutcome::new(0, 0.5);
        assert_eq!(o.success_rate(), 1.0);
    }

    #[test]
    fn aggregate_pools_counters() {
        let outcomes = vec![outcome(0, 0.7, 100, 90, 2), outcome(1, 0.5, 50, 25, 1)];
        let m = PolicyMetrics::aggregate(PolicyKind::SmartOClock, &outcomes);
        assert_eq!(m.capping_events, 3);
        assert_eq!(m.requests, 150);
        assert_eq!(m.granted, 115);
        assert!((m.success_rate - 115.0 / 150.0).abs() < 1e-12);
        assert!(m.normalized_performance > 1.0 && m.normalized_performance < 1.21);
    }

    #[test]
    fn aggregate_of_no_outcomes_is_neutral() {
        let m = PolicyMetrics::aggregate(PolicyKind::Central, &[]);
        assert_eq!(m.requests, 0);
        assert_eq!(m.granted, 0);
        assert_eq!(m.capping_events, 0);
        assert_eq!(m.capping_steps, 0);
        assert_eq!(m.success_rate, 1.0);
        assert_eq!(m.capping_penalty, 0.0);
        assert_eq!(m.normalized_performance, 1.0);
    }

    #[test]
    fn aggregate_sums_capping_steps_separately_from_events() {
        let mut a = RackOutcome::new(0, 0.8);
        a.capping_steps = 7;
        a.capping_events = 2; // one long + one short excursion
        let mut b = RackOutcome::new(1, 0.6);
        b.capping_steps = 3;
        b.capping_events = 3;
        let m = PolicyMetrics::aggregate(PolicyKind::NoFeedback, &[a, b]);
        assert_eq!(m.capping_steps, 10);
        assert_eq!(m.capping_events, 5);
    }

    #[test]
    fn success_rate_pools_requests_not_rates() {
        // 90/100 and 0/50 pooled is 60%, not the 45% a mean-of-rates gives.
        let outcomes = vec![outcome(0, 0.7, 100, 90, 0), outcome(1, 0.5, 50, 0, 0)];
        let m = PolicyMetrics::aggregate(PolicyKind::SmartOClock, &outcomes);
        assert!((m.success_rate - 0.6).abs() < 1e-12);
    }

    #[test]
    fn penalty_averages_over_capping_steps() {
        let mut o = RackOutcome::new(0, 0.9);
        o.record_penalty(0.2);
        o.record_penalty(0.4);
        let m = PolicyMetrics::aggregate(PolicyKind::NaiveOClock, &[o]);
        assert!((m.capping_penalty - 0.3).abs() < 1e-12);
    }

    #[test]
    fn groups_are_disjoint_and_cover() {
        let outcomes: Vec<RackOutcome> = (0..9)
            .map(|i| RackOutcome::new(i, i as f64 / 10.0))
            .collect();
        let (high, medium, low) = power_groups(&outcomes);
        assert_eq!(high.len(), 3);
        assert_eq!(medium.len(), 3);
        assert_eq!(low.len(), 3);
        let mut all: Vec<usize> = high.iter().chain(&medium).chain(&low).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        // Highest utilization racks are in `high`.
        assert!(high.contains(&8));
        assert!(low.contains(&0));
    }
}
