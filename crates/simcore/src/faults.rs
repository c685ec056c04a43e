//! Deterministic, seeded fault injection for the control plane.
//!
//! The paper's robustness argument (§III-Q5) is that decentralized budget
//! enforcement keeps servers safe when the control plane misbehaves: sOAs
//! keep enforcing their *last assigned* budget while the gOA is unreachable,
//! dropped budget messages merely leave a server on a stale limit, and a
//! restarted sOA re-joins conservatively at the default frequency. This
//! module provides the fault *schedule* that the simulators replay to test
//! that claim.
//!
//! Two kinds of faults are modelled, both pure functions of the plan seed:
//!
//! * **Windows** — gOA outages occupy `[start, end)` intervals drawn up
//!   front from a dedicated [`Pcg32`] stream ([`FaultPlan::generate`]).
//! * **Point faults** — per-`(instant, entity)` events (message drops,
//!   delays, telemetry gaps, prediction noise, sOA restarts) decided by a
//!   stateless hash of `(seed, kind, t, entity)`. Because no generator
//!   state is consumed at query time, answers are independent of query
//!   *order* — a sharded run asking rack 7 before rack 3 sees exactly the
//!   bytes a serial run sees, which is what lets fault plans compose with
//!   `--threads N` byte-identity for free.
//!
//! A zero-fault plan ([`FaultPlanConfig::none`], the `Default`) answers
//! `false`/`1.0`/zero-delay everywhere without hashing anything, so wiring
//! the faults layer into a simulator leaves fault-free runs byte-identical.

use crate::rng::Pcg32;
use crate::time::{SimDuration, SimTime};

/// Dedicated PCG stream for fault-window generation, disjoint from the
/// workload/trace streams so adding faults never perturbs trace generation.
const FAULT_STREAM: u64 = 0xFA17;

/// Salts separating the point-fault hash families.
const SALT_BUDGET_DROP: u64 = 0xD201;
const SALT_BUDGET_DELAY: u64 = 0xD202;
const SALT_TELEMETRY_GAP: u64 = 0xD203;
const SALT_PREDICTION_NOISE: u64 = 0xD204;
const SALT_SOA_RESTART: u64 = 0xD205;

/// The kinds of control-plane faults a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The gOA is unreachable: no budget recomputation; sOAs run on stale
    /// budgets.
    GoaOutage,
    /// A budget-update message to one server is lost.
    BudgetDrop,
    /// A budget-update message to one server arrives late.
    BudgetDelay,
    /// A WI telemetry window is lost: the sOA sees no demand and issues no
    /// overclock request for that server this step.
    TelemetryGap,
    /// Prediction error injected into the power templates (static bias
    /// and/or per-step noise).
    PredictionError,
    /// The sOA process restarts: volatile control state is lost and the
    /// server re-joins conservatively at the default frequency.
    SoaRestart,
}

impl FaultKind {
    /// Stable lowercase label for telemetry fields.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::GoaOutage => "goa_outage",
            FaultKind::BudgetDrop => "budget_drop",
            FaultKind::BudgetDelay => "budget_delay",
            FaultKind::TelemetryGap => "telemetry_gap",
            FaultKind::PredictionError => "prediction_error",
            FaultKind::SoaRestart => "soa_restart",
        }
    }
}

/// A half-open `[start, end)` window during which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First affected instant.
    pub start: SimTime,
    /// First instant no longer affected.
    pub end: SimTime,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Window length.
    pub fn len(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Declarative description of a fault schedule. Fully serializable so an
/// experiment's fault plan can be pinned in a config file or golden test.
///
/// The default ([`FaultPlanConfig::none`]) injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed of the fault schedule (independent of the workload seed).
    pub seed: u64,
    /// Number of gOA outage windows to place in the horizon.
    pub goa_outages: usize,
    /// Length of each gOA outage window.
    pub goa_outage_len: SimDuration,
    /// Per-(step, server) probability that a budget update is dropped.
    pub budget_drop_prob: f64,
    /// Per-(step, server) probability that a budget update is delayed.
    pub budget_delay_prob: f64,
    /// How late a delayed budget update arrives.
    pub budget_delay: SimDuration,
    /// Per-(step, server) probability of a WI telemetry gap.
    pub telemetry_gap_prob: f64,
    /// Static multiplicative bias applied to power-template predictions
    /// (`1.0` = unbiased; `1.1` = templates over-predict by 10 %).
    pub prediction_bias: f64,
    /// Amplitude of per-(step, server) multiplicative prediction noise:
    /// predictions are scaled by a factor in `[1 - a, 1 + a]` (`0.0` = none).
    pub prediction_noise: f64,
    /// Per-(step, server) probability that the sOA restarts and loses its
    /// volatile control state.
    pub soa_restart_prob: f64,
}

impl FaultPlanConfig {
    /// The zero-fault plan: every query answers "no fault".
    pub fn none() -> FaultPlanConfig {
        FaultPlanConfig {
            seed: 0,
            goa_outages: 0,
            goa_outage_len: SimDuration::ZERO,
            budget_drop_prob: 0.0,
            budget_delay_prob: 0.0,
            budget_delay: SimDuration::ZERO,
            telemetry_gap_prob: 0.0,
            prediction_bias: 1.0,
            prediction_noise: 0.0,
            soa_restart_prob: 0.0,
        }
    }

    /// Whether this configuration injects nothing at all.
    pub fn is_noop(&self) -> bool {
        (self.goa_outages == 0 || self.goa_outage_len.is_zero())
            && self.budget_drop_prob <= 0.0
            && (self.budget_delay_prob <= 0.0 || self.budget_delay.is_zero())
            && self.telemetry_gap_prob <= 0.0
            && self.prediction_bias == 1.0
            && self.prediction_noise <= 0.0
            && self.soa_restart_prob <= 0.0
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]`, the noise amplitude is
    /// outside `[0, 1]`, or the bias is not positive and finite.
    pub fn validate(&self) {
        for (name, p) in [
            ("budget_drop_prob", self.budget_drop_prob),
            ("budget_delay_prob", self.budget_delay_prob),
            ("telemetry_gap_prob", self.telemetry_gap_prob),
            ("soa_restart_prob", self.soa_restart_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1]");
        }
        assert!(
            (0.0..=1.0).contains(&self.prediction_noise),
            "prediction_noise must be in [0, 1]"
        );
        assert!(
            self.prediction_bias.is_finite() && self.prediction_bias > 0.0,
            "prediction_bias must be positive and finite"
        );
    }
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig::none()
    }
}

/// A realized fault schedule over a simulation horizon.
///
/// Construction pre-draws the gOA outage windows; all point-fault queries
/// are stateless hashes. Same config + horizon ⇒ byte-identical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    outages: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The zero-fault plan.
    pub fn none() -> FaultPlan {
        FaultPlan {
            config: FaultPlanConfig::none(),
            outages: Vec::new(),
        }
    }

    /// Realize `config` over the horizon `[start, end)`.
    ///
    /// Outage windows are drawn uniformly inside the horizon from a
    /// dedicated [`Pcg32`] stream seeded by `config.seed` and sorted by
    /// start time; windows may overlap (overlaps simply merge in effect).
    /// Outages that cannot fit (horizon shorter than the outage length) are
    /// not placed.
    ///
    /// # Panics
    /// Panics if `config` fails [`FaultPlanConfig::validate`].
    pub fn generate(config: &FaultPlanConfig, start: SimTime, end: SimTime) -> FaultPlan {
        config.validate();
        let horizon = end.saturating_since(start);
        let mut outages = Vec::new();
        if config.goa_outages > 0
            && !config.goa_outage_len.is_zero()
            && horizon >= config.goa_outage_len
        {
            let slack = (horizon - config.goa_outage_len).as_micros();
            let mut rng = Pcg32::new(config.seed, FAULT_STREAM);
            for _ in 0..config.goa_outages {
                let offset = if slack == 0 {
                    0
                } else {
                    rng.gen_range_u64(0, slack + 1)
                };
                let ws = start + SimDuration::from_micros(offset);
                outages.push(FaultWindow {
                    start: ws,
                    end: ws + config.goa_outage_len,
                });
            }
            outages.sort_by_key(|w| (w.start, w.end));
        }
        FaultPlan {
            config: config.clone(),
            outages,
        }
    }

    /// The configuration this plan realizes.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// The realized gOA outage windows, sorted by start time.
    pub fn outages(&self) -> &[FaultWindow] {
        &self.outages
    }

    /// Whether this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.outages.is_empty() && self.config.is_noop()
    }

    /// Canonical entity key for per-server point faults.
    pub fn entity_id(rack: usize, server: usize) -> u64 {
        ((rack as u64) << 32) | (server as u64 & 0xFFFF_FFFF)
    }

    /// Whether the gOA is unreachable at `t`.
    pub fn goa_unreachable(&self, t: SimTime) -> bool {
        self.outages.iter().any(|w| w.contains(t))
    }

    /// Whether the budget update addressed to `entity` at `t` is dropped.
    pub fn drops_budget_update(&self, t: SimTime, entity: u64) -> bool {
        self.config.budget_drop_prob > 0.0
            && self.unit(SALT_BUDGET_DROP, t, entity) < self.config.budget_drop_prob
    }

    /// Delivery delay of the budget update addressed to `entity` at `t`
    /// (zero when the message is on time).
    pub fn budget_update_delay(&self, t: SimTime, entity: u64) -> SimDuration {
        if self.config.budget_delay_prob > 0.0
            && !self.config.budget_delay.is_zero()
            && self.unit(SALT_BUDGET_DELAY, t, entity) < self.config.budget_delay_prob
        {
            self.config.budget_delay
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether `entity`'s WI telemetry window at `t` is lost (the sOA sees
    /// no demand and issues no overclock request).
    pub fn telemetry_gap(&self, t: SimTime, entity: u64) -> bool {
        self.config.telemetry_gap_prob > 0.0
            && self.unit(SALT_TELEMETRY_GAP, t, entity) < self.config.telemetry_gap_prob
    }

    /// Multiplicative noise factor applied to `entity`'s power prediction at
    /// `t`. Exactly `1.0` when no noise is configured (so fault-free
    /// arithmetic is bit-identical to not calling this at all). The static
    /// `prediction_bias` is *not* included: apply it once at template-build
    /// time (e.g. via `PowerTemplate::map_values`).
    pub fn prediction_factor(&self, t: SimTime, entity: u64) -> f64 {
        if self.config.prediction_noise <= 0.0 {
            return 1.0;
        }
        let u = self.unit(SALT_PREDICTION_NOISE, t, entity);
        (1.0 + self.config.prediction_noise * (2.0 * u - 1.0)).max(0.0)
    }

    /// Whether `entity`'s sOA restarts at `t` (volatile state loss).
    pub fn soa_restarts(&self, t: SimTime, entity: u64) -> bool {
        self.config.soa_restart_prob > 0.0
            && self.unit(SALT_SOA_RESTART, t, entity) < self.config.soa_restart_prob
    }

    /// Stateless uniform draw in `[0, 1)` from `(seed, salt, t, entity)`.
    fn unit(&self, salt: u64, t: SimTime, entity: u64) -> f64 {
        let mut h = mix64(self.config.seed ^ mix64(salt));
        h = mix64(h ^ t.as_micros());
        h = mix64(h ^ entity);
        // 53 high bits → [0, 1) with full double precision.
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 finalizer: a well-mixed bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> (SimTime, SimTime) {
        (SimTime::ZERO, SimTime::ZERO + SimDuration::WEEK)
    }

    fn faulty_config(seed: u64) -> FaultPlanConfig {
        FaultPlanConfig {
            seed,
            goa_outages: 3,
            goa_outage_len: SimDuration::from_hours(4),
            budget_drop_prob: 0.05,
            budget_delay_prob: 0.05,
            budget_delay: SimDuration::from_minutes(30),
            telemetry_gap_prob: 0.02,
            prediction_bias: 1.05,
            prediction_noise: 0.1,
            soa_restart_prob: 0.001,
        }
    }

    #[test]
    fn default_plan_is_noop_everywhere() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&FaultPlanConfig::default(), s, e);
        assert!(plan.is_noop());
        assert!(plan.outages().is_empty());
        let mut t = s;
        let step = SimDuration::from_hours(1);
        while t < e {
            for entity in 0..4 {
                assert!(!plan.goa_unreachable(t));
                assert!(!plan.drops_budget_update(t, entity));
                assert!(plan.budget_update_delay(t, entity).is_zero());
                assert!(!plan.telemetry_gap(t, entity));
                assert_eq!(plan.prediction_factor(t, entity), 1.0);
                assert!(!plan.soa_restarts(t, entity));
            }
            t += step;
        }
    }

    #[test]
    fn same_seed_plans_are_identical() {
        let (s, e) = horizon();
        let a = FaultPlan::generate(&faulty_config(7), s, e);
        let b = FaultPlan::generate(&faulty_config(7), s, e);
        assert_eq!(a, b);
        // Point faults agree at every probe.
        let t = s + SimDuration::from_hours(13);
        for entity in 0..64 {
            assert_eq!(
                a.drops_budget_update(t, entity),
                b.drops_budget_update(t, entity)
            );
            assert_eq!(
                a.prediction_factor(t, entity),
                b.prediction_factor(t, entity)
            );
        }
    }

    #[test]
    fn different_seeds_change_the_schedule() {
        let (s, e) = horizon();
        let a = FaultPlan::generate(&faulty_config(7), s, e);
        let b = FaultPlan::generate(&faulty_config(8), s, e);
        assert_ne!(a.outages(), b.outages());
    }

    #[test]
    fn outage_windows_stay_inside_the_horizon_and_are_sorted() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&faulty_config(42), s, e);
        assert_eq!(plan.outages().len(), 3);
        for w in plan.outages() {
            assert!(w.start >= s);
            assert!(w.end <= e);
            assert_eq!(w.len(), SimDuration::from_hours(4));
            assert!(!w.is_empty());
            // The window answers its own containment probes.
            assert!(plan.goa_unreachable(w.start));
            assert!(!plan.goa_unreachable(w.end));
        }
        for pair in plan.outages().windows(2) {
            assert!(pair[0].start <= pair[1].start, "windows must be sorted");
        }
    }

    #[test]
    fn outages_longer_than_horizon_are_not_placed() {
        let mut cfg = faulty_config(1);
        cfg.goa_outage_len = SimDuration::WEEK * 2;
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&cfg, s, e);
        assert!(plan.outages().is_empty());
    }

    #[test]
    fn point_faults_are_query_order_independent() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&faulty_config(3), s, e);
        let t = s + SimDuration::from_hours(50);
        // Probe forwards and backwards; a stateful implementation would
        // give different answers.
        let forwards: Vec<bool> = (0..100).map(|i| plan.telemetry_gap(t, i)).collect();
        let backwards: Vec<bool> = (0..100)
            .rev()
            .map(|i| plan.telemetry_gap(t, i))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        assert_eq!(forwards, backwards);
        assert!(
            forwards.iter().any(|&g| g),
            "2% gap probability over 100 probes should hit at least once"
        );
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let (s, e) = horizon();
        let mut cfg = FaultPlanConfig::none();
        cfg.budget_drop_prob = 0.25;
        let plan = FaultPlan::generate(&cfg, s, e);
        let mut hits = 0u64;
        let n = 10_000u64;
        for i in 0..n {
            let t = s + SimDuration::from_secs(i);
            if plan.drops_budget_update(t, 1) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn prediction_factor_stays_in_band() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&faulty_config(9), s, e);
        for i in 0..1000u64 {
            let f = plan.prediction_factor(s + SimDuration::from_secs(i), 2);
            assert!((0.9..=1.1).contains(&f), "noise amplitude 0.1: got {f}");
        }
    }

    #[test]
    fn entity_ids_are_disjoint_across_racks_and_servers() {
        let mut seen = Vec::new();
        for rack in 0..8 {
            for server in 0..32 {
                seen.push(FaultPlan::entity_id(rack, server));
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8 * 32);
    }

    #[test]
    #[should_panic(expected = "budget_drop_prob must be in [0, 1]")]
    fn validate_rejects_bad_probability() {
        let mut cfg = FaultPlanConfig::none();
        cfg.budget_drop_prob = 1.5;
        let (s, e) = horizon();
        let _ = FaultPlan::generate(&cfg, s, e);
    }

    #[test]
    fn fault_kind_labels_are_stable() {
        assert_eq!(FaultKind::GoaOutage.label(), "goa_outage");
        assert_eq!(FaultKind::SoaRestart.label(), "soa_restart");
        assert_eq!(FaultKind::PredictionError.label(), "prediction_error");
    }
}
