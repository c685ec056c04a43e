//! Trace-driven large-scale policy simulation (paper §V-B, Table I, Fig. 6).
//!
//! Replays synthetic production traces (rack/server baseline power + per-
//! server overclocking demand, 5-minute granularity) under the five policies
//! of Table I. The first trace week trains the per-server DailyMed power
//! templates and demand profiles; the remaining weeks are simulated:
//! admission per policy, per-step rack power aggregation, warnings at 95 %
//! of the limit, capping events with prioritized shedding (overclock extras
//! are revoked first, then non-overclocked servers are throttled), and the
//! exploration/backoff dynamics of SmartOClock and NoWarning.
//!
//! The paper's own evaluation also uses a purpose-built discrete-event
//! simulator here ("We develop a discrete event simulator to evaluate
//! SmartOClock", §V-B); the full agent implementation is exercised
//! end-to-end by the cluster harness instead.
//!
//! This module holds the configuration, week-1 training, and per-part
//! silicon resolution; the per-rack engine is [`crate::columns`] and the
//! entry points are in [`crate::shard`].

pub use crate::largescale_metrics::{PolicyMetrics, RackOutcome};
use simcore::faults::{FaultPlan, FaultPlanConfig};
use simcore::time::{SimDuration, SimTime};
use smartoclock::policy::PolicyKind;
use soc_power::model::PowerModel;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{PowerTemplate, TemplateKind};
use soc_reliability::binning::{BinningConfig, SiliconPart, WearRate};
use soc_reliability::thermal::Cooling;
use soc_reliability::wear::WearModel;
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use soc_traces::fleet::RackTrace;
use soc_traces::gen::FleetConfig;

/// Configuration of the large-scale simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeScaleConfig {
    /// Number of racks to simulate.
    pub racks: usize,
    /// Trace length in weeks (week 1 trains the templates; the rest are
    /// evaluated). Must be at least 2.
    pub weeks: u64,
    /// Sampling/evaluation step. Must be non-zero and divide a day evenly
    /// (the per-server templates are built on day-aligned slots).
    pub step: SimDuration,
    /// Servers per rack (min, max).
    pub servers_per_rack: (usize, usize),
    /// Overclocking lifetime budget as a fraction of time per epoch. Table I
    /// stresses *power* management, so the default (1.0) keeps lifetime from
    /// binding; the cluster harness's overclocking-constrained experiment
    /// covers restricted lifetime budgets instead.
    pub oc_time_fraction: f64,
    /// Exploration step in watts (SmartOClock/NoWarning).
    pub explore_step: Watts,
    /// Cap on cumulative exploration.
    pub explore_cap: Watts,
    /// RNG seed for trace generation.
    pub seed: u64,
    /// Control-plane fault schedule (default: no faults). Applies only to
    /// the evaluation weeks; realized per-rack from the shared seed so fault
    /// timelines compose with sharded execution.
    pub faults: FaultPlanConfig,
    /// How the `Central` baseline behaves while the fault plan marks the
    /// gOA/central controller unreachable: `true` = fail-open (stale
    /// permissions stand, no enforcement — risks budget violations),
    /// `false` = fail-stop (deny all overclocking — forfeits OC uptime).
    pub central_fail_open: bool,
    /// Per-part silicon heterogeneity (default: uniform fleet). Realized
    /// per-server from the shared seed (stateless draws), so bin identities
    /// compose with sharded execution exactly like the fault timelines.
    pub binning: BinningConfig,
}

impl LargeScaleConfig {
    /// A small configuration for unit tests.
    pub fn small_test() -> LargeScaleConfig {
        LargeScaleConfig {
            racks: 4,
            weeks: 2,
            step: SimDuration::from_minutes(15),
            servers_per_rack: (6, 8),
            oc_time_fraction: 1.0,
            explore_step: Watts::new(20.0),
            explore_cap: Watts::new(200.0),
            seed: 42,
            faults: FaultPlanConfig::none(),
            central_fail_open: false,
            binning: BinningConfig::uniform(),
        }
    }

    /// The bench-scale configuration: more racks, 5-minute steps, 3 weeks.
    pub fn bench_reference(racks: usize) -> LargeScaleConfig {
        LargeScaleConfig {
            racks,
            weeks: 3,
            step: SimDuration::from_minutes(5),
            servers_per_rack: (12, 16),
            oc_time_fraction: 1.0,
            explore_step: Watts::new(20.0),
            explore_cap: Watts::new(200.0),
            seed: 42,
            faults: FaultPlanConfig::none(),
            central_fail_open: false,
            binning: BinningConfig::uniform(),
        }
    }

    pub(crate) fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            region: "largescale".into(),
            racks: self.racks,
            servers_per_rack_min: self.servers_per_rack.0,
            servers_per_rack_max: self.servers_per_rack.1,
            span: SimDuration::WEEK * self.weeks,
            step: self.step,
            oc_core_fraction: 0.45,
            // Tighter than the fleet-wide default: Table I's clusters span
            // from comfortably provisioned (low-power) to power-constrained
            // (high-power), which a wider oversubscription range produces.
            oversubscription: (1.50, 2.15),
            outlier_day_prob: 0.03,
            intel_fraction: 0.4,
            vm_churn_weekly: 0.05,
            keep_server_series: true,
        }
    }
}

/// Trained per-server predictors: the week-1 power template and the
/// overclock-demand profile, with the static prediction bias of the fault
/// plan already applied.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedServer {
    /// Regular (non-overclocked) power template.
    pub template: PowerTemplate,
    /// Overclock demand in watts (cores × per-core delta at typical
    /// utilization).
    pub demand_template: PowerTemplate,
}

/// Week-1 training output for one rack, reusable across policy variants.
///
/// Templates depend only on the trace, the power model, and
/// `config.faults.prediction_bias` — not on the policy — so multi-policy
/// drivers (`table1_policies`, `par_speedup`) train once and simulate many
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedRack {
    /// One trained entry per server, in rack order.
    pub servers: Vec<TrainedServer>,
}

/// Build the per-server templates from the first trace week (paper §IV-B).
///
/// This is the `rack/setup` phase of the streaming path
/// ([`crate::shard::simulate_policy_sharded_probed`]); multi-policy drivers
/// call it through [`crate::shard::train_fleet_probed`] to amortize
/// training across policy variants and keep it out of timed simulation
/// legs.
pub fn train_rack(config: &LargeScaleConfig, rack: &RackTrace, model: &PowerModel) -> TrainedRack {
    let plan = model.plan();
    let oc_freq = plan.max_overclock();
    let train_end = SimTime::ZERO + SimDuration::WEEK;
    // Static prediction bias (fault injection): the trained regular-power
    // templates systematically over- or under-predict. Applied once here so
    // per-step noise (prediction_factor) is never double-counted.
    let bias = config.faults.prediction_bias;
    let servers = rack
        .servers
        .iter()
        .map(|s| {
            let train_power = s.power.window(SimTime::ZERO, train_end);
            let train_util = s.utilization.window(SimTime::ZERO, train_end);
            let train_demand = s.oc_demand_cores.window(SimTime::ZERO, train_end);
            // Demand in watts: cores × per-core delta at the typical
            // utilization of this server.
            let util = simcore::stats::mean(train_util.values());
            let per_core_extra = model
                .overclock_delta(util.clamp(0.0, 1.0), 1, oc_freq)
                .get();
            let demand_watts = train_demand.map(|cores| cores * per_core_extra);
            let mut template = PowerTemplate::build(train_power, TemplateKind::DailyMed);
            if bias != 1.0 {
                template = template.map_values(|v| v * bias);
            }
            TrainedServer {
                template,
                demand_template: PowerTemplate::build(&demand_watts, TemplateKind::DailyMed),
            }
        })
        .collect();
    TrainedRack { servers }
}

/// Resolved per-part silicon for one rack run: admitted overclock levels,
/// hoisted wear-rate coefficients, and the deny/down-bin counts.
///
/// Every float in here is computed exactly once per rack, before the step
/// loop, from `(config, rack index, model)` alone, so a server's silicon is
/// the same under every thread count. `None` (uniform config) keeps the
/// engine on its pre-binning path, byte-for-byte.
pub(crate) struct RackSilicon {
    /// Drawn silicon per server, in rack order.
    pub parts: Vec<SiliconPart>,
    /// Risk-admitted overclock frequency per server; `None` = the part's
    /// risk exceeds the budget at every overclocked level (bin-denied).
    pub eff: Vec<Option<MegaHertz>>,
    /// Hoisted ageing-rate coefficients per server at its admitted level
    /// (placeholder at turbo for denied servers, which never accrue wear).
    pub wear: Vec<WearRate>,
    /// Servers denied all overclocking by the risk budget.
    pub bin_denied: u64,
    /// Servers admitted below the plan's maximum overclock.
    pub down_binned: u64,
}

/// Draw and risk-admit every server's silicon for one rack, hoisting the
/// per-part wear rates the step loop charges. Returns `None` for the
/// degenerate uniform config (no heterogeneity, no extra work, no new
/// telemetry — the pre-binning byte streams are preserved exactly).
///
/// Part ids reuse [`FaultPlan::entity_id`], so a server's silicon is the
/// same under sharded and serial execution. The wear
/// hoist runs each part's scaled [`WearModel`] at the air-cooled
/// steady-state junction temperature of a fully-utilized server at the
/// admitted frequency.
pub(crate) fn resolve_rack_silicon(
    config: &LargeScaleConfig,
    rack_index: usize,
    servers: usize,
    model: &PowerModel,
) -> Option<RackSilicon> {
    if config.binning.is_uniform() {
        return None;
    }
    let plan = model.plan();
    let base_wear = WearModel::reference(*model.curve());
    let cooling = Cooling::Air;
    let mut silicon = RackSilicon {
        parts: Vec::with_capacity(servers),
        eff: Vec::with_capacity(servers),
        wear: Vec::with_capacity(servers),
        bin_denied: 0,
        down_binned: 0,
    };
    for i in 0..servers {
        let part = config
            .binning
            .part(&plan, FaultPlan::entity_id(rack_index, i));
        let eff = part.admit(&plan, config.binning.risk_budget, plan.max_overclock());
        match eff {
            None => silicon.bin_denied += 1,
            Some(f) if f < plan.max_overclock() => silicon.down_binned += 1,
            Some(_) => {}
        }
        let freq = eff.unwrap_or(plan.turbo());
        let oc_power = model.server_power_uniform(1.0, freq);
        let temp_c = cooling.ambient_c() + cooling.thermal_resistance() * oc_power.get();
        silicon
            .wear
            .push(WearRate::hoist(&base_wear, &part, freq, temp_c));
        silicon.parts.push(part);
        silicon.eff.push(eff);
    }
    Some(silicon)
}

/// Emit the `bin_deny` / `down_bin` admission telemetry for one rack's
/// resolved silicon, in server order.
pub(crate) fn emit_binning_events(
    silicon: &RackSilicon,
    telemetry: &Telemetry,
    at: SimTime,
    rack_index: usize,
    policy: PolicyKind,
    max_overclock: MegaHertz,
    sim_decision: u64,
) {
    for (i, (part, eff)) in silicon.parts.iter().zip(silicon.eff.iter()).enumerate() {
        match eff {
            None => {
                tm_event!(telemetry, at, Component::Sim, Severity::Warn, "bin_deny",
                    "rack" => rack_index,
                    "server" => i,
                    "policy" => policy.name(),
                    "bin" => part.bin,
                    "risk" => part.risk,
                    "decision_id" => telemetry.next_id(),
                    "cause_id" => sim_decision);
            }
            Some(f) if *f < max_overclock => {
                tm_event!(telemetry, at, Component::Sim, Severity::Info, "down_bin",
                    "rack" => rack_index,
                    "server" => i,
                    "policy" => policy.name(),
                    "bin" => part.bin,
                    "risk" => part.risk,
                    "to_mhz" => f.get(),
                    "decision_id" => telemetry.next_id(),
                    "cause_id" => sim_decision);
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopProbe;
    use crate::shard::simulate_policy_sharded_probed;

    fn simulate(config: &LargeScaleConfig, policy: PolicyKind) -> Vec<RackOutcome> {
        simulate_policy_sharded_probed(config, policy, &Telemetry::disabled(), 1, &NoopProbe)
    }

    fn run(policy: PolicyKind) -> Vec<RackOutcome> {
        simulate(&LargeScaleConfig::small_test(), policy)
    }

    #[test]
    fn all_policies_produce_outcomes() {
        for policy in PolicyKind::ALL {
            let outcomes = run(policy);
            assert_eq!(outcomes.len(), 4);
            for o in &outcomes {
                assert!(o.steps > 0);
                assert!(o.granted <= o.requests);
            }
        }
    }

    #[test]
    fn naive_grants_everything() {
        let outcomes = run(PolicyKind::NaiveOClock);
        for o in &outcomes {
            assert_eq!(o.granted, o.requests, "NaiveOClock must grant all requests");
        }
    }

    #[test]
    fn naive_caps_at_least_as_much_as_smart() {
        let naive: u64 = run(PolicyKind::NaiveOClock)
            .iter()
            .map(|o| o.capping_events)
            .sum();
        let smart: u64 = run(PolicyKind::SmartOClock)
            .iter()
            .map(|o| o.capping_events)
            .sum();
        assert!(
            smart <= naive,
            "SmartOClock ({smart}) must not cap more than NaiveOClock ({naive})"
        );
    }

    #[test]
    fn central_never_caps() {
        // The oracle admits only what actually fits.
        let outcomes = run(PolicyKind::Central);
        let caps: u64 = outcomes.iter().map(|o| o.capping_events).sum();
        assert_eq!(caps, 0, "Central has a perfect view and should never cap");
    }

    #[test]
    fn smart_success_rate_at_least_nofeedback() {
        let agg = |p| PolicyMetrics::aggregate(p, &run(p));
        let smart = agg(PolicyKind::SmartOClock);
        let nofb = agg(PolicyKind::NoFeedback);
        assert!(
            smart.success_rate >= nofb.success_rate - 1e-9,
            "exploration should help: smart {} vs nofeedback {}",
            smart.success_rate,
            nofb.success_rate
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(PolicyKind::SmartOClock);
        let b = run(PolicyKind::SmartOClock);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.granted, y.granted);
            assert_eq!(x.capping_events, y.capping_events);
        }
    }

    #[test]
    fn outage_marks_stale_steps_but_smart_never_violates() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.faults.goa_outages = 1;
        cfg.faults.goa_outage_len = SimDuration::from_hours(12);
        let outcomes = simulate(&cfg, PolicyKind::SmartOClock);
        assert!(
            outcomes.iter().any(|o| o.stale_budget_steps > 0),
            "a 12h outage must leave stale-budget steps"
        );
        for o in &outcomes {
            assert_eq!(o.violation_steps, 0, "rack {} violated", o.rack);
            assert!(o.max_draw <= o.limit);
        }
    }

    #[test]
    fn zero_fault_config_matches_default_run() {
        let base = simulate(&LargeScaleConfig::small_test(), PolicyKind::SmartOClock);
        // Same zero-probability plan under a different fault seed: the
        // timeline is empty either way, so outcomes are identical.
        let mut cfg = LargeScaleConfig::small_test();
        cfg.faults.seed = 999;
        let with_plan = simulate(&cfg, PolicyKind::SmartOClock);
        assert_eq!(base, with_plan);
    }

    #[test]
    fn uniform_binning_config_matches_default_run() {
        let base = simulate(&LargeScaleConfig::small_test(), PolicyKind::SmartOClock);
        // A uniform (single-bin, zero-spread) binning config is
        // byte-transparent no matter its seed or risk budget: the lottery
        // is degenerate, so outcomes are identical to the pre-binning run.
        let mut cfg = LargeScaleConfig::small_test();
        cfg.binning.seed = 999;
        cfg.binning.risk_budget = 0.25;
        let with_binning = simulate(&cfg, PolicyKind::SmartOClock);
        assert_eq!(base, with_binning);
    }

    #[test]
    fn binned_fleet_reports_denials_and_wear() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.binning.bins = 8;
        cfg.binning.risk_budget = 0.2;
        cfg.binning.wear_spread = 0.3;
        cfg.binning.seed = 5;
        let outcomes = simulate(&cfg, PolicyKind::SmartOClock);
        let denied: u64 = outcomes.iter().map(|o| o.bin_denied).sum();
        let down: u64 = outcomes.iter().map(|o| o.down_binned).sum();
        assert!(
            denied + down > 0,
            "aggressive binning must deny or down-bin some parts"
        );
        let wear: f64 = outcomes.iter().map(|o| o.wear_days).sum();
        assert!(wear > 0.0, "granted overclocking must accrue per-part wear");
        let m = PolicyMetrics::aggregate(PolicyKind::SmartOClock, &outcomes);
        assert_eq!(m.bin_denied, denied);
        assert_eq!(m.down_binned, down);
    }

    #[test]
    #[should_panic(expected = "at least one training")]
    fn rejects_single_week() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.weeks = 1;
        let _ = simulate(&cfg, PolicyKind::SmartOClock);
    }
}
