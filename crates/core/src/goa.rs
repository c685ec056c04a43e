//! The Global Overclocking Agent (gOA).
//!
//! "The sOAs periodically (e.g., weekly) exchange their templates with the
//! gOA. The gOA combines power and overclocking templates of all sOAs and
//! computes individual power budgets. … First, the gOA uses its power model
//! to separate the server's power into the regular and overclock power …
//! Second, the gOA assigns to each sOA the initial power budget that is
//! equal to the server's regular power consumption. Finally, the gOA splits
//! the remaining power headroom based on the overclocking requirements."
//! (paper §IV-C)

use crate::policy::PolicyKind;
use simcore::faults::FaultPlan;
use simcore::series::TimeSeries;
use simcore::time::SimTime;
use soc_power::hierarchy::{heterogeneous_split, heterogeneous_split_into, DemandProfile};
use soc_power::model::PowerModel;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{PowerTemplate, TemplateKind};
use soc_telemetry::{tm_event, Component, Severity, Telemetry};

/// One server's weekly profile as exchanged with the gOA.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProfile {
    /// Template of the server's *regular* (non-overclocked) power draw.
    pub regular_power: PowerTemplate,
    /// Template of the *extra* power the server wants for overclocking.
    pub overclock_demand: PowerTemplate,
}

impl ServerProfile {
    /// Build a profile from raw telemetry: the server's baseline power
    /// history and the history of how many cores requested overclocking.
    /// The OC-cores series is converted to watts of extra demand through the
    /// power model (the gOA's "discrimination" step, §IV-C).
    ///
    /// # Panics
    /// Panics if the histories are shorter than one week.
    pub fn from_history(
        power_history: &TimeSeries,
        oc_cores_history: &TimeSeries,
        model: &PowerModel,
        oc_frequency: MegaHertz,
        expected_utilization: f64,
    ) -> ServerProfile {
        let per_core = model
            .overclock_delta(expected_utilization, 1, oc_frequency)
            .get();
        let demand_watts = oc_cores_history.map(|cores| cores * per_core);
        ServerProfile {
            regular_power: PowerTemplate::build(power_history, TemplateKind::DailyMed),
            overclock_demand: PowerTemplate::build(&demand_watts, TemplateKind::DailyMed),
        }
    }

    /// The demand pair at instant `t`.
    pub fn demand_at(&self, t: SimTime) -> DemandProfile {
        DemandProfile {
            regular: Watts::new(self.regular_power.predict(t).max(0.0)),
            overclock_demand: Watts::new(self.overclock_demand.predict(t).max(0.0)),
        }
    }
}

/// The per-rack Global Overclocking Agent.
///
/// Reproduces the paper's worked example (§IV-C):
///
/// ```
/// use smartoclock::goa::GlobalOverclockAgent;
/// use smartoclock::policy::PolicyKind;
/// use soc_power::hierarchy::DemandProfile;
/// use soc_power::units::Watts;
///
/// let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::SmartOClock);
/// let budgets = goa.budgets_for(&[
///     DemandProfile { regular: Watts::new(400.0), overclock_demand: Watts::new(50.0) },
///     DemandProfile { regular: Watts::new(300.0), overclock_demand: Watts::new(100.0) },
/// ]);
/// assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalOverclockAgent {
    rack_limit: Watts,
    policy: PolicyKind,
}

impl GlobalOverclockAgent {
    /// Create a gOA for a rack with the given power limit.
    ///
    /// # Panics
    /// Panics if `rack_limit` is not positive.
    pub fn new(rack_limit: Watts, policy: PolicyKind) -> GlobalOverclockAgent {
        assert!(rack_limit.get() > 0.0, "rack limit must be positive");
        GlobalOverclockAgent { rack_limit, policy }
    }

    /// The rack limit budgets are computed against.
    pub fn rack_limit(&self) -> Watts {
        self.rack_limit
    }

    /// Replace the rack limit (power-constrained experiments, §V-A).
    ///
    /// # Panics
    /// Panics if `limit` is not positive.
    pub fn set_rack_limit(&mut self, limit: Watts) {
        assert!(limit.get() > 0.0, "rack limit must be positive");
        self.rack_limit = limit;
    }

    /// Compute per-server budgets from explicit demand profiles.
    ///
    /// Heterogeneous-budget policies use the §IV-C split; `NaiveOClock`
    /// splits evenly.
    ///
    /// # Panics
    /// Panics if `demands` is empty.
    pub fn budgets_for(&self, demands: &[DemandProfile]) -> Vec<Watts> {
        assert!(!demands.is_empty(), "need at least one server");
        if self.policy.heterogeneous_budgets() {
            heterogeneous_split(self.rack_limit, demands)
        } else {
            vec![self.rack_limit / demands.len() as f64; demands.len()]
        }
    }

    /// Allocation-free [`budgets_for`](Self::budgets_for): clears `out` and
    /// fills it with the same budgets, reusing its capacity. Every budget
    /// refresh of the large-scale hot path goes through this, so the split
    /// must not allocate in steady state.
    ///
    /// # Panics
    /// Panics if `demands` is empty.
    pub fn budgets_for_into(&self, demands: &[DemandProfile], out: &mut Vec<Watts>) {
        assert!(!demands.is_empty(), "need at least one server");
        if self.policy.heterogeneous_budgets() {
            heterogeneous_split_into(self.rack_limit, demands, out);
        } else {
            out.clear();
            out.resize(demands.len(), self.rack_limit / demands.len() as f64);
        }
    }

    /// Compute per-server budgets at instant `t` from exchanged profiles.
    ///
    /// # Panics
    /// Panics if `profiles` is empty.
    pub fn budgets_at(&self, t: SimTime, profiles: &[ServerProfile]) -> Vec<Watts> {
        let demands: Vec<DemandProfile> = profiles.iter().map(|p| p.demand_at(t)).collect();
        self.budgets_for(&demands)
    }

    /// Fault-aware [`budgets_for`](Self::budgets_for): returns `None` while
    /// the fault plan marks the gOA unreachable at `now` — the control plane
    /// cannot recompute the split, and callers must keep running on whatever
    /// budgets the sOAs last received (the paper's decentralized
    /// fault-tolerance argument, §III-Q5).
    ///
    /// # Panics
    /// Panics if `demands` is empty.
    pub fn budgets_for_faulted(
        &self,
        now: SimTime,
        demands: &[DemandProfile],
        faults: &FaultPlan,
    ) -> Option<Vec<Watts>> {
        if faults.goa_unreachable(now) {
            None
        } else {
            Some(self.budgets_for(demands))
        }
    }

    /// [`budgets_for`](Self::budgets_for) plus a `budget_split` telemetry
    /// record and per-server budget gauges, labelled with the rack index.
    ///
    /// # Panics
    /// Panics if `demands` is empty.
    pub fn budgets_for_traced(
        &self,
        now: SimTime,
        demands: &[DemandProfile],
        telemetry: &Telemetry,
        rack: usize,
    ) -> Vec<Watts> {
        let budgets = self.budgets_for(demands);
        if telemetry.is_enabled() {
            let allocated: f64 = budgets.iter().map(|b| b.get()).sum();
            let min = budgets
                .iter()
                .map(|b| b.get())
                .fold(f64::INFINITY, f64::min);
            let max = budgets
                .iter()
                .map(|b| b.get())
                .fold(f64::NEG_INFINITY, f64::max);
            tm_event!(telemetry, now, Component::Goa, Severity::Info, "budget_split",
                "rack" => rack,
                "servers" => budgets.len(),
                "rack_limit_w" => self.rack_limit.get(),
                "allocated_w" => allocated,
                "min_w" => min,
                "max_w" => max,
                "decision_id" => telemetry.next_id());
            telemetry.metrics(|m| {
                m.inc_counter("goa_budget_splits", &[("rack", rack.into())]);
                for (server, budget) in budgets.iter().enumerate() {
                    m.set_gauge(
                        "soa_budget_w",
                        &[("rack", rack.into()), ("server", server.into())],
                        budget.get(),
                    );
                }
            });
        }
        budgets
    }

    /// [`budgets_at`](Self::budgets_at) plus the `budget_split` telemetry of
    /// [`budgets_for_traced`](Self::budgets_for_traced).
    ///
    /// # Panics
    /// Panics if `profiles` is empty.
    pub fn budgets_at_traced(
        &self,
        t: SimTime,
        profiles: &[ServerProfile],
        telemetry: &Telemetry,
        rack: usize,
    ) -> Vec<Watts> {
        let demands: Vec<DemandProfile> = profiles.iter().map(|p| p.demand_at(t)).collect();
        self.budgets_for_traced(t, &demands, telemetry, rack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn flat_series(value: f64) -> TimeSeries {
        TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::WEEK,
            SimDuration::from_minutes(30),
            |_| value,
        )
    }

    #[test]
    fn paper_worked_example() {
        let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::SmartOClock);
        let budgets = goa.budgets_for(&[
            DemandProfile {
                regular: Watts::new(400.0),
                overclock_demand: Watts::new(50.0),
            },
            DemandProfile {
                regular: Watts::new(300.0),
                overclock_demand: Watts::new(100.0),
            },
        ]);
        assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
    }

    #[test]
    fn naive_policy_splits_evenly() {
        let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::NaiveOClock);
        let budgets = goa.budgets_for(&[
            DemandProfile {
                regular: Watts::new(400.0),
                overclock_demand: Watts::new(50.0),
            },
            DemandProfile {
                regular: Watts::new(300.0),
                overclock_demand: Watts::new(100.0),
            },
        ]);
        assert_eq!(budgets, vec![Watts::new(650.0), Watts::new(650.0)]);
    }

    #[test]
    fn profile_from_history_converts_cores_to_watts() {
        let model = PowerModel::reference_server();
        let oc_freq = model.plan().max_overclock();
        let profile = ServerProfile::from_history(
            &flat_series(300.0),
            &flat_series(10.0),
            &model,
            oc_freq,
            0.9,
        );
        let d = profile.demand_at(SimTime::ZERO + SimDuration::from_days(8));
        assert!((d.regular.get() - 300.0).abs() < 1e-6);
        let per_core = model.overclock_delta(0.9, 1, oc_freq).get();
        assert!((d.overclock_demand.get() - 10.0 * per_core).abs() < 1e-6);
    }

    #[test]
    fn budgets_at_consumes_profiles() {
        let model = PowerModel::reference_server();
        let oc_freq = model.plan().max_overclock();
        let p1 = ServerProfile::from_history(
            &flat_series(400.0),
            &flat_series(5.0),
            &model,
            oc_freq,
            0.9,
        );
        let p2 = ServerProfile::from_history(
            &flat_series(300.0),
            &flat_series(10.0),
            &model,
            oc_freq,
            0.9,
        );
        let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::SmartOClock);
        let budgets = goa.budgets_at(SimTime::ZERO + SimDuration::from_days(9), &[p1, p2]);
        assert_eq!(budgets.len(), 2);
        // Server 2 wants twice the OC power, so it gets the larger share of
        // headroom (same structure as the paper's example).
        let extra1 = budgets[0] - Watts::new(400.0);
        let extra2 = budgets[1] - Watts::new(300.0);
        assert!(extra2 > extra1);
        // Budget conservation.
        assert!(((budgets[0] + budgets[1]) - Watts::new(1300.0)).get().abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "rack limit must be positive")]
    fn rejects_zero_limit() {
        let _ = GlobalOverclockAgent::new(Watts::ZERO, PolicyKind::SmartOClock);
    }

    #[test]
    fn faulted_budgets_withhold_during_outage() {
        use simcore::faults::FaultPlanConfig;
        let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::SmartOClock);
        let demands = [
            DemandProfile {
                regular: Watts::new(400.0),
                overclock_demand: Watts::new(50.0),
            },
            DemandProfile {
                regular: Watts::new(300.0),
                overclock_demand: Watts::new(100.0),
            },
        ];
        let cfg = FaultPlanConfig {
            goa_outages: 1,
            goa_outage_len: SimDuration::WEEK,
            ..FaultPlanConfig::none()
        };
        let plan = FaultPlan::generate(&cfg, SimTime::ZERO, SimTime::ZERO + SimDuration::WEEK);
        // The single week-long outage covers the whole horizon.
        let during = plan.outages()[0].start;
        assert_eq!(goa.budgets_for_faulted(during, &demands, &plan), None);
        // A zero-fault plan always answers.
        let healthy = FaultPlan::none();
        assert_eq!(
            goa.budgets_for_faulted(during, &demands, &healthy),
            Some(goa.budgets_for(&demands))
        );
    }
}
