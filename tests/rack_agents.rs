//! Cross-crate integration: one rack of sOAs driven directly by generated
//! traces and gOA budgets — the per-server agent path without a harness.

use simcore::time::{SimDuration, SimTime};
use smartoclock::config::SoaConfig;
use smartoclock::goa::{GlobalOverclockAgent, ServerProfile};
use smartoclock::messages::{OverclockRequest, SoaEvent};
use smartoclock::policy::PolicyKind;
use smartoclock::soa::{ServerOverclockAgent, SoaStats};
use soc_power::model::PowerModel;
use soc_power::rack::{RackMonitor, RackSignal};
use soc_power::units::Watts;
use soc_predict::template::{PowerTemplate, TemplateKind};
use soc_traces::gen::{FleetConfig, TraceGenerator};

fn rack_of(servers: usize, model: PowerModel) -> Vec<ServerOverclockAgent> {
    (0..servers)
        .map(|_| ServerOverclockAgent::new(model, SoaConfig::reference(), PolicyKind::SmartOClock))
        .collect()
}

#[test]
fn rack_follows_goa_budgets_from_traces() {
    // Generate a rack, build per-server profiles, compute heterogeneous
    // budgets, and drive one simulated hour through the agents.
    let mut cfg = FleetConfig::small_test();
    cfg.servers_per_rack_min = 4;
    cfg.servers_per_rack_max = 4;
    let generator = TraceGenerator::new(17);
    let rack = generator.generate_rack(&cfg, 0);
    let model = generator.model_for(rack.generation);
    let oc_freq = model.plan().max_overclock();

    let profiles: Vec<ServerProfile> = rack
        .servers
        .iter()
        .map(|s| ServerProfile::from_history(&s.power, &s.oc_demand_cores, &model, oc_freq, 0.9))
        .collect();
    let goa = GlobalOverclockAgent::new(rack.limit, PolicyKind::SmartOClock);
    let mut agents = rack_of(rack.servers.len(), model);

    // Push budgets and templates, as the weekly exchange would.
    let now = SimTime::ZERO + SimDuration::WEEK;
    let budgets = goa.budgets_at(now, &profiles);
    for ((agent, budget), server) in agents.iter_mut().zip(&budgets).zip(&rack.servers) {
        agent.set_power_budget(*budget);
        agent.set_power_template(PowerTemplate::build(&server.power, TemplateKind::DailyMed));
    }

    // Drive one hour of 30-second ticks with rack-level signals.
    let mut monitor = RackMonitor::new(rack.limit, 0.95);
    let mut granted = 0usize;
    let mut rejected = 0usize;
    let mut events = Vec::new();
    for k in 0..120u64 {
        let t = now + SimDuration::from_secs(30 * k);
        // Each server with trace demand submits a request once.
        if k == 2 {
            for (i, (agent, server)) in agents.iter_mut().zip(&rack.servers).enumerate() {
                let cores = server.oc_demand_cores.max().max(2.0) as usize;
                let req =
                    OverclockRequest::metrics_based(format!("srv{i}-vm"), cores.min(8), oc_freq);
                match agent.request_overclock(t, req) {
                    Ok(_) => granted += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        let measured: Vec<Watts> = rack
            .servers
            .iter()
            .map(|s| Watts::new(s.power.value_at(t).unwrap_or(0.0)))
            .collect();
        let total: Watts = measured.iter().copied().sum();
        let signal = monitor.observe(total);
        for (agent, &m) in agents.iter_mut().zip(&measured) {
            events.extend(agent.control_tick(t, m, Some(signal)));
        }
    }
    let stats: Vec<SoaStats> = agents.iter().map(ServerOverclockAgent::stats).collect();
    assert_eq!(granted + rejected, rack.servers.len());
    assert!(
        granted > 0,
        "budgets from real traces should admit some requests"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SoaEvent::SetFrequency { .. })),
        "the feedback loop should have produced frequency commands: {events:?}"
    );
    let total_requests: u64 = stats.iter().map(|s| s.requests).sum();
    assert_eq!(total_requests as usize, granted + rejected);
    // Baseline traces stay below the limit, so no capping resets occurred.
    assert!(monitor.capping_events() == 0 || stats.iter().any(|s| s.capping_resets > 0));
}

#[test]
fn agents_survive_goa_silence() {
    // Fault tolerance (§III-Q5): agents keep serving requests with stale
    // budgets when no gOA messages arrive at all.
    let model = PowerModel::reference_server();
    let mut agents = rack_of(2, model);
    for agent in &mut agents {
        agent.set_power_budget(Watts::new(450.0));
    }
    // ... and then the gOA goes silent forever.
    for k in 0..10u64 {
        let t = SimTime::ZERO + SimDuration::from_minutes(10 * k);
        let req = OverclockRequest::metrics_based("vm", 4, model.plan().max_overclock());
        let server = k as usize % 2;
        let grant = agents[server]
            .request_overclock(t, req)
            .expect("stale budgets keep working");
        for agent in &mut agents {
            let _ = agent.control_tick(t, Watts::new(250.0), Some(RackSignal::Normal));
        }
        assert!(agents[server].end_overclock(t + SimDuration::from_minutes(5), grant));
    }
}
