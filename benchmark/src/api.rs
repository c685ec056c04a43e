//! The one adapter between the benchmark and the program.
//!
//! Every call into the program's public API lives in this file, wrapped in
//! [`spans::timed`]. Workload definitions speak only in the plain types
//! below (`FleetShape`, `Cell`, `CellOutcome`, …), so when the program's
//! simulation entry points change, this file is re-pointed and the
//! workloads stay as they are.

use crate::spans::{self, Timed, UNACCOUNTED};
use simcore::faults::FaultPlanConfig;
use simcore::time::SimDuration;
use soc_analyze::chains::{self, DEFAULT_TERMINALS};
use soc_analyze::Trace;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::{power_groups, PolicyMetrics, RackOutcome};
use soc_cluster::shard::{
    generate_fleet_probed, run_cluster_sims_probed, simulate_policy_prepared_probed,
    train_fleet_probed, FleetTraces, TrainedFleet,
};
use soc_cluster::{ClusterConfig, ClusterResult};
use soc_reliability::binning::BinningConfig;
use soc_telemetry::json::event_to_json;
use soc_telemetry::{Event, Telemetry};
use soc_workloads::socialnet::LoadLevel;

pub use smartoclock::policy::PolicyKind as Policy;
pub use soc_cluster::probe::{ShardProbe, SpanToken};
pub use soc_cluster::NoopProbe;
pub use soc_cluster::SystemKind as System;

/// Hardware threads available to this process.
pub fn available_parallelism() -> usize {
    simcore::par::available_parallelism()
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable: the benchmark then fails rather than print 0.
pub fn peak_rss_mib() -> Option<f64> {
    match soc_prof::peak_rss_bytes() {
        0 => None,
        bytes => Some(bytes as f64 / (1024.0 * 1024.0)),
    }
}

/// Size of a large-scale (Table I) fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub racks: usize,
    /// Trace length; week 1 trains, the rest is simulated.
    pub weeks: u64,
    pub step_minutes: u64,
    pub servers_per_rack: (usize, usize),
}

/// One simulation cell of a prepared fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub policy: Policy,
    /// Frequency bins (1 = uniform silicon).
    pub bins: u32,
    pub risk_budget: f64,
    /// Run under the mixed control-plane fault plan.
    pub faulted: bool,
}

impl Cell {
    /// The unbinned, unfaulted Table I cell of `policy`.
    pub fn table1(policy: Policy) -> Cell {
        Cell {
            policy,
            bins: 1,
            risk_budget: 1.0,
            faulted: false,
        }
    }
}

/// A generated (and, after [`train`], trained) fleet.
pub struct Fleet {
    config: LargeScaleConfig,
    traces: FleetTraces,
    trained: Option<TrainedFleet>,
    /// Servers per rack, in rack order.
    pub rack_servers: Vec<usize>,
}

impl Fleet {
    pub fn servers(&self) -> usize {
        self.rack_servers.iter().sum()
    }

    /// Server-steps the trace generator produced (all weeks).
    pub fn generated_server_steps(&self) -> u64 {
        self.servers() as u64 * steps_per_week(&self.config) * self.config.weeks
    }

    pub fn server_weeks(&self) -> f64 {
        (self.servers() as u64 * self.config.weeks) as f64
    }

    pub fn step_hours(&self) -> f64 {
        self.config.step.as_hours_f64()
    }
}

fn steps_per_week(config: &LargeScaleConfig) -> u64 {
    SimDuration::WEEK.as_micros() / config.step.as_micros()
}

/// The mixed fault plan of the policy grid: gOA outages, dropped and
/// delayed budgets, telemetry gaps and sOA restarts. No prediction bias or
/// noise, so templates trained without faults serve every cell.
fn mixed_faults(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        goa_outages: 2,
        goa_outage_len: SimDuration::from_hours(12),
        budget_drop_prob: 0.3,
        budget_delay_prob: 0.3,
        budget_delay: SimDuration::from_minutes(30),
        telemetry_gap_prob: 0.2,
        prediction_bias: 1.0,
        prediction_noise: 0.0,
        soa_restart_prob: 0.01,
    }
}

fn fleet_config(shape: FleetShape, seed: u64) -> LargeScaleConfig {
    let mut config = LargeScaleConfig::bench_reference(shape.racks);
    config.weeks = shape.weeks;
    config.step = SimDuration::from_minutes(shape.step_minutes);
    config.servers_per_rack = shape.servers_per_rack;
    config.seed = seed;
    config
}

fn cell_config(base: &LargeScaleConfig, cell: Cell) -> LargeScaleConfig {
    let mut config = base.clone();
    if cell.faulted {
        config.faults = mixed_faults(config.seed ^ 0xFA17);
    }
    if cell.bins > 1 {
        config.binning = BinningConfig {
            bins: cell.bins,
            risk_budget: cell.risk_budget,
            wear_spread: 0.3,
            seed: config.seed,
        };
    }
    config
}

/// Generate every rack's trace once (`generate_fleet_probed`).
pub fn generate(
    shape: FleetShape,
    seed: u64,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Timed<Fleet> {
    let config = fleet_config(shape, seed);
    let t = spans::timed("generate_fleet", UNACCOUNTED, threads, || {
        generate_fleet_probed(&config, threads, probe)
    });
    t.map(|traces| Fleet {
        rack_servers: traces.iter().map(|(rack, _)| rack.servers.len()).collect(),
        config,
        traces,
        trained: None,
    })
}

/// Train every rack's week-1 templates once (`train_fleet_probed`).
pub fn train(fleet: &mut Fleet, threads: usize, probe: &dyn ShardProbe) -> Timed<()> {
    let t = spans::timed("train_fleet", UNACCOUNTED, threads, || {
        train_fleet_probed(&fleet.config, &fleet.traces, threads, probe)
    });
    t.map(|trained| fleet.trained = Some(trained))
}

/// Simulated statistics of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    pub metrics: PolicyMetrics,
    /// Σ servers × evaluated steps.
    pub server_steps: u64,
    /// Σ evaluated steps over racks.
    pub rack_steps: u64,
    /// Capped steps in the high-power tercile of racks.
    pub high_power_capping_steps: u64,
    /// Per-rack outcomes, compared bytewise by the replay check.
    pub racks: Vec<RackOutcome>,
}

/// Simulate one cell over a trained fleet (`simulate_policy_prepared_probed`,
/// the columnar engine), telemetry off.
///
/// # Panics
/// Panics if `fleet` was not trained.
pub fn simulate(
    fleet: &Fleet,
    cell: Cell,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Timed<CellOutcome> {
    let config = cell_config(&fleet.config, cell);
    let trained = fleet.trained.as_ref().expect("train the fleet first");
    let telemetry = Telemetry::disabled();
    let t = spans::timed("simulate", UNACCOUNTED, threads, || {
        simulate_policy_prepared_probed(
            &config,
            cell.policy,
            &fleet.traces,
            trained,
            &telemetry,
            threads,
            probe,
        )
    });
    t.map(|racks| {
        let (high, _, _) = power_groups(&racks);
        CellOutcome {
            metrics: PolicyMetrics::aggregate(cell.policy, &racks),
            server_steps: racks
                .iter()
                .map(|o| o.steps * fleet.rack_servers[o.rack] as u64)
                .sum(),
            rack_steps: racks.iter().map(|o| o.steps).sum(),
            high_power_capping_steps: racks
                .iter()
                .filter(|o| high.contains(&o.rack))
                .map(|o| o.capping_steps)
                .sum(),
            racks,
        }
    })
}

/// One closed-loop cluster run to make.
#[derive(Debug, Clone)]
pub struct ClusterSpec(ClusterConfig);

impl ClusterSpec {
    pub fn system(&self) -> System {
        self.0.system
    }

    pub fn servers(&self) -> usize {
        self.0.socialnet_servers + self.0.mltrain_servers + self.0.spare_servers
    }

    pub fn ticks(&self) -> u64 {
        self.0.duration.as_micros() / self.0.tick.as_micros()
    }

    pub fn tick_secs(&self) -> f64 {
        self.0.tick.as_secs_f64()
    }

    pub fn server_hours(&self) -> f64 {
        self.servers() as f64 * self.0.duration.as_hours_f64()
    }
}

/// The §V-A closed-loop cluster (`ClusterConfig::paper_reference`) for
/// every system, seeded.
pub fn cluster_specs(seed: u64) -> Vec<ClusterSpec> {
    System::ALL
        .into_iter()
        .map(|system| {
            ClusterSpec(ClusterConfig {
                seed,
                ..ClusterConfig::paper_reference(system)
            })
        })
        .collect()
}

/// Result of one closed-loop run, which the checks and digest read.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome(ClusterResult);

impl ClusterOutcome {
    pub fn system(&self) -> System {
        self.0.system
    }

    /// Whether any SocialNet instance reported results.
    pub fn has_instances(&self) -> bool {
        !self.0.instances.is_empty()
    }

    /// Mean P99 (ms) of the high-load SocialNet instances.
    pub fn high_load_p99_ms(&self) -> f64 {
        self.0.p99_by_load(LoadLevel::High)
    }
}

/// Run closed-loop sims (`run_cluster_sims_probed`), telemetry into memory
/// when `telemetry` is set. Returns the results and the emitted events.
pub fn run_cluster(
    specs: &[ClusterSpec],
    telemetry: bool,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Timed<(Vec<ClusterOutcome>, Vec<Event>)> {
    let (tm, sink) = if telemetry {
        let (tm, sink) = Telemetry::memory();
        (tm, Some(sink))
    } else {
        (Telemetry::disabled(), None)
    };
    let t = spans::timed("run_cluster_sims", UNACCOUNTED, threads, || {
        run_cluster_sims_probed(
            specs.iter().map(|s| s.0.clone()).collect(),
            &tm,
            threads,
            probe,
        )
    });
    let events = sink.map(|s| s.events()).unwrap_or_default();
    t.map(|results| {
        let outcomes = results.into_iter().map(ClusterOutcome).collect();
        (outcomes, events)
    })
}

/// Encode events as JSONL (`event_to_json`), one line per event.
pub fn encode_jsonl(events: &[Event]) -> Timed<String> {
    spans::timed("encode_jsonl", "telemetry", 1, || {
        let mut out = String::new();
        for e in events {
            out.push_str(&event_to_json(e));
            out.push('\n');
        }
        out
    })
}

/// A parsed trace and the checks the benchmark reads off it.
pub struct ParsedTrace {
    trace: Trace,
}

impl ParsedTrace {
    pub fn events(&self) -> usize {
        self.trace.len()
    }
}

/// Read JSONL back (`soc_analyze::Trace::parse`).
pub fn parse_trace(jsonl: &str) -> Timed<Result<ParsedTrace, String>> {
    spans::timed("parse_trace", "analyze", 1, || {
        Trace::parse(jsonl)
            .map(|trace| ParsedTrace { trace })
            .map_err(|e| e.to_string())
    })
}

/// The full offline report (`soc_analyze::full_report`).
pub fn full_report(trace: &ParsedTrace) -> Timed<String> {
    spans::timed("full_report", "analyze", 1, || {
        soc_analyze::full_report(&trace.trace, "benchmark")
    })
}

/// `cause_id`s that resolve to no `decision_id` in the trace.
pub fn dangling_links(trace: &ParsedTrace) -> Timed<usize> {
    spans::timed("chain_stats", "analyze", 1, || {
        chains::stats(&trace.trace, &DEFAULT_TERMINALS).dangling_links
    })
}
