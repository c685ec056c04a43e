//! Engine digest matrix: the large-scale engine's observable output, pinned
//! cell by cell in `tests/fixtures/engine_digests.txt`.
//!
//! Each fixture line is one (config, policy) cell: a label, the policy, a
//! few readable counts, and a 64-bit FNV-1a digest over everything a
//! consumer can observe from the run — the canonical JSONL trace, the
//! rendered metrics snapshot, and the `{:?}` of the rack outcomes. Every
//! cell runs the columnar engine at 1, 2 and 4 threads; all three must
//! reproduce the committed line. The lines were recorded while the
//! row-oriented engine the columnar one replaced still ran beside it and
//! produced the same line for every cell; they are the reference the test
//! names refer to. To regenerate after an *intentional* behavior change:
//!
//! ```text
//! SOC_UPDATE_GOLDEN=1 cargo test -p soc-bench --test equivalence
//! ```
//!
//! and commit the diff together with a justification.
//!
//! The `#[ignore]`d `smoke_100k_racks_*` test is the ROADMAP direction-1
//! scale check (100k racks through the streaming sharded path); CI's
//! perf-gate job runs it with `--include-ignored`.

use simcore::faults::FaultPlanConfig;
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::RackOutcome;
use soc_cluster::shard::{
    generate_fleet_probed, simulate_policy_prepared_probed, simulate_policy_sharded_probed,
    train_fleet_probed,
};
use soc_cluster::NoopProbe;
use soc_reliability::binning::BinningConfig;
use soc_telemetry::json::event_to_json;
use soc_telemetry::{Event, Telemetry};
use std::fmt::Write as _;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/engine_digests.txt"
);

fn config(seed: u64, faults: FaultPlanConfig) -> LargeScaleConfig {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.seed = seed;
    cfg.faults = faults;
    cfg
}

/// A heterogeneous silicon fleet: many bins, a tight-ish risk budget, and a
/// wide wear spread so denials, down-bins, and per-part wear all occur.
fn binned(mut cfg: LargeScaleConfig, seed: u64) -> LargeScaleConfig {
    cfg.binning = BinningConfig {
        bins: 8,
        risk_budget: 0.3,
        wear_spread: 0.4,
        seed,
    };
    cfg
}

/// A fault plan exercising every fault dimension at once.
fn chaos_faults(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        goa_outages: 2,
        goa_outage_len: SimDuration::from_hours(2),
        budget_drop_prob: 0.05,
        budget_delay_prob: 0.05,
        budget_delay: SimDuration::from_minutes(30),
        telemetry_gap_prob: 0.03,
        prediction_bias: 1.05,
        prediction_noise: 0.02,
        soa_restart_prob: 0.01,
    }
}

/// One 12-hour outage plus drops, delays, gaps, restarts and a static
/// prediction bias, on the default fault seed.
fn custom_faults() -> FaultPlanConfig {
    FaultPlanConfig {
        goa_outages: 1,
        goa_outage_len: SimDuration::from_hours(12),
        budget_drop_prob: 0.05,
        budget_delay_prob: 0.1,
        budget_delay: SimDuration::from_minutes(30),
        telemetry_gap_prob: 0.02,
        soa_restart_prob: 0.01,
        prediction_bias: 1.05,
        ..FaultPlanConfig::none()
    }
}

/// One cell of the matrix: the fixture label of its config, and the policy.
struct Cell {
    label: &'static str,
    cfg: LargeScaleConfig,
    policy: PolicyKind,
}

impl Cell {
    /// The fixture key: label and policy, the first two fields of a line.
    fn key(&self) -> String {
        format!("{} {}", self.label, self.policy)
    }
}

fn cells(label: &'static str, cfg: &LargeScaleConfig, policies: &[PolicyKind]) -> Vec<Cell> {
    policies
        .iter()
        .map(|&policy| Cell {
            label,
            cfg: cfg.clone(),
            policy,
        })
        .collect()
}

const SMART: PolicyKind = PolicyKind::SmartOClock;
const SMART_AND_CENTRAL: [PolicyKind; 2] = [PolicyKind::SmartOClock, PolicyKind::Central];

fn seed_cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for (label, seed) in [("s7", 7), ("s42", 42), ("s1234", 1234)] {
        out.extend(cells(
            label,
            &config(seed, FaultPlanConfig::none()),
            &[SMART],
        ));
    }
    out
}

/// The other four policies on seed 42 (its SmartOClock cell is a seed cell).
fn policy_cells() -> Vec<Cell> {
    let others: Vec<PolicyKind> = PolicyKind::ALL
        .into_iter()
        .filter(|&p| p != SMART)
        .collect();
    cells("s42", &config(42, FaultPlanConfig::none()), &others)
}

fn silicon_cells() -> Vec<Cell> {
    let mut out = Vec::new();
    out.extend(cells(
        "binned-s7",
        &binned(config(7, FaultPlanConfig::none()), 7),
        &[SMART],
    ));
    out.extend(cells(
        "binned-s42",
        &binned(config(42, FaultPlanConfig::none()), 42),
        &PolicyKind::ALL,
    ));
    // Binning and the full chaos fault plan composed.
    out.extend(cells(
        "binned-chaos3",
        &binned(config(42, chaos_faults(3)), 13),
        &SMART_AND_CENTRAL,
    ));
    let mut cfg = config(42, FaultPlanConfig::none());
    cfg.binning = BinningConfig {
        bins: 8,
        risk_budget: 0.35,
        wear_spread: 0.4,
        seed: 7,
    };
    out.extend(cells("binned-custom", &cfg, &PolicyKind::ALL));
    cfg.faults = FaultPlanConfig {
        goa_outages: 1,
        goa_outage_len: SimDuration::from_hours(12),
        budget_drop_prob: 0.05,
        telemetry_gap_prob: 0.02,
        soa_restart_prob: 0.01,
        ..FaultPlanConfig::none()
    };
    cfg.binning = BinningConfig {
        bins: 4,
        risk_budget: 0.5,
        wear_spread: 0.2,
        seed: 11,
    };
    out.extend(cells("binned-faults-custom", &cfg, &SMART_AND_CENTRAL));
    out
}

fn fault_cells() -> Vec<Cell> {
    let mut out = Vec::new();
    // Chaos plan across two seeds, for decentralized SmartOClock and the
    // centralized baseline, then the central fail-open mode.
    out.extend(cells(
        "chaos3",
        &config(42, chaos_faults(3)),
        &SMART_AND_CENTRAL,
    ));
    out.extend(cells(
        "chaos99",
        &config(42, chaos_faults(99)),
        &SMART_AND_CENTRAL,
    ));
    let mut open = config(42, chaos_faults(5));
    open.central_fail_open = true;
    out.extend(cells("chaos5-open", &open, &[PolicyKind::Central]));
    out.extend(cells(
        "faults-custom",
        &config(42, custom_faults()),
        &SMART_AND_CENTRAL,
    ));
    out
}

/// Every cell, in fixture order.
fn matrix() -> Vec<Cell> {
    [seed_cells(), policy_cells(), silicon_cells(), fault_cells()]
        .into_iter()
        .flatten()
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fixture line for one observed run.
fn digest_line(cell: &Cell, events: &[Event], metrics: &str, outcomes: &[RackOutcome]) -> String {
    let mut observed = String::new();
    for e in events {
        observed.push_str(&event_to_json(e));
        observed.push('\n');
    }
    observed.push_str(metrics);
    let _ = write!(observed, "{outcomes:?}");
    let sum = |f: fn(&RackOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    format!(
        "{} events={} requests={} granted={} capping_steps={} violation_steps={} fnv1a={:016x}",
        cell.key(),
        events.len(),
        sum(|o| o.requests),
        sum(|o| o.granted),
        sum(|o| o.capping_steps),
        sum(|o| o.violation_steps),
        fnv1a(observed.as_bytes()),
    )
}

/// Run the columnar engine at `threads` over pre-generated traces and
/// pre-trained templates.
fn columnar_line(cell: &Cell, threads: usize) -> String {
    let fleet = generate_fleet_probed(&cell.cfg, threads, &NoopProbe);
    let trained = train_fleet_probed(&cell.cfg, &fleet, threads, &NoopProbe);
    let (tm, sink) = Telemetry::memory();
    let outcomes = simulate_policy_prepared_probed(
        &cell.cfg,
        cell.policy,
        &fleet,
        &trained,
        &tm,
        threads,
        &NoopProbe,
    );
    digest_line(
        cell,
        &sink.events(),
        &tm.metrics_snapshot().render(),
        &outcomes,
    )
}

fn updating() -> bool {
    std::env::var_os("SOC_UPDATE_GOLDEN").is_some()
}

/// Fixture lines as (key, line), in file order.
fn fixture() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(FIXTURE_PATH)
        .expect("digest fixture missing; run with SOC_UPDATE_GOLDEN=1 to create it");
    text.lines()
        .map(|line| {
            let key: Vec<&str> = line.split_whitespace().take(2).collect();
            (key.join(" "), line.to_string())
        })
        .collect()
}

/// Every cell must produce the same line at 1, 2 and 4 threads, and the line
/// must match the fixture (skipped while regenerating it).
fn assert_cells_match_fixture(cells: &[Cell]) {
    let expected = if updating() { Vec::new() } else { fixture() };
    for cell in cells {
        let key = cell.key();
        let line = columnar_line(cell, 1);
        for threads in [2, 4] {
            assert_eq!(
                columnar_line(cell, threads),
                line,
                "{key}: {threads} threads diverged from 1 thread"
            );
        }
        if updating() {
            continue;
        }
        let (_, want) = expected.iter().find(|(k, _)| *k == key).unwrap_or_else(|| {
            panic!("{key}: no fixture line; regenerate with SOC_UPDATE_GOLDEN=1")
        });
        assert_eq!(&line, want, "{key}: digest diverged from the fixture");
    }
}

#[test]
fn digest_fixture_lists_every_cell_once() {
    let cells = matrix();
    assert_eq!(cells.len(), 29);
    if updating() {
        let text: String = cells.iter().map(|c| columnar_line(c, 1) + "\n").collect();
        std::fs::write(FIXTURE_PATH, text).expect("write digest fixture");
        eprintln!("digest fixture updated: {FIXTURE_PATH}");
        return;
    }
    let fixture_keys: Vec<String> = fixture().into_iter().map(|(k, _)| k).collect();
    let matrix_keys: Vec<String> = cells.iter().map(Cell::key).collect();
    assert_eq!(fixture_keys, matrix_keys, "fixture cells are stale");
}

#[test]
fn columnar_engine_matches_reference_across_seeds_and_threads() {
    assert_cells_match_fixture(&seed_cells());
}

#[test]
fn columnar_engine_matches_reference_for_every_policy() {
    assert_cells_match_fixture(&policy_cells());
}

#[test]
fn columnar_engine_matches_reference_with_heterogeneous_silicon() {
    assert_cells_match_fixture(&silicon_cells());
}

#[test]
fn columnar_engine_matches_reference_under_fault_plans() {
    assert_cells_match_fixture(&fault_cells());
}

/// ROADMAP direction-1 scale smoke: 100k racks, a simulated week of
/// evaluation, streamed through the sharded path (traces generated inside
/// each worker, so memory stays bounded by shard, not fleet). Byte-equal
/// outcomes at 1 and 4 threads. Too slow for tier-1 — CI's perf-gate job
/// runs it via `--include-ignored`.
#[test]
#[ignore = "multi-minute scale smoke; run in CI perf-gate with --include-ignored"]
fn smoke_100k_racks_streams_and_stays_deterministic() {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.racks = 100_000;
    cfg.servers_per_rack = (1, 2);
    cfg.weeks = 2;
    // 6h divides a day evenly (template slots stay aligned) and keeps the
    // run to ~8 evaluated steps per rack.
    cfg.step = SimDuration::from_hours(6);
    // Heterogeneous silicon at scale: the per-bin tables must stay
    // deterministic across sharding too. At `binned()`'s 0.3 risk budget
    // parts down-bin but none can be denied; 0.1 is tight enough that both
    // outcomes occur.
    let mut cfg = binned(cfg, 42);
    cfg.binning.risk_budget = 0.1;
    let telemetry = Telemetry::disabled();
    let one =
        simulate_policy_sharded_probed(&cfg, PolicyKind::SmartOClock, &telemetry, 1, &NoopProbe);
    assert_eq!(one.len(), 100_000);
    let four =
        simulate_policy_sharded_probed(&cfg, PolicyKind::SmartOClock, &telemetry, 4, &NoopProbe);
    assert_eq!(one, four, "100k-rack outcomes diverged at 4 threads");
    let granted: u64 = one.iter().map(|o| o.granted).sum();
    assert!(granted > 0, "no overclocking granted across 100k racks");
    let denied: u64 = one.iter().map(|o| o.bin_denied).sum();
    assert!(denied > 0, "a 0.1 risk budget must deny some of 100k racks");
    let down_binned: u64 = one.iter().map(|o| o.down_binned).sum();
    assert!(
        down_binned > 0,
        "a 0.1 risk budget must down-bin some parts"
    );
}
