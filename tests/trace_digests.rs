//! Trace-generator digest matrix: every byte `TraceGenerator` produces,
//! pinned config by config in `tests/fixtures/trace_digests.txt`.
//!
//! Each fixture line is one generator config: a label, a few readable
//! counts, and a 64-bit FNV-1a digest over the fleet's observable output —
//! region, and per rack its index, CPU generation, limit, rack power and
//! (when kept) every server's three series, each as raw `f64` bits with the
//! series' start, step and length. The configs cover the shapes the
//! generator's fast paths must agree with its plain per-step evaluation on:
//! steps that divide a day, a step that divides a week but not a day, a
//! step that divides neither, spans shorter than a week and spans of
//! partial weeks, every VM churning, every day an outlier, and per-server
//! series both kept and dropped. To regenerate after an *intentional*
//! behavior change:
//!
//! ```text
//! SOC_UPDATE_GOLDEN=1 cargo test -p soc-bench --test trace_digests
//! ```
//!
//! and commit the diff together with a justification.

use simcore::series::TimeSeries;
use simcore::time::SimDuration;
use soc_traces::fleet::{FleetTrace, RackTrace};
use soc_traces::gen::{FleetConfig, TraceGenerator};

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/trace_digests.txt"
);

/// One generator run: a fixture label, the config and the seed.
struct Case {
    label: &'static str,
    config: FleetConfig,
    seed: u64,
}

fn case(label: &'static str, seed: u64, edit: impl FnOnce(&mut FleetConfig)) -> Case {
    let mut config = FleetConfig::small_test();
    edit(&mut config);
    Case {
        label,
        config,
        seed,
    }
}

fn cases() -> Vec<Case> {
    vec![
        case("small_test", 42, |_| {}),
        case("small_test-seed7", 7, |_| {}),
        Case {
            label: "paper_reference-2",
            config: FleetConfig::paper_reference(2),
            seed: 42,
        },
        Case {
            label: "paper_reference-1-server-series",
            config: FleetConfig {
                keep_server_series: true,
                ..FleetConfig::paper_reference(1)
            },
            seed: 1009,
        },
        case("churn-all", 42, |c| c.vm_churn_weekly = 1.0),
        case("outlier-all", 42, |c| c.outlier_day_prob = 1.0),
        // 11 minutes divides neither a day nor a week.
        case("step-11min", 42, |c| c.step = SimDuration::from_minutes(11)),
        case("step-11min-churn-all", 42, |c| {
            c.step = SimDuration::from_minutes(11);
            c.vm_churn_weekly = 1.0;
        }),
        // 7 minutes divides a week but not a day.
        case("step-7min-churn-all", 42, |c| {
            c.step = SimDuration::from_minutes(7);
            c.vm_churn_weekly = 1.0;
        }),
        case("span-3d", 42, |c| c.span = SimDuration::from_days(3)),
        case("span-3d-churn-all", 42, |c| {
            c.span = SimDuration::from_days(3);
            c.vm_churn_weekly = 1.0;
        }),
        case("span-10d", 42, |c| c.span = SimDuration::from_days(10)),
        case("span-10d-5min-churn-all", 42, |c| {
            c.span = SimDuration::from_days(10);
            c.step = SimDuration::from_minutes(5);
            c.vm_churn_weekly = 1.0;
        }),
        case("span-2w-7h", 42, |c| {
            c.span = SimDuration::WEEK * 2 + SimDuration::from_hours(7);
        }),
        case("rack-series-only", 42, |c| c.keep_server_series = false),
    ]
}

/// 64-bit FNV-1a, fed incrementally.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn series(&mut self, s: &TimeSeries) {
        self.u64(s.start().as_micros());
        self.u64(s.step().as_micros());
        self.u64(s.len() as u64);
        for v in s.values() {
            self.u64(v.to_bits());
        }
    }

    fn rack(&mut self, rack: &RackTrace) {
        self.u64(rack.index as u64);
        self.bytes(rack.generation.to_string().as_bytes());
        self.u64(rack.limit.get().to_bits());
        self.series(&rack.power);
        self.u64(rack.servers.len() as u64);
        for s in &rack.servers {
            self.u64(s.index as u64);
            self.series(&s.utilization);
            self.series(&s.power);
            self.series(&s.oc_demand_cores);
        }
    }
}

/// The fixture line for one generated fleet.
fn digest_line(label: &str, fleet: &FleetTrace) -> String {
    let mut h = Fnv1a::new();
    h.bytes(fleet.region.as_bytes());
    for rack in &fleet.racks {
        h.rack(rack);
    }
    let servers: usize = fleet.racks.iter().map(|r| r.servers.len()).sum();
    let samples = fleet.racks.first().map_or(0, |r| r.power.len());
    format!(
        "{label} racks={} servers={servers} samples={samples} fnv1a={:016x}",
        fleet.racks.len(),
        h.0
    )
}

fn observed() -> Vec<String> {
    let mut lines = Vec::new();
    for c in cases() {
        let generator = TraceGenerator::new(c.seed);
        lines.push(digest_line(c.label, &generator.generate(&c.config)));
        // `generate_rack` seeds each rack on its own; pin that path too.
        let rack = generator.generate_rack(&c.config, 1);
        let mut h = Fnv1a::new();
        h.rack(&rack);
        lines.push(format!(
            "{}/rack1 servers={} fnv1a={:016x}",
            c.label,
            rack.servers.len(),
            h.0
        ));
    }
    lines
}

#[test]
fn generated_traces_match_the_digest_fixture() {
    let lines = observed();
    if std::env::var_os("SOC_UPDATE_GOLDEN").is_some() {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(FIXTURE_PATH, text).expect("write trace digest fixture");
        eprintln!("trace digest fixture updated: {FIXTURE_PATH}");
        return;
    }
    let text = std::fs::read_to_string(FIXTURE_PATH)
        .expect("trace digest fixture missing; run with SOC_UPDATE_GOLDEN=1 to create it");
    let expected: Vec<&str> = text.lines().collect();
    assert_eq!(
        expected.len(),
        lines.len(),
        "fixture lists {} lines for {} observed; regenerate with SOC_UPDATE_GOLDEN=1",
        expected.len(),
        lines.len()
    );
    for (want, got) in expected.iter().zip(&lines) {
        assert_eq!(got, want, "trace digest diverged from the fixture");
    }
}
