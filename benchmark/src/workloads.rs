//! The three workloads. Each iteration is one full pass, set-up included;
//! every program call goes through [`crate::api`].

use crate::api::{self, Cell, ClusterOutcome, FleetShape, NoopProbe, Policy, ShardProbe, System};
use crate::report::Digest;
use crate::spans::Timed;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How an iteration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No probe: the iterations end-to-end metrics come from.
    Plain,
    /// The span probe attached and benchmark spans recorded.
    Traced,
    /// `cluster_traced` only: the same sims with telemetry off.
    TelemetryOff,
}

pub struct Ctx {
    pub seed: u64,
    pub threads: usize,
    /// A `--trace 1` run: per-layer metrics are wanted.
    pub trace: bool,
}

/// Host time and outcome of one iteration.
pub struct Iteration {
    pub variant: Variant,
    pub wall: Duration,
    /// Host time before the first simulated step.
    pub setup: Duration,
    /// Simulated server-hours completed.
    pub server_hours: f64,
    /// Simulation cells run (one operation each) and those failing a check.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the simulated statistics (`None` where not comparable).
    pub digest: Option<u64>,
}

/// Named sums and samples for the per-layer ratios.
#[derive(Default)]
pub struct Sums {
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Sums {
    pub fn add(&mut self, key: impl Into<String>, v: f64) {
        *self.sums.entry(key.into()).or_default() += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// `num ÷ den`, or `None` when nothing was counted in `den`.
    pub fn ratio(&self, num: &str, den: &str) -> Option<f64> {
        let d = self.get(den);
        (d > 0.0).then(|| self.get(num) / d)
    }

    pub fn push(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    pub fn median(&self, key: &str) -> Option<f64> {
        self.samples
            .get(key)
            .filter(|v| !v.is_empty())
            .map(|v| crate::report::median(v))
    }
}

/// What a workload accumulates across iterations.
#[derive(Default)]
pub struct Tally {
    /// Host costs from plain iterations.
    pub plain: Sums,
    /// Work counts from traced iterations (to normalise span time).
    pub traced: Sums,
    /// Simulated statistics of the first iteration.
    pub sim: BTreeMap<String, f64>,
}

pub trait Workload {
    /// Shape for the run metadata.
    fn shape(&self) -> String;

    /// The variants of one round of a traced run.
    fn traced_round(&self) -> &'static [Variant] {
        &[Variant::Plain, Variant::Traced]
    }

    /// Run one iteration; `first` also runs the 1-thread replay check.
    fn iterate(&mut self, ctx: &Ctx, variant: Variant, first: bool, tally: &mut Tally)
        -> Iteration;
}

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "paper_slice" => Some(Box::new(Largescale::paper_slice())),
        "policy_grid" => Some(Box::new(Largescale::policy_grid())),
        "cluster_traced" => Some(Box::new(ClusterTraced::default())),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["paper_slice", "policy_grid", "cluster_traced"];

fn probe_for(variant: Variant) -> &'static dyn ShardProbe {
    match variant {
        Variant::Traced => &crate::spans::SpanProbe,
        Variant::Plain | Variant::TelemetryOff => &NoopProbe,
    }
}

/// Paper-shaped racks (§V-B): 24–32 servers, 5-minute steps.
const PAPER_RACK: (usize, usize) = (24, 32);

/// A trace-driven workload: generate and train one fleet, then simulate a
/// list of cells over it (`paper_slice`, `policy_grid`).
pub struct Largescale {
    shape: FleetShape,
    cells: Vec<Cell>,
    /// The cell replayed at 1 thread against its threaded result.
    replay: Cell,
}

impl Largescale {
    /// Table I cut to a slice: 6 weeks, every policy, no faults, no bins.
    fn paper_slice() -> Largescale {
        Largescale {
            shape: FleetShape {
                racks: 16,
                weeks: 6,
                step_minutes: 5,
                servers_per_rack: PAPER_RACK,
            },
            cells: Policy::ALL.into_iter().map(Cell::table1).collect(),
            replay: Cell::table1(Policy::SmartOClock),
        }
    }

    /// Five policies × eight (bins, risk budget) pairs × {no faults, the
    /// mixed fault plan} = 80 cells over one small fleet.
    fn policy_grid() -> Largescale {
        const BINNING: [(u32, f64); 8] = [
            (1, 1.0),
            (4, 0.5),
            (4, 0.25),
            (4, 0.1),
            (8, 1.0),
            (8, 0.5),
            (8, 0.25),
            (8, 0.1),
        ];
        let mut cells = Vec::new();
        for faulted in [false, true] {
            for (bins, risk_budget) in BINNING {
                for policy in Policy::ALL {
                    cells.push(Cell {
                        policy,
                        bins,
                        risk_budget,
                        faulted,
                    });
                }
            }
        }
        Largescale {
            shape: FleetShape {
                racks: 6,
                weeks: 3,
                step_minutes: 5,
                servers_per_rack: PAPER_RACK,
            },
            replay: Cell {
                policy: Policy::SmartOClock,
                bins: 8,
                risk_budget: 0.25,
                faulted: true,
            },
            cells,
        }
    }
}

/// Output check of one cell: the safety invariant holds (Central runs
/// fail-stop, so in every cell, faulted or not), every rack ran every
/// evaluated step, and grants never exceed requests.
fn cell_ok(outcome: &api::CellOutcome, steps_per_rack: u64) -> bool {
    outcome.metrics.violation_steps == 0
        && outcome.metrics.granted <= outcome.metrics.requests
        && outcome.racks.iter().all(|r| r.steps == steps_per_rack)
}

impl Workload for Largescale {
    fn shape(&self) -> String {
        let s = self.shape;
        format!(
            "{} racks x {}-{} servers, {} weeks at {}-minute steps, {} cells",
            s.racks,
            s.servers_per_rack.0,
            s.servers_per_rack.1,
            s.weeks,
            s.step_minutes,
            self.cells.len()
        )
    }

    fn iterate(
        &mut self,
        ctx: &Ctx,
        variant: Variant,
        first: bool,
        tally: &mut Tally,
    ) -> Iteration {
        let probe = probe_for(variant);
        let threads = ctx.threads;
        let start = Instant::now();
        let gen = api::generate(self.shape, ctx.seed, threads, probe);
        let (gen_core_ns, gen_allocs, gen_bytes) =
            (gen.core_ns(threads), gen.allocs, gen.retained_bytes);
        let mut fleet = gen.value;
        let train = api::train(&mut fleet, threads, probe);
        let setup = gen.wall + train.wall;
        let outcomes: Vec<_> = self
            .cells
            .iter()
            .map(|&cell| (cell, api::simulate(&fleet, cell, threads, probe)))
            .collect();
        let wall = start.elapsed();

        let steps_per_rack = 7 * 24 * 60 / self.shape.step_minutes * (self.shape.weeks - 1);
        let mut failed = 0;
        let mut digest = Digest::default();
        let mut server_steps = 0;
        for (cell, t) in &outcomes {
            failed += u64::from(!cell_ok(&t.value, steps_per_rack));
            digest.add(&format!("{cell:?} {:?}\n", t.value.metrics));
            server_steps += t.value.server_steps;
        }
        let mut attempted = outcomes.len() as u64;

        let sums = match variant {
            Variant::Traced => &mut tally.traced,
            Variant::Plain | Variant::TelemetryOff => &mut tally.plain,
        };
        sums.add("iterations", 1.0);
        sums.add("sim.server_steps", server_steps as f64);
        if variant == Variant::Plain {
            sums.add("gen.core_ns", gen_core_ns);
            sums.add("gen.server_steps", fleet.generated_server_steps() as f64);
            sums.add("gen.allocs", gen_allocs as f64);
            sums.add("gen.racks", fleet.rack_servers.len() as f64);
            sums.add("gen.bytes", gen_bytes as f64);
            sums.add("gen.server_weeks", fleet.server_weeks());
            sums.add("train.core_ns", train.core_ns(threads));
            sums.add("train.servers", fleet.servers() as f64);
            for (cell, t) in &outcomes {
                let p = cell.policy.name();
                sums.add("sim.core_ns", t.core_ns(threads));
                sums.add(format!("sim.core_ns.{p}"), t.core_ns(threads));
                sums.add(format!("sim.server_steps.{p}"), t.value.server_steps as f64);
                sums.add("sim.allocs", t.allocs as f64);
                sums.add("sim.rack_steps", t.value.rack_steps as f64);
            }
        }

        if first {
            tally.sim = largescale_stats(&outcomes);
            // Replay one cell at 1 thread; it must match its threaded run.
            let threaded = outcomes
                .iter()
                .find(|(c, _)| *c == self.replay)
                .map(|(_, t)| &t.value)
                .expect("the replay cell is one of the workload's cells");
            let serial = api::simulate(&fleet, self.replay, 1, &NoopProbe);
            attempted += 1;
            failed += u64::from(serial.value != *threaded);
        }

        Iteration {
            variant,
            wall,
            setup,
            server_hours: server_steps as f64 * fleet.step_hours(),
            attempted,
            failed,
            digest: Some(digest.value()),
        }
    }
}

/// Paper values the fidelity statistics are measured against
/// (EXPERIMENTS.md, Table I and Fig. 12 rows).
const PAPER_SUCCESS_BAND_PP: (f64, f64) = (1.0, 4.0);
const PAPER_CAP_RATIO: f64 = 18.9;
const PAPER_P99_CUT_PP: f64 = 19.0;

/// Simulated statistics of a large-scale iteration: per-policy grant
/// ratios and capped steps, the fault/binning counters, and the Table I
/// fidelity gaps (from the unbinned, unfaulted cells).
fn largescale_stats(outcomes: &[(Cell, Timed<api::CellOutcome>)]) -> BTreeMap<String, f64> {
    let mut sim = BTreeMap::new();
    let mut grants: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (cell, t) in outcomes {
        let (p, m) = (cell.policy.name(), &t.value.metrics);
        let g = grants.entry(p).or_default();
        g.0 += m.granted;
        g.1 += m.requests;
        for (k, v) in [
            (format!("power.capping_steps.{p}"), m.capping_steps as f64),
            ("soa.bin_denied".into(), m.bin_denied as f64),
            ("soa.down_binned".into(), m.down_binned as f64),
            (
                "control.stale_budget_steps".into(),
                m.stale_budget_steps as f64,
            ),
            ("control.restarts".into(), m.restarts as f64),
            ("reliability.wear_days".into(), m.wear_days),
        ] {
            *sim.entry(k).or_insert(0.0) += v;
        }
    }
    for (p, (granted, requests)) in grants {
        let ratio = if requests > 0 {
            granted as f64 / requests as f64
        } else {
            1.0
        };
        sim.insert(format!("soa.grant_ratio.{p}"), ratio);
    }
    let table1 = |policy| {
        outcomes
            .iter()
            .find(|(c, _)| *c == Cell::table1(policy))
            .map(|(_, t)| &t.value)
    };
    if let (Some(central), Some(smart), Some(naive)) = (
        table1(Policy::Central),
        table1(Policy::SmartOClock),
        table1(Policy::NaiveOClock),
    ) {
        let gap = (central.metrics.success_rate - smart.metrics.success_rate) * 100.0;
        let (lo, hi) = PAPER_SUCCESS_BAND_PP;
        sim.insert(
            "fidelity.success_gap_pp".into(),
            (lo - gap).max(gap - hi).max(0.0),
        );
        let ratio = naive.high_power_capping_steps.max(1) as f64
            / smart.high_power_capping_steps.max(1) as f64;
        sim.insert(
            "fidelity.cap_ratio_log10".into(),
            (ratio / PAPER_CAP_RATIO).log10().abs(),
        );
    }
    sim
}

/// The §V-A closed-loop cluster for all five systems with telemetry into
/// memory, then JSONL encode, parse and the full `soc-analyze` report.
#[derive(Default)]
pub struct ClusterTraced {
    /// Results of the first iteration, which every later one must match.
    reference: Option<Vec<ClusterOutcome>>,
}

/// Set-up here is only the config build, about 0.1 µs for five configs,
/// so it is timed in batches and the median batch is reported.
const CONFIG_BATCHES: usize = 51;
const CONFIG_BUILDS_PER_BATCH: u32 = 200;

impl Workload for ClusterTraced {
    fn shape(&self) -> String {
        let specs = api::cluster_specs(0);
        format!(
            "{} systems x {} servers, {} ticks of {} s",
            specs.len(),
            specs[0].servers(),
            specs[0].ticks(),
            specs[0].tick_secs()
        )
    }

    fn traced_round(&self) -> &'static [Variant] {
        &[Variant::Plain, Variant::Traced, Variant::TelemetryOff]
    }

    fn iterate(
        &mut self,
        ctx: &Ctx,
        variant: Variant,
        first: bool,
        tally: &mut Tally,
    ) -> Iteration {
        let probe = probe_for(variant);
        let threads = ctx.threads;
        let start = Instant::now();
        let mut batches = Vec::with_capacity(CONFIG_BATCHES);
        let mut specs = Vec::new();
        for _ in 0..CONFIG_BATCHES {
            let t = Instant::now();
            for _ in 0..CONFIG_BUILDS_PER_BATCH {
                specs = std::hint::black_box(api::cluster_specs(ctx.seed));
            }
            batches.push(t.elapsed().as_secs_f64() / f64::from(CONFIG_BUILDS_PER_BATCH));
        }
        let setup = Duration::from_secs_f64(crate::report::median(&batches));
        let server_hours: f64 = specs.iter().map(api::ClusterSpec::server_hours).sum();
        let server_ticks: u64 = specs.iter().map(|s| s.servers() as u64 * s.ticks()).sum();
        let telemetry = variant != Variant::TelemetryOff;
        let run = api::run_cluster(&specs, telemetry, threads, probe);
        let (outcomes, events) = &run.value;

        let mut failed = 0;
        let mut attempted = outcomes.len() as u64;
        failed += outcomes
            .iter()
            .zip(&specs)
            .filter(|(o, s)| o.system() != s.system() || !o.has_instances())
            .count() as u64;
        if let Some(reference) = &self.reference {
            // Telemetry and probes observe; they must not change results.
            failed += outcomes
                .iter()
                .zip(reference)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }

        if variant == Variant::TelemetryOff {
            let wall = start.elapsed();
            tally.plain.push("cluster.wall_off", run.wall.as_secs_f64());
            return Iteration {
                variant,
                wall,
                setup,
                server_hours,
                attempted,
                failed,
                digest: None,
            };
        }

        let encode = api::encode_jsonl(events);
        let parse = api::parse_trace(&encode.value);
        let (report, dangling) = match &parse.value {
            Ok(trace) => (
                Some(api::full_report(trace)),
                Some(api::dangling_links(trace)),
            ),
            Err(_) => (None, None),
        };
        let wall = start.elapsed();

        // The trace round trip is one more operation: every event must come
        // back, with no dangling causal links.
        attempted += 1;
        let parsed_events = parse.value.as_ref().map_or(0, |t| t.events());
        let trace_ok = parsed_events == events.len()
            && dangling.as_ref().is_some_and(|d| d.value == 0)
            && report.as_ref().is_some_and(|r| !r.value.is_empty());
        failed += u64::from(!trace_ok);

        let mut digest = Digest::default();
        for o in outcomes {
            digest.add(&format!("{o:?}\n"));
        }
        digest.add(&encode.value);

        let sums = if variant == Variant::Traced {
            &mut tally.traced
        } else {
            &mut tally.plain
        };
        sums.add("iterations", 1.0);
        sums.add("harness.server_ticks", server_ticks as f64);
        if variant == Variant::Plain {
            sums.add("harness.core_ns", run.core_ns(threads));
            sums.add("tm.events", events.len() as f64);
            sums.add("tm.bytes", encode.value.len() as f64);
            sums.add("tm.encode_ns", encode.core_ns(1));
            sums.add("analyze.decode_ns", parse.core_ns(1));
            if let Some(r) = &report {
                sums.add("analyze.report_ns", r.core_ns(1));
            }
            sums.push("cluster.wall_on", run.wall.as_secs_f64());
        }

        if first {
            tally.sim = cluster_stats(outcomes);
            // Replay at 1 thread: every system in a traced run (which also
            // times each alone), SmartOClock otherwise.
            for (spec, threaded) in specs.iter().zip(outcomes) {
                if !ctx.trace && spec.system() != System::SmartOClock {
                    continue;
                }
                let alone = api::run_cluster(std::slice::from_ref(spec), false, 1, &NoopProbe);
                attempted += 1;
                failed += u64::from(alone.value.0.first() != Some(threaded));
                let s = spec.system().name();
                tally
                    .plain
                    .add(format!("harness.core_ns.{s}"), alone.core_ns(1));
                let ticks = spec.servers() as u64 * spec.ticks();
                tally
                    .plain
                    .add(format!("harness.server_ticks.{s}"), ticks as f64);
            }
            self.reference = Some(outcomes.clone());
        }

        Iteration {
            variant,
            wall,
            setup,
            server_hours,
            attempted,
            failed,
            digest: Some(digest.value()),
        }
    }
}

/// Simulated statistics of the closed-loop cluster: the Fig. 12 fidelity
/// gap (SmartOClock's high-load P99 cut vs Baseline).
fn cluster_stats(outcomes: &[ClusterOutcome]) -> BTreeMap<String, f64> {
    let p99 = |system| {
        outcomes
            .iter()
            .find(|o| o.system() == system)
            .map(ClusterOutcome::high_load_p99_ms)
    };
    let mut sim = BTreeMap::new();
    if let (Some(base), Some(smart)) = (p99(System::Baseline), p99(System::SmartOClock)) {
        let cut = (1.0 - smart / base) * 100.0;
        sim.insert(
            "fidelity.p99_cut_gap_pp".into(),
            (cut - PAPER_P99_CUT_PP).abs(),
        );
    }
    sim
}
