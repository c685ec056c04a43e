//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper_slice|policy_grid|cluster_traced> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole iterations of one workload until `--seconds` have passed,
//! checks every simulation cell, prints a human-readable report and, as the
//! last stdout line, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod alloc;
mod api;
mod report;
mod spans;
mod workloads;

use report::{median, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, Iteration, Tally, Variant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Reserved for confirming a claimed gain on a seed not used while the
/// change was written; do not tune against it.
const CONFIRM_SEED: u64 = 1009;
/// Worker threads per parallel call: two, or fewer on a machine with fewer
/// cores, so figures compare across machines with more.
const MAX_THREADS: usize = 2;
/// Rounds every run makes at least: a plain run's round is one iteration,
/// so set-up is always the median of at least three. A traced round holds
/// two or three iterations, so two rounds keep a slow host within time.
const MIN_PLAIN_ROUNDS: usize = 3;
const MIN_TRACED_ROUNDS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = workloads::by_name(&args.workload) else {
        eprintln!(
            "error: --workload must be one of {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = api::available_parallelism();
    let ctx = Ctx {
        seed: args.seed,
        threads: nproc.clamp(1, MAX_THREADS),
        trace: args.trace,
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let meta = metadata(&args, &ctx, nproc, &workload.shape());
    println!("meta {meta}");
    if let Some(warning) = core_count_warning(&out_dir, &args.workload, nproc) {
        println!("WARNING: {warning}");
    }

    // Iterate in rounds until the time is up: a plain run's rounds are one
    // plain iteration; a traced run alternates plain and traced ones (and
    // telemetry-off ones on cluster_traced), so the overhead of the probe is
    // the difference between iterations of one process.
    let round: &[Variant] = if args.trace {
        workload.traced_round()
    } else {
        &[Variant::Plain]
    };
    let mut tally = Tally::default();
    let mut iters: Vec<Iteration> = Vec::new();
    let start = Instant::now();
    let min_rounds = if args.trace {
        MIN_TRACED_ROUNDS
    } else {
        MIN_PLAIN_ROUNDS
    };
    let mut rounds = 0;
    let mut peak_rss = None;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        for &variant in round {
            let i = iters.len() as u64;
            spans::enable(variant == Variant::Traced);
            spans::begin_iter(i);
            let it = workload.iterate(&ctx, variant, i == 0, &mut tally);
            spans::end_iter(it.wall, ctx.threads);
            spans::enable(false);
            eprintln!(
                "iteration {i} ({variant:?}): {:.3} s, set-up {:.6} s",
                it.wall.as_secs_f64(),
                it.setup.as_secs_f64()
            );
            iters.push(it);
            // Peak memory of one pass: later passes only add allocator
            // fragmentation, which would tie the figure to the run length.
            if i == 0 {
                peak_rss = api::peak_rss_mib();
            }
        }
        rounds += 1;
    }
    let recorded = spans::take();

    // Checks: per-cell failures, plus one digest for every iteration.
    let attempted: u64 = iters.iter().map(|i| i.attempted).sum();
    let mut failed: u64 = iters.iter().map(|i| i.failed).sum();
    let digests: Vec<u64> = iters.iter().filter_map(|i| i.digest).collect();
    let digest = digests[0];
    if digests.iter().any(|&d| d != digest) {
        println!("check: simulated statistics differ between iterations");
        failed += 1;
    }
    let Some(peak_rss) = peak_rss else {
        eprintln!("error: peak resident memory is unreadable (no /proc/self/status)");
        return ExitCode::FAILURE;
    };

    let plain: Vec<&Iteration> = iters
        .iter()
        .filter(|i| i.variant == Variant::Plain)
        .collect();
    let per_plain =
        |f: &dyn Fn(&Iteration) -> f64| median(&plain.iter().map(|i| f(i)).collect::<Vec<_>>());
    let end_to_end = vec![
        Metric::new(
            "server_hours_per_s",
            "server-h/s",
            Some(per_plain(&|i| i.server_hours / i.wall.as_secs_f64())),
        ),
        Metric::new("setup_s", "s", Some(per_plain(&|i| i.setup.as_secs_f64()))),
        Metric::new("peak_rss_mib", "MiB", Some(peak_rss)),
    ];
    let failed_frac = failed as f64 / attempted as f64;
    println!(
        "workload {} seed {} (confirm claims on seed {CONFIRM_SEED}): {} iterations ({} plain), {attempted} cells, {failed} failed, failed_frac {failed_frac}",
        args.workload,
        args.seed,
        iters.len(),
        plain.len()
    );
    println!("digest {digest:016x}");
    println!("end-to-end (host time; medians over plain iterations):");
    print!("{}", report::table(&end_to_end));
    let sim = sim_metrics(&tally.sim);
    println!("simulated statistics (paper values in README.md):");
    print!("{}", report::table(&sim));

    let metrics = if args.trace {
        let layers = per_layer(&tally, &recorded, &iters);
        println!("per-layer (host time unless stated):");
        print!("{}", report::table(&layers));
        let mut all = layers;
        all.extend(sim);
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match write_spans(&path, &recorded, &meta) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
        all
    } else {
        end_to_end
    };
    if let Err(e) = append_history(&out_dir, &meta) {
        eprintln!("warning: run history not written: {e}");
    }
    let finite = metrics.iter().all(|m| m.value.is_none_or(f64::is_finite));
    if !finite {
        println!("check: a metric is not a finite number");
    }
    println!(
        "{}",
        report::result_line(failed == 0 && finite, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Seed, shape, cores, build profile and revision of this run, as JSON.
fn metadata(args: &Args, ctx: &Ctx, nproc: usize, shape: &str) -> String {
    let revision = git_revision().map_or("null".into(), |r| report::quote(&r));
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"shape\": {}, \"nproc\": {nproc}, \"threads\": {}, \"profile\": {}, \"revision\": {revision}, \"seconds\": {}, \"trace\": {}}}",
        report::quote(&args.workload),
        args.seed,
        report::quote(shape),
        ctx.threads,
        report::quote(if cfg!(debug_assertions) { "debug" } else { "release" }),
        report::num(args.seconds),
        args.trace
    )
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

/// Earlier runs of this workload in this checkout taken at another core
/// count: their host times do not compare with this run's.
fn core_count_warning(out_dir: &Path, workload: &str, nproc: usize) -> Option<String> {
    let history = std::fs::read_to_string(out_dir.join("history.jsonl")).ok()?;
    let tag = format!("\"workload\": {}", report::quote(workload));
    let own = format!("\"nproc\": {nproc},");
    let other = history
        .lines()
        .filter(|l| l.contains(&tag) && !l.contains(&own))
        .count();
    (other > 0).then(|| {
        format!(
            "{other} earlier run(s) of {workload} in {} were taken at another core count than this run's {nproc}; host-time metrics do not compare across core counts",
            out_dir.join("history.jsonl").display()
        )
    })
}

fn append_history(out_dir: &Path, meta: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(out_dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("history.jsonl"))?;
    writeln!(f, "{meta}")
}

const SIM_COUNTS: [&str; 5] = [
    "soa.bin_denied",
    "soa.down_binned",
    "control.stale_budget_steps",
    "control.restarts",
    "reliability.wear_days",
];

/// Simulated statistics, in their fixed order; `None` where the workload
/// does not simulate them.
fn sim_metrics(sim: &BTreeMap<String, f64>) -> Vec<Metric> {
    let get = |k: &str| sim.get(k).copied();
    let mut out = Vec::new();
    for p in api::Policy::ALL {
        let k = format!("soa.grant_ratio.{}", p.name());
        out.push(Metric::new(&k, "ratio", get(&k)));
    }
    for p in api::Policy::ALL {
        let k = format!("power.capping_steps.{}", p.name());
        out.push(Metric::new(&k, "count", get(&k)));
    }
    for k in SIM_COUNTS {
        let unit = if k == "reliability.wear_days" {
            "days"
        } else {
            "count"
        };
        out.push(Metric::new(k, unit, get(k)));
    }
    out.push(Metric::new(
        "fidelity.success_gap_pp",
        "pp",
        get("fidelity.success_gap_pp"),
    ));
    out.push(Metric::new(
        "fidelity.cap_ratio_log10",
        "log10",
        get("fidelity.cap_ratio_log10"),
    ));
    out.push(Metric::new(
        "fidelity.p99_cut_gap_pp",
        "pp",
        get("fidelity.p99_cut_gap_pp"),
    ));
    out
}

/// Layers whose self time is reported as a share of traced core time.
const LAYERS: [&str; 10] = [
    "traces",
    "predict",
    "engine",
    "engine.admission",
    "engine.aggregation",
    "harness",
    "shard.merge",
    "telemetry",
    "analyze",
    spans::UNACCOUNTED,
];

/// Host costs per layer, in their fixed order; `None` where the workload
/// does not run the layer.
fn per_layer(tally: &Tally, recorded: &spans::Recorded, iters: &[Iteration]) -> Vec<Metric> {
    let p = &tally.plain;
    let t = &tally.traced;
    let self_ns = |layer: &str| recorded.layers.get(layer).map_or(0.0, |l| l.self_ns as f64);
    let span_ratio = |layer: &str, den: f64| {
        (recorded.layers.contains_key(layer) && den > 0.0).then(|| self_ns(layer) / den)
    };
    let mut out = vec![
        Metric::new(
            "traces.gen_ns_per_server_step",
            "ns",
            p.ratio("gen.core_ns", "gen.server_steps"),
        ),
        Metric::new(
            "traces.bytes_per_server_week",
            "B",
            p.ratio("gen.bytes", "gen.server_weeks"),
        ),
        Metric::new(
            "traces.allocs_per_rack",
            "count",
            p.ratio("gen.allocs", "gen.racks"),
        ),
        Metric::new(
            "predict.train_ns_per_server",
            "ns",
            p.ratio("train.core_ns", "train.servers"),
        ),
        Metric::new(
            "cluster.sim_ns_per_server_step",
            "ns",
            p.ratio("sim.core_ns", "sim.server_steps"),
        ),
    ];
    for policy in api::Policy::ALL {
        let n = policy.name();
        out.push(Metric::new(
            format!("cluster.sim_ns_per_server_step.{n}"),
            "ns",
            p.ratio(
                &format!("sim.core_ns.{n}"),
                &format!("sim.server_steps.{n}"),
            ),
        ));
    }
    let sim_steps = t.get("sim.server_steps");
    out.extend([
        Metric::new(
            "cluster.sim_allocs_per_rack_step",
            "count",
            p.ratio("sim.allocs", "sim.rack_steps"),
        ),
        Metric::new(
            "cluster.admission_ns_per_server_step",
            "ns",
            span_ratio("engine.admission", sim_steps),
        ),
        Metric::new(
            "cluster.aggregation_ns_per_server_step",
            "ns",
            span_ratio("engine.aggregation", sim_steps),
        ),
        Metric::new("shard.par_efficiency", "ratio", recorded.par_efficiency),
        Metric::new(
            "shard.merge_ms",
            "ms",
            span_ratio("shard.merge", t.get("iterations") * 1e6),
        ),
        Metric::new(
            "harness.ns_per_server_tick",
            "ns",
            p.ratio("harness.core_ns", "harness.server_ticks"),
        ),
    ]);
    for system in api::System::ALL {
        let n = system.name();
        out.push(Metric::new(
            format!("harness.ns_per_server_tick.{n}"),
            "ns",
            p.ratio(
                &format!("harness.core_ns.{n}"),
                &format!("harness.server_ticks.{n}"),
            ),
        ));
    }
    let emit_overhead = p
        .median("cluster.wall_on")
        .zip(p.median("cluster.wall_off"))
        .map(|(on, off)| (on / off - 1.0) * 100.0);
    out.extend([
        Metric::new(
            "telemetry.events",
            "count",
            p.ratio("tm.events", "iterations"),
        ),
        Metric::new(
            "telemetry.bytes_per_event",
            "B",
            p.ratio("tm.bytes", "tm.events"),
        ),
        Metric::new(
            "telemetry.encode_ns_per_event",
            "ns",
            p.ratio("tm.encode_ns", "tm.events"),
        ),
        Metric::new("telemetry.emit_overhead_pct", "%", emit_overhead),
        Metric::new(
            "analyze.decode_ns_per_event",
            "ns",
            p.ratio("analyze.decode_ns", "tm.events"),
        ),
        Metric::new(
            "analyze.report_ns_per_event",
            "ns",
            p.ratio("analyze.report_ns", "tm.events"),
        ),
    ]);
    let wall_of = |v: Variant| {
        let w: Vec<f64> = iters
            .iter()
            .filter(|i| i.variant == v)
            .map(|i| i.wall.as_secs_f64())
            .collect();
        (!w.is_empty()).then(|| median(&w))
    };
    let overhead = wall_of(Variant::Traced)
        .zip(wall_of(Variant::Plain))
        .map(|(traced, plain)| (traced / plain - 1.0) * 100.0);
    out.push(Metric::new("probe.overhead_pct", "%", overhead));
    let total = recorded.total_ns as f64;
    for layer in LAYERS {
        out.push(Metric::new(
            format!("self_pct.{layer}"),
            "%",
            span_ratio(layer, total / 100.0),
        ));
    }
    out
}

/// Write the recorded spans and per-layer self times as JSON.
fn write_spans(path: &PathBuf, recorded: &spans::Recorded, meta: &str) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{{\"meta\": {meta},\n\"layers\": {{");
    let layers: Vec<String> = recorded
        .layers
        .iter()
        .map(|(name, l)| {
            format!(
                "{}: {{\"count\": {}, \"self_ns\": {}}}",
                report::quote(name),
                l.count,
                l.self_ns
            )
        })
        .collect();
    out.push_str(&layers.join(", "));
    let _ = write!(
        out,
        "}},\n\"total_ns\": {},\n\"counters\": {{",
        recorded.total_ns
    );
    let counters: Vec<String> = recorded
        .counters
        .iter()
        .map(|(k, v)| format!("{}: {v}", report::quote(k)))
        .collect();
    out.push_str(&counters.join(", "));
    out.push_str("},\n\"spans\": [\n");
    let spans: Vec<String> = recorded
        .records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": {}, \"layer\": {}, \"iter\": {}, \"parent\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                report::quote(r.name),
                report::quote(r.layer),
                r.iter,
                r.parent.map_or("null".into(), |p| p.to_string()),
                r.thread,
                r.start_ns,
                r.end_ns
            )
        })
        .collect();
    out.push_str(&spans.join(",\n"));
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
