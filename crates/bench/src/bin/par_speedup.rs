//! Thread-scaling benchmark and the CI perf baseline.
//!
//! Measures the large-scale policy simulation hot path with the trace
//! generation and template training **amortized out of the timed legs**:
//!
//! 1. generate every rack's trace exactly once (`generate_fleet_probed`),
//! 2. train every rack's templates exactly once (`train_fleet_probed`),
//! 3. time the columnar engine on one thread
//!    (`simulate_policy_prepared_probed` at `threads = 1`), min over
//!    `--reps` runs,
//! 4. time the same engine at `--threads N`, min over `--reps` runs,
//! 5. run `--reps` probed passes for per-phase attribution
//!    (`rack/admission`, `rack/aggregation`, `shard/sim`, counters), each
//!    against a fresh scratch profiler, and keep the per-phase **minimum**
//!    — the same best-of-reps standard as the headline legs, so phase
//!    numbers don't carry one-sample noise the legs amortized away,
//! 6. assert every leg produced byte-identical outcomes (exit 1 if not):
//!    the 1-thread, N-thread and probed legs must agree.
//!
//! `speedup` is therefore the thread-scaling ratio of the one engine over
//! identical pre-generated traces and pre-trained templates; it depends on
//! the machine's core count, which the snapshot records as `cores`.
//!
//! Flags beyond the shared set: `--reps <n>` (timed-leg repetitions,
//! min-taken, default 3), `--out <path>` (snapshot destination).
//!
//! The committed baseline `BENCH_largescale.json` at the workspace root is
//! this snapshot for the pinned configuration `--fast --threads 2` (6
//! racks, 3 weeks, 15-minute steps, seed 42). Regenerate it with
//!
//! ```text
//! SOC_UPDATE_BASELINE=1 cargo run --release --bin par_speedup -- --fast --threads 2
//! ```
//!
//! and CI gates on `soc-prof diff BENCH_largescale.json <fresh run>`.

use simcore::par;
use smartoclock::policy::PolicyKind;
use soc_bench::probe::ProfProbe;
use soc_bench::Cli;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::shard::{
    generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
};
use soc_cluster::NoopProbe;
use soc_prof::Profiler;
use soc_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// Count allocations into the snapshot's `alloc_count` / `alloc_bytes`.
#[global_allocator]
static ALLOC: soc_prof::CountingAlloc = soc_prof::CountingAlloc;

fn main() {
    let cli = Cli::from_env();
    let out = out_path(&cli);
    let reps: usize = cli
        .extra_flag("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let racks = if cli.fast { 6 } else { 32 };
    let mut config = LargeScaleConfig::bench_reference(racks);
    config.seed = cli.seed;
    if cli.fast {
        // 3 weeks = 1 training week + 2 evaluated weeks: enough timed steps
        // for a stable ratio while staying a smoke-sized run.
        config.weeks = 3;
        config.step = simcore::time::SimDuration::from_minutes(15);
    }
    let threads = cli.effective_threads().max(2);
    let telemetry = Telemetry::disabled();
    let policy = PolicyKind::SmartOClock;

    // This binary's whole job is measurement, so the profiler is always on
    // (no --prof needed). The snapshot name is the baseline's identity.
    let prof = Profiler::new("largescale");
    prof.set_meta("experiment", "par_speedup");
    prof.set_meta("racks", racks);
    prof.set_meta("weeks", config.weeks);
    prof.set_meta("step_minutes", config.step.as_hours_f64() * 60.0);
    prof.set_meta("seed", cli.seed);
    prof.set_meta("threads", threads);
    prof.set_meta("reps", reps);
    prof.set_meta("cores", par::available_parallelism());
    let probe = ProfProbe::new(prof.clone());

    eprintln!("generating {racks} rack traces once ({threads} threads)...");
    let t = Instant::now();
    let fleet = generate_fleet_probed(&config, threads, &probe);
    prof.record("run/trace_gen", t.elapsed());

    eprintln!("training templates once ({threads} threads)...");
    let t = Instant::now();
    let trained = train_fleet_probed(&config, &fleet, threads, &probe);
    prof.record("run/train", t.elapsed());

    // Interleave the two timed legs rep by rep (instead of all-serial then
    // all-sharded) so slow drift — frequency scaling, a noisy neighbor —
    // hits both legs alike and cancels out of the min-over-reps ratio.
    eprintln!("timing 1 thread vs {threads} threads, best of {reps} interleaved reps...");
    let mut serial_best = Duration::MAX;
    let mut sharded_best = Duration::MAX;
    let mut serial = None;
    let mut sharded = None;
    for _ in 0..reps {
        let t = Instant::now();
        let outcome = simulate_policy_prepared_probed(
            &config, policy, &fleet, &trained, &telemetry, 1, &NoopProbe,
        );
        serial_best = serial_best.min(t.elapsed());
        if let Some(prev) = &serial {
            assert_eq!(prev, &outcome, "1-thread run is not deterministic");
        }
        serial = Some(outcome);

        let t = Instant::now();
        let outcome = simulate_policy_prepared_probed(
            &config, policy, &fleet, &trained, &telemetry, threads, &NoopProbe,
        );
        sharded_best = sharded_best.min(t.elapsed());
        if let Some(prev) = &sharded {
            assert_eq!(prev, &outcome, "{threads}-thread run is not deterministic");
        }
        sharded = Some(outcome);
    }
    let serial = serial.expect("reps >= 1");
    let sharded = sharded.expect("reps >= 1");
    prof.record("run/serial", serial_best);
    prof.record("run/sharded", sharded_best);

    // Per-phase attribution (rack/admission, rack/aggregation, shard/sim)
    // and throughput counters, at the same min-of-reps standard as the
    // headline legs: each pass records into a fresh scratch profiler and
    // the per-phase minimum across passes lands in the snapshot. (A single
    // attributed pass used to ride in here, so phase numbers carried
    // one-sample noise the timed legs had already amortized away.)
    eprintln!("attributing phases, best of {reps} probed reps...");
    let mut phase_min: BTreeMap<String, f64> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut attributed = None;
    for _ in 0..reps {
        let scratch = Profiler::new("attribution");
        let scratch_probe = ProfProbe::new(scratch.clone());
        let outcome = simulate_policy_prepared_probed(
            &config,
            policy,
            &fleet,
            &trained,
            &telemetry,
            threads,
            &scratch_probe,
        );
        if let Some(prev) = &attributed {
            assert_eq!(prev, &outcome, "probed engine is not deterministic");
        }
        attributed = Some(outcome);
        let snap = scratch.snapshot();
        for (path, p) in &snap.phases {
            phase_min
                .entry(path.clone())
                .and_modify(|best| *best = best.min(p.total_ms))
                .or_insert(p.total_ms);
        }
        // Counters are deterministic work measures (sim_steps, racks), so
        // every rep reports the same values; keep one copy.
        counters = snap.counters;
    }
    let attributed = attributed.expect("reps >= 1");
    for (path, ms) in &phase_min {
        prof.record(path, Duration::from_secs_f64(ms / 1e3));
    }
    for (name, n) in &counters {
        prof.add(name, *n);
    }

    let identical = serial == sharded && sharded == attributed;
    let serial_secs = serial_best.as_secs_f64();
    let sharded_secs = sharded_best.as_secs_f64().max(1e-9);
    let speedup = serial_secs / sharded_secs;
    let steps: u64 = sharded.iter().map(|o| o.steps).sum();
    prof.set_rate("speedup", speedup);
    prof.set_rate("racks_per_sec", racks as f64 / sharded_secs);
    prof.set_rate("sim_steps_per_sec", steps as f64 / sharded_secs);

    let snap = prof.snapshot();
    match std::fs::write(&out, snap.to_json()) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", out.display()),
    }
    print!("{}", snap.render());
    println!(
        "speedup (1 thread vs {threads} threads, {} core(s)): \
         {speedup:.2}x (outcomes identical: {identical})",
        par::available_parallelism()
    );
    if !identical {
        eprintln!("error: outcomes diverged (1 thread vs {threads} threads vs probed)");
        std::process::exit(1);
    }
}

/// Output path precedence: `--out <path>`, else `SOC_UPDATE_BASELINE=1`
/// selects the committed baseline at the workspace root, else
/// `par_speedup.json` in the current directory.
fn out_path(cli: &Cli) -> PathBuf {
    if let Some(path) = cli.extra_flag("--out") {
        return PathBuf::from(path);
    }
    if std::env::var_os("SOC_UPDATE_BASELINE").is_some_and(|v| v == "1") {
        return PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_largescale.json");
    }
    PathBuf::from("par_speedup.json")
}
