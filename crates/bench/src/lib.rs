//! # soc-bench — experiment regenerators
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus Criterion
//! micro-benchmarks (`benches/`). Every binary accepts:
//!
//! * `--seed <u64>` — RNG seed (default 42; results in EXPERIMENTS.md use
//!   the default).
//! * `--fast` — reduced scale for smoke runs.
//! * `--csv <path>` — additionally write the table as CSV.
//! * `--trace-out <path>` — write a JSONL telemetry trace of the run.
//! * `--analyze` — after the run, analyze the trace with `soc-analyze` and
//!   print the full report to stdout.
//! * `--report-out <path>` — write that report to a file instead.
//! * `--threads <n>` — worker threads for the sharded simulation paths
//!   (`simcore::par`). Defaults to the machine's available parallelism;
//!   results are byte-identical for every value (`1` forces serial).
//! * `--prof` — collect a `soc-prof` performance profile (phase wall-clock,
//!   throughput counters, peak RSS) and print the summary to stderr.
//! * `--prof-out <path>` — additionally write the profile snapshot as
//!   canonical JSON (implies `--prof`).
//! * `--health` — collect a `soc-health` fleet health report (sim-time
//!   series, deterministic alerts, incident timeline) and print it to
//!   stderr.
//! * `--health-out <path>` — additionally write the health report as
//!   canonical JSON (implies `--health`); read it back with `soc-health`.
//!
//! `--analyze` / `--report-out` without a trace path trace to a temporary
//! file so the analysis still has input.
//!
//! Profiling and health recording are observation-only by design:
//! simulation output — stdout tables, traces, metrics — is byte-identical
//! with and without `--prof` / `--health` (their output goes to stderr and
//! the `--prof-out` / `--health-out` files only; pinned by `tests/prof.rs`
//! and `tests/health.rs`).
//!
//! This tiny library holds the shared CLI plumbing so the binaries stay
//! focused on the experiment itself.

#![forbid(unsafe_code)]

pub mod probe;

use simcore::report::Table;
use simcore::time::SimTime;
use soc_health::Recorder;
use soc_prof::Profiler;
use soc_telemetry::Telemetry;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// RNG seed.
    pub seed: u64,
    /// Reduced-scale smoke run.
    pub fast: bool,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
    /// Optional JSONL telemetry trace path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Print a `soc-analyze` report after the run (`--analyze`).
    pub analyze: bool,
    /// Write the `soc-analyze` report to this path (`--report-out`).
    pub report_out: Option<PathBuf>,
    /// Worker threads for sharded simulation paths (`--threads`); `0` means
    /// "use the machine's available parallelism". Use
    /// [`Cli::effective_threads`] to resolve. Thread count never changes
    /// results — only wall-clock time.
    pub threads: usize,
    /// Collect a `soc-prof` performance profile (`--prof`).
    pub prof: bool,
    /// Write the profile snapshot as canonical JSON (`--prof-out`; implies
    /// `--prof`).
    pub prof_out: Option<PathBuf>,
    /// Collect a `soc-health` fleet health report (`--health`).
    pub health: bool,
    /// Write the health report as canonical JSON (`--health-out`; implies
    /// `--health`).
    pub health_out: Option<PathBuf>,
    /// Raw argument list as parsed, for binary-specific flags (see
    /// [`Cli::extra_flag`]). Unknown flags are deliberately ignored by the
    /// shared parser so each binary can layer its own on top.
    pub raw: Vec<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            seed: 42,
            fast: false,
            csv: None,
            trace_out: None,
            analyze: false,
            report_out: None,
            threads: 0,
            prof: false,
            prof_out: None,
            health: false,
            health_out: None,
            raw: Vec::new(),
        }
    }
}

impl Cli {
    /// Parse from `std::env::args`. When analysis is requested without a
    /// trace path, the trace goes to a temporary file.
    pub fn from_env() -> Cli {
        let mut cli = Cli::parse(std::env::args().skip(1));
        if cli.trace_out.is_none() && (cli.analyze || cli.report_out.is_some()) {
            cli.trace_out =
                Some(std::env::temp_dir().join(format!("soc-trace-{}.jsonl", std::process::id())));
        }
        cli
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Cli {
        let raw: Vec<String> = args.into_iter().collect();
        let mut cli = Cli {
            raw: raw.clone(),
            ..Cli::default()
        };
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--seed" => {
                    if let Some(v) = iter.next() {
                        if let Ok(seed) = v.parse() {
                            cli.seed = seed;
                        }
                    }
                }
                "--fast" => cli.fast = true,
                "--csv" => cli.csv = iter.next().map(PathBuf::from),
                "--trace-out" => cli.trace_out = iter.next().map(PathBuf::from),
                "--analyze" => cli.analyze = true,
                "--report-out" => cli.report_out = iter.next().map(PathBuf::from),
                "--threads" => {
                    if let Some(v) = iter.next() {
                        if let Ok(threads) = v.parse() {
                            cli.threads = threads;
                        }
                    }
                }
                "--prof" => cli.prof = true,
                "--prof-out" => {
                    cli.prof = true;
                    cli.prof_out = iter.next().map(PathBuf::from);
                }
                "--health" => cli.health = true,
                "--health-out" => {
                    cli.health = true;
                    cli.health_out = iter.next().map(PathBuf::from);
                }
                _ => {}
            }
        }
        cli
    }

    /// Resolved worker-thread count: the `--threads` value, or the
    /// machine's available parallelism when the flag was absent (`0`).
    pub fn effective_threads(&self) -> usize {
        simcore::par::resolve_threads(self.threads)
    }

    /// Value of a binary-specific `--flag value` pair from the raw argument
    /// list, or `None` when the flag is absent (or has no value). The shared
    /// parser ignores flags it does not know, so binaries use this to layer
    /// their own options (e.g. `par_speedup`'s `--reps` / `--out`)
    /// without re-parsing `std::env::args` themselves.
    pub fn extra_flag(&self, name: &str) -> Option<&str> {
        let mut iter = self.raw.iter();
        while let Some(arg) = iter.next() {
            if arg == name {
                return iter.next().map(String::as_str);
            }
        }
        None
    }

    /// The telemetry handle implied by `--trace-out`: a JSONL
    /// file sink when a path was given, the zero-overhead disabled handle
    /// otherwise. Call [`Telemetry::flush`] (or drop every clone) before the
    /// process exits so the file buffer is written out.
    pub fn telemetry(&self) -> Telemetry {
        match &self.trace_out {
            Some(path) => match Telemetry::jsonl(path) {
                Ok(tm) => {
                    eprintln!("tracing to {}", path.display());
                    tm
                }
                Err(e) => {
                    eprintln!("warning: cannot open trace file {}: {e}", path.display());
                    Telemetry::disabled()
                }
            },
            None => Telemetry::disabled(),
        }
    }

    /// The profiler implied by `--prof` / `--prof-out`: an enabled handle
    /// named `name` with the common run parameters attached as metadata, or
    /// the zero-overhead disabled handle. Call [`Cli::finish_prof`] at the
    /// end of the run to emit the snapshot.
    pub fn profiler(&self, name: &str) -> Profiler {
        if !self.prof {
            return Profiler::disabled();
        }
        let prof = Profiler::new(name);
        prof.set_meta("seed", self.seed);
        prof.set_meta("threads", self.effective_threads());
        prof.set_meta("fast", self.fast);
        prof
    }

    /// Snapshot the profile, print the human summary to stderr, and honor
    /// `--prof-out`. No-op for a disabled profiler. Stderr (not stdout) so
    /// profiled runs keep byte-identical experiment output.
    pub fn finish_prof(&self, profiler: &Profiler) {
        if !profiler.is_enabled() {
            return;
        }
        let snap = profiler.snapshot();
        eprint!("{}", snap.render());
        if let Some(path) = &self.prof_out {
            if let Err(e) = std::fs::write(path, snap.to_json()) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            } else {
                eprintln!("profile written to {}", path.display());
            }
        }
    }

    /// The health recorder implied by `--health` / `--health-out`: an
    /// enabled recorder named `name`, or the zero-overhead disabled handle.
    /// Call [`Cli::finish_health`] at the end of the run to evaluate rules
    /// and emit the report.
    pub fn recorder(&self, name: &str) -> Recorder {
        if self.health {
            Recorder::new(name)
        } else {
            Recorder::disabled()
        }
    }

    /// Evaluate `rules` over the recorded run, print the rendered health
    /// report to stderr, and honor `--health-out`. No-op for a disabled
    /// recorder. Stderr (not stdout) so health-recorded runs keep
    /// byte-identical experiment output.
    pub fn finish_health(&self, recorder: &Recorder, rules: &[soc_health::Rule]) {
        let Some(report) = recorder.finalize(rules) else {
            return;
        };
        eprint!("{}", soc_health::render::render_report(&report));
        if let Some(path) = &self.health_out {
            if let Err(e) = std::fs::write(path, soc_health::json::to_json(&report)) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            } else {
                eprintln!("health report written to {}", path.display());
            }
        }
    }

    /// Print the table with a heading and honor `--csv`.
    pub fn emit(&self, heading: &str, table: &Table) {
        println!("== {heading} ==");
        println!("{}", table.render());
        if let Some(path) = &self.csv {
            if let Err(e) = std::fs::write(path, table.to_csv()) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
    }

    /// Finalize the trace and honor `--analyze` / `--report-out`: dump the
    /// end-of-run metric snapshot, flush the trace file, then run the
    /// `soc-analyze` full report on it. The report is titled with the
    /// experiment `name` (not the path) so equal-seed runs stay
    /// byte-identical. No-op when neither analysis flag is set.
    pub fn finish(&self, name: &str, telemetry: &Telemetry) {
        if telemetry.is_enabled() {
            telemetry.emit_metrics_snapshot(SimTime::ZERO);
            telemetry.flush();
        }
        if !self.analyze && self.report_out.is_none() {
            return;
        }
        let Some(path) = &self.trace_out else {
            eprintln!("warning: --analyze/--report-out need a trace; none was written");
            return;
        };
        let trace = match soc_analyze::Trace::load(path) {
            Ok(trace) => trace,
            Err(e) => {
                eprintln!("warning: cannot analyze {}: {e}", path.display());
                return;
            }
        };
        let report = soc_analyze::full_report(&trace, name);
        if self.analyze {
            print!("{report}");
        }
        if let Some(out) = &self.report_out {
            if let Err(e) = std::fs::write(out, &report) {
                eprintln!("warning: failed to write {}: {e}", out.display());
            } else {
                eprintln!("report written to {}", out.display());
            }
        }
    }
}

/// Format a percentage delta `new` vs `old` (negative = reduction).
pub fn pct_change(old: f64, new: f64) -> String {
    if old == 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", (new - old) / old * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]);
        assert_eq!(cli.seed, 42);
        assert!(!cli.fast);
        assert!(cli.csv.is_none());
        assert!(!cli.analyze);
        assert!(cli.report_out.is_none());
    }

    #[test]
    fn parses_flags() {
        let cli = parse(&["--seed", "7", "--fast", "--csv", "/tmp/out.csv"]);
        assert_eq!(cli.seed, 7);
        assert!(cli.fast);
        assert_eq!(cli.csv.unwrap().to_str().unwrap(), "/tmp/out.csv");
    }

    #[test]
    fn parses_threads_and_resolves_auto() {
        let cli = parse(&["--threads", "4"]);
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.effective_threads(), 4);
        let auto = parse(&[]);
        assert_eq!(auto.threads, 0);
        assert_eq!(
            auto.effective_threads(),
            simcore::par::available_parallelism()
        );
    }

    #[test]
    fn parses_trace_out() {
        let cli = parse(&["--trace-out", "/tmp/trace.jsonl"]);
        assert_eq!(cli.trace_out.unwrap().to_str().unwrap(), "/tmp/trace.jsonl");
        assert!(parse(&[]).trace_out.is_none());
    }

    #[test]
    fn parses_analyze_flags() {
        let cli = parse(&["--analyze", "--report-out", "/tmp/report.txt"]);
        assert!(cli.analyze);
        assert_eq!(cli.report_out.unwrap().to_str().unwrap(), "/tmp/report.txt");
    }

    #[test]
    fn telemetry_disabled_without_trace_out() {
        assert!(!parse(&[]).telemetry().is_enabled());
    }

    #[test]
    fn finish_without_analysis_is_quiet_noop() {
        // Must not panic or print a report when neither flag is set.
        parse(&[]).finish("noop", &Telemetry::disabled());
    }

    #[test]
    fn parses_health_flags() {
        let cli = parse(&["--health"]);
        assert!(cli.health);
        assert!(cli.health_out.is_none());
        let cli = parse(&["--health-out", "/tmp/run.health.json"]);
        assert!(cli.health, "--health-out must imply --health");
        assert_eq!(
            cli.health_out.unwrap().to_str().unwrap(),
            "/tmp/run.health.json"
        );
        assert!(!parse(&[]).health);
    }

    #[test]
    fn recorder_disabled_without_health_flag() {
        assert!(!parse(&[]).recorder("x").is_enabled());
        assert!(parse(&["--health"]).recorder("x").is_enabled());
        // finish_health on a disabled recorder is a quiet no-op.
        parse(&[]).finish_health(&Recorder::disabled(), &soc_health::default_rules(1));
    }

    #[test]
    fn ignores_unknown_and_bad_values() {
        let cli = parse(&["--wat", "--seed", "notanumber"]);
        assert_eq!(cli.seed, 42);
    }

    #[test]
    fn extra_flag_reads_binary_specific_options() {
        let cli = parse(&["--fast", "--reps", "5", "--out", "cur.json"]);
        assert_eq!(cli.extra_flag("--reps"), Some("5"));
        assert_eq!(cli.extra_flag("--out"), Some("cur.json"));
        assert_eq!(cli.extra_flag("--absent"), None);
        // A trailing flag with no value yields None, not a panic.
        assert_eq!(parse(&["--reps"]).extra_flag("--reps"), None);
    }

    #[test]
    fn pct_change_formats() {
        assert_eq!(pct_change(100.0, 70.0), "-30.0%");
        assert_eq!(pct_change(0.0, 1.0), "-");
    }
}
