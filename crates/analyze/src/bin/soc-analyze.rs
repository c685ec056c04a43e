//! `soc-analyze` — command-line trace analysis.
//!
//! ```text
//! soc-analyze summary   <trace.jsonl>
//! soc-analyze chains    <trace.jsonl> [--limit N]
//! soc-analyze attribute <trace.jsonl>
//! soc-analyze metrics   <trace.jsonl>
//! soc-analyze report    <trace.jsonl> [--out report.txt]
//! soc-analyze diff      <a.jsonl> <b.jsonl> [--filter-a k=v] [--filter-b k=v]
//!                       [--strip-label policy] [--out report.txt]
//! ```
//!
//! Traces come from any bench binary run with `--trace-out`.

use soc_analyze::chains::{self, DEFAULT_TERMINALS};
use soc_analyze::{report, rollup, AttributionCounts, Trace, TraceDiff};
use std::process::ExitCode;

const USAGE: &str = "usage: soc-analyze <command> [args]

commands:
  summary   <trace.jsonl>                 event counts, span, link health
  chains    <trace.jsonl> [--limit N]     causal chains ending at revoke/slo_miss/
                                          budget_violation/degraded_enter/
                                          degraded_exit
  attribute <trace.jsonl>                 SLO-miss attribution table
  metrics   <trace.jsonl>                 end-of-run metric rollups
  report    <trace.jsonl> [--out FILE]    full report (all of the above)
  diff      <a.jsonl> <b.jsonl> [--filter-a k=v] [--filter-b k=v]
            [--strip-label LABEL] [--out FILE]
                                          A/B comparison of two traces

Traces are produced by the soc-bench binaries via --trace-out.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("soc-analyze: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs pulled out of the argument list.
type Flags<'a> = Vec<(&'a str, &'a str)>;

/// Split off every `--flag value` pair; returns (positional, flags).
fn split_flags(args: &[String]) -> Result<(Vec<&str>, Flags<'_>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(name) = arg.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(arg);
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
}

fn load(path: &str) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("{path}: {e}"))
}

/// Print to stdout, or write to `--out FILE` when given.
fn deliver(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| format!("writing {path}: {e}"))
            .map(|()| eprintln!("soc-analyze: report written to {path}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first().map(String::as_str) else {
        return Err(USAGE.to_string());
    };
    let (positional, flags) = split_flags(&args[1..])?;
    let need = |n: usize| -> Result<(), String> {
        if positional.len() == n {
            Ok(())
        } else {
            Err(format!("{command} takes {n} trace path(s)\n\n{USAGE}"))
        }
    };
    match command {
        "summary" => {
            need(1)?;
            print!("{}", report::summary(&load(positional[0])?));
            Ok(())
        }
        "chains" => {
            need(1)?;
            let limit: usize = match flag(&flags, "limit") {
                Some(v) => v.parse().map_err(|_| format!("bad --limit {v}"))?,
                None => 0,
            };
            let trace = load(positional[0])?;
            let all = chains::chains(&trace, &DEFAULT_TERMINALS);
            if all.is_empty() {
                println!(
                    "no revoke, slo_miss, budget_violation, or degraded-window events in {}",
                    positional[0]
                );
            } else {
                print!("{}", chains::render_chains(&trace, &all, limit));
            }
            Ok(())
        }
        "attribute" => {
            need(1)?;
            let counts = AttributionCounts::from_trace(&load(positional[0])?);
            if counts.total() == 0 {
                println!("no slo_miss events in {}", positional[0]);
            } else {
                print!("{}", counts.table().render());
            }
            Ok(())
        }
        "metrics" => {
            need(1)?;
            let trace = load(positional[0])?;
            let scalars = rollup::scalar_metric_table(&trace);
            let hists = rollup::histogram_table(&trace);
            if scalars.is_empty() && hists.is_empty() {
                println!("no metric records in {}", positional[0]);
                return Ok(());
            }
            if !scalars.is_empty() {
                print!("{}", scalars.render());
            }
            if !hists.is_empty() {
                print!("{}", hists.render());
            }
            Ok(())
        }
        "report" => {
            need(1)?;
            let trace = load(positional[0])?;
            deliver(
                &report::full_report(&trace, positional[0]),
                flag(&flags, "out"),
            )
        }
        "diff" => {
            need(2)?;
            let mut a = load(positional[0])?;
            let mut b = load(positional[1])?;
            let apply = |trace: Trace, spec: Option<&str>| -> Result<Trace, String> {
                match spec {
                    Some(spec) => {
                        let (key, value) = spec
                            .split_once('=')
                            .ok_or_else(|| format!("filter '{spec}' is not k=v"))?;
                        Ok(trace.filter_field(key, value))
                    }
                    None => Ok(trace),
                }
            };
            a = apply(a, flag(&flags, "filter-a"))?;
            b = apply(b, flag(&flags, "filter-b"))?;
            let diff = TraceDiff::compute(&a, &b, flag(&flags, "strip-label"));
            deliver(
                &diff.render(positional[0], positional[1]),
                flag(&flags, "out"),
            )
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}
