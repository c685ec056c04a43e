//! # soc-prof — wall-clock performance observability for SmartOClock
//!
//! The workspace's sim-state crates are forbidden from reading the wall
//! clock (D002 in the root `clippy.toml`): a seed must fully determine every byte they
//! compute. But ROADMAP direction 1 ("100k racks, a simulated week in
//! seconds") needs exactly the numbers determinism forbids — wall time per
//! phase, racks per second, memory high-water marks. This crate is the
//! resolution: **all** wall-clock observation lives here and in the bench
//! binaries that link it, strictly outside the deterministic core, and the
//! sim crates expose pure observation *hooks*
//! (`soc_cluster::probe::ShardProbe`) that this layer implements. Profiling
//! on or off never changes a trace byte (pinned by
//! `tests/prof.rs`).
//!
//! Four pieces:
//!
//! * **Phase timings** ([`Profiler::record`]) — externally measured
//!   durations folded into totals, counts, min/max per flat path literal
//!   (`run/trace_gen`, `shard/sim`).
//! * **Throughput counters** ([`Profiler::add`]) — monotonic work counts
//!   (racks, sim_steps, events); snapshots derive `*_per_sec` rates.
//! * **Memory sampling** ([`mem`]) — peak RSS from procfs and an opt-in
//!   counting global allocator ([`CountingAlloc`]).
//! * **Snapshots and diffs** ([`Snapshot`], [`diff`]) — a canonical JSON
//!   profile format (`BENCH_largescale.json` is one), written and read with
//!   the workspace's one JSON codec (`soc_telemetry::json`), and a
//!   tolerance-based comparison that exits nonzero on regression
//!   (`soc-prof diff`, the CI perf gate).
//!
//! A disabled handle ([`Profiler::disabled`], also `Default`) is a `None`
//! internally, mirroring `soc_telemetry::Telemetry`: every call site first
//! branches on enablement, so always-on instrumentation costs one branch
//! when profiling is off.
//!
//! ```
//! use soc_prof::{Profiler, Tolerance};
//!
//! use std::time::Instant;
//!
//! let prof = Profiler::new("example");
//! let t = Instant::now();
//! // ... build templates ...
//! prof.record("setup/templates", t.elapsed());
//! prof.add("racks", 8);
//! let snap = prof.snapshot();
//! assert!(snap.phases.contains_key("setup/templates"));
//! let report = soc_prof::diff(&snap, &snap, &Tolerance::default());
//! assert!(!report.has_regression());
//! ```

// `deny` rather than the workspace's usual `forbid`: mem.rs carries the one
// sanctioned `unsafe impl` in the tree (GlobalAlloc is an unsafe trait), a
// verbatim delegation to `std::alloc::System` plus two atomic increments.
#![deny(unsafe_code)]

pub mod diff;
pub mod mem;
pub mod phase;
pub mod snapshot;

pub use diff::{diff, Delta, DiffReport, Tolerance, Verdict};
pub use mem::{alloc_counts, peak_rss_bytes, CountingAlloc};
pub use phase::PhaseStats;
pub use snapshot::{PhaseSnap, Snapshot, SCHEMA};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    phases: BTreeMap<String, PhaseStats>,
    counters: BTreeMap<String, u64>,
    rates: BTreeMap<String, f64>,
    meta: BTreeMap<String, String>,
}

struct Inner {
    name: String,
    start: Instant,
    state: Mutex<State>,
}

/// Cheap cloneable handle to a profile under construction.
///
/// Clones share the underlying accumulators, so worker threads can record
/// phases concurrently; snapshot maps are ordered (`BTreeMap`), which keeps
/// snapshot bytes independent of recording order. The default handle is
/// disabled.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Profiler {
    /// An enabled profiler named `name` (the experiment/binary name); the
    /// total wall clock starts now.
    pub fn new(name: &str) -> Profiler {
        Profiler {
            inner: Some(Arc::new(Inner {
                name: name.to_string(),
                start: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A disabled handle: every operation is a no-op after one branch.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Profile state under the lock. Poisoning is survivable here — the
    /// accumulators hold plain counters that are valid after any partial
    /// update — so a panicked worker thread does not also take down the
    /// profile of the work that succeeded.
    fn state(inner: &Inner) -> MutexGuard<'_, State> {
        inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold an externally measured duration into phase `path`. The path is
    /// taken literally, so a timing that spans a parallel fan-out records
    /// under the same key at every `--threads` value.
    pub fn record(&self, path: &str, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            Self::state(inner)
                .phases
                .entry(path.to_string())
                .or_default()
                .record(elapsed);
        }
    }

    /// Add `n` to the monotonic counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            *Self::state(inner)
                .counters
                .entry(name.to_string())
                .or_insert(0) += n;
        }
    }

    /// Set a derived rate (overrides the auto-derived `*_per_sec` value of
    /// a same-named counter in the snapshot).
    pub fn set_rate(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            Self::state(inner).rates.insert(name.to_string(), value);
        }
    }

    /// Attach a configuration key to the snapshot (`racks=32`, `seed=42`).
    pub fn set_meta(&self, key: &str, value: impl fmt::Display) {
        if let Some(inner) = &self.inner {
            Self::state(inner)
                .meta
                .insert(key.to_string(), value.to_string());
        }
    }

    /// Materialize the profile: phases and counters recorded so far, a
    /// `*_per_sec` rate per counter (custom rates win), peak RSS, and
    /// allocator counts. A disabled profiler snapshots to the empty
    /// default.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let elapsed = inner.start.elapsed();
        let state = Self::state(inner);
        let mut snap = Snapshot {
            schema: SCHEMA,
            name: inner.name.clone(),
            meta: state.meta.clone(),
            total_ms: elapsed.as_secs_f64() * 1e3,
            counters: state.counters.clone(),
            peak_rss_bytes: mem::peak_rss_bytes(),
            ..Snapshot::default()
        };
        (snap.alloc_count, snap.alloc_bytes) = mem::alloc_counts();
        for (path, stats) in &state.phases {
            snap.phases.insert(path.clone(), PhaseSnap::from(stats));
        }
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            for (name, count) in &state.counters {
                snap.rates
                    .insert(format!("{name}_per_sec"), *count as f64 / secs);
            }
        }
        for (name, value) in &state.rates {
            snap.rates.insert(name.clone(), *value);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_profiler_is_inert() {
        let prof = Profiler::disabled();
        assert!(!prof.is_enabled());
        prof.add("racks", 5);
        prof.set_meta("k", "v");
        prof.record("manual", Duration::from_millis(3));
        let snap = prof.snapshot();
        assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn counters_accumulate_and_derive_rates() {
        let prof = Profiler::new("counters");
        prof.add("racks", 3);
        prof.add("racks", 5);
        prof.set_rate("speedup_t4", 3.5);
        std::thread::sleep(Duration::from_millis(2));
        let snap = prof.snapshot();
        assert_eq!(snap.counters["racks"], 8);
        assert!(snap.rates["racks_per_sec"] > 0.0);
        assert_eq!(snap.rates["speedup_t4"], 3.5);
        assert!(snap.total_ms > 0.0);
    }

    #[test]
    fn record_takes_the_path_literally() {
        let prof = Profiler::new("record");
        prof.record("run/t1", Duration::from_millis(7));
        prof.record("run/t1", Duration::from_millis(3));
        let snap = prof.snapshot();
        // One key, exactly as given, folding both spans.
        let keys: Vec<&str> = snap.phases.keys().map(String::as_str).collect();
        assert_eq!(keys, ["run/t1"]);
        assert_eq!(snap.phases["run/t1"].count, 2);
        assert_eq!(snap.phases["run/t1"].total_ms, 10.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let prof = Profiler::new("roundtrip");
        prof.record("sim", Duration::from_millis(5));
        prof.record("sim/admission", Duration::from_millis(2));
        prof.add("sim_steps", 100);
        prof.set_meta("racks", 4);
        let snap = prof.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }
}
