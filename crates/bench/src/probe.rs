//! The wall-clock side of `soc_cluster::probe::ShardProbe`.
//!
//! The sharded simulation engine announces phases through pure hooks (it is
//! a sim-state crate and may not read clocks, D002 in `clippy.toml`); this adapter
//! lives in the bench crate — where wall-clock is allowed — and times those
//! hooks into a [`Profiler`].
//!
//! Span names are recorded with [`Profiler::record`] (literal paths, no
//! thread-local nesting): workers run inline at `--threads 1` and on pool
//! threads otherwise, and literal paths keep the snapshot keys identical
//! across every thread count.

use soc_cluster::probe::{ShardProbe, SpanToken};
use soc_health::Recorder;
use soc_prof::Profiler;
use soc_telemetry::Event;
use std::time::Instant;

/// A [`ShardProbe`] recording into a [`Profiler`].
///
/// With a disabled profiler every hook is a no-op that allocates nothing,
/// so binaries can pass the probe unconditionally.
pub struct ProfProbe {
    profiler: Profiler,
}

impl ProfProbe {
    pub fn new(profiler: Profiler) -> ProfProbe {
        ProfProbe { profiler }
    }
}

struct RecordOnDrop {
    profiler: Profiler,
    name: &'static str,
    start: Instant,
}

impl SpanToken for RecordOnDrop {}

impl Drop for RecordOnDrop {
    fn drop(&mut self) {
        self.profiler.record(self.name, self.start.elapsed());
    }
}

impl ShardProbe for ProfProbe {
    fn span(&self, name: &'static str) -> Option<Box<dyn SpanToken>> {
        if !self.profiler.is_enabled() {
            return None;
        }
        Some(Box::new(RecordOnDrop {
            profiler: self.profiler.clone(),
            name,
            start: Instant::now(),
        }))
    }

    fn add(&self, counter: &'static str, n: u64) {
        self.profiler.add(counter, n);
    }
}

/// A [`ShardProbe`] feeding a `soc-health` [`Recorder`]: gauges become
/// series samples, merged events feed the alert engine. Spans and counters
/// are ignored — wall-clock belongs to [`ProfProbe`].
///
/// With a disabled recorder every hook is a single-branch no-op, so
/// binaries can pass the probe unconditionally.
pub struct HealthProbe {
    recorder: Recorder,
}

impl HealthProbe {
    pub fn new(recorder: Recorder) -> HealthProbe {
        HealthProbe { recorder }
    }
}

impl ShardProbe for HealthProbe {
    fn span(&self, _name: &'static str) -> Option<Box<dyn SpanToken>> {
        None
    }

    fn add(&self, _counter: &'static str, _n: u64) {}

    fn gauge(&self, t_us: u64, metric: &'static str, entity: u64, value: f64) {
        self.recorder.sample(t_us, metric, entity, value);
    }

    fn event(&self, event: &Event) {
        self.recorder.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_yields_no_tokens() {
        let probe = ProfProbe::new(Profiler::disabled());
        assert!(probe.span("shard/sim").is_none());
        probe.add("racks", 3); // must not panic
    }

    #[test]
    fn spans_and_counters_land_in_the_snapshot() {
        let prof = Profiler::new("probe-test");
        let probe = ProfProbe::new(prof.clone());
        {
            let _span = probe.span("shard/sim");
        }
        probe.add("racks", 4);
        let snap = prof.snapshot();
        assert_eq!(snap.phases["shard/sim"].count, 1);
        assert_eq!(snap.counters["racks"], 4);
    }

    #[test]
    fn health_probe_feeds_the_recorder() {
        let recorder = Recorder::new("probe-test");
        let probe = HealthProbe::new(recorder.clone());
        assert!(probe.span("shard/sim").is_none());
        probe.add("racks", 4); // ignored
        probe.gauge(1_000_000, "rack_draw_w", 2, 37.5);
        assert_eq!(recorder.samples(), 1);
    }

    #[test]
    fn disabled_recorder_probe_is_inert() {
        let probe = HealthProbe::new(Recorder::disabled());
        probe.gauge(1, "rack_draw_w", 0, 1.0);
    }
}
