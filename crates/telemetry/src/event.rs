//! Structured telemetry records stamped with **simulated** time.
//!
//! Every record carries a [`SimTime`] taken from the simulation clock of the
//! emitting component — never wall-clock time — so traces from repeated runs
//! with the same seed are byte-identical and can be diffed.

use simcore::time::{SimDuration, SimTime};
use std::fmt;

/// Which part of the agent stack emitted a record.
///
/// Mirrors the SmartOClock architecture: workload-informed agents (`wi`),
/// per-server overclocking agents (`soa`), the global overclocking agent
/// (`goa`), the rack power monitor (`rack`), the cluster harness
/// (`harness`), and the large-scale simulation loop (`sim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Workload-informed agent (local or global).
    Wi,
    /// Server overclocking agent.
    Soa,
    /// Global overclocking agent (budget splitting).
    Goa,
    /// Rack power monitor.
    Rack,
    /// Cluster harness driving a full simulated rack.
    Harness,
    /// Large-scale (many-rack) simulation loop.
    Sim,
    /// End-of-run metrics registry dump (`metric` records).
    Metrics,
    /// Fault-injection layer (chaos schedules, degraded-mode transitions).
    Fault,
}

impl Component {
    /// Stable lowercase identifier used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::Wi => "wi",
            Component::Soa => "soa",
            Component::Goa => "goa",
            Component::Rack => "rack",
            Component::Harness => "harness",
            Component::Sim => "sim",
            Component::Metrics => "metrics",
            Component::Fault => "fault",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Coarse severity of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume diagnostics (per-tick state).
    Debug,
    /// Normal control-plane decisions (grants, budget splits).
    Info,
    /// Recoverable anomalies (warning retreats, denials).
    Warn,
    /// Budget violations and forced interventions (capping, revokes).
    Error,
}

impl Severity {
    /// Stable lowercase identifier used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<SimTime> for FieldValue {
    fn from(v: SimTime) -> Self {
        FieldValue::U64(v.as_micros())
    }
}

impl From<SimDuration> for FieldValue {
    fn from(v: SimDuration) -> Self {
        FieldValue::U64(v.as_micros())
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time at which the event occurred.
    pub time: SimTime,
    /// Which part of the stack emitted it.
    pub component: Component,
    /// Coarse severity.
    pub severity: Severity,
    /// Event name, e.g. `"oc_grant"` or `"budget_split"`. Static so that
    /// hot-path emission never allocates for the name.
    pub name: &'static str,
    /// Ordered key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Build an event with no fields.
    pub fn new(
        time: SimTime,
        component: Component,
        severity: Severity,
        name: &'static str,
    ) -> Event {
        Event {
            time,
            component,
            severity,
            name,
            fields: Vec::new(),
        }
    }

    /// Append a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Look up a field value by key.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let e = Event::new(
            SimTime::from_secs(5),
            Component::Soa,
            Severity::Info,
            "oc_grant",
        )
        .field("server", 3usize)
        .field("reason", "cap");
        assert_eq!(e.get("server"), Some(&FieldValue::U64(3)));
        assert_eq!(e.get("reason"), Some(&FieldValue::Str("cap".into())));
        assert_eq!(e.get("missing"), None);
    }

    #[test]
    fn identifiers_are_stable() {
        assert_eq!(Component::Goa.as_str(), "goa");
        assert_eq!(Component::Fault.as_str(), "fault");
        assert_eq!(Severity::Error.as_str(), "error");
        assert_eq!(format!("{}", Component::Harness), "harness");
    }

    #[test]
    fn time_fields_store_micros() {
        assert_eq!(
            FieldValue::from(SimTime::from_secs(2)),
            FieldValue::U64(2_000_000)
        );
        assert_eq!(
            FieldValue::from(SimDuration::from_millis(3)),
            FieldValue::U64(3_000)
        );
    }
}
