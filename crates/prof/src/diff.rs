//! Snapshot comparison: the perf-regression gate behind `soc-prof diff`.
//!
//! Compares a *current* snapshot against a committed *baseline* under a
//! [`Tolerance`]. Wall-clock comparisons are ratio-based per phase plus the
//! grand total; everything else (counters, memory, rates) is reported but
//! never gates, because allocation counts and RSS vary across toolchains
//! and machines while a >threshold wall-clock blowup on the same machine
//! class is an actionable signal.
//!
//! Gate semantics, pinned by tests:
//!
//! * a phase slower than baseline by **strictly more** than
//!   `phase_tolerance_pct` regresses (exact-boundary deltas pass);
//! * the total wall clock gates the same way under `total_tolerance_pct`;
//! * a phase present in the baseline but missing from the current run
//!   regresses — the bench changed shape and the baseline must be
//!   regenerated deliberately, not silently;
//! * a new phase never regresses (it is reported as `new`);
//! * phases whose wall clock is below `noise_floor_ms` in both snapshots
//!   are ignored entirely — micro-phases jitter far above any sensible
//!   percentage threshold;
//! * improvements never gate, however large.

use crate::snapshot::Snapshot;
use soc_telemetry::json::{fmt_num, json_string};
use std::fmt::Write as _;

/// Thresholds for [`diff`]. Percentages are slowdowns relative to the
/// baseline: 25.0 means "fail if current > 1.25 × baseline".
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerance {
    /// Allowed slowdown of the total wall clock, in percent.
    pub total_tolerance_pct: f64,
    /// Allowed per-phase slowdown, in percent.
    pub phase_tolerance_pct: f64,
    /// Phases faster than this in both snapshots are ignored.
    pub noise_floor_ms: f64,
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance {
            total_tolerance_pct: 25.0,
            phase_tolerance_pct: 40.0,
            noise_floor_ms: 5.0,
        }
    }
}

/// Verdict for one compared entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or under the noise floor).
    Ok,
    /// Faster than baseline beyond the tolerance — good news, never gates.
    Improved,
    /// Slower than baseline beyond the tolerance.
    Regressed,
    /// In the baseline, absent from the current snapshot.
    Missing,
    /// In the current snapshot, absent from the baseline.
    New,
}

impl Verdict {
    /// Does this verdict fail the gate?
    pub fn gates(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Missing)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One compared entry (the total or one phase).
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// `total` or the phase path.
    pub name: String,
    /// Baseline wall clock in ms (0 for `New`).
    pub baseline_ms: f64,
    /// Current wall clock in ms (0 for `Missing`).
    pub current_ms: f64,
    /// Percent change (+ = slower); 0 when either side is absent.
    pub delta_pct: f64,
    pub verdict: Verdict,
}

/// Full comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Baseline snapshot name.
    pub baseline_name: String,
    /// Current snapshot name.
    pub current_name: String,
    /// Tolerance the comparison ran under.
    pub tolerance: Tolerance,
    /// The total wall-clock comparison.
    pub total: Delta,
    /// Per-phase comparisons in baseline key order, then new phases.
    pub phases: Vec<Delta>,
    /// Counter drifts (informational): `(name, baseline, current)`.
    pub counters: Vec<(String, u64, u64)>,
}

impl DiffReport {
    /// Does anything fail the gate?
    pub fn has_regression(&self) -> bool {
        self.total.verdict.gates() || self.phases.iter().any(|p| p.verdict.gates())
    }

    /// Number of phases actually compared (present on both sides and above
    /// the noise floor). The CI gate asserts this is nonzero so a
    /// malformed snapshot cannot silently pass as "no regressions".
    pub fn compared_phases(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| {
                matches!(
                    p.verdict,
                    Verdict::Ok | Verdict::Improved | Verdict::Regressed
                )
            })
            .count()
    }

    /// Human summary, one line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf diff: {} (baseline) vs {} (current), tolerance total +{:.0}% / phase +{:.0}%",
            self.baseline_name,
            self.current_name,
            self.tolerance.total_tolerance_pct,
            self.tolerance.phase_tolerance_pct,
        );
        let width = self
            .phases
            .iter()
            .map(|p| p.name.len())
            .chain([5])
            .max()
            .unwrap_or(5);
        let mut line = |d: &Delta| {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>10.1} ms -> {:>10.1} ms  {:>+7.1}%  {}",
                d.name,
                d.baseline_ms,
                d.current_ms,
                d.delta_pct,
                d.verdict.label(),
            );
        };
        line(&self.total);
        for d in &self.phases {
            line(d);
        }
        for (name, base, cur) in &self.counters {
            if base != cur {
                let _ = writeln!(out, "  counter {name}: {base} -> {cur}");
            }
        }
        let _ = writeln!(
            out,
            "phases compared: {}, regressions: {}",
            self.compared_phases(),
            self.phases.iter().filter(|p| p.verdict.gates()).count()
                + usize::from(self.total.verdict.gates()),
        );
        out
    }

    /// Machine-readable report (used by the CI artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"baseline\": {},", json_string(&self.baseline_name));
        let _ = writeln!(out, "  \"current\": {},", json_string(&self.current_name));
        let _ = writeln!(out, "  \"regression\": {},", self.has_regression());
        let _ = writeln!(out, "  \"compared_phases\": {},", self.compared_phases());
        out.push_str("  \"entries\": [\n");
        let all = std::iter::once(&self.total).chain(self.phases.iter());
        let rendered: Vec<String> = all
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"baseline_ms\": {}, \"current_ms\": {}, \
                     \"delta_pct\": {}, \"verdict\": {}}}",
                    json_string(&d.name),
                    fmt_num(d.baseline_ms),
                    fmt_num(d.current_ms),
                    fmt_num(d.delta_pct),
                    json_string(d.verdict.label()),
                )
            })
            .collect();
        out.push_str(&rendered.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Classify one timing pair under a percentage tolerance.
fn classify(baseline_ms: f64, current_ms: f64, tolerance_pct: f64) -> (f64, Verdict) {
    if baseline_ms <= 0.0 {
        // A zero-time baseline phase cannot express a ratio; treat any
        // measurable current time as new information, not a regression.
        return (0.0, Verdict::Ok);
    }
    let delta_pct = (current_ms - baseline_ms) / baseline_ms * 100.0;
    let verdict = if delta_pct > tolerance_pct {
        Verdict::Regressed
    } else if delta_pct < -tolerance_pct {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (delta_pct, verdict)
}

/// Compare `current` against `baseline` under `tolerance`.
pub fn diff(baseline: &Snapshot, current: &Snapshot, tolerance: &Tolerance) -> DiffReport {
    let (delta_pct, verdict) = classify(
        baseline.total_ms,
        current.total_ms,
        tolerance.total_tolerance_pct,
    );
    let total = Delta {
        name: "total".to_string(),
        baseline_ms: baseline.total_ms,
        current_ms: current.total_ms,
        delta_pct,
        verdict,
    };
    let mut phases = Vec::new();
    for (path, base) in &baseline.phases {
        match current.phases.get(path) {
            Some(cur) => {
                let under_floor = base.total_ms < tolerance.noise_floor_ms
                    && cur.total_ms < tolerance.noise_floor_ms;
                let (delta_pct, verdict) = if under_floor {
                    (0.0, Verdict::Ok)
                } else {
                    classify(base.total_ms, cur.total_ms, tolerance.phase_tolerance_pct)
                };
                phases.push(Delta {
                    name: path.clone(),
                    baseline_ms: base.total_ms,
                    current_ms: cur.total_ms,
                    delta_pct,
                    verdict,
                });
            }
            None => phases.push(Delta {
                name: path.clone(),
                baseline_ms: base.total_ms,
                current_ms: 0.0,
                delta_pct: 0.0,
                verdict: Verdict::Missing,
            }),
        }
    }
    for (path, cur) in &current.phases {
        if !baseline.phases.contains_key(path) {
            phases.push(Delta {
                name: path.clone(),
                baseline_ms: 0.0,
                current_ms: cur.total_ms,
                delta_pct: 0.0,
                verdict: Verdict::New,
            });
        }
    }
    let mut counters = Vec::new();
    for (name, base) in &baseline.counters {
        counters.push((
            name.clone(),
            *base,
            current.counters.get(name).copied().unwrap_or(0),
        ));
    }
    for (name, cur) in &current.counters {
        if !baseline.counters.contains_key(name) {
            counters.push((name.clone(), 0, *cur));
        }
    }
    DiffReport {
        baseline_name: baseline.name.clone(),
        current_name: current.name.clone(),
        tolerance: tolerance.clone(),
        total,
        phases,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::PhaseSnap;

    /// `pct` for the total and every phase, default noise floor.
    fn uniform(pct: f64) -> Tolerance {
        Tolerance {
            total_tolerance_pct: pct,
            phase_tolerance_pct: pct,
            ..Tolerance::default()
        }
    }

    fn snap(name: &str, total_ms: f64, phases: &[(&str, f64)]) -> Snapshot {
        let mut s = Snapshot {
            schema: crate::snapshot::SCHEMA,
            name: name.into(),
            total_ms,
            ..Snapshot::default()
        };
        for (path, ms) in phases {
            s.phases.insert(
                (*path).to_string(),
                PhaseSnap {
                    count: 1,
                    total_ms: *ms,
                    min_ms: *ms,
                    max_ms: *ms,
                },
            );
        }
        s
    }

    #[test]
    fn within_tolerance_passes() {
        let base = snap("base", 100.0, &[("sim", 80.0)]);
        let cur = snap("cur", 110.0, &[("sim", 90.0)]);
        let report = diff(&base, &cur, &uniform(25.0));
        assert!(!report.has_regression());
        assert_eq!(report.compared_phases(), 1);
    }

    #[test]
    fn exact_boundary_is_not_a_regression() {
        // +25.0% against a 25% tolerance: strictly-greater semantics.
        let base = snap("base", 100.0, &[("sim", 100.0)]);
        let cur = snap("cur", 125.0, &[("sim", 125.0)]);
        let report = diff(&base, &cur, &uniform(25.0));
        assert_eq!(report.total.verdict, Verdict::Ok);
        assert_eq!(report.phases[0].verdict, Verdict::Ok);
        assert!(!report.has_regression());
        // One more part in a million tips it over.
        let cur = snap("cur", 125.01, &[("sim", 125.01)]);
        let report = diff(&base, &cur, &uniform(25.0));
        assert!(report.has_regression());
    }

    #[test]
    fn missing_phase_gates() {
        let base = snap("base", 100.0, &[("sim", 50.0), ("merge", 50.0)]);
        let cur = snap("cur", 100.0, &[("sim", 50.0)]);
        let report = diff(&base, &cur, &uniform(25.0));
        assert!(report.has_regression());
        let missing = report.phases.iter().find(|p| p.name == "merge").unwrap();
        assert_eq!(missing.verdict, Verdict::Missing);
    }

    #[test]
    fn new_phase_does_not_gate() {
        let base = snap("base", 100.0, &[("sim", 100.0)]);
        let cur = snap("cur", 100.0, &[("sim", 100.0), ("merge", 30.0)]);
        let report = diff(&base, &cur, &uniform(25.0));
        assert!(!report.has_regression());
        let new = report.phases.iter().find(|p| p.name == "merge").unwrap();
        assert_eq!(new.verdict, Verdict::New);
        // New phases are not "compared".
        assert_eq!(report.compared_phases(), 1);
    }

    #[test]
    fn noise_floor_ignores_micro_phases() {
        // 0.1 ms -> 4 ms is a 3900% blowup but far below the floor.
        let base = snap("base", 100.0, &[("tiny", 0.1)]);
        let cur = snap("cur", 100.0, &[("tiny", 4.0)]);
        let report = diff(&base, &cur, &Tolerance::default());
        assert!(!report.has_regression());
        // Crossing the floor re-arms the ratio check.
        let cur = snap("cur", 100.0, &[("tiny", 50.0)]);
        let report = diff(&base, &cur, &Tolerance::default());
        assert!(report.has_regression());
    }

    #[test]
    fn improvements_never_gate() {
        let base = snap("base", 100.0, &[("sim", 100.0)]);
        let cur = snap("cur", 10.0, &[("sim", 10.0)]);
        let report = diff(&base, &cur, &uniform(25.0));
        assert_eq!(report.total.verdict, Verdict::Improved);
        assert!(!report.has_regression());
    }

    #[test]
    fn zero_baseline_phase_is_tolerated() {
        let base = snap("base", 100.0, &[("sim", 0.0)]);
        let cur = snap("cur", 100.0, &[("sim", 50.0)]);
        let report = diff(&base, &cur, &uniform(25.0));
        assert!(!report.has_regression());
    }

    #[test]
    fn render_and_json_carry_the_verdicts() {
        let base = snap("base", 100.0, &[("sim", 50.0), ("merge", 50.0)]);
        let cur = snap("cur", 200.0, &[("sim", 150.0)]);
        let report = diff(&base, &cur, &uniform(25.0));
        let text = report.render();
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("MISSING"));
        assert!(text.contains("phases compared: 1"));
        let json = report.to_json();
        assert!(json.contains("\"regression\": true"));
        let parsed = soc_telemetry::json::parse(&json).unwrap();
        assert!(parsed.get("entries").is_some());
    }

    #[test]
    fn counter_drift_is_reported_not_gated() {
        let mut base = snap("base", 100.0, &[("sim", 100.0)]);
        base.counters.insert("racks".into(), 8);
        let mut cur = snap("cur", 100.0, &[("sim", 100.0)]);
        cur.counters.insert("racks".into(), 16);
        let report = diff(&base, &cur, &uniform(25.0));
        assert!(!report.has_regression());
        assert_eq!(report.counters, vec![("racks".to_string(), 8, 16)]);
        assert!(report.render().contains("counter racks: 8 -> 16"));
    }
}
