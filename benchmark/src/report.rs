//! Small numeric and output helpers: medians, the statistics digest and
//! JSON rendering of the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a over text: the digest of a workload's simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// One reported metric. `None` marks a layer the workload does not run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: Option<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Render a finite number with all its digits (non-finite → `0`, which
/// [`result_line`] callers treat as a failed check).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escape a string for JSON.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last stdout line. The result line carries numbers only: a metric
/// of a layer the workload does not run is written as `0` there, and the
/// human-readable report above it says `absent`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value.unwrap_or(0.0)),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Aligned `name value unit` rows for the human-readable report.
pub fn table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for m in metrics {
        let value = match m.value {
            None => "absent".to_string(),
            Some(v) if v != 0.0 && v.abs() < 1e-3 => format!("{v:.6e}"),
            Some(v) => format!("{v:.6}"),
        };
        let _ = writeln!(out, "  {:width$}  {value:>18} {}", m.name, m.unit);
    }
    out
}
