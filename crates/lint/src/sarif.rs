//! SARIF 2.1.0 output for the `soc-lint sarif` subcommand.
//!
//! SARIF (Static Analysis Results Interchange Format) is the schema CI
//! systems and code-scanning UIs ingest. The renderer emits one run with the
//! full lint catalog as `rules`, every blocking violation as an `error`
//! result, and every waived violation as a suppressed result whose
//! suppression carries the `lint.toml` justification — so the waiver debt is
//! visible in the same artifact as the live findings.
//!
//! Hand-rolled like the other renderers (no serde in this workspace); the
//! subset is fixed, so a string builder plus the workspace's one JSON
//! escaper (`soc_telemetry::json`) is the whole implementation.

use crate::allowlist::Allowlist;
use crate::catalog::CATALOG;
use crate::checks::Diagnostic;
use crate::report::CheckReport;
use soc_telemetry::json::json_string;

const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";
const VERSION: &str = "2.1.0";

/// Render one check run as a SARIF 2.1.0 log. `allow` supplies the
/// justification text attached to each suppressed (waived) result.
pub fn render_sarif(report: &CheckReport, allow: &Allowlist) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"$schema\":{},\"version\":{},\"runs\":[{{",
        json_string(SCHEMA),
        json_string(VERSION)
    ));
    out.push_str("\"tool\":{\"driver\":{\"name\":\"soc-lint\",");
    out.push_str(&format!(
        "\"informationUri\":{},\"rules\":[",
        json_string("https://github.com/smartoclock-sim")
    ));
    for (i, l) in CATALOG.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"name\":{},\"shortDescription\":{{\"text\":{}}},\
             \"fullDescription\":{{\"text\":{}}},\"defaultConfiguration\":{{\"level\":\"error\"}}}}",
            json_string(l.id),
            json_string(l.name),
            json_string(l.summary),
            json_string(l.rationale),
        ));
    }
    out.push_str("]}},\"results\":[");
    let mut first = true;
    for d in &report.blocking {
        push_result(&mut out, &mut first, d, None);
    }
    for d in &report.waived {
        let justification = allow
            .entries
            .iter()
            .find(|e| e.lint == d.lint && e.path == d.path && e.line.is_none_or(|l| l == d.line))
            .map(|e| e.justification.as_str())
            .unwrap_or("waived in lint.toml");
        push_result(&mut out, &mut first, d, Some(justification));
    }
    out.push_str("]}]}");
    out.push('\n');
    out
}

/// Append one SARIF result. A `Some` justification marks the result as
/// suppressed by the external allowlist.
fn push_result(out: &mut String, first: &mut bool, d: &Diagnostic, waived: Option<&str>) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let rule_index = CATALOG
        .iter()
        .position(|l| l.id == d.lint)
        .map_or(-1i64, |i| i as i64);
    out.push_str(&format!(
        "{{\"ruleId\":{},\"ruleIndex\":{rule_index},\"level\":\"error\",\
         \"message\":{{\"text\":{}}},\"locations\":[{{\"physicalLocation\":\
         {{\"artifactLocation\":{{\"uri\":{}}},\"region\":{{\"startLine\":{}}}}}}}]",
        json_string(d.lint),
        json_string(&d.message),
        json_string(&d.path),
        d.line
    ));
    if let Some(justification) = waived {
        out.push_str(&format!(
            ",\"suppressions\":[{{\"kind\":\"external\",\"justification\":{}}}]",
            json_string(justification)
        ));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::AllowEntry;

    fn report() -> CheckReport {
        CheckReport {
            blocking: vec![Diagnostic {
                lint: "D004",
                path: "crates/power/src/x.rs".to_string(),
                line: 7,
                message: "thread_rng in sim-state \"crate\"".to_string(),
            }],
            waived: vec![Diagnostic {
                lint: "R001",
                path: "crates/core/src/y.rs".to_string(),
                line: 3,
                message: ".unwrap() in library code".to_string(),
            }],
            stale: vec![],
            files: 2,
        }
    }

    fn allow() -> Allowlist {
        Allowlist {
            entries: vec![AllowEntry {
                lint: "R001".to_string(),
                path: "crates/core/src/y.rs".to_string(),
                line: Some(3),
                justification: "non-empty by construction".to_string(),
            }],
        }
    }

    #[test]
    fn sarif_shape_is_valid() {
        let sarif = render_sarif(&report(), &allow());
        // Top-level schema shape.
        assert!(sarif.starts_with(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{"
        ));
        assert!(sarif.contains("\"tool\":{\"driver\":{\"name\":\"soc-lint\""));
        // Every catalog rule is listed with descriptions.
        for l in CATALOG {
            assert!(
                sarif.contains(&format!("{{\"id\":\"{}\",\"name\":\"{}\"", l.id, l.name)),
                "rule {} missing",
                l.id
            );
        }
        // The blocking result points at the right file/line and rule.
        assert!(sarif.contains("\"ruleId\":\"D004\""));
        assert!(sarif.contains("\"uri\":\"crates/power/src/x.rs\""));
        assert!(sarif.contains("\"startLine\":7"));
        // The waived result is suppressed with its lint.toml justification.
        assert!(sarif.contains(
            "\"suppressions\":[{\"kind\":\"external\",\"justification\":\"non-empty by construction\"}]"
        ));
        // Escaping survives into the message text.
        assert!(sarif.contains("thread_rng in sim-state \\\"crate\\\""));
        // Exactly one run, results array closes the document.
        assert!(sarif.trim_end().ends_with("]}]}"));
    }

    #[test]
    fn rule_indices_match_catalog_positions() {
        let sarif = render_sarif(&report(), &Allowlist::default());
        let d004_pos = CATALOG.iter().position(|l| l.id == "D004").unwrap();
        assert!(sarif.contains(&format!("\"ruleId\":\"D004\",\"ruleIndex\":{d004_pos}")));
    }

    #[test]
    fn empty_report_is_still_valid() {
        let empty = CheckReport {
            blocking: vec![],
            waived: vec![],
            stale: vec![],
            files: 0,
        };
        let sarif = render_sarif(&empty, &Allowlist::default());
        assert!(sarif.contains("\"results\":[]"));
    }
}
