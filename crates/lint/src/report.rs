//! Rendering: human diagnostics for terminals, a JSON report for CI
//! artifacts, and the catalog listing.

use crate::allowlist::AllowEntry;
use crate::catalog::{self, CATALOG};
use crate::checks::Diagnostic;
use soc_telemetry::json::json_string;

/// Everything one `check` run produced, post-allowlist.
pub struct CheckReport {
    /// Violations not covered by the allowlist — these fail the build.
    pub blocking: Vec<Diagnostic>,
    /// Violations waived by `lint.toml`.
    pub waived: Vec<Diagnostic>,
    /// Allowlist entries that matched nothing (stale; should be deleted).
    pub stale: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files: usize,
}

impl CheckReport {
    /// Human-readable rendering, one `path:line: ID summary — detail` per
    /// blocking violation.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.blocking {
            let summary = catalog::lint(d.lint).map_or("", |l| l.summary);
            out.push_str(&format!(
                "{}:{}: {} {}\n    {}\n",
                d.path, d.line, d.lint, summary, d.message
            ));
        }
        if !self.stale.is_empty() {
            out.push_str("\nstale lint.toml entries (matched nothing; delete them):\n");
            for e in &self.stale {
                let line = e.line.map_or(String::new(), |l| format!(":{l}"));
                out.push_str(&format!("  {} {}{}\n", e.lint, e.path, line));
            }
        }
        out.push_str(&format!(
            "\nfiles analyzed: {}; {} blocking violation(s), {} waived by lint.toml, {} stale waiver(s)\n",
            self.files,
            self.blocking.len(),
            self.waived.len(),
            self.stale.len()
        ));
        out
    }

    /// JSON report (the CI artifact). Shape:
    /// `{"files": N, "blocking": [...], "waived": [...], "stale": [...]}`
    /// with each violation as `{"lint", "path", "line", "message"}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files\":{},", self.files));
        out.push_str("\"blocking\":");
        push_diags(&mut out, &self.blocking);
        out.push_str(",\"waived\":");
        push_diags(&mut out, &self.waived);
        out.push_str(",\"stale\":[");
        for (i, e) in self.stale.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":{},\"path\":{}",
                json_string(&e.lint),
                json_string(&e.path)
            ));
            if let Some(l) = e.line {
                out.push_str(&format!(",\"line\":{l}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out.push('\n');
        out
    }
}

fn push_diags(out: &mut String, diags: &[Diagnostic]) {
    out.push('[');
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"lint\":{},\"path\":{},\"line\":{},\"message\":{}}}",
            json_string(d.lint),
            json_string(&d.path),
            d.line,
            json_string(&d.message)
        ));
    }
    out.push(']');
}

/// The `list` subcommand: the full catalog with rationale and waiver recipe.
pub fn render_catalog() -> String {
    let mut out = String::from("soc-lint catalog\n================\n");
    for l in CATALOG {
        out.push_str(&format!(
            "\n{} [{}] {}\n  {}\n  rationale: {}\n  example:   {}\n  waive:     [[allow]] lint = \"{}\" in lint.toml with a justification\n",
            l.id, l.category, l.name, l.summary, l.rationale, l.example, l.id
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CheckReport {
        CheckReport {
            blocking: vec![Diagnostic {
                lint: "D004",
                path: "crates/power/src/x.rs".to_string(),
                line: 7,
                message: "thread_rng in sim-state crate `power`".to_string(),
            }],
            waived: vec![],
            stale: vec![AllowEntry {
                lint: "R001".to_string(),
                path: "crates/core/src/y.rs".to_string(),
                line: Some(3),
                justification: "old".to_string(),
            }],
            files: 12,
        }
    }

    #[test]
    fn human_render_includes_position_and_stale() {
        let text = report().render_human();
        assert!(text.contains("crates/power/src/x.rs:7: D004"));
        assert!(text.contains("stale lint.toml entries"));
        assert!(text.contains("files analyzed: 12; 1 blocking"));
    }

    #[test]
    fn json_render_is_wellformed() {
        let json = report().render_json();
        assert!(json.starts_with("{\"files\":12,"));
        assert!(json.contains("\"blocking\":[{\"lint\":\"D004\""));
        assert!(json.contains(
            "\"stale\":[{\"lint\":\"R001\",\"path\":\"crates/core/src/y.rs\",\"line\":3}]"
        ));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        let mut r = report();
        r.blocking[0].message = "quote \" and\nnewline".to_string();
        assert!(r
            .render_json()
            .contains(r#""message":"quote \" and\nnewline""#));
    }

    #[test]
    fn catalog_lists_every_lint() {
        let text = render_catalog();
        for l in CATALOG {
            assert!(text.contains(l.id));
        }
    }
}
