//! Causal-chain reconstruction over `decision_id`/`cause_id` links.
//!
//! Control-plane events carry a `decision_id` (the id of the decision the
//! event records) and a `cause_id` (the id of the parent decision). Walking
//! `cause_id` links backwards from a terminal event (an SLO miss, a grant
//! revocation) reconstructs the full story: warning → cap → revoke →
//! SLO-miss.

use crate::trace::{Trace, TraceEvent};
use soc_telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Terminal event names a chain may end at, in severity order: these are the
/// outcomes an operator wants explained. `budget_violation` is emitted by
/// the fault-injection layer when a post-enforcement rack draw exceeds the
/// contracted limit (only fail-open baselines produce it);
/// `degraded_enter`/`degraded_exit` bracket the stale-budget windows a gOA
/// outage forces on a rack.
pub const DEFAULT_TERMINALS: [&str; 5] = [
    "budget_violation",
    "degraded_enter",
    "degraded_exit",
    "slo_miss",
    "revoke",
];

/// One reconstructed causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalChain {
    /// Indices into [`Trace::events`], root decision first, terminal last.
    pub path: Vec<usize>,
}

impl CausalChain {
    /// Number of links in the chain (events on the path).
    pub fn depth(&self) -> usize {
        self.path.len()
    }
}

/// Map every non-zero `decision_id` to the index of the first event carrying
/// it. Single-threaded runs allocate ids sequentially, so the first carrier
/// *is* the decision event; duplicates only appear in merged traces.
pub fn decision_index(trace: &Trace) -> BTreeMap<u64, usize> {
    let mut index = BTreeMap::new();
    for (i, event) in trace.events().iter().enumerate() {
        let id = event.decision_id();
        if id != 0 {
            index.entry(id).or_insert(i);
        }
    }
    index
}

/// Reconstruct the causal chain ending at event `terminal` (an index into
/// [`Trace::events`]) by following `cause_id` links. Cycles (possible only in
/// corrupt traces) and dangling links terminate the walk.
pub fn chain_ending_at(
    trace: &Trace,
    index: &BTreeMap<u64, usize>,
    terminal: usize,
) -> CausalChain {
    let mut path = vec![terminal];
    let mut cause = trace.events()[terminal].cause_id();
    while cause != 0 {
        let Some(&i) = index.get(&cause) else { break };
        if path.contains(&i) {
            break; // cycle guard
        }
        path.push(i);
        cause = trace.events()[i].cause_id();
    }
    path.reverse();
    CausalChain { path }
}

/// Reconstruct one chain per event whose name is in `terminals`, in canonical
/// trace order.
pub fn chains(trace: &Trace, terminals: &[&str]) -> Vec<CausalChain> {
    let index = decision_index(trace);
    trace
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| terminals.contains(&e.name.as_str()))
        .map(|(i, _)| chain_ending_at(trace, &index, i))
        .collect()
}

/// Aggregate statistics over the trace's causal links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainStats {
    /// Chains reconstructed (one per terminal event).
    pub chains: usize,
    /// Links in the longest chain.
    pub longest: usize,
    /// Chains with at least two events (the cause link resolved).
    pub multi_event: usize,
    /// Non-zero `cause_id`s anywhere in the trace that resolve to a
    /// `decision_id` present in the trace.
    pub resolved_links: usize,
    /// Non-zero `cause_id`s that do not resolve (trace was truncated, or the
    /// producer dropped the parent event).
    pub dangling_links: usize,
}

/// Compute [`ChainStats`] for `trace` with the given terminal event names.
pub fn stats(trace: &Trace, terminals: &[&str]) -> ChainStats {
    let index = decision_index(trace);
    let all = chains(trace, terminals);
    let mut s = ChainStats {
        chains: all.len(),
        longest: all.iter().map(CausalChain::depth).max().unwrap_or(0),
        multi_event: all.iter().filter(|c| c.depth() > 1).count(),
        ..ChainStats::default()
    };
    for event in trace.events() {
        let cause = event.cause_id();
        if cause != 0 {
            if index.contains_key(&cause) {
                s.resolved_links += 1;
            } else {
                s.dangling_links += 1;
            }
        }
    }
    s
}

/// Render one event for a chain timeline: label plus its fields (ids last).
fn render_event(out: &mut String, event: &TraceEvent, indent: usize) {
    let _ = write!(out, "{:indent$}{}", "", event.label(), indent = indent);
    if let JsonValue::Obj(members) = &event.fields {
        for (k, v) in members {
            if k == "decision_id" || k == "cause_id" {
                continue;
            }
            let _ = write!(out, " {k}=");
            match v {
                JsonValue::Str(s) => {
                    let _ = write!(out, "{s}");
                }
                JsonValue::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                JsonValue::Float(x) => {
                    let _ = write!(out, "{x:.3}");
                }
                JsonValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                _ => {
                    let _ = write!(out, "?");
                }
            }
        }
    }
    let (d, c) = (event.decision_id(), event.cause_id());
    if d != 0 {
        let _ = write!(out, " decision={d}");
    }
    if c != 0 {
        let _ = write!(out, " cause={c}");
    }
    out.push('\n');
}

/// Render up to `limit` chains as indented timelines (0 = no limit).
pub fn render_chains(trace: &Trace, chains: &[CausalChain], limit: usize) -> String {
    let mut out = String::new();
    let shown = if limit == 0 {
        chains.len()
    } else {
        chains.len().min(limit)
    };
    for (n, chain) in chains.iter().take(shown).enumerate() {
        let terminal = &trace.events()[*chain.path.last().expect("non-empty path")];
        let _ = writeln!(
            out,
            "chain #{} (depth {}, ends {} @ {}us)",
            n + 1,
            chain.depth(),
            terminal.name,
            terminal.t_us
        );
        for (level, &i) in chain.path.iter().enumerate() {
            render_event(&mut out, &trace.events()[i], 2 * (level + 1));
        }
    }
    if shown < chains.len() {
        let _ = writeln!(out, "... {} more chains not shown", chains.len() - shown);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Trace {
        let text = concat!(
            r#"{"t_us":100,"component":"harness","severity":"error","name":"rack_capping","fields":{"decision_id":1}}"#,
            "\n",
            r#"{"t_us":100,"component":"harness","severity":"error","name":"cap_set","fields":{"server":3,"decision_id":2,"cause_id":1}}"#,
            "\n",
            r#"{"t_us":100,"component":"harness","severity":"error","name":"revoke","fields":{"server":3,"decision_id":3,"cause_id":2}}"#,
            "\n",
            r#"{"t_us":200,"component":"harness","severity":"warn","name":"slo_miss","fields":{"service":3,"attribution":"cap","decision_id":4,"cause_id":2}}"#,
            "\n",
            r#"{"t_us":300,"component":"harness","severity":"warn","name":"slo_miss","fields":{"service":1,"attribution":"queueing","decision_id":5,"cause_id":0}}"#,
            "\n",
            r#"{"t_us":400,"component":"soa","severity":"info","name":"oc_release","fields":{"server":9,"cause_id":77}}"#,
        );
        Trace::parse(text).unwrap()
    }

    #[test]
    fn chains_walk_cause_links_to_the_root() {
        let trace = fixture();
        let all = chains(&trace, &DEFAULT_TERMINALS);
        // Terminals in canonical order: revoke@100, slo_miss@200, slo_miss@300.
        assert_eq!(all.len(), 3);
        let names: Vec<Vec<&str>> = all
            .iter()
            .map(|c| {
                c.path
                    .iter()
                    .map(|&i| trace.events()[i].name.as_str())
                    .collect()
            })
            .collect();
        assert_eq!(names[0], vec!["rack_capping", "cap_set", "revoke"]);
        assert_eq!(names[1], vec!["rack_capping", "cap_set", "slo_miss"]);
        assert_eq!(names[2], vec!["slo_miss"]);
    }

    #[test]
    fn stats_count_resolution() {
        let trace = fixture();
        let s = stats(&trace, &DEFAULT_TERMINALS);
        assert_eq!(s.chains, 3);
        assert_eq!(s.longest, 3);
        assert_eq!(s.multi_event, 2);
        assert_eq!(s.resolved_links, 3); // cap_set, revoke, slo_miss@200
        assert_eq!(s.dangling_links, 1); // oc_release cause 77
    }

    #[test]
    fn rendering_is_indented_and_bounded() {
        let trace = fixture();
        let all = chains(&trace, &DEFAULT_TERMINALS);
        let text = render_chains(&trace, &all, 2);
        assert!(text.contains("chain #1 (depth 3, ends revoke @ 100us)"));
        assert!(text.contains("rack_capping"));
        assert!(text.contains("attribution=cap"));
        assert!(text.contains("... 1 more chains not shown"));
    }

    #[test]
    fn cycle_in_corrupt_trace_terminates() {
        let text = concat!(
            r#"{"t_us":1,"component":"soa","severity":"info","name":"revoke","fields":{"decision_id":1,"cause_id":2}}"#,
            "\n",
            r#"{"t_us":2,"component":"soa","severity":"info","name":"x","fields":{"decision_id":2,"cause_id":1}}"#,
        );
        let trace = Trace::parse(text).unwrap();
        let all = chains(&trace, &["revoke"]);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].depth(), 2);
    }
}
