//! The sim-state crate list lives in one place: `lint.toml`'s
//! `[layers.sim-state]`. The root `clippy.toml` enforces the std-only
//! determinism rules (D001–D003, D005) on every workspace member that does
//! not opt out in its `Cargo.toml`, so the opt-outs must be exactly the
//! members outside that layer. Without this test the two lists could drift
//! apart silently: a crate added to sim-state but still opting out would
//! lose its determinism lints without any check failing.

use soc_lint::LintConfig;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <root>/crates/lint")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Workspace members as `<dir>/<name>` paths: the root manifest's
/// `members = ["crates/*", "vendor/*"]` globs, expanded.
fn members(root: &Path) -> Vec<String> {
    let manifest = read(&root.join("Cargo.toml"));
    assert!(
        manifest.contains(r#"members = ["crates/*", "vendor/*"]"#),
        "the member globs changed; update this test's expansion"
    );
    let mut out = Vec::new();
    for dir in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(dir)).expect("member dir lists") {
            let path = entry.expect("dir entry").path();
            if path.join("Cargo.toml").is_file() {
                let name = path.file_name().expect("named").to_string_lossy();
                out.push(format!("{dir}/{name}"));
            }
        }
    }
    out.sort();
    out
}

/// The `key = value` lines of the `[lints.clippy]` table, if any.
fn clippy_lints(manifest: &str) -> BTreeSet<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[lints.clippy]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn clippy_opt_outs_are_exactly_the_non_sim_state_members() {
    let root = root();
    let config = LintConfig::parse(&read(&root.join("lint.toml"))).expect("lint.toml parses");
    let sim_state = config.layers.sim_state_crates();
    let opt_out: BTreeSet<String> = [
        r#"disallowed_types="allow""#,
        r#"disallowed_methods="allow""#,
    ]
    .map(String::from)
    .into();

    let members = members(&root);
    for krate in &sim_state {
        assert!(
            members.contains(&format!("crates/{krate}")),
            "sim-state crate `{krate}` in lint.toml is not a workspace member"
        );
    }

    let mut expected = Vec::new();
    let mut actual = Vec::new();
    for member in members {
        let lints = clippy_lints(&read(&root.join(&member).join("Cargo.toml")));
        let dir_name = member.rsplit('/').next().expect("non-empty");
        let in_sim_state = member.starts_with("crates/") && sim_state.contains(dir_name);
        if !in_sim_state {
            expected.push(member.clone());
        }
        if opt_out.is_subset(&lints) {
            actual.push(member);
        } else {
            assert!(
                lints.is_disjoint(&opt_out),
                "{member} opts out of only one of the two disallowed lists: {lints:?}"
            );
        }
    }
    assert!(
        !expected.is_empty(),
        "the scan found no members outside sim-state"
    );
    assert_eq!(
        actual, expected,
        "the members opting out of clippy.toml's disallowed lists must be exactly \
         the members outside lint.toml's sim-state layer"
    );
}

#[test]
fn clippy_reasons_keep_the_retired_lint_ids() {
    let clippy = read(&root().join("clippy.toml"));
    for id in ["D001", "D002", "D003", "D005"] {
        assert!(
            clippy.contains(&format!("reason = \"{id}: ")),
            "clippy.toml has no rule whose reason starts with {id}"
        );
    }
}
