//! Known-bad fixture: every determinism rule in the root `clippy.toml`
//! fires in here. The expected diagnostics are pinned in `expected.txt`.
#![allow(dead_code)]

use std::collections::HashMap;
use std::collections::HashSet;
use std::time::Instant;

struct SimState {
    table: HashMap<u32, u32>,
    seen: HashSet<u32>,
}

fn wall_clock_tick() -> u64 {
    let started = Instant::now();
    let stamp = std::time::SystemTime::now();
    let _ = (started, stamp);
    0
}

fn configured_mode() -> String {
    std::env::var("SOC_MODE").unwrap_or_default()
}

fn spawn_workers() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(1));
    let _ = rx;
}

// Type resolution sees through renames.
use std::collections::BTreeMap as Ordered;
use std::collections::HashMap as Unordered;

fn aliased() -> (Unordered<u32, u32>, Ordered<u32, u32>) {
    (Unordered::new(), Ordered::new())
}

// The sanctioned exception: an expectation with a reason is silent, and
// would fail `-D warnings` if the call under it went away.
#[expect(clippy::disallowed_methods, reason = "fixture: the waived site")]
fn waived() {
    std::thread::scope(|_| {});
}

#[cfg(test)]
mod tests {
    // Test code is linted too.
    #[test]
    fn timed() {
        let _ = std::time::Instant::now();
    }
}
