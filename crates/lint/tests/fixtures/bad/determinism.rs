//! Known-bad fixture: every determinism lint soc-lint still owns (D004)
//! fires in here. The expected diagnostics are pinned in
//! `determinism.expected`; this file is never compiled (it lives under
//! tests/fixtures, not in any crate's src tree). The std-only determinism
//! rules (D001-D003, D005) are clippy's: see `../clippy_bad/`.

use rand::Rng;

fn jitter() -> f64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}

fn queue() {
    let q = crossbeam::channel::unbounded::<u32>();
    let _ = q;
}
