//! Deterministic sharded parallel execution.
//!
//! The large-scale experiments are embarrassingly parallel between gOA
//! budget-reconciliation epochs: racks only interact at epoch boundaries, so
//! whole racks (or whole independent simulations) can run on worker threads.
//! What makes naive threading unacceptable here is *ordering*: the workspace
//! guarantees byte-identical traces per seed, and scheduler-dependent
//! interleaving breaks that. This module is the one sanctioned threading
//! primitive for sim-state crates (the D005 rules in the root `clippy.toml`
//! forbid `std::thread` and channels elsewhere): it shards work
//! deterministically, runs shards on scoped worker threads, and merges
//! results back **in canonical input order**, so the output of [`par_map`]
//! is a pure function of its inputs — independent of thread count, core
//! count, and scheduling.
//!
//! Design rules that keep this true:
//!
//! * every item knows its input index; results are reassembled by index;
//! * workers receive disjoint item sets dealt round-robin (static
//!   partitioning — no work stealing, no shared queues);
//! * workers must not share mutable state; each returns its own results
//!   (callers buffer telemetry per shard and merge after the join);
//! * a panicking worker propagates its payload to the caller after all
//!   workers have been joined, exactly like the inline path.
//!
//! ```
//! use simcore::par::par_map;
//!
//! let squares = par_map(4, (0u64..100).collect(), |_, x| x * x);
//! assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::num::NonZeroUsize;
use std::thread;

/// Number of hardware threads available to this process (at least 1).
///
/// This is the default worker count for `--threads` in the bench binaries.
/// It never influences simulation *results* — only how work is dealt — so
/// reading it does not compromise determinism.
pub fn available_parallelism() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve a requested thread count: `0` means "use
/// [`available_parallelism`]", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_parallelism()
    } else {
        requested
    }
}

/// Map `f` over `items` on up to `threads` worker threads, preserving input
/// order in the output.
///
/// `f` receives `(input_index, item)` and must be a pure function of them
/// (plus captured shared immutable state): the contract is that
/// `par_map(t, items, f)` returns the same bytes for every `t`. Items are
/// dealt round-robin across workers (item `i` goes to worker `i % workers`),
/// which load-balances the common case of uniform per-item cost without any
/// run-time-dependent scheduling.
///
/// `threads == 0` resolves to [`available_parallelism`]; `threads <= 1` (or
/// fewer than two items) runs inline on the calling thread with no thread
/// machinery at all.
///
/// # Panics
/// Re-raises the payload of the first (lowest worker index) panicking
/// worker after all workers have been joined.
#[expect(
    clippy::disallowed_methods,
    reason = "D005: this is the sanctioned sharding primitive; it spawns scoped threads but merges shard results in canonical input order"
)]
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Deal items round-robin so every worker sees a representative slice of
    // the index space (contiguous chunking would put all "expensive" late
    // items on the last worker when cost grows with index).
    let mut shards: Vec<Vec<(usize, T)>> = (0..workers)
        .map(|_| Vec::with_capacity(n / workers + 1))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        shards[i % workers].push((i, item));
    }

    let f = &f;
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .into_iter()
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                // Propagate the worker's own panic payload; `thread::scope`
                // has already joined the remaining workers by the time the
                // unwind leaves the scope.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Canonical merge: results come back grouped by worker; restore input
    // order. Indices are unique, so an unstable sort is deterministic.
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 4, 7] {
            let out = par_map(threads, (0u64..50).collect(), |i, x| {
                assert_eq!(i as u64, x, "index must match the input position");
                x * 3
            });
            assert_eq!(out, (0u64..50).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matches_inline_map_for_any_thread_count() {
        // A seeded per-item computation: the parallel result must be
        // byte-identical to the serial one for every worker count.
        let work = |_: usize, seed: u64| {
            let mut rng = Pcg32::seed_from_u64(seed);
            (0..100).map(|_| rng.next_f64()).sum::<f64>()
        };
        let serial = par_map(1, (0u64..33).collect(), work);
        for threads in [2, 4, 8, 33, 64] {
            let parallel = par_map(threads, (0u64..33).collect(), work);
            assert_eq!(serial, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = par_map(4, Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(4, vec![9u32], |_, x| x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map(64, vec![1, 2, 3], |_, x| x), vec![1, 2, 3]);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(available_parallelism() >= 1);
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
        let out = par_map(0, (0u32..10).collect(), |_, x| x);
        assert_eq!(out, (0u32..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0u32..16).collect(), |_, x| {
                assert!(x != 11, "boom on item {x}");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom on item 11"), "got: {msg}");
    }
}
