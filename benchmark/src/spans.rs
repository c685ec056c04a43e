//! Host-time spans, kept in memory and written when the run ends.
//!
//! Two sources feed one recorder:
//!
//! * **calls** — [`timed`] wraps every call the adapter ([`crate::api`])
//!   makes into the program. A call's cost is its wall time × the worker
//!   threads it was given (core-ns).
//! * **program spans** — [`SpanProbe`] implements the program's existing
//!   `ShardProbe` seam (`shard/trace_gen`, `rack/setup`, `shard/sim`,
//!   `rack/admission`, `rack/aggregation`, `merge`). Nesting is tracked per
//!   thread, so each span's *self* time excludes the spans it encloses.
//!
//! Each span is charged to a layer. A call's core-ns not covered by program
//! spans (idle workers, untraced code) is charged to `unaccounted`, as is
//! the benchmark's own code between calls. Fine-grained spans (one per rack
//! step) are only summed; spans at the top of a worker's stack and calls are
//! also kept as records for the written trace.

use crate::api::{ShardProbe, SpanToken};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Layer of time no program span or self-timed call covers.
pub const UNACCOUNTED: &str = "unaccounted";

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Summed host time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans or calls charged.
    pub count: u64,
    /// Self time, in core-ns.
    pub self_ns: u64,
}

/// One kept span.
#[derive(Debug, Clone)]
pub struct Record {
    pub name: &'static str,
    pub layer: &'static str,
    /// Workload iteration the span belongs to (the trace identifier).
    pub iter: u64,
    /// Index of the enclosing call's record (`None` for a call).
    pub parent: Option<usize>,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Call {
    name: &'static str,
    record: usize,
    /// Wall time of program spans at the top of a worker's stack.
    covered_ns: u64,
}

struct State {
    epoch: Instant,
    iter: u64,
    /// Core-ns of the calls made in the current iteration.
    iter_calls_ns: u64,
    /// Σ wall × threads over traced iterations.
    total_ns: u64,
    call: Option<Call>,
    layers: BTreeMap<&'static str, LayerTime>,
    records: Vec<Record>,
    counters: BTreeMap<&'static str, u64>,
    /// Σ top-level worker span time and Σ threads × wall, over parallel calls.
    par_busy_ns: u64,
    par_capacity_ns: u64,
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    let mut guard = STATE.lock().expect("span recorder poisoned by a panic");
    guard.as_mut().map(f)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Start recording (traced iterations only; off by default).
pub fn enable(on: bool) {
    let mut guard = STATE.lock().expect("span recorder poisoned by a panic");
    if on && guard.is_none() {
        *guard = Some(State {
            epoch: Instant::now(),
            iter: 0,
            iter_calls_ns: 0,
            total_ns: 0,
            call: None,
            layers: BTreeMap::new(),
            records: Vec::new(),
            counters: BTreeMap::new(),
            par_busy_ns: 0,
            par_capacity_ns: 0,
        });
    }
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mark the start of workload iteration `iter`.
pub fn begin_iter(iter: u64) {
    with_state(|s| {
        s.iter = iter;
        s.iter_calls_ns = 0;
    });
}

/// Close a traced iteration: its wall × threads not spent inside calls
/// (the benchmark's own code) is charged to [`UNACCOUNTED`].
pub fn end_iter(wall: Duration, threads: usize) {
    if is_enabled() {
        with_state(|s| {
            let core = ns(wall) * threads as u64;
            add_layer(s, UNACCOUNTED, core.saturating_sub(s.iter_calls_ns));
            s.total_ns += core;
        });
    }
}

fn add_layer(s: &mut State, layer: &'static str, self_ns: u64) {
    let acc = s.layers.entry(layer).or_default();
    acc.count += 1;
    acc.self_ns += self_ns;
}

/// A timed call's result and its host costs.
pub struct Timed<T> {
    pub value: T,
    pub wall: Duration,
    /// Allocations made during the call.
    pub allocs: u64,
    /// Heap bytes the call left live (its result, mostly).
    pub retained_bytes: i64,
}

impl<T> Timed<T> {
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            value: f(self.value),
            wall: self.wall,
            allocs: self.allocs,
            retained_bytes: self.retained_bytes,
        }
    }

    /// Wall time × worker threads.
    pub fn core_ns(&self, threads: usize) -> f64 {
        self.wall.as_nanos() as f64 * threads as f64
    }
}

/// Time one call into the program. `self_layer` receives the call's
/// core-ns not covered by program spans: its own layer for calls the
/// program does not instrument (encode, parse, report), [`UNACCOUNTED`]
/// for the instrumented ones.
pub fn timed<T>(
    name: &'static str,
    self_layer: &'static str,
    threads: usize,
    f: impl FnOnce() -> T,
) -> Timed<T> {
    let traced = is_enabled();
    if traced {
        with_state(|s| {
            let start = ns(s.epoch.elapsed());
            s.records.push(Record {
                name,
                layer: self_layer,
                iter: s.iter,
                parent: None,
                thread: thread_id(),
                start_ns: start,
                end_ns: start,
            });
            s.call = Some(Call {
                name,
                record: s.records.len() - 1,
                covered_ns: 0,
            });
        });
    }
    let allocs = crate::alloc::allocs();
    let live = crate::alloc::live_bytes();
    let start = Instant::now();
    let value = std::hint::black_box(f());
    let wall = start.elapsed();
    let timed = Timed {
        value,
        wall,
        allocs: crate::alloc::allocs() - allocs,
        retained_bytes: crate::alloc::live_bytes() - live,
    };
    if traced {
        with_state(|s| {
            let call = s.call.take().expect("calls do not nest");
            s.records[call.record].end_ns = ns(s.epoch.elapsed());
            let core = ns(wall) * threads as u64;
            add_layer(s, self_layer, core.saturating_sub(call.covered_ns));
            s.iter_calls_ns += core;
            if threads > 1 && call.covered_ns > 0 {
                s.par_busy_ns += call.covered_ns;
                s.par_capacity_ns += core;
            }
        });
    }
    timed
}

/// The layer a program span is charged to, given the call it runs under.
fn layer_of(call: &str, span: &'static str) -> &'static str {
    match span {
        "shard/trace_gen" => "traces",
        "rack/setup" => "predict",
        "rack/admission" => "engine.admission",
        "rack/aggregation" => "engine.aggregation",
        // The same seam wraps whole closed-loop sims in `run_cluster_sims`.
        "shard/sim" if call == "run_cluster_sims" => "harness",
        "shard/sim" => "engine",
        "merge" => "shard.merge",
        other => other,
    }
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// (span, count, self ns) summed on this thread since its last flush.
    static LOCAL: RefCell<Vec<(&'static str, u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

/// The recording side of the program's `ShardProbe` seam.
pub struct SpanProbe;

struct Token;

impl SpanToken for Token {}

impl Drop for Token {
    fn drop(&mut self) {
        let end = Instant::now();
        let Some((frame, dur, top)) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop()?;
            let dur = ns(end - frame.start);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur;
            }
            Some((frame, dur, stack.is_empty()))
        }) else {
            return;
        };
        let self_ns = dur.saturating_sub(frame.child_ns);
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            match local.iter_mut().find(|(n, _, _)| *n == frame.name) {
                Some(acc) => {
                    acc.1 += 1;
                    acc.2 += self_ns;
                }
                None => local.push((frame.name, 1, self_ns)),
            }
            if !top {
                return;
            }
            // Flush once per top-level span, not once per rack step.
            let drained: Vec<_> = local.drain(..).collect();
            with_state(|s| {
                let call_name = s.call.as_ref().map_or("", |c| c.name);
                for (span, count, self_ns) in drained {
                    let acc = s.layers.entry(layer_of(call_name, span)).or_default();
                    acc.count += count;
                    acc.self_ns += self_ns;
                }
                let start_ns = ns(frame.start.saturating_duration_since(s.epoch));
                let parent = s.call.as_mut().map(|c| {
                    c.covered_ns += dur;
                    c.record
                });
                s.records.push(Record {
                    name: frame.name,
                    layer: layer_of(call_name, frame.name),
                    iter: s.iter,
                    parent,
                    thread: thread_id(),
                    start_ns,
                    end_ns: start_ns + dur,
                });
            });
        });
    }
}

impl ShardProbe for SpanProbe {
    fn span(&self, name: &'static str) -> Option<Box<dyn SpanToken>> {
        STACK.with(|stack| {
            stack.borrow_mut().push(Frame {
                name,
                start: Instant::now(),
                child_ns: 0,
            })
        });
        Some(Box::new(Token))
    }

    fn add(&self, counter: &'static str, n: u64) {
        with_state(|s| *s.counters.entry(counter).or_default() += n);
    }
}

/// Everything recorded, taken out of the recorder.
pub struct Recorded {
    pub layers: BTreeMap<&'static str, LayerTime>,
    pub records: Vec<Record>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Σ wall × threads over traced iterations, in ns.
    pub total_ns: u64,
    /// Σ top-level worker span time ÷ Σ threads × call wall over parallel
    /// calls; `None` when no parallel call ran.
    pub par_efficiency: Option<f64>,
}

/// Stop recording and return what was recorded.
pub fn take() -> Recorded {
    ENABLED.store(false, Ordering::Relaxed);
    let state = STATE
        .lock()
        .expect("span recorder poisoned by a panic")
        .take();
    match state {
        Some(s) => Recorded {
            par_efficiency: (s.par_capacity_ns > 0)
                .then(|| s.par_busy_ns as f64 / s.par_capacity_ns as f64),
            layers: s.layers,
            records: s.records,
            counters: s.counters,
            total_ns: s.total_ns,
        },
        None => Recorded {
            layers: BTreeMap::new(),
            records: Vec::new(),
            counters: BTreeMap::new(),
            total_ns: 0,
            par_efficiency: None,
        },
    }
}
