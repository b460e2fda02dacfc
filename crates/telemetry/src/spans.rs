//! The hierarchical span collector and the one place closed spans go.
//!
//! Each thread keeps a stack of open spans in a thread-local; closing a
//! span folds it into its parent's child list, and closing a span with no
//! parent (a per-thread root) merges the finished subtree into the
//! process-wide aggregate, by name, under one lock. That aggregate is the
//! only destination of a closed root:
//! [`Session::begin`](crate::Session::begin) clears it,
//! [`Session::finish`](crate::Session::finish) takes it, and
//! [`live_report`](crate::live_report) copies it while a long-lived
//! session keeps recording (the server's `/metrics`).
//!
//! When no session is recording, [`span`] returns an inactive guard
//! without touching the thread-local at all — the disabled path is one
//! relaxed atomic load.

use crate::counters::Counter;
use crate::memprof::{self, RawSpanMem, SpanMemState};
use crate::report::{self, SpanData};
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A closed span subtree as recorded on one thread, before aggregation.
#[derive(Debug, Clone)]
pub(crate) struct RawSpan {
    pub(crate) name: &'static str,
    pub(crate) wall_ns: u64,
    pub(crate) counters: Vec<(&'static str, u64)>,
    pub(crate) children: Vec<RawSpan>,
    pub(crate) mem: RawSpanMem,
}

/// Upper bound on distinct counters any single span attributes (the
/// busiest spans today attach ≤ 4). Pre-reserving this many slots when a
/// span opens keeps [`span_add`]'s find-or-push allocation-free, which is
/// what lets the zero-steady-state kernel spans record exactly 0 allocs.
const SPAN_COUNTER_CAPACITY: usize = 8;

struct OpenSpan {
    name: &'static str,
    start: Instant,
    counters: Vec<(&'static str, u64)>,
    children: Vec<RawSpan>,
    mem_state: SpanMemState,
}

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Every root closed while a session recorded, from all threads, merged.
static AGGREGATE: Mutex<Vec<SpanData>> = Mutex::new(Vec::new());

/// The locked aggregate: sessions clear it at begin and take it at
/// finish, live reports copy it.
pub(crate) fn aggregate() -> std::sync::MutexGuard<'static, Vec<SpanData>> {
    AGGREGATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Merges a closed per-thread root into the aggregate. The raw tree is
/// freed after the lock is released, which keeps the section other
/// threads wait on short.
fn file_root(node: RawSpan) {
    report::merge_into(&mut aggregate(), &node);
}

pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn close_current(wall_override: Option<Duration>) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let Some(open) = stack.pop() else { return };
        let wall = wall_override.unwrap_or_else(|| open.start.elapsed());
        // Take the memory delta *before* building and filing the node so
        // the node push itself is attributed to the parent, not the span
        // that just closed.
        let mem = memprof::span_close(&open.mem_state);
        let node = RawSpan {
            name: open.name,
            wall_ns: duration_ns(wall),
            counters: open.counters,
            children: open.children,
            mem,
        };
        match stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => file_root(node),
        }
    });
}

/// Guard for an open span; the span closes when the guard drops.
#[must_use = "the span closes when this guard drops — bind it to a local"]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// Closes the span early with an explicitly measured wall time instead
    /// of the guard's own clock (the [`TimedSpan`] bridge uses this so the
    /// tree and the returned `Duration` come from one measurement).
    pub(crate) fn close_with(mut self, wall: Duration) {
        if self.active {
            self.active = false;
            close_current(Some(wall));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            close_current(None);
        }
    }
}

/// Opens a span named `name` on this thread. A no-op returning an
/// inactive guard when no session is recording.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::is_enabled() {
        return SpanGuard { active: false };
    }
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Push first (the push and the counter-slot reservation may
        // allocate and belong to the *parent*), then snapshot the memory
        // totals so this span's own tally starts clean.
        stack.push(OpenSpan {
            name,
            start: Instant::now(),
            counters: Vec::with_capacity(SPAN_COUNTER_CAPACITY),
            children: Vec::new(),
            mem_state: SpanMemState::default(),
        });
        if let Some(top) = stack.last_mut() {
            top.mem_state = memprof::span_open();
        }
    });
    SpanGuard { active: true }
}

/// Adds `n` to a global counter *and* attributes it to the innermost open
/// span on this thread (if any), so the rendered tree can show where the
/// work happened. Gated like [`count`](crate::count).
pub fn span_add(c: Counter, n: u64) {
    if !crate::is_enabled() {
        return;
    }
    crate::counters::raw_add(c, n);
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(top) = stack.last_mut() {
            match top.counters.iter_mut().find(|(k, _)| *k == c.name()) {
                Some((_, v)) => *v = v.saturating_add(n),
                None => top.counters.push((c.name(), n)),
            }
        }
    });
}

/// A span that always measures wall time, even when telemetry is off.
///
/// This is the bridge between the span tree and public timing fields like
/// `SolveTimings`: [`TimedSpan::finish`] takes **one** `Instant::elapsed`
/// measurement, stores it in the span node (when recording) and returns it
/// to the caller, so the tree and the derived timings agree exactly.
pub struct TimedSpan {
    start: Instant,
    guard: Option<SpanGuard>,
}

/// Opens a [`TimedSpan`] named `name`.
pub fn timed_span(name: &'static str) -> TimedSpan {
    TimedSpan {
        start: Instant::now(),
        guard: Some(span(name)),
    }
}

impl TimedSpan {
    /// Closes the span and returns its wall time. The span-tree node (if a
    /// session is recording) stores exactly the returned duration.
    pub fn finish(mut self) -> Duration {
        let wall = self.start.elapsed();
        if let Some(guard) = self.guard.take() {
            guard.close_with(wall);
        }
        wall
    }
}

/// Number of spans currently open on this thread. Exposed for tests that
/// assert the disabled path records nothing.
pub fn open_span_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// The `/`-joined names of this thread's open spans, outermost first
/// (`"solve/solve_core/k2.solve"`), or `None` when none is open.
/// Structured events attach this as their span context, so a log line
/// can be matched against the trace without any id plumbing.
pub fn current_span_path() -> Option<String> {
    STACK.with(|s| {
        let stack = s.borrow();
        (!stack.is_empty()).then(|| {
            let names: Vec<&str> = stack.iter().map(|o| o.name).collect();
            names.join("/")
        })
    })
}

/// Pre-grows this thread's span stack to at least `cap` slots (session
/// start), so opening spans never reallocates the stack mid-measurement
/// and pollutes a parent span's allocation tally.
pub(crate) fn reserve_stack(cap: usize) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let have = stack.capacity();
        if have < cap {
            stack.reserve(cap - have);
        }
    });
}
