//! The hierarchical span collector and the one place closed spans go.
//!
//! Each thread keeps one call tree: a flat arena of nodes keyed by
//! (parent node, name), a stack of open frames and one fixed histogram
//! block. Opening a span finds or adds its node and pushes a frame;
//! closing it folds the instance's wall time, count and memory tally into
//! that node. [`span_add`] adds a counter increment straight into the
//! innermost open node and [`record`] adds a histogram observation into
//! the block; with no span open, both record nothing. So everything a
//! session records exists in one form from open to report: closing a
//! span with no parent (a per-thread root) merges the thread's tree into
//! the process-wide aggregate, by path, and drains its histogram block
//! into the aggregate's, under one lock, and empties the tree for the
//! next root, keeping its capacity. A counter's total is the sum of its
//! increments over the aggregated tree, so counters and histograms reach
//! the aggregate when their root closes, never before. That aggregate is
//! the only destination of a closed root:
//! [`Session::begin`](crate::Session::begin) clears it,
//! [`Session::finish`](crate::Session::finish) takes it, and
//! [`live_report`](crate::live_report) copies it while a long-lived
//! session keeps recording (the server's `/metrics`).
//!
//! Span bookkeeping allocates only when a path first appears under a
//! root, never per instance: the arena and the frame stack keep their
//! capacity from root to root, and opening a root reserves room for
//! `ROOT_RESERVE` of each, so a typical tree never grows inside a root.
//! Growth that does happen is charged to the parent span, so a leaf
//! span's tally holds only its own work.
//!
//! When no session is recording, [`span`] returns an inactive guard
//! without touching the thread-local at all — the disabled path is one
//! relaxed atomic load.

use crate::counters::{self, Counter, Hist, HistBlock, EMPTY_HISTS, N_COUNTERS};
use crate::memprof::{self, SpanMemState};
use crate::report::{self, SpanData, SpanMem};
use mc3_core::u32_of;
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// No node: the end of a sibling chain, or a leaf's missing first child.
pub(crate) const NIL: u32 = u32::MAX;

// `Node::touched` has one bit per registered counter.
const _: () = assert!(N_COUNTERS <= 64);

/// Nodes and frames reserved when a root opens (a no-op once the arena
/// has that capacity), so a typical tree never grows inside a root.
const ROOT_RESERVE: usize = 64;

/// One call-tree node: every instance of one span path under the open
/// root, folded as it closes.
pub(crate) struct Node {
    pub(crate) name: &'static str,
    /// First child and next sibling, as arena indices ([`NIL`] for none).
    pub(crate) first_child: u32,
    pub(crate) next_sibling: u32,
    pub(crate) wall_ns: u64,
    pub(crate) count: u64,
    /// Counter increments, indexed by `Counter as usize`.
    pub(crate) counters: [u64; N_COUNTERS],
    /// Bit `i` is set once [`span_add`] reached counter `i` here, so a
    /// zero increment still names its counter in the report.
    pub(crate) touched: u64,
    pub(crate) mem: SpanMem,
}

impl Node {
    pub(crate) fn new(name: &'static str) -> Node {
        Node {
            name,
            first_child: NIL,
            next_sibling: NIL,
            wall_ns: 0,
            count: 0,
            counters: [0; N_COUNTERS],
            touched: 0,
            mem: SpanMem::EMPTY,
        }
    }

    /// Folds one closed instance into the node.
    pub(crate) fn close_instance(&mut self, wall_ns: u64, mem: &SpanMem) {
        self.wall_ns = self.wall_ns.saturating_add(wall_ns);
        self.count += 1;
        self.mem.fold(mem);
    }

    pub(crate) fn add(&mut self, c: Counter, n: u64) {
        if let Some(cell) = self.counters.get_mut(c as usize) {
            *cell = cell.saturating_add(n);
            self.touched |= 1 << (c as usize);
        }
    }
}

/// The child of `parent` named `name`, added when absent. A new child
/// heads its parent's chain, so a chain runs newest sibling first.
pub(crate) fn find_or_add(nodes: &mut Vec<Node>, parent: u32, name: &'static str) -> u32 {
    let first = nodes.get(parent as usize).map_or(NIL, |n| n.first_child);
    let mut link = first;
    while let Some(node) = nodes.get(link as usize) {
        if node.name == name {
            return link;
        }
        link = node.next_sibling;
    }
    let added = u32_of(nodes.len());
    nodes.push(Node {
        next_sibling: first,
        ..Node::new(name)
    });
    if let Some(p) = nodes.get_mut(parent as usize) {
        p.first_child = added;
    }
    added
}

/// One open span instance.
struct Frame {
    node: u32,
    start: Instant,
    mem_state: SpanMemState,
}

/// This thread's call tree, its open frames (innermost last) and the
/// histogram observations made under its open root.
struct CallTree {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    hists: HistBlock,
}

thread_local! {
    static TREE: RefCell<CallTree> = const {
        RefCell::new(CallTree {
            nodes: Vec::new(),
            stack: Vec::new(),
            hists: EMPTY_HISTS,
        })
    };
}

/// Every root closed while a session recorded, from all threads, merged:
/// the span trees by path and the histogram blocks cell by cell.
#[derive(Clone)]
pub(crate) struct Aggregate {
    pub(crate) roots: Vec<SpanData>,
    pub(crate) hists: HistBlock,
}

impl Aggregate {
    pub(crate) const EMPTY: Aggregate = Aggregate {
        roots: Vec::new(),
        hists: EMPTY_HISTS,
    };
}

static AGGREGATE: Mutex<Aggregate> = Mutex::new(Aggregate::EMPTY);

/// The locked aggregate: sessions clear it at begin and take it at
/// finish, live reports copy it.
pub(crate) fn aggregate() -> std::sync::MutexGuard<'static, Aggregate> {
    AGGREGATE.lock().unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn close_current(wall_override: Option<Duration>) {
    TREE.with(|t| {
        let tree = &mut *t.borrow_mut();
        let Some(open) = tree.stack.pop() else { return };
        let wall = wall_override.unwrap_or_else(|| open.start.elapsed());
        let mem = memprof::span_close(&open.mem_state);
        if let Some(node) = tree.nodes.get_mut(open.node as usize) {
            node.close_instance(duration_ns(wall), &mem);
        }
        if tree.stack.is_empty() {
            let agg = &mut *aggregate();
            report::merge_into(&mut agg.roots, &tree.nodes, 0);
            counters::drain_into(&mut agg.hists, &mut tree.hists);
            tree.nodes.clear();
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
    TREE.with(|t| {
        let tree = &mut *t.borrow_mut();
        // Find the node and push the frame first (either may allocate and
        // belongs to the *parent*), then snapshot the memory totals so
        // this span's own tally starts clean. A root is node 0 of an
        // empty tree.
        let node = match tree.stack.last() {
            Some(parent) => find_or_add(&mut tree.nodes, parent.node, name),
            None => {
                tree.nodes.reserve(ROOT_RESERVE);
                tree.stack.reserve(ROOT_RESERVE);
                tree.nodes.push(Node::new(name));
                0
            }
        };
        tree.stack.push(Frame {
            node,
            start: Instant::now(),
            mem_state: SpanMemState::default(),
        });
        if let Some(top) = tree.stack.last_mut() {
            top.mem_state = memprof::span_open();
        }
    });
    SpanGuard { active: true }
}

/// Adds `n` to counter `c` in the innermost open span on this thread, so
/// the rendered tree shows where the work happened; the counter's total
/// is the sum over the tree. Records nothing when no span is open, and is
/// one relaxed atomic load when no session is recording.
pub fn span_add(c: Counter, n: u64) {
    if !crate::is_enabled() {
        return;
    }
    TREE.with(|t| {
        let tree = &mut *t.borrow_mut();
        if let Some(top) = tree.stack.last() {
            if let Some(node) = tree.nodes.get_mut(top.node as usize) {
                node.add(c, n);
            }
        }
    });
}

/// Records one observation `v` into histogram `h` under this thread's
/// open root; it reaches the aggregate when that root closes. Gated and
/// scoped like [`span_add`]: nothing is recorded outside an open span.
#[inline]
pub fn record(h: Hist, v: u64) {
    if !crate::is_enabled() {
        return;
    }
    TREE.with(|t| {
        let tree = &mut *t.borrow_mut();
        if !tree.stack.is_empty() {
            counters::observe(&mut tree.hists, h, v);
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
    TREE.with(|t| t.borrow().stack.len())
}

/// The `/`-joined names of this thread's open spans, outermost first
/// (`"solve/solve_core/k2.solve"`), or `None` when none is open.
/// Structured events attach this as their span context, so a log line
/// can be matched against the trace without any id plumbing.
pub fn current_span_path() -> Option<String> {
    TREE.with(|t| {
        let tree = t.borrow();
        (!tree.stack.is_empty()).then(|| {
            let names: Vec<&str> = tree
                .stack
                .iter()
                .filter_map(|f| tree.nodes.get(f.node as usize).map(|n| n.name))
                .collect();
            names.join("/")
        })
    })
}
