#![warn(missing_docs)]

//! `mc3-telemetry` — zero-dependency observability for the MC³ solver.
//!
//! The paper's experiments (§6) are all about *where* solver work goes:
//! preprocessing shrinkage per Observation 3.1–3.4, flow effort inside
//! the k ≤ 2 path (Theorem 4.1), greedy iterations against the
//! Theorem 5.3 bound. This crate records exactly that, with four
//! primitives, one store and two hard rules:
//!
//! * **Spans** ([`span`], [`timed_span`]) — hierarchical wall-time
//!   regions that fold into a per-thread call tree as they close; closing
//!   a root merges that tree by path into one process-wide aggregate, so
//!   concurrent threads (the server's requests) all file into one tree.
//!   Span bookkeeping allocates only when a path first appears under a
//!   root, never per instance.
//! * **Counters** ([`Counter`], [`span_add`]) — a closed registry of
//!   monotonic counts, each increment kept in the innermost open span's
//!   node; a counter's total is its sum over the aggregated span tree.
//! * **Histograms** ([`Hist`], [`record`]) — log2-bucketed distributions
//!   (component sizes, greedy pick coverage), kept in a fixed block per
//!   thread call tree and drained into the aggregate when a root closes.
//! * **Memory** (`mc3-memprof`, the `memprof` module) — a tracking
//!   `#[global_allocator]` that attributes allocation counts, bytes and
//!   live-byte peaks to the current span, exactly-deterministically for
//!   pinned workloads (the bench-gate pins per-span allocation counts).
//!   The hook writes only its own thread's cells; every memory figure in
//!   a report is read off the span tree.
//!
//! The span tree is the one store: a count, an observation or an
//! allocation is written once, on its own thread, and reaches the
//! process-wide aggregate only when its root closes, under the lock that
//! close takes anyway. Hence the first rule: **nothing outside an open
//! span is recorded.** The second: **when no [`Session`] is recording,
//! everything is a no-op behind one relaxed atomic load**
//! ([`is_enabled`]). Solver crates
//! can therefore instrument their innermost loops unconditionally. The
//! companion `mc3-audit` rule `no-bare-instant` keeps ad-hoc timing from
//! creeping back in: library code times things through [`timed_span`],
//! never raw `Instant::now()` pairs.
//!
//! A session ends in a [`TelemetryReport`]: JSON via `mc3_core::json`
//! (schema in `docs/observability.md`) or a flame-style text tree via
//! [`TelemetryReport::render`].
//!
//! ```
//! use mc3_telemetry as telemetry;
//!
//! let session = telemetry::Session::begin();
//! {
//!     let _solve = telemetry::span("solve");
//!     let phase = telemetry::timed_span("setup");
//!     telemetry::span_add(telemetry::Counter::DinicPhases, 3);
//!     let wall = phase.finish(); // span node stores exactly `wall`
//!     assert!(wall.as_nanos() > 0);
//! }
//! let report = session.finish();
//! assert_eq!(report.counters["dinic_phases"], 3);
//! ```

mod counters;
mod memprof;
mod report;
mod spans;

pub use counters::{
    bucket_bounds, bucket_of, Counter, Hist, COUNTER_NAMES, HIST_BUCKETS, HIST_NAMES,
};
pub use memprof::peak_rss_bytes;
pub use report::{HistogramData, SpanData, SpanMem, TelemetryReport, REPORT_VERSION};
pub use spans::{
    current_span_path, open_span_depth, record, span, span_add, timed_span, SpanGuard, TimedSpan,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a telemetry session is currently recording. This is the whole
/// disabled-path cost: one relaxed load of a static `AtomicBool`.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Serializes sessions across threads (and across tests in one binary).
static SESSION: Mutex<()> = Mutex::new(());

/// Lazily pinned epoch for [`monotonic_ns`].
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
///
/// This crate is the one place allowed to read the clock (the
/// `no-bare-instant` lint pins that); consumers that need raw timestamps —
/// the `mc3-obs` event log's per-event `ts_ns` — go through this helper
/// instead of `Instant::now()` pairs.
pub fn monotonic_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    spans::duration_ns(epoch.elapsed())
}

/// An exclusive recording session.
///
/// [`Session::begin`] takes a process-wide lock, clears the aggregate
/// (span trees and histograms) and opens the gate;
/// [`Session::finish`] closes the gate and returns the [`TelemetryReport`].
/// Dropping a session without finishing it still closes the gate. Because
/// state is global, concurrent would-be sessions block on `begin` until
/// the current one ends — recording is meant for one solve/profile run at
/// a time, not for overlapping measurements.
pub struct Session {
    _lock: MutexGuard<'static, ()>,
}

impl Session {
    /// Starts recording from a clean slate.
    pub fn begin() -> Session {
        let lock = SESSION.lock().unwrap_or_else(|p| p.into_inner());
        *spans::aggregate() = spans::Aggregate::EMPTY;
        ENABLED.store(true, Ordering::SeqCst);
        Session { _lock: lock }
    }

    /// Stops recording and assembles the report of every root closed
    /// so far.
    pub fn finish(self) -> TelemetryReport {
        ENABLED.store(false, Ordering::SeqCst);
        let aggregate = std::mem::replace(&mut *spans::aggregate(), spans::Aggregate::EMPTY);
        report::assemble(aggregate)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// The report of every root closed so far, taken without ending the
/// session: the aggregate as it stands, with its memory tallies, counter
/// totals and histograms. A server that holds one session for its
/// lifetime renders `/metrics` from this; the totals only grow while the
/// session lasts, as a Prometheus scraper assumes, and a request's counts
/// show once its root closes.
pub fn live_report() -> TelemetryReport {
    // Bound first, so the lock is released before assembly.
    let aggregate = spans::aggregate().clone();
    report::assemble(aggregate)
}
