//! `mc3-memprof` — the span-attributed allocation profiler.
//!
//! A `#[global_allocator]` wrapper over [`std::alloc::System`] that, while
//! a [`Session`](crate::Session) is recording, attributes every heap
//! allocation and free to the innermost open span. PR 4 earned its
//! speedups by deleting allocations from the WSC refinement kernels; this
//! module is the runtime instrument that keeps them deleted — the
//! bench-gate pins *exact* per-span allocation counts (deterministic for
//! pinned seeds, unlike wall time), and `mc3-audit consistency` replays
//! the pinned workload to prove every `no-alloc-in-hot-loops` waiver
//! site's enclosing span still records zero steady-state allocations.
//!
//! Design rules, in order of importance:
//!
//! 1. **The disabled path is one relaxed load.** The hook checks
//!    [`is_enabled`](crate::is_enabled) and delegates straight to the
//!    system allocator when off — same gate, same cost, as every other
//!    telemetry primitive.
//! 2. **The hook never allocates, never touches the span stack and
//!    writes only its own thread's cells.** It updates a
//!    const-initialized `Cell`-only thread-local (no drop glue, no lazy
//!    init) and no shared state at all, so allocating threads never
//!    contend. Span attribution is done *by the span machinery* instead:
//!    opening a span snapshots the thread's monotonic totals
//!    ([`span_open`]), closing it takes the delta ([`span_close`]).
//!    Deltas are inclusive of children, exactly like `wall_ns`.
//! 3. **Per-span peaks nest.** Each open span tracks the high-water mark
//!    of the thread's net live bytes since it opened; closing restores
//!    the parent's running peak with `max`, so a child's transient spike
//!    surfaces in every enclosing span.
//!
//! Every memory figure is therefore a span tally: the report's totals
//! and its `peak_live_bytes` are read off the aggregated roots, and an
//! allocation made outside every span is counted nowhere.

use crate::report::SpanMem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The tracking wrapper installed as the process-wide global allocator.
///
/// Linking `mc3-telemetry` installs it in every workspace binary; with no
/// session recording it is the system allocator plus one relaxed load.
struct TrackingAlloc;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Per-thread monotonic allocation totals plus the net-live tracking the
/// span machinery snapshots. `Cell`-only and const-initialized so the
/// allocator hook can touch it with no drop glue and no lazy allocation.
struct MemCell {
    allocs: Cell<u64>,
    alloc_bytes: Cell<u64>,
    frees: Cell<u64>,
    free_bytes: Cell<u64>,
    /// Net live bytes on this thread since tracking began (signed).
    net: Cell<i64>,
    /// High-water mark of `net` since the innermost open span began.
    net_peak: Cell<i64>,
}

thread_local! {
    static MEM: MemCell = const {
        MemCell {
            allocs: Cell::new(0),
            alloc_bytes: Cell::new(0),
            frees: Cell::new(0),
            free_bytes: Cell::new(0),
            net: Cell::new(0),
            net_peak: Cell::new(i64::MIN),
        }
    };
}

/// Records one allocation of `size` bytes (gate already checked).
fn note_alloc(size: usize) {
    let bytes = size as u64;
    let signed = mc3_core::i64_of(bytes);
    MEM.with(|m| {
        m.allocs.set(m.allocs.get().wrapping_add(1));
        m.alloc_bytes.set(m.alloc_bytes.get().wrapping_add(bytes));
        let net = m.net.get().wrapping_add(signed);
        m.net.set(net);
        if net > m.net_peak.get() {
            m.net_peak.set(net);
        }
    });
}

/// Records one free of `size` bytes (gate already checked).
fn note_free(size: usize) {
    let bytes = size as u64;
    let signed = mc3_core::i64_of(bytes);
    MEM.with(|m| {
        m.frees.set(m.frees.get().wrapping_add(1));
        m.free_bytes.set(m.free_bytes.get().wrapping_add(bytes));
        m.net.set(m.net.get().wrapping_sub(signed));
    });
}

// SAFETY: every method delegates verbatim to `System` and only touches
// a `Cell`-only thread-local afterwards — the hook itself never
// allocates, so it cannot re-enter.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && crate::is_enabled() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && crate::is_enabled() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if crate::is_enabled() {
            note_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && crate::is_enabled() {
            // A grow/shrink counts as free(old) + alloc(new), so
            // `alloc_bytes − free_bytes` stays an exact net-live figure.
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Snapshot of one thread's monotonic totals at span open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MemSnapshot {
    allocs: u64,
    alloc_bytes: u64,
    frees: u64,
    free_bytes: u64,
}

/// Everything a span needs to compute its memory delta at close.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanMemState {
    snap: MemSnapshot,
    net_at_open: i64,
    prev_net_peak: i64,
}

/// Snapshots this thread's totals for a span that just opened and starts
/// a fresh net-live high-water mark for it.
pub(crate) fn span_open() -> SpanMemState {
    MEM.with(|m| {
        let net = m.net.get();
        let state = SpanMemState {
            snap: MemSnapshot {
                allocs: m.allocs.get(),
                alloc_bytes: m.alloc_bytes.get(),
                frees: m.frees.get(),
                free_bytes: m.free_bytes.get(),
            },
            net_at_open: net,
            prev_net_peak: m.net_peak.get(),
        };
        m.net_peak.set(net);
        state
    })
}

/// Computes the memory tally of a closing span instance (inclusive of
/// children, like `wall_ns`) and restores the parent's running net-live
/// peak (with `max`, so child spikes surface upward).
pub(crate) fn span_close(state: &SpanMemState) -> SpanMem {
    MEM.with(|m| {
        let net_peak_now = m.net_peak.get();
        m.net_peak.set(state.prev_net_peak.max(net_peak_now));
        let peak = net_peak_now.saturating_sub(state.net_at_open);
        let allocs = m.allocs.get().wrapping_sub(state.snap.allocs);
        SpanMem {
            allocs,
            alloc_bytes: m.alloc_bytes.get().wrapping_sub(state.snap.alloc_bytes),
            frees: m.frees.get().wrapping_sub(state.snap.frees),
            free_bytes: m.free_bytes.get().wrapping_sub(state.snap.free_bytes),
            peak_live_bytes: if peak > 0 { peak as u64 } else { 0 },
            min_instance_allocs: allocs,
        }
    })
}

/// Peak resident set size of this process in bytes, read from the
/// `VmHWM` line of `/proc/self/status` (zero-dep). Returns `None` on
/// platforms or sandboxes where the file is unavailable or the line is
/// missing/unparseable — "not measured" is distinct from "zero bytes",
/// and every consumer (report JSON, Prometheus gauge, `mc3 profile`)
/// renders the two differently.
pub fn peak_rss_bytes() -> Option<u64> {
    peak_rss_bytes_from("/proc/self/status")
}

/// [`peak_rss_bytes`] with the status file path injected, so the
/// missing-file and malformed-content paths are testable on any host.
fn peak_rss_bytes_from(path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()?;
            return Some(kb.saturating_mul(1024));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        // A test process has certainly touched > 0 pages; if /proc is
        // available at all, VmHWM must parse to something positive.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes().is_some_and(|b| b > 0));
        }
    }

    #[test]
    fn peak_rss_is_none_when_the_status_file_is_missing() {
        // The non-Linux / sandboxed path: no readable status file means
        // "not measured", never a silent zero.
        assert_eq!(
            peak_rss_bytes_from("/definitely/not/a/real/status/file"),
            None
        );
    }

    #[test]
    fn peak_rss_is_none_when_the_vmhwm_line_is_absent_or_malformed() {
        let dir = std::env::temp_dir();
        let no_line = dir.join("mc3_memprof_no_vmhwm.txt");
        std::fs::write(&no_line, "Name:\tmc3\nVmPeak:\t  123 kB\n").expect("write fixture");
        assert_eq!(peak_rss_bytes_from(&no_line.to_string_lossy()), None);
        let bad_line = dir.join("mc3_memprof_bad_vmhwm.txt");
        std::fs::write(&bad_line, "VmHWM:\tnot-a-number kB\n").expect("write fixture");
        assert_eq!(peak_rss_bytes_from(&bad_line.to_string_lossy()), None);
        let good_line = dir.join("mc3_memprof_good_vmhwm.txt");
        std::fs::write(&good_line, "VmHWM:\t     2048 kB\n").expect("write fixture");
        assert_eq!(
            peak_rss_bytes_from(&good_line.to_string_lossy()),
            Some(2048 * 1024)
        );
    }

    #[test]
    fn span_state_round_trip_is_zero_without_allocations() {
        let state = span_open();
        let mem = span_close(&state);
        assert_eq!(mem, SpanMem::default());
    }

    #[test]
    fn disabled_gate_tracks_no_allocations() {
        // Holding the session lock keeps the gate closed throughout.
        let _lock = crate::SESSION.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!crate::is_enabled());
        let before = span_open();
        let v: Vec<u64> = std::hint::black_box((0..1000).collect());
        drop(v);
        let after = span_open();
        assert_eq!(after.snap, before.snap);
        assert_eq!(after.net_at_open, before.net_at_open);
        assert_eq!(span_close(&after), SpanMem::default());
        assert_eq!(span_close(&before), SpanMem::default());
    }
}
