//! Chrome trace-event export.
//!
//! Converts a [`TelemetryReport`] span tree into the Chrome trace-event
//! JSON object format, loadable by `chrome://tracing` and Perfetto. Every
//! aggregated span node becomes one complete (`"ph": "X"`) event with
//! microsecond `ts`/`dur`; the exact nanosecond values ride along in
//! `args` so no precision is lost to the microsecond scale.
//!
//! A [`TelemetryReport`] stores *aggregated* spans (same-name siblings
//! merged, wall times summed), not raw begin/end timestamps, so the
//! exporter lays events out deterministically: roots are placed one after
//! another on a single track, and each node's children are packed
//! left-to-right starting at the parent's own start. For well-nested
//! trees (children of one instance never outlast their parent, so summed
//! child wall ≤ summed parent wall), this preserves strict parent/child
//! containment — the property tests pin that.
//!
//! The memory axis rides along twice: every `"X"` event carries its
//! span's allocation tally in `args` (`mem.allocs`, `mem.alloc_bytes`,
//! `mem.frees`, `mem.peak_live_bytes`), and a `live_bytes` counter track
//! (`"ph": "C"`) samples net live bytes at every root-span boundary, so
//! the trace viewer draws the session's memory profile as a graph. The
//! counter samples roots only — per-span tallies are inclusive of
//! children, so summing nested spans would double-count.

use mc3_core::json::Json;
use mc3_telemetry::{SpanData, TelemetryReport};

/// Process id used for every emitted event.
const PID: u64 = 1;
/// Thread id used for every emitted event (one logical track: the report
/// has already merged worker-thread roots by name).
const TID: u64 = 1;

/// `ts`/`dur` value in microseconds: integral when exact, fractional
/// otherwise. Chrome and Perfetto both accept fractional microseconds.
fn micros(ns: u64) -> Json {
    if ns % 1_000 == 0 {
        Json::Int((ns / 1_000) as i128)
    } else {
        Json::Float(ns as f64 / 1_000.0)
    }
}

fn span_event(span: &SpanData, start_ns: u64) -> Json {
    let mut args: Vec<(String, Json)> = vec![
        ("start_ns".to_owned(), Json::Int(start_ns as i128)),
        ("wall_ns".to_owned(), Json::Int(span.wall_ns as i128)),
        ("count".to_owned(), Json::Int(span.count as i128)),
        ("mem.allocs".to_owned(), Json::Int(span.mem.allocs as i128)),
        (
            "mem.alloc_bytes".to_owned(),
            Json::Int(span.mem.alloc_bytes as i128),
        ),
        ("mem.frees".to_owned(), Json::Int(span.mem.frees as i128)),
        (
            "mem.peak_live_bytes".to_owned(),
            Json::Int(span.mem.peak_live_bytes as i128),
        ),
    ];
    for (name, &v) in &span.counters {
        args.push((format!("counter.{name}"), Json::Int(v as i128)));
    }
    Json::Object(
        [
            ("name".to_owned(), Json::Str(span.name.clone())),
            ("cat".to_owned(), Json::Str("mc3".to_owned())),
            ("ph".to_owned(), Json::Str("X".to_owned())),
            ("ts".to_owned(), micros(start_ns)),
            ("dur".to_owned(), micros(span.wall_ns)),
            ("pid".to_owned(), Json::Int(PID as i128)),
            ("tid".to_owned(), Json::Int(TID as i128)),
            ("args".to_owned(), Json::Object(args.into_iter().collect())),
        ]
        .into_iter()
        .collect(),
    )
}

/// Emits `span` at `start_ns` and packs its children sequentially from the
/// same origin.
fn emit_subtree(span: &SpanData, start_ns: u64, out: &mut Vec<Json>) {
    out.push(span_event(span, start_ns));
    let mut cursor = start_ns;
    for child in &span.children {
        emit_subtree(child, cursor, out);
        cursor = cursor.saturating_add(child.wall_ns);
    }
}

fn metadata_event(name: &str, value: &str) -> Json {
    Json::Object(
        [
            ("name".to_owned(), Json::Str(name.to_owned())),
            ("ph".to_owned(), Json::Str("M".to_owned())),
            ("pid".to_owned(), Json::Int(PID as i128)),
            ("tid".to_owned(), Json::Int(TID as i128)),
            (
                "args".to_owned(),
                Json::Object([("name".to_owned(), Json::Str(value.to_owned()))].into()),
            ),
        ]
        .into_iter()
        .collect(),
    )
}

/// A `"C"` (counter-track) sample of net live bytes at `ts_ns`.
fn live_bytes_event(ts_ns: u64, live: u64) -> Json {
    Json::Object(
        [
            ("name".to_owned(), Json::Str("live_bytes".to_owned())),
            ("cat".to_owned(), Json::Str("mc3".to_owned())),
            ("ph".to_owned(), Json::Str("C".to_owned())),
            ("ts".to_owned(), micros(ts_ns)),
            ("pid".to_owned(), Json::Int(PID as i128)),
            ("tid".to_owned(), Json::Int(TID as i128)),
            (
                "args".to_owned(),
                Json::Object([("bytes".to_owned(), Json::Int(live as i128))].into()),
            ),
        ]
        .into_iter()
        .collect(),
    )
}

/// Converts a report into the Chrome trace-event **object format**:
/// `{"traceEvents": [...], "displayTimeUnit": "ns"}`, with one `"X"`
/// event per aggregated span node, a `live_bytes` counter track sampled
/// at root-span boundaries, plus process/thread metadata events.
pub fn chrome_trace_json(report: &TelemetryReport) -> Json {
    let mut events = vec![
        metadata_event("process_name", "mc3"),
        metadata_event("thread_name", "solver"),
    ];
    let mut cursor = 0u64;
    // Running net live bytes across the sequential root layout, clamped
    // at zero (a root can free more than it allocates when it consumes
    // buffers built before the session gate opened).
    let mut live = 0i128;
    for root in &report.spans {
        events.push(live_bytes_event(cursor, clamp_live(live)));
        emit_subtree(root, cursor, &mut events);
        cursor = cursor.saturating_add(root.wall_ns);
        live += i128::from(root.mem.alloc_bytes) - i128::from(root.mem.free_bytes);
    }
    if !report.spans.is_empty() {
        events.push(live_bytes_event(cursor, clamp_live(live)));
    }
    Json::object([
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::Str("ns".to_owned())),
    ])
}

fn clamp_live(live: i128) -> u64 {
    u64::try_from(live.max(0)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn span(name: &str, wall_ns: u64, children: Vec<SpanData>) -> SpanData {
        SpanData {
            name: name.to_owned(),
            wall_ns,
            count: 1,
            counters: BTreeMap::from([("dinic_phases".to_owned(), 3u64)]),
            mem: mc3_telemetry::SpanMem {
                allocs: 4,
                alloc_bytes: 2048,
                frees: 2,
                free_bytes: 1024,
                peak_live_bytes: 1536,
                min_instance_allocs: 4,
            },
            children,
        }
    }

    fn report_with(spans: Vec<SpanData>) -> TelemetryReport {
        TelemetryReport {
            spans,
            ..TelemetryReport::default()
        }
    }

    fn trace_events(j: &Json) -> Vec<&Json> {
        j.get("traceEvents")
            .and_then(Json::as_array)
            .map(|a| a.iter().collect())
            .unwrap_or_default()
    }

    #[test]
    fn events_are_complete_x_events_with_micro_ts() {
        let report = report_with(vec![span(
            "solve",
            2_500_000,
            vec![
                span("setup", 1_000_000, vec![]),
                span("core", 1_234, vec![]),
            ],
        )]);
        let j = chrome_trace_json(&report);
        let events = trace_events(&j);
        // 2 metadata + 3 spans + 2 live_bytes samples (one per root
        // boundary: before the root and after the last one)
        assert_eq!(events.len(), 7);
        let xs: Vec<&&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        for e in &xs {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        }
        // solve: 2.5ms = 2500µs exactly
        let solve = xs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("solve"))
            .expect("solve event");
        assert_eq!(solve.get("dur").and_then(Json::as_u64), Some(2_500));
        // 1234ns is fractional in µs
        let core = xs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("core"))
            .expect("core event");
        let dur = core.get("dur").and_then(Json::as_f64).expect("f64 dur");
        assert!((dur - 1.234).abs() < 1e-9, "dur = {dur}");
        // counters and the memory tally surface in args
        assert_eq!(
            solve
                .get("args")
                .and_then(|a| a.get("counter.dinic_phases"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            solve
                .get("args")
                .and_then(|a| a.get("mem.alloc_bytes"))
                .and_then(Json::as_u64),
            Some(2048)
        );
        assert_eq!(
            solve
                .get("args")
                .and_then(|a| a.get("mem.peak_live_bytes"))
                .and_then(Json::as_u64),
            Some(1536)
        );
    }

    #[test]
    fn live_bytes_track_samples_root_boundaries() {
        // Two roots, each netting +1024 live bytes: samples must read
        // 0 (start), 1024 (between roots), 2048 (end).
        let report = report_with(vec![span("a", 1_000, vec![]), span("b", 2_000, vec![])]);
        let j = chrome_trace_json(&report);
        let samples: Vec<(u64, u64)> = trace_events(&j)
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .map(|e| {
                (
                    e.get("ts").and_then(Json::as_u64).expect("integral ts"),
                    e.get("args")
                        .and_then(|a| a.get("bytes"))
                        .and_then(Json::as_u64)
                        .expect("bytes"),
                )
            })
            .collect();
        assert_eq!(samples, vec![(0, 0), (1, 1024), (3, 2048)]);
    }

    #[test]
    fn roots_are_laid_out_sequentially() {
        let report = report_with(vec![span("a", 1_000, vec![]), span("b", 2_000, vec![])]);
        let j = chrome_trace_json(&report);
        let starts: Vec<u64> = trace_events(&j)
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("start_ns"))
                    .and_then(Json::as_u64)
                    .expect("start_ns")
            })
            .collect();
        assert_eq!(starts, vec![0, 1_000]);
    }

    #[test]
    fn output_parses_back_through_mc3_json() {
        let report = report_with(vec![span("solve", 77, vec![span("x", 33, vec![])])]);
        let text = chrome_trace_json(&report).to_string_pretty();
        let parsed = mc3_core::json::parse(&text).expect("chrome JSON parses");
        // 2 metadata + 2 spans + 2 live_bytes samples
        assert_eq!(trace_events(&parsed).len(), 6);
    }
}
