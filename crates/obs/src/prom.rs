//! Prometheus text-format exposition.
//!
//! Renders a [`TelemetryReport`] in the Prometheus text exposition format
//! (version 0.0.4): every registered counter as `mc3_<name>_total`, every
//! log2 histogram as a native Prometheus histogram with cumulative
//! `_bucket{le="..."}` lines (upper bounds from
//! [`HistogramData::bucket_bound`]), and the aggregated span tree as four
//! labelled counter families (`mc3_span_wall_nanoseconds_total`,
//! `mc3_span_instances_total`, `mc3_span_allocs_total`,
//! `mc3_span_alloc_bytes_total`, label `span="<path>"`); those span
//! families are the whole allocation axis. The memory high-water marks
//! surface as two gauges (`mc3_peak_live_bytes`, the largest span root's
//! peak, and `mc3_peak_rss_bytes`).
//!
//! `mc3 profile --prom FILE` writes it to a file, and `mc3 serve` opens
//! every `/metrics` scrape body with it, rendered from
//! `mc3_telemetry::live_report()` — the text is a complete,
//! self-describing exposition with `# HELP`/`# TYPE` on every family.

use mc3_telemetry::{HistogramData, SpanData, TelemetryReport};
use std::fmt::Write as _;

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Every span of a forest with its `/`-joined path, children before
/// their parent; the span families and the bench gate key paths by it.
pub(crate) fn walk_spans<'a>(
    prefix: &str,
    spans: &'a [SpanData],
    out: &mut Vec<(String, &'a SpanData)>,
) {
    for s in spans {
        let path = if prefix.is_empty() {
            s.name.clone()
        } else {
            format!("{prefix}/{}", s.name)
        };
        walk_spans(&path, &s.children, out);
        out.push((path, s));
    }
}

fn render_histogram(out: &mut String, h: &HistogramData) {
    let name = format!("mc3_{}", h.name);
    let _ = writeln!(
        out,
        "# HELP {name} MC3 log2-bucketed histogram `{}` (see docs/observability.md).",
        h.name
    );
    let _ = writeln!(out, "# TYPE {name} histogram");
    // Cumulative counts over the dense index range up to the highest
    // non-empty bucket; `le` is each bucket's inclusive upper bound.
    let max_idx = h.buckets.iter().map(|&(i, _)| i).max();
    let mut cumulative = 0u64;
    if let Some(max_idx) = max_idx {
        for idx in 0..=max_idx {
            cumulative += h
                .buckets
                .iter()
                .find(|&&(i, _)| i == idx)
                .map(|&(_, c)| c)
                .unwrap_or(0);
            let bound = HistogramData::bucket_bound(idx as usize);
            if bound == u64::MAX {
                // The last log2 bucket is unbounded above; fold it into +Inf.
                break;
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Renders the `mc3_build_info` gauge: the conventional constant-`1`
/// info metric whose labels carry the crate version and (when the build
/// embedded one) the git revision. Appended to both the `/metrics` scrape
/// body and `mc3 profile --prom` exports so every exposition states
/// which build produced it.
pub fn build_info_text(version: &str, git: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP mc3_build_info Build metadata as labels; the value is always 1."
    );
    let _ = writeln!(out, "# TYPE mc3_build_info gauge");
    let _ = writeln!(
        out,
        "mc3_build_info{{version=\"{}\",git=\"{}\"}} 1",
        escape_label(version),
        escape_label(git.unwrap_or("unknown"))
    );
    out
}

/// Renders the full report as a Prometheus text exposition.
pub fn prometheus_text(report: &TelemetryReport) -> String {
    let mut out = String::new();
    for (name, &value) in &report.counters {
        let metric = format!("mc3_{name}_total");
        let _ = writeln!(
            out,
            "# HELP {metric} MC3 solver-internals counter `{name}` (see docs/observability.md)."
        );
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for h in &report.histograms {
        render_histogram(&mut out, h);
    }
    let _ = writeln!(
        out,
        "# HELP mc3_peak_live_bytes Peak net live bytes of the largest span root (tracking allocator)."
    );
    let _ = writeln!(out, "# TYPE mc3_peak_live_bytes gauge");
    let _ = writeln!(out, "mc3_peak_live_bytes {}", report.peak_live_bytes);
    // "Not measured" (None) omits the family entirely — a scraper sees an
    // absent series, never a fake zero sample.
    if let Some(rss) = report.peak_rss_bytes {
        let _ = writeln!(
            out,
            "# HELP mc3_peak_rss_bytes Process peak resident set size (VmHWM) at report time; absent where unreadable."
        );
        let _ = writeln!(out, "# TYPE mc3_peak_rss_bytes gauge");
        let _ = writeln!(out, "mc3_peak_rss_bytes {rss}");
    }

    let mut flat: Vec<(String, &SpanData)> = Vec::new();
    walk_spans("", &report.spans, &mut flat);
    flat.sort_by(|a, b| a.0.cmp(&b.0));
    if !flat.is_empty() {
        let _ = writeln!(
            out,
            "# HELP mc3_span_wall_nanoseconds_total Summed wall time of an aggregated telemetry span (label `span` = /-joined path)."
        );
        let _ = writeln!(out, "# TYPE mc3_span_wall_nanoseconds_total counter");
        for (path, s) in &flat {
            let _ = writeln!(
                out,
                "mc3_span_wall_nanoseconds_total{{span=\"{}\"}} {}",
                escape_label(path),
                s.wall_ns
            );
        }
        let _ = writeln!(
            out,
            "# HELP mc3_span_instances_total Raw span instances merged into an aggregated telemetry span."
        );
        let _ = writeln!(out, "# TYPE mc3_span_instances_total counter");
        for (path, s) in &flat {
            let _ = writeln!(
                out,
                "mc3_span_instances_total{{span=\"{}\"}} {}",
                escape_label(path),
                s.count
            );
        }
        let _ = writeln!(
            out,
            "# HELP mc3_span_allocs_total Heap allocations attributed to an aggregated telemetry span (inclusive of children)."
        );
        let _ = writeln!(out, "# TYPE mc3_span_allocs_total counter");
        for (path, s) in &flat {
            let _ = writeln!(
                out,
                "mc3_span_allocs_total{{span=\"{}\"}} {}",
                escape_label(path),
                s.mem.allocs
            );
        }
        let _ = writeln!(
            out,
            "# HELP mc3_span_alloc_bytes_total Heap bytes allocated within an aggregated telemetry span (inclusive of children)."
        );
        let _ = writeln!(out, "# TYPE mc3_span_alloc_bytes_total counter");
        for (path, s) in &flat {
            let _ = writeln!(
                out,
                "mc3_span_alloc_bytes_total{{span=\"{}\"}} {}",
                escape_label(path),
                s.mem.alloc_bytes
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> TelemetryReport {
        TelemetryReport {
            spans: vec![SpanData {
                name: "solve".to_owned(),
                wall_ns: 5_000,
                count: 1,
                counters: BTreeMap::new(),
                mem: mc3_telemetry::SpanMem {
                    allocs: 12,
                    alloc_bytes: 4096,
                    frees: 8,
                    free_bytes: 2048,
                    peak_live_bytes: 3072,
                    min_instance_allocs: 12,
                },
                children: vec![SpanData {
                    name: "setup".to_owned(),
                    wall_ns: 2_000,
                    count: 3,
                    counters: BTreeMap::new(),
                    mem: mc3_telemetry::SpanMem {
                        allocs: 6,
                        alloc_bytes: 1024,
                        frees: 6,
                        free_bytes: 1024,
                        peak_live_bytes: 512,
                        min_instance_allocs: 2,
                    },
                    children: Vec::new(),
                }],
            }],
            counters: BTreeMap::from([
                ("dinic_phases".to_owned(), 9u64),
                ("greedy_iterations".to_owned(), 0u64),
            ]),
            histograms: vec![HistogramData {
                name: "component_size".to_owned(),
                count: 6,
                sum: 23,
                buckets: vec![(0, 1), (2, 3), (3, 2)],
            }],
            peak_live_bytes: 3072,
            peak_rss_bytes: Some(1 << 21),
        }
    }

    #[test]
    fn counters_render_with_help_and_type() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE mc3_dinic_phases_total counter"));
        assert!(text.contains("\nmc3_dinic_phases_total 9\n"));
        // zeros are emitted too — absence would read as "metric vanished"
        assert!(text.contains("mc3_greedy_iterations_total 0"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_log2_bounds() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE mc3_component_size histogram"));
        // bucket 0 (le=0): 1; bucket 1 (le=1): still 1; bucket 2 (le=3): 4;
        // bucket 3 (le=7): 6; then +Inf = count.
        assert!(text.contains("mc3_component_size_bucket{le=\"0\"} 1"));
        assert!(text.contains("mc3_component_size_bucket{le=\"1\"} 1"));
        assert!(text.contains("mc3_component_size_bucket{le=\"3\"} 4"));
        assert!(text.contains("mc3_component_size_bucket{le=\"7\"} 6"));
        assert!(text.contains("mc3_component_size_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("mc3_component_size_sum 23"));
        assert!(text.contains("mc3_component_size_count 6"));
    }

    #[test]
    fn span_paths_become_labels() {
        let text = prometheus_text(&sample());
        assert!(text.contains("mc3_span_wall_nanoseconds_total{span=\"solve\"} 5000"));
        assert!(text.contains("mc3_span_wall_nanoseconds_total{span=\"solve/setup\"} 2000"));
        assert!(text.contains("mc3_span_instances_total{span=\"solve/setup\"} 3"));
    }

    #[test]
    fn span_memory_families_and_peak_gauges_render() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE mc3_span_allocs_total counter"));
        assert!(text.contains("mc3_span_allocs_total{span=\"solve\"} 12"));
        assert!(text.contains("mc3_span_allocs_total{span=\"solve/setup\"} 6"));
        assert!(text.contains("mc3_span_alloc_bytes_total{span=\"solve\"} 4096"));
        assert!(text.contains("mc3_span_alloc_bytes_total{span=\"solve/setup\"} 1024"));
        assert!(text.contains("# TYPE mc3_peak_live_bytes gauge"));
        assert!(text.contains("\nmc3_peak_live_bytes 3072\n"));
        assert!(text.contains("# TYPE mc3_peak_rss_bytes gauge"));
        assert!(text.contains("\nmc3_peak_rss_bytes 2097152\n"));
    }

    #[test]
    fn unmeasured_rss_omits_the_gauge_family() {
        let mut r = sample();
        r.peak_rss_bytes = None;
        let text = prometheus_text(&r);
        assert!(!text.contains("mc3_peak_rss_bytes"), "{text}");
        // The live-bytes gauge is unconditional.
        assert!(text.contains("\nmc3_peak_live_bytes 3072\n"), "{text}");
    }

    #[test]
    fn build_info_renders_labels_and_constant_one() {
        let text = build_info_text("0.1.0", Some("abc1234"));
        assert!(text.contains("# TYPE mc3_build_info gauge"), "{text}");
        assert!(
            text.contains("mc3_build_info{version=\"0.1.0\",git=\"abc1234\"} 1"),
            "{text}"
        );
        let no_git = build_info_text("0.1.0", None);
        assert!(
            no_git.contains("mc3_build_info{version=\"0.1.0\",git=\"unknown\"} 1"),
            "{no_git}"
        );
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
    }
}
