//! Property tests for the exporters and the bench gate, driven by the
//! workspace's seeded `mc3_core::rng` (no external property-test crate).
//!
//! * Chrome export of a random well-nested span tree preserves parent/child
//!   containment and every duration exactly (via the `args.start_ns` /
//!   `args.wall_ns` integers the exporter embeds alongside the µs fields).
//! * Prometheus text round-trips every counter value, histogram
//!   count/sum/cumulative-bucket, and span wall/instance total through a
//!   small in-test exposition parser.
//! * `gate::compare` accepts identical reports and sits exactly on the
//!   documented tolerance boundary: a drift of `base × tol` passes, one
//!   more unit fails and names the offending counter/span.

use mc3_core::json::Json;
use mc3_core::rng::prelude::*;
use mc3_obs::{
    build_info_text, chrome_trace_json, compare, prometheus_text, GateConfig, GateViolation,
    RequestMetrics, Route,
};
use mc3_telemetry::{HistogramData, SpanData, TelemetryReport};
use std::collections::BTreeMap;

/// Random well-nested span tree: every node's wall time is the sum of its
/// children's walls plus a strictly positive self time, which is exactly
/// the shape real telemetry aggregation produces. Names are globally
/// unique so events map back to nodes unambiguously.
fn gen_tree(rng: &mut StdRng, depth: u32, next_id: &mut u32) -> SpanData {
    let id = *next_id;
    *next_id += 1;
    let n_children = if depth == 0 {
        0
    } else {
        rng.gen_range(0..=3u32)
    };
    let children: Vec<SpanData> = (0..n_children)
        .map(|_| gen_tree(rng, depth - 1, next_id))
        .collect();
    let child_wall: u64 = children.iter().map(|c| c.wall_ns).sum();
    SpanData {
        name: format!("s{id}"),
        wall_ns: child_wall + rng.gen_range(1..=1_000_000u64),
        count: rng.gen_range(1..=5u64),
        counters: BTreeMap::new(),
        mem: mc3_telemetry::SpanMem::default(),
        children,
    }
}

fn walk<'a>(
    span: &'a SpanData,
    parent: Option<&'a str>,
    nodes: &mut Vec<&'a SpanData>,
    edges: &mut Vec<(&'a str, &'a str)>,
) {
    nodes.push(span);
    if let Some(p) = parent {
        edges.push((p, &span.name));
    }
    for child in &span.children {
        walk(child, Some(&span.name), nodes, edges);
    }
}

fn report_with(spans: Vec<SpanData>) -> TelemetryReport {
    TelemetryReport {
        spans,
        ..TelemetryReport::default()
    }
}

/// `(start_ns, wall_ns)` per event name, read from the exact-nanosecond
/// `args`, plus a µs-consistency check of the lossy `ts`/`dur` fields.
fn x_event_intervals(j: &Json) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    let events = j
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_owned();
        let args = e.get("args").expect("args");
        let start = args
            .get("start_ns")
            .and_then(Json::as_u64)
            .expect("start_ns");
        let wall = args.get("wall_ns").and_then(Json::as_u64).expect("wall_ns");
        for (micro_field, ns) in [("ts", start), ("dur", wall)] {
            let micros = e
                .get(micro_field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("numeric {micro_field}"));
            assert!(
                (micros * 1_000.0 - ns as f64).abs() < 0.5,
                "{micro_field}={micros}µs disagrees with {ns}ns for '{name}'"
            );
        }
        assert!(
            out.insert(name, (start, wall)).is_none(),
            "duplicate event name"
        );
    }
    out
}

#[test]
fn chrome_export_preserves_nesting_and_durations() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let mut next_id = 0u32;
        let roots: Vec<SpanData> = (0..rng.gen_range(1..=3u32))
            .map(|_| gen_tree(&mut rng, 3, &mut next_id))
            .collect();
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for r in &roots {
            walk(r, None, &mut nodes, &mut edges);
        }

        let j = chrome_trace_json(&report_with(roots.clone()));
        let intervals = x_event_intervals(&j);

        // One complete event per tree node, each with its exact duration.
        assert_eq!(intervals.len(), nodes.len(), "seed {seed}");
        for n in &nodes {
            let &(_, wall) = intervals.get(&n.name).expect("event for node");
            assert_eq!(wall, n.wall_ns, "duration of '{}' (seed {seed})", n.name);
        }

        // Parent/child containment for every edge of the source tree.
        for (p, c) in &edges {
            let &(ps, pw) = intervals.get(*p).expect("parent event");
            let &(cs, cw) = intervals.get(*c).expect("child event");
            assert!(
                ps <= cs && cs + cw <= ps + pw,
                "child '{c}' [{cs}, {}) escapes parent '{p}' [{ps}, {}) (seed {seed})",
                cs + cw,
                ps + pw
            );
        }

        // Siblings (including the roots) never overlap: each starts at or
        // after the previous one's end, in source order.
        let mut sibling_runs: Vec<Vec<&SpanData>> = vec![roots.iter().collect()];
        sibling_runs.extend(nodes.iter().map(|n| n.children.iter().collect()));
        for run in sibling_runs {
            for pair in run.windows(2) {
                let &(s0, w0) = intervals.get(&pair[0].name).expect("event");
                let &(s1, _) = intervals.get(&pair[1].name).expect("event");
                assert!(
                    s0 + w0 <= s1,
                    "siblings '{}' and '{}' overlap (seed {seed})",
                    pair[0].name,
                    pair[1].name
                );
            }
        }
    }
}

/// Minimal exposition-format reader: every non-comment sample line becomes
/// `full sample name (labels included) → integer value`. All values this
/// repo exports are u64.
fn parse_prom(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        let value: u64 = value.parse().expect("u64 sample value");
        assert!(
            out.insert(name.to_owned(), value).is_none(),
            "duplicate sample {name}"
        );
    }
    out
}

#[test]
fn prometheus_text_round_trips_counts_and_sums() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ seed);

        let counters: BTreeMap<String, u64> = (0..rng.gen_range(1..=6u32))
            .map(|i| (format!("c{i}"), rng.gen_range(0..=1_000_000u64)))
            .collect();

        let histograms: Vec<HistogramData> = (0..rng.gen_range(1..=3u32))
            .map(|i| {
                let mut buckets: Vec<(u32, u64)> = Vec::new();
                for idx in 0..=rng.gen_range(0..=12u32) {
                    if rng.gen_bool(0.6) {
                        buckets.push((idx, rng.gen_range(1..=50u64)));
                    }
                }
                let count = buckets.iter().map(|&(_, c)| c).sum();
                HistogramData {
                    name: format!("h{i}"),
                    count,
                    sum: rng.gen_range(0..=1_000_000u64),
                    buckets,
                }
            })
            .collect();

        let mut next_id = 0u32;
        let roots: Vec<SpanData> = (0..rng.gen_range(1..=2u32))
            .map(|_| gen_tree(&mut rng, 2, &mut next_id))
            .collect();

        let report = TelemetryReport {
            spans: roots.clone(),
            counters: counters.clone(),
            histograms: histograms.clone(),
            ..TelemetryReport::default()
        };
        let text = prometheus_text(&report);
        let samples = parse_prom(&text);

        for (name, &value) in &counters {
            assert_eq!(
                samples.get(&format!("mc3_{name}_total")),
                Some(&value),
                "counter {name} (seed {seed})"
            );
        }

        for h in &histograms {
            let metric = format!("mc3_{}", h.name);
            assert_eq!(samples.get(&format!("{metric}_sum")), Some(&h.sum));
            assert_eq!(samples.get(&format!("{metric}_count")), Some(&h.count));
            assert_eq!(
                samples.get(&format!("{metric}_bucket{{le=\"+Inf\"}}")),
                Some(&h.count),
                "+Inf bucket equals count (seed {seed})"
            );
            // Every emitted finite bucket must carry the cumulative count
            // of all source buckets whose upper bound fits under its `le`.
            let bucket_prefix = format!("{metric}_bucket{{le=\"");
            for (sample, &got) in &samples {
                let Some(rest) = sample.strip_prefix(&bucket_prefix) else {
                    continue;
                };
                let le = rest.trim_end_matches("\"}");
                if le == "+Inf" {
                    continue;
                }
                let bound: u64 = le.parse().expect("numeric le");
                let expected: u64 = h
                    .buckets
                    .iter()
                    .filter(|&&(idx, _)| HistogramData::bucket_bound(idx as usize) <= bound)
                    .map(|&(_, c)| c)
                    .sum();
                assert_eq!(got, expected, "cumulative at le={bound} (seed {seed})");
            }
        }

        // Span families: every path's wall and instance totals survive.
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for r in &roots {
            walk(r, None, &mut nodes, &mut edges);
        }
        fn paths(prefix: &str, spans: &[SpanData], out: &mut Vec<(String, u64, u64)>) {
            for s in spans {
                let path = if prefix.is_empty() {
                    s.name.clone()
                } else {
                    format!("{prefix}/{}", s.name)
                };
                paths(&path, &s.children, out);
                out.push((path, s.wall_ns, s.count));
            }
        }
        let mut flat = Vec::new();
        paths("", &roots, &mut flat);
        for (path, wall, count) in flat {
            assert_eq!(
                samples.get(&format!(
                    "mc3_span_wall_nanoseconds_total{{span=\"{path}\"}}"
                )),
                Some(&wall),
                "wall of {path} (seed {seed})"
            );
            assert_eq!(
                samples.get(&format!("mc3_span_instances_total{{span=\"{path}\"}}")),
                Some(&count),
                "instances of {path} (seed {seed})"
            );
        }
    }
}

/// Like [`parse_prom`], but for the serving-plane families whose sample
/// values are seconds (floats). Every non-comment line must still parse.
fn parse_prom_f64(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value.parse().expect("numeric sample value");
        assert!(
            out.insert(name.to_owned(), value).is_none(),
            "duplicate sample {name}"
        );
    }
    out
}

#[test]
fn server_families_and_build_info_round_trip() {
    let status_class = |status: u16| match status / 100 {
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        5 => "5xx",
        _ => "other",
    };
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0x5E17E ^ seed);
        let metrics = RequestMetrics::new();
        let mut expected: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        let mut latency: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // route → (count, sum_ns)
        for _ in 0..rng.gen_range(1..=200u32) {
            let route = match rng.gen_range(0..5u32) {
                0 => Route::Solve,
                1 => Route::Metrics,
                2 => Route::Healthz,
                3 => Route::Buildinfo,
                _ => Route::Other,
            };
            let status: u16 = match rng.gen_range(0..5u32) {
                0 => 200,
                1 => 204,
                2 => 301,
                3 => 404,
                _ => 500,
            };
            let ns = rng.gen_range(0..=10_000_000_000u64);
            metrics.observe(route, status, ns);
            *expected
                .entry((route.as_str(), status_class(status)))
                .or_default() += 1;
            let slot = latency.entry(route.as_str()).or_default();
            slot.0 += 1;
            slot.1 += ns;
        }

        let samples = parse_prom_f64(&metrics.render());

        // Requests: every (route, class) cell round-trips, zeros included.
        for route in Route::ALL {
            for class in ["2xx", "3xx", "4xx", "5xx", "other"] {
                let key = format!(
                    "mc3_requests_total{{route=\"{}\",status=\"{class}\"}}",
                    route.as_str()
                );
                let want = expected.get(&(route.as_str(), class)).copied().unwrap_or(0) as f64;
                assert_eq!(samples.get(&key), Some(&want), "{key} (seed {seed})");
            }
        }

        // Latency histograms: count and second-sum round-trip exactly
        // (the render computes sum as `sum_ns as f64 / 1e9`; so do we),
        // buckets are cumulative and end at +Inf == count.
        for route in Route::ALL {
            let r = route.as_str();
            let (count, sum_ns) = latency.get(r).copied().unwrap_or((0, 0));
            assert_eq!(
                samples.get(&format!(
                    "mc3_request_latency_seconds_count{{route=\"{r}\"}}"
                )),
                Some(&(count as f64))
            );
            assert_eq!(
                samples.get(&format!("mc3_request_latency_seconds_sum{{route=\"{r}\"}}")),
                Some(&(sum_ns as f64 / 1e9))
            );
            let prefix = format!("mc3_request_latency_seconds_bucket{{route=\"{r}\",le=\"");
            let mut buckets: Vec<(f64, f64)> = samples
                .iter()
                .filter_map(|(k, &v)| {
                    let le = k.strip_prefix(&prefix)?.trim_end_matches("\"}");
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().expect("numeric le")
                    };
                    Some((bound, v))
                })
                .collect();
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(!buckets.is_empty(), "no buckets for {r}");
            for pair in buckets.windows(2) {
                assert!(pair[0].1 <= pair[1].1, "non-cumulative buckets for {r}");
            }
            let last = buckets.last().expect("buckets non-empty");
            assert!(last.0.is_infinite(), "last bucket must be +Inf for {r}");
            assert_eq!(last.1, count as f64, "+Inf == count for {r} (seed {seed})");
        }

        assert!(samples.contains_key("mc3_inflight_requests"));
    }

    // build_info: labels escape cleanly and the value is the constant 1.
    let text = build_info_text("1.2.3", Some("abc1234"));
    let samples = parse_prom_f64(&text);
    assert_eq!(
        samples.get("mc3_build_info{version=\"1.2.3\",git=\"abc1234\"}"),
        Some(&1.0)
    );
    let text = build_info_text("0.1.0", None);
    assert!(text.contains("git=\"unknown\""));

    // The three /metrics sections compose without declaring any family
    // twice (Prometheus rejects duplicate # TYPE lines).
    let mut exposition = prometheus_text(&TelemetryReport::default());
    exposition.push_str(&build_info_text("1.0.0", Some("deadbeef")));
    exposition.push_str(&RequestMetrics::new().render());
    let mut seen = BTreeMap::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split_whitespace().next().expect("family name");
            assert!(
                seen.insert(family.to_owned(), ()).is_none(),
                "family {family} declared twice across the composed exposition"
            );
        }
    }
}

/// Base report whose span walls are multiples of 4, so `wall × tol` is an
/// exact integer (and exact in f64) for every tolerance tested — the
/// pass/fail boundary sits on a representable value.
fn gate_base(rng: &mut StdRng) -> TelemetryReport {
    let counters: BTreeMap<String, u64> = (0..5u32)
        .map(|i| (format!("c{i}"), rng.gen_range(1..=1_000u64) * 4))
        .collect();
    let spans = vec![
        SpanData {
            name: "solve".to_owned(),
            wall_ns: rng.gen_range(1_000..=1_000_000u64) * 4,
            count: 1,
            counters: BTreeMap::new(),
            mem: mc3_telemetry::SpanMem::default(),
            children: vec![SpanData {
                name: "inner".to_owned(),
                wall_ns: rng.gen_range(100..=100_000u64) * 4,
                count: 1,
                counters: BTreeMap::new(),
                mem: mc3_telemetry::SpanMem::default(),
                children: Vec::new(),
            }],
        },
        SpanData {
            name: "io".to_owned(),
            wall_ns: rng.gen_range(100..=100_000u64) * 4,
            count: 1,
            counters: BTreeMap::new(),
            mem: mc3_telemetry::SpanMem::default(),
            children: Vec::new(),
        },
    ];
    TelemetryReport {
        spans,
        counters,
        ..TelemetryReport::default()
    }
}

#[test]
fn gate_boundaries_are_exact_at_every_tolerance() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0x6A7E ^ seed);
        let base = gate_base(&mut rng);

        for tol in [0.0, 0.25, 0.5, 1.0] {
            let cfg = GateConfig {
                wall_tol: tol,
                min_wall_ns: 0,
            };

            // Identical reports always pass.
            let verdict = compare(&base, &base, &cfg);
            assert!(
                verdict.passed(),
                "identical must pass at tol {tol}: {verdict:?}"
            );

            // Counters are exact whatever the wall tolerance: one unit of
            // drift either way fails and names the counter.
            let victim = "c2";
            let b = base.counters[victim];
            for cand_value in [b + 1, b - 1] {
                let mut cand = base.clone();
                cand.counters.insert(victim.to_owned(), cand_value);
                let verdict = compare(&base, &cand, &cfg);
                assert!(
                    verdict.violations.iter().any(|v| matches!(
                        v,
                        GateViolation::CounterDrift { name, .. } if name == victim
                    )),
                    "{b} -> {cand_value} must name the counter at tol {tol} (seed {seed}): {verdict:?}"
                );
            }

            // Wall boundary on the nested span: exactly base×(1+tol)
            // passes, one more nanosecond regresses. Shrinking never fails
            // (wall checks are regression-only).
            let w = base.spans[0].children[0].wall_ns;
            let limit = w + (w as f64 * tol) as u64;
            for (cand_wall, ok) in [(limit, true), (limit + 1, false), (w / 2, true)] {
                let mut cand = base.clone();
                cand.spans[0].children[0].wall_ns = cand_wall;
                // Keep the parent's wall ≥ its child's so the tree stays
                // plausible; the parent only grows, which is also checked.
                cand.spans[0].wall_ns = cand.spans[0].wall_ns.max(cand_wall) + 4;
                let verdict = compare(&base, &cand, &cfg);
                let wall_ok = !verdict.violations.iter().any(|v| {
                    matches!(
                        v,
                        GateViolation::WallRegression { path, .. } if path == "solve/inner"
                    )
                });
                assert_eq!(
                    wall_ok, ok,
                    "wall {w} -> {cand_wall} at tol {tol} (seed {seed}): {verdict:?}"
                );
            }

            // A vanished span is always a named violation.
            let mut gone = base.clone();
            gone.spans.pop();
            let verdict = compare(&base, &gone, &cfg);
            assert!(verdict.violations.iter().any(|v| matches!(
                v,
                GateViolation::MissingSpan { path } if path == "io"
            )));
        }
    }
}
