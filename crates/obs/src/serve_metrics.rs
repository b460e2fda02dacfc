//! The server-side metric families behind `GET /metrics`.
//!
//! The registry in `mc3-telemetry` covers *solver* internals; a serving
//! process additionally needs the classic RED trio per route — request
//! counts by status, in-flight gauge, latency distribution. Those live
//! here, deliberately **outside** the closed `Counter`/`Hist` registry:
//! they are labelled families (route × status class), which the registry
//! is not shaped for, and keeping them separate means the offline
//! report schema, the bench-gate baselines and the audit consistency
//! checks are all untouched by serving concerns.
//!
//! Everything is plain atomics — the hot path per request is a handful
//! of relaxed adds. Latency histograms reuse the telemetry crate's log2
//! bucketing ([`mc3_telemetry::bucket_of`] over nanoseconds) and render
//! with `le` bounds converted to seconds, the Prometheus convention.

use mc3_telemetry::HistogramData;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Routes the server distinguishes in its metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /solve`.
    Solve,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// `GET /buildinfo`.
    Buildinfo,
    /// Anything else: unknown paths, and requests refused before they
    /// could be routed (malformed, or over the header or body bound).
    Other,
}

impl Route {
    /// Every route, in label order.
    pub const ALL: [Route; 5] = [
        Route::Solve,
        Route::Metrics,
        Route::Healthz,
        Route::Buildinfo,
        Route::Other,
    ];

    /// The `route` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Route::Solve => "solve",
            Route::Metrics => "metrics",
            Route::Healthz => "healthz",
            Route::Buildinfo => "buildinfo",
            Route::Other => "other",
        }
    }

    fn idx(self) -> usize {
        match self {
            Route::Solve => 0,
            Route::Metrics => 1,
            Route::Healthz => 2,
            Route::Buildinfo => 3,
            Route::Other => 4,
        }
    }
}

/// Status classes used as the `status` label (individual codes would
/// explode cardinality without telling an operator anything more).
const STATUS_CLASSES: [&str; 5] = ["2xx", "3xx", "4xx", "5xx", "other"];

fn status_class_idx(status: u16) -> usize {
    match status / 100 {
        2 => 0,
        3 => 1,
        4 => 2,
        5 => 3,
        _ => 4,
    }
}

const ROUTES: usize = Route::ALL.len();
const CLASSES: usize = STATUS_CLASSES.len();

struct RouteLatency {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; mc3_telemetry::HIST_BUCKETS],
}

impl RouteLatency {
    fn new() -> RouteLatency {
        RouteLatency {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Live request-plane counters: `mc3_requests_total{route,status}`,
/// `mc3_inflight_requests`, the per-route
/// `mc3_request_latency_seconds` log2 histograms and
/// `mc3_requests_dropped_total`. One instance lives for
/// the server's lifetime; worker threads update it lock-free.
pub struct RequestMetrics {
    requests: [[AtomicU64; CLASSES]; ROUTES],
    inflight: AtomicU64,
    latency: [RouteLatency; ROUTES],
    dropped: AtomicU64,
}

impl Default for RequestMetrics {
    fn default() -> RequestMetrics {
        RequestMetrics::new()
    }
}

/// RAII in-flight marker: increments `mc3_inflight_requests` on creation
/// and decrements on drop, so a panicking handler cannot leak the gauge.
pub struct InflightGuard<'a> {
    metrics: &'a RequestMetrics,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        // audit:allow(no-relaxed-atomics) reviewed: gauge decrement — scrapes only need an eventually-consistent figure
        self.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl RequestMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> RequestMetrics {
        RequestMetrics {
            requests: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            inflight: AtomicU64::new(0),
            latency: std::array::from_fn(|_| RouteLatency::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Marks a request in flight for the guard's lifetime.
    pub fn inflight_guard(&self) -> InflightGuard<'_> {
        // audit:allow(no-relaxed-atomics) reviewed: gauge increment — scrapes only need an eventually-consistent figure
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { metrics: self }
    }

    /// Current in-flight request count.
    pub fn inflight(&self) -> u64 {
        // audit:allow(no-relaxed-atomics) reviewed: gauge read for a scrape
        self.inflight.load(Ordering::Relaxed)
    }

    /// Records one completed request: bumps the status-classed request
    /// counter and folds the latency into the route's histogram.
    pub fn observe(&self, route: Route, status: u16, latency_ns: u64) {
        let (Some(row), Some(lat)) = (
            self.requests.get(route.idx()),
            self.latency.get(route.idx()),
        ) else {
            return;
        };
        if let Some(cell) = row.get(status_class_idx(status)) {
            // audit:allow(no-relaxed-atomics) reviewed: monotonic counter — scrapes tolerate momentary skew
            cell.fetch_add(1, Ordering::Relaxed);
        }
        // audit:allow(no-relaxed-atomics) reviewed: monotonic histogram cells — scrapes tolerate momentary skew
        lat.count.fetch_add(1, Ordering::Relaxed);
        // audit:allow(no-relaxed-atomics) reviewed: monotonic histogram cells — scrapes tolerate momentary skew
        lat.sum_ns.fetch_add(latency_ns, Ordering::Relaxed);
        if let Some(bucket) = lat.buckets.get(mc3_telemetry::bucket_of(latency_ns)) {
            // audit:allow(no-relaxed-atomics) reviewed: monotonic histogram cells — scrapes tolerate momentary skew
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a connection the server answered 503 without serving it.
    pub fn observe_dropped(&self) {
        // audit:allow(no-relaxed-atomics) reviewed: monotonic counter — scrapes tolerate momentary skew
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests recorded for `route` with the status class of
    /// `status` — test/assertion hook.
    pub fn requests_total(&self, route: Route, status: u16) -> u64 {
        self.requests
            .get(route.idx())
            .and_then(|row| row.get(status_class_idx(status)))
            // audit:allow(no-relaxed-atomics) reviewed: monotonic counter read
            .map(|cell| cell.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Renders the request-plane families as Prometheus exposition text. The server appends this to
    /// [`prometheus_text`](crate::prometheus_text) output for a scrape.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP mc3_requests_total Requests served, by route and status class."
        );
        let _ = writeln!(out, "# TYPE mc3_requests_total counter");
        for route in Route::ALL {
            let Some(row) = self.requests.get(route.idx()) else {
                continue;
            };
            for (class, cell) in STATUS_CLASSES.iter().zip(row.iter()) {
                // audit:allow(no-relaxed-atomics) reviewed: monotonic counter read for a scrape
                let v = cell.load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "mc3_requests_total{{route=\"{}\",status=\"{class}\"}} {v}",
                    route.as_str()
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP mc3_inflight_requests Requests currently being handled."
        );
        let _ = writeln!(out, "# TYPE mc3_inflight_requests gauge");
        let _ = writeln!(out, "mc3_inflight_requests {}", self.inflight());
        let _ = writeln!(
            out,
            "# HELP mc3_request_latency_seconds Request latency, log2-bucketed (bounds are exact nanosecond powers rendered in seconds)."
        );
        let _ = writeln!(out, "# TYPE mc3_request_latency_seconds histogram");
        for route in Route::ALL {
            let Some(lat) = self.latency.get(route.idx()) else {
                continue;
            };
            // audit:allow(no-relaxed-atomics) reviewed: histogram reads for a scrape — per-cell monotonicity suffices
            let count = lat.count.load(Ordering::Relaxed);
            // audit:allow(no-relaxed-atomics) reviewed: histogram reads for a scrape — per-cell monotonicity suffices
            let sum_ns = lat.sum_ns.load(Ordering::Relaxed);
            let label = route.as_str();
            let mut cumulative = 0u64;
            let max_idx = lat
                .buckets
                .iter()
                .enumerate()
                // audit:allow(no-relaxed-atomics) reviewed: histogram reads for a scrape
                .filter(|(_, b)| b.load(Ordering::Relaxed) > 0)
                .map(|(i, _)| i)
                .max();
            if let Some(max_idx) = max_idx {
                for (idx, bucket) in lat.buckets.iter().enumerate().take(max_idx + 1) {
                    // audit:allow(no-relaxed-atomics) reviewed: histogram reads for a scrape
                    cumulative += bucket.load(Ordering::Relaxed);
                    let bound_ns = HistogramData::bucket_bound(idx);
                    if bound_ns == u64::MAX {
                        break; // unbounded last bucket folds into +Inf
                    }
                    let _ = writeln!(
                        out,
                        "mc3_request_latency_seconds_bucket{{route=\"{label}\",le=\"{}\"}} {cumulative}",
                        bound_ns as f64 / 1e9
                    );
                }
            }
            let _ = writeln!(
                out,
                "mc3_request_latency_seconds_bucket{{route=\"{label}\",le=\"+Inf\"}} {count}"
            );
            let _ = writeln!(
                out,
                "mc3_request_latency_seconds_sum{{route=\"{label}\"}} {}",
                sum_ns as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "mc3_request_latency_seconds_count{{route=\"{label}\"}} {count}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP mc3_requests_dropped_total Connections answered 503 without being served (connection bound reached or thread spawn failed)."
        );
        let _ = writeln!(out, "# TYPE mc3_requests_dropped_total counter");
        // audit:allow(no-relaxed-atomics) reviewed: monotonic counter read for a scrape
        let dropped = self.dropped.load(Ordering::Relaxed);
        let _ = writeln!(out, "mc3_requests_dropped_total {dropped}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_buckets_by_route_and_status_class() {
        let m = RequestMetrics::new();
        m.observe(Route::Solve, 200, 1_000_000);
        m.observe(Route::Solve, 204, 2_000_000);
        m.observe(Route::Solve, 400, 500);
        m.observe(Route::Healthz, 200, 100);
        assert_eq!(m.requests_total(Route::Solve, 200), 2);
        assert_eq!(m.requests_total(Route::Solve, 404), 1);
        assert_eq!(m.requests_total(Route::Healthz, 200), 1);
        assert_eq!(m.requests_total(Route::Metrics, 200), 0);
    }

    #[test]
    fn inflight_guard_is_panic_safe() {
        let m = RequestMetrics::new();
        {
            let _a = m.inflight_guard();
            let _b = m.inflight_guard();
            assert_eq!(m.inflight(), 2);
        }
        assert_eq!(m.inflight(), 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.inflight_guard();
            panic!("handler died");
        }));
        assert!(caught.is_err());
        assert_eq!(m.inflight(), 0);
    }

    #[test]
    fn render_emits_every_family_with_seconds_bounds() {
        let m = RequestMetrics::new();
        // 1 µs and ~1 s latencies land in distinct log2 buckets.
        m.observe(Route::Solve, 200, 1_000);
        m.observe(Route::Solve, 200, 1_000_000_000);
        m.observe(Route::Other, 500, 10);
        let text = m.render();
        assert!(text.contains("# TYPE mc3_requests_total counter"), "{text}");
        assert!(
            text.contains("mc3_requests_total{route=\"solve\",status=\"2xx\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mc3_requests_total{route=\"other\",status=\"5xx\"} 1"),
            "{text}"
        );
        assert!(text.contains("mc3_inflight_requests 0"), "{text}");
        assert!(
            text.contains("# TYPE mc3_request_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("mc3_request_latency_seconds_count{route=\"solve\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mc3_request_latency_seconds_bucket{route=\"solve\",le=\"+Inf\"} 2"),
            "{text}"
        );
        // The sum renders in seconds: 1_000 ns + 1 s = 1.000001 s.
        assert!(
            text.contains("mc3_request_latency_seconds_sum{route=\"solve\"} 1.000001"),
            "{text}"
        );
        assert!(text.contains("mc3_requests_dropped_total 0"), "{text}");
        m.observe_dropped();
        assert!(m.render().contains("mc3_requests_dropped_total 1"));
    }

    #[test]
    fn latency_bucket_bounds_are_cumulative_and_sorted() {
        let m = RequestMetrics::new();
        for ns in [1u64, 2, 4, 1_000, 1_000_000] {
            m.observe(Route::Metrics, 200, ns);
        }
        let text = m.render();
        // Pull out this route's bucket lines and check cumulative order.
        let mut last = 0u64;
        let mut bounds: Vec<f64> = Vec::new();
        for line in text.lines() {
            let Some(rest) =
                line.strip_prefix("mc3_request_latency_seconds_bucket{route=\"metrics\",le=\"")
            else {
                continue;
            };
            let Some((le, count)) = rest.split_once("\"} ") else {
                continue;
            };
            let count: u64 = count.parse().expect("count parses");
            assert!(count >= last, "cumulative counts must not decrease");
            last = count;
            if le != "+Inf" {
                bounds.push(le.parse().expect("le parses as f64"));
            }
        }
        assert_eq!(last, 5);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
    }
}
