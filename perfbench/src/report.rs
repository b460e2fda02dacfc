//! The result line and the traced run's self-time table.

use crate::trace::{self, Span};
use std::collections::BTreeMap;

/// Every end-to-end metric, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("cost_total", "cost"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric of the traced run, with its unit. A layer that
/// does not run on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.universe.build_ms", "ms"),
    ("core.universe.classifiers", "count"),
    ("solver.preprocess.step1_ms", "ms"),
    ("solver.preprocess.step3_ms", "ms"),
    ("solver.preprocess.passes", "count"),
    ("solver.preprocess.removed", "count"),
    ("solver.components.count", "count"),
    ("solver.components.ms", "ms"),
    ("core.canon.ms", "ms"),
    ("core.canon.budget_exhausted", "count"),
    ("solver.cache.hit_ratio", "ratio"),
    ("solver.cache.lookups", "count"),
    ("solver.cache.ms", "ms"),
    ("server.request_cache.hit_ratio", "ratio"),
    ("server.request_cache.ms", "ms"),
    ("solver.executor.tasks", "count"),
    ("solver.executor.steals", "count"),
    ("solver.executor.wait_ms", "ms"),
    ("solver.executor.park_ms", "ms"),
    ("solver.reduction.ms", "ms"),
    ("solver.general.ms", "ms"),
    ("solver.assemble_ms", "ms"),
    ("kernels.greedy_iterations", "count"),
    ("kernels.lp_pivots", "count"),
    ("core.certificate.ms", "ms"),
    ("io.decode_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.request_kb", "KiB"),
    ("server.response_kb", "KiB"),
    ("server.solve_ms", "ms"),
    ("server.outside_solve_ms", "ms"),
    ("server.dropped", "count"),
    ("trace.coverage_min", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (solves or requests).
    pub attempted: u64,
    /// Operations that failed: an error status, a transport error, an
    /// invalid certificate or a cost that differs from the reference.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Adds a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn put(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("every reported metric is declared");
        self.metrics.push((name, value, unit));
    }

    /// Records one failed operation with its reason on stderr.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable metric lines.
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        for (n, v, u) in &self.metrics {
            println!("  {n:<34} {:>14.4} {u}", v);
        }
        println!("  attempted {}  failed {}", self.attempted, self.failed);
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Per-layer self time of a traced replay, as mean ms per operation.
pub struct Layers {
    self_ns: BTreeMap<&'static str, u64>,
    /// Traced operations.
    pub ops: usize,
    /// Lowest share of an operation's wall time covered by layer spans.
    pub coverage_min: f64,
    /// Mean share of an operation's wall time covered by layer spans.
    pub coverage_mean: f64,
    /// Mean wall time of one traced operation, ms.
    pub op_ms: f64,
}

impl Layers {
    /// Summarizes the spans of a replay.
    pub fn from_spans(spans: &[Span]) -> Layers {
        let cov = trace::op_coverage(spans);
        let ops = cov.len();
        Layers {
            self_ns: trace::self_times(spans),
            ops,
            coverage_min: cov.iter().copied().fold(1.0, f64::min),
            coverage_mean: cov.iter().sum::<f64>() / ops.max(1) as f64,
            op_ms: trace::op_wall_ns(spans) as f64 / 1e6 / ops.max(1) as f64,
        }
    }

    /// Mean self time of `name` per operation, ms (0 when the layer did
    /// not run).
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// The self-time table, largest first.
    pub fn print(&self, workload: &str) {
        println!(
            "self time per operation, {workload} ({} traced operations, mean {:.3} ms):",
            self.ops, self.op_ms
        );
        let mut rows: Vec<(&str, u64)> = self.self_ns.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        for (name, ns) in rows {
            let ms = ns as f64 / 1e6 / self.ops.max(1) as f64;
            let label = if name == trace::OP {
                "(outside layer spans)"
            } else {
                name
            };
            println!(
                "  {label:<28} {ms:>10.4} ms  {:>5.1}%",
                100.0 * ms / self.op_ms.max(1e-12)
            );
        }
        println!(
            "  span coverage: min {:.1}%, mean {:.1}%",
            100.0 * self.coverage_min,
            100.0 * self.coverage_mean
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("p50_ms", 1.25);
        o.put("setup_s", 0.5);
        let line = o.json_line();
        let doc = mc3_core::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("p50_ms")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
        o.fail("test");
        assert!(o.json_line().starts_with("{\"correct\": false"));
    }
}
