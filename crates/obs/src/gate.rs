//! The perf-regression sentinel behind `mc3 bench-gate`.
//!
//! A checked-in [`BaselineFile`] (`BENCH_baseline.json`) pins a
//! deterministic workload spec plus the [`TelemetryReport`] a known-good
//! build produced for it. The gate re-runs the same workload, then
//! compares:
//!
//! * **wall time per span path** — regression-only, under a loose relative
//!   tolerance ([`GateConfig::wall_tol`]) and an absolute floor
//!   ([`GateConfig::min_wall_ns`]) so scheduler jitter on tiny spans
//!   cannot flake the gate. Getting *faster* never fails.
//! * **solver-internals counters** — exact: greedy iterations, Dinic phases,
//!   push-relabel relabels, preprocessing firings and the rest of the
//!   registry are deterministic for a pinned workload, so *any* drift is a
//!   behavior change that must be acknowledged by re-baselining
//!   (`mc3 bench-gate --baseline FILE --update`).
//! * **allocation counts and bytes per span path** — *exact*, no
//!   tolerance and no size floor. Unlike wall time, the allocator trace
//!   of a pinned single-threaded workload is fully deterministic, so the
//!   memory axis is the one signal the gate can pin to the byte; a kernel
//!   quietly growing a buffer per iteration trips the gate even when wall
//!   time hides inside the jitter tolerance.
//!
//! Every violation names the offending span path or counter with both
//! values, which is what the CI log shows when the gate trips.

use mc3_core::json::Json;
use mc3_telemetry::{SpanData, TelemetryReport};
use std::collections::BTreeMap;
use std::fmt;

/// Schema version of [`BaselineFile`].
pub const BASELINE_VERSION: u64 = 1;

/// The deterministic workload a baseline was recorded on. The CLI re-runs
/// exactly this spec to produce the candidate report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Generator kind (`mc3 generate --kind` vocabulary).
    pub kind: String,
    /// Number of queries to generate.
    pub queries: u64,
    /// Generator seed.
    pub seed: u64,
    /// Solver algorithm name (`mc3 solve --algorithm` vocabulary).
    pub algorithm: String,
}

/// A checked-in baseline: workload spec + the report it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineFile {
    /// The pinned workload.
    pub spec: WorkloadSpec,
    /// The known-good report.
    pub report: TelemetryReport,
}

impl BaselineFile {
    /// Serializes to versioned JSON.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("version", Json::Int(BASELINE_VERSION as i128)),
            (
                "workload",
                Json::object([
                    ("kind", Json::Str(self.spec.kind.clone())),
                    ("queries", Json::Int(self.spec.queries as i128)),
                    ("seed", Json::Int(self.spec.seed as i128)),
                    ("algorithm", Json::Str(self.spec.algorithm.clone())),
                ]),
            ),
            ("report", self.report.to_json()),
        ])
    }

    /// Strict parse: unknown versions and malformed fields are errors, and
    /// the embedded report goes through the schema-drift-rejecting
    /// [`TelemetryReport::from_json`].
    pub fn from_json(v: &Json) -> Result<BaselineFile, String> {
        let spec = BaselineFile::spec_from_json(v)?;
        let report =
            TelemetryReport::from_json(v.get("report").ok_or("baseline missing 'report'")?)?;
        Ok(BaselineFile { spec, report })
    }

    /// Parses only the version and workload spec, ignoring the embedded
    /// report. `--update` flows use this: a baseline whose report predates
    /// newly registered counters fails the strict [`BaselineFile::from_json`]
    /// schema check, but its workload pin is still the right default for
    /// re-recording.
    pub fn spec_from_json(v: &Json) -> Result<WorkloadSpec, String> {
        let version = v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("baseline missing u64 'version'")?;
        if version != BASELINE_VERSION {
            return Err(format!(
                "unsupported baseline version {version} (expected {BASELINE_VERSION})"
            ));
        }
        let w = v.get("workload").ok_or("baseline missing 'workload'")?;
        Ok(WorkloadSpec {
            kind: w
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("workload missing string 'kind'")?
                .to_owned(),
            queries: w
                .get("queries")
                .and_then(Json::as_u64)
                .ok_or("workload missing u64 'queries'")?,
            seed: w
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("workload missing u64 'seed'")?,
            algorithm: w
                .get("algorithm")
                .and_then(Json::as_str)
                .ok_or("workload missing string 'algorithm'")?
                .to_owned(),
        })
    }
}

/// Gate tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Relative wall-time regression tolerance per span: candidate fails
    /// when `candidate > baseline × (1 + wall_tol)`. `1.0` = may take up
    /// to 2× the baseline.
    pub wall_tol: f64,
    /// Spans whose **baseline** wall time is below this are not wall-time
    /// checked (their counters and allocations still are).
    pub min_wall_ns: u64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            wall_tol: 1.0,
            min_wall_ns: 200_000,
        }
    }
}

/// One named gate failure.
#[derive(Debug, Clone, PartialEq)]
pub enum GateViolation {
    /// A span path got slower than the tolerance allows.
    WallRegression {
        /// `/`-joined span path.
        path: String,
        /// Baseline wall time (ns).
        baseline_ns: u64,
        /// Candidate wall time (ns).
        candidate_ns: u64,
        /// The tolerance that was exceeded.
        tol: f64,
    },
    /// A registered counter's total changed (counters are exact).
    CounterDrift {
        /// Counter wire name.
        name: String,
        /// Baseline total.
        baseline: u64,
        /// Candidate total.
        candidate: u64,
    },
    /// A span present in the baseline vanished from the candidate.
    MissingSpan {
        /// `/`-joined span path.
        path: String,
    },
    /// A span path's allocation tally changed. Exact by design: for a
    /// pinned seed the allocator trace is deterministic, so any change is
    /// a real behavior change (fix it or re-record the baseline).
    MemDrift {
        /// `/`-joined span path.
        path: String,
        /// Which memory field drifted (`allocs` or `alloc_bytes`).
        field: &'static str,
        /// Baseline value.
        baseline: u64,
        /// Candidate value.
        candidate: u64,
    },
}

impl GateViolation {
    /// One aligned, human-readable diff line for this violation: what was
    /// measured against what baseline, with the signed delta and the
    /// bound that was exceeded. Rendered indented under the machine-ish
    /// `REGRESSION:` line so a CI log shows both the greppable name and
    /// the at-a-glance magnitude.
    pub fn diff_line(&self) -> String {
        fn signed(baseline: u64, candidate: u64) -> String {
            if candidate >= baseline {
                format!("+{}", candidate - baseline)
            } else {
                format!("-{}", baseline - candidate)
            }
        }
        match self {
            GateViolation::WallRegression {
                path,
                baseline_ns,
                candidate_ns,
                tol,
            } => {
                let pct = 100.0 * (*candidate_ns as f64 / (*baseline_ns).max(1) as f64 - 1.0);
                format!(
                    "  └─ {path}: wall {baseline_ns} ns -> {candidate_ns} ns \
                     (Δ {} ns, {pct:+.1}% vs +{:.1}% allowed)",
                    signed(*baseline_ns, *candidate_ns),
                    tol * 100.0
                )
            }
            GateViolation::CounterDrift {
                name,
                baseline,
                candidate,
            } => format!(
                "  └─ {name}: counter {baseline} -> {candidate} \
                 (Δ {}, exact gate — re-baseline to accept)",
                signed(*baseline, *candidate)
            ),
            GateViolation::MissingSpan { path } => {
                format!("  └─ {path}: span recorded in baseline, absent from candidate")
            }
            GateViolation::MemDrift {
                path,
                field,
                baseline,
                candidate,
            } => format!(
                "  └─ {path}: {field} {baseline} -> {candidate} \
                 (Δ {}, exact gate — re-baseline to accept)",
                signed(*baseline, *candidate)
            ),
        }
    }
}

impl fmt::Display for GateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateViolation::WallRegression {
                path,
                baseline_ns,
                candidate_ns,
                tol,
            } => write!(
                f,
                "span '{path}': wall time regressed {baseline_ns}ns -> {candidate_ns}ns \
                 ({:.2}x, tolerance {:.2}x)",
                *candidate_ns as f64 / (*baseline_ns).max(1) as f64,
                1.0 + tol
            ),
            GateViolation::CounterDrift {
                name,
                baseline,
                candidate,
            } => write!(
                f,
                "counter '{name}': drifted {baseline} -> {candidate} \
                 (counters are exact; re-record the baseline to accept)"
            ),
            GateViolation::MissingSpan { path } => {
                write!(
                    f,
                    "span '{path}': present in baseline, absent from candidate"
                )
            }
            GateViolation::MemDrift {
                path,
                field,
                baseline,
                candidate,
            } => write!(
                f,
                "span '{path}': {field} drifted {baseline} -> {candidate} \
                 (memory gating is exact; re-record the baseline to accept)"
            ),
        }
    }
}

/// The gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Every violation, spans first then counters, in path/name order.
    pub violations: Vec<GateViolation>,
    /// Span paths that were wall-time checked.
    pub spans_checked: usize,
    /// Counters that were compared.
    pub counters_checked: usize,
}

impl GateOutcome {
    /// Whether the candidate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable verdict: for every violation, the greppable
    /// `REGRESSION:` line plus an indented diff line showing baseline vs
    /// measured and the bound that was exceeded, then the summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "REGRESSION: {v}");
            let _ = writeln!(out, "{}", v.diff_line());
        }
        let _ = writeln!(
            out,
            "bench-gate: {} span paths and {} counters checked, {} regression(s)",
            self.spans_checked,
            self.counters_checked,
            self.violations.len()
        );
        out
    }
}

/// Per-path figures the gate compares.
#[derive(Debug, Clone, Copy, Default)]
struct PathStats {
    wall_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Per-path figures of a span forest, keyed by the `/`-joined paths
/// [`prom`](crate::prom) labels its span families with.
fn flatten(spans: &[SpanData]) -> BTreeMap<String, PathStats> {
    let mut flat = Vec::new();
    crate::prom::walk_spans("", spans, &mut flat);
    let mut out = BTreeMap::new();
    for (path, s) in flat {
        // Same-path collisions cannot survive report aggregation, but be
        // safe under hand-built reports: sum.
        let cell: &mut PathStats = out.entry(path).or_default();
        cell.wall_ns = cell.wall_ns.saturating_add(s.wall_ns);
        cell.allocs = cell.allocs.saturating_add(s.mem.allocs);
        cell.alloc_bytes = cell.alloc_bytes.saturating_add(s.mem.alloc_bytes);
    }
    out
}

/// Compares `candidate` against `baseline` under `cfg`.
pub fn compare(
    baseline: &TelemetryReport,
    candidate: &TelemetryReport,
    cfg: &GateConfig,
) -> GateOutcome {
    let mut violations = Vec::new();

    let base_spans = flatten(&baseline.spans);
    let cand_spans = flatten(&candidate.spans);

    let mut spans_checked = 0usize;
    for (path, base) in &base_spans {
        match cand_spans.get(path) {
            None => violations.push(GateViolation::MissingSpan { path: path.clone() }),
            Some(cand) => {
                // Memory first: exact, no jitter floor — the allocator
                // trace of a pinned workload is deterministic.
                for (field, b, c) in [
                    ("allocs", base.allocs, cand.allocs),
                    ("alloc_bytes", base.alloc_bytes, cand.alloc_bytes),
                ] {
                    if b != c {
                        violations.push(GateViolation::MemDrift {
                            path: path.clone(),
                            field,
                            baseline: b,
                            candidate: c,
                        });
                    }
                }
                if base.wall_ns < cfg.min_wall_ns {
                    continue;
                }
                spans_checked += 1;
                let limit = base.wall_ns as f64 * (1.0 + cfg.wall_tol);
                if cand.wall_ns as f64 > limit {
                    violations.push(GateViolation::WallRegression {
                        path: path.clone(),
                        baseline_ns: base.wall_ns,
                        candidate_ns: cand.wall_ns,
                        tol: cfg.wall_tol,
                    });
                }
            }
        }
    }

    let mut counters_checked = 0usize;
    for (name, &base) in &baseline.counters {
        let cand = candidate.counters.get(name).copied().unwrap_or(0);
        counters_checked += 1;
        if cand != base {
            violations.push(GateViolation::CounterDrift {
                name: name.clone(),
                baseline: base,
                candidate: cand,
            });
        }
    }

    GateOutcome {
        violations,
        spans_checked,
        counters_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, wall_ns: u64, children: Vec<SpanData>) -> SpanData {
        SpanData {
            name: name.to_owned(),
            wall_ns,
            count: 1,
            counters: BTreeMap::new(),
            mem: mc3_telemetry::SpanMem {
                allocs: 10,
                alloc_bytes: 1024,
                frees: 10,
                free_bytes: 1024,
                peak_live_bytes: 512,
                min_instance_allocs: 10,
            },
            children,
        }
    }

    fn report(solve_ns: u64, greedy: u64) -> TelemetryReport {
        TelemetryReport {
            spans: vec![span(
                "solve",
                solve_ns,
                vec![span("solve_core", solve_ns / 2, vec![])],
            )],
            counters: BTreeMap::from([
                ("greedy_iterations".to_owned(), greedy),
                ("dinic_phases".to_owned(), 7u64),
            ]),
            ..TelemetryReport::default()
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(10_000_000, 40);
        let out = compare(&r, &r, &GateConfig::default());
        assert!(out.passed(), "{}", out.render());
        assert_eq!(out.counters_checked, 2);
        assert!(out.spans_checked >= 2);
    }

    #[test]
    fn faster_candidate_passes() {
        let base = report(10_000_000, 40);
        let cand = report(2_000_000, 40);
        assert!(compare(&base, &cand, &GateConfig::default()).passed());
    }

    #[test]
    fn wall_regression_is_named() {
        let base = report(10_000_000, 40);
        let cand = report(30_000_000, 40);
        let out = compare(&base, &cand, &GateConfig::default());
        assert!(!out.passed());
        let text = out.render();
        assert!(text.contains("span 'solve'"), "{text}");
        assert!(text.contains("regressed"), "{text}");
    }

    #[test]
    fn tiny_spans_are_jitter_exempt() {
        let base = report(100_000, 40); // below min_wall_ns
        let cand = report(90_000_000, 40);
        let out = compare(&base, &cand, &GateConfig::default());
        assert!(out.passed(), "{}", out.render());
        assert_eq!(out.spans_checked, 0);
    }

    #[test]
    fn counter_drift_is_exact_in_both_directions() {
        let base = report(10_000_000, 40);
        for cand_val in [39u64, 41, 80] {
            let cand = report(10_000_000, cand_val);
            let out = compare(&base, &cand, &GateConfig::default());
            assert!(!out.passed(), "counter {cand_val} must trip the gate");
            assert!(out.render().contains("counter 'greedy_iterations'"));
        }
    }

    #[test]
    fn mem_drift_is_exact_even_on_tiny_spans() {
        // 100_000 ns is below min_wall_ns, so wall time is exempt — but
        // memory gating has no floor: one extra alloc must trip the gate.
        let base = report(100_000, 40);
        let mut cand = report(100_000, 40);
        cand.spans[0].children[0].mem.allocs += 1;
        let out = compare(&base, &cand, &GateConfig::default());
        assert!(!out.passed());
        let text = out.render();
        assert!(text.contains("span 'solve/solve_core'"), "{text}");
        assert!(text.contains("allocs drifted 10 -> 11"), "{text}");
        // Both directions trip: fewer allocations is also a change.
        let mut cand = report(100_000, 40);
        cand.spans[0].mem.alloc_bytes -= 1;
        assert!(!compare(&base, &cand, &GateConfig::default()).passed());
    }

    #[test]
    fn missing_span_is_a_violation() {
        let base = report(10_000_000, 40);
        let mut cand = report(10_000_000, 40);
        cand.spans[0].children.clear();
        let out = compare(&base, &cand, &GateConfig::default());
        assert!(out.violations.iter().any(
            |v| matches!(v, GateViolation::MissingSpan { path } if path == "solve/solve_core")
        ));
    }

    #[test]
    fn render_snapshot_shows_diff_lines_per_violation() {
        let outcome = GateOutcome {
            violations: vec![
                GateViolation::WallRegression {
                    path: "solve".to_owned(),
                    baseline_ns: 10_000_000,
                    candidate_ns: 30_000_000,
                    tol: 1.0,
                },
                GateViolation::CounterDrift {
                    name: "greedy_iterations".to_owned(),
                    baseline: 40,
                    candidate: 36,
                },
                GateViolation::MissingSpan {
                    path: "solve/solve_core".to_owned(),
                },
                GateViolation::MemDrift {
                    path: "solve/solve_core".to_owned(),
                    field: "allocs",
                    baseline: 10,
                    candidate: 11,
                },
            ],
            spans_checked: 2,
            counters_checked: 31,
        };
        let expected = "\
REGRESSION: span 'solve': wall time regressed 10000000ns -> 30000000ns (3.00x, tolerance 2.00x)
  └─ solve: wall 10000000 ns -> 30000000 ns (Δ +20000000 ns, +200.0% vs +100.0% allowed)
REGRESSION: counter 'greedy_iterations': drifted 40 -> 36 (counters are exact; re-record the baseline to accept)
  └─ greedy_iterations: counter 40 -> 36 (Δ -4, exact gate — re-baseline to accept)
REGRESSION: span 'solve/solve_core': present in baseline, absent from candidate
  └─ solve/solve_core: span recorded in baseline, absent from candidate
REGRESSION: span 'solve/solve_core': allocs drifted 10 -> 11 (memory gating is exact; re-record the baseline to accept)
  └─ solve/solve_core: allocs 10 -> 11 (Δ +1, exact gate — re-baseline to accept)
bench-gate: 2 span paths and 31 counters checked, 4 regression(s)
";
        assert_eq!(outcome.render(), expected);
    }

    #[test]
    fn baseline_file_round_trips() {
        let b = BaselineFile {
            spec: WorkloadSpec {
                kind: "synthetic".to_owned(),
                queries: 300,
                seed: 42,
                algorithm: "auto".to_owned(),
            },
            report: {
                let mut r = report(5_000, 3);
                // from_json is strict: fill the whole registry
                r.counters = mc3_telemetry::COUNTER_NAMES
                    .iter()
                    .map(|n| (n.to_string(), 1u64))
                    .collect();
                r.histograms = mc3_telemetry::HIST_NAMES
                    .iter()
                    .map(|n| mc3_telemetry::HistogramData {
                        name: n.to_string(),
                        count: 0,
                        sum: 0,
                        buckets: Vec::new(),
                    })
                    .collect();
                r
            },
        };
        let text = b.to_json().to_string_pretty();
        let parsed = mc3_core::json::parse(&text).expect("baseline JSON parses");
        let back = BaselineFile::from_json(&parsed).expect("strict parse");
        assert_eq!(back, b);
    }

    #[test]
    fn baseline_rejects_bad_version() {
        let b = BaselineFile {
            spec: WorkloadSpec {
                kind: "synthetic".to_owned(),
                queries: 1,
                seed: 1,
                algorithm: "auto".to_owned(),
            },
            report: TelemetryReport::default(),
        };
        let mut v = b.to_json();
        if let Json::Object(map) = &mut v {
            map.insert("version".to_owned(), Json::Int(99));
        }
        assert!(BaselineFile::from_json(&v).is_err());
    }
}
