//! The cross-artifact consistency pass: `mc3-audit consistency`.
//!
//! The lint rules check *sites*; this pass checks *inventories* — the
//! declared-vs-enforced drift that no single file can reveal. It is the
//! source-level analogue of the runtime certificates: a budget or a
//! counter registry is a claim, and claims get re-derived, not trusted.
//!
//! Checks, in report order:
//!
//! 1. **Telemetry registry ↔ source.** Every `Counter`/`Hist` variant
//!    (taken from the real `mc3-telemetry` registry, not a re-parse) is
//!    referenced somewhere outside its declaration file — a variant
//!    nobody increments is dead weight that silently reads `0` forever.
//! 2. **Telemetry registry ↔ docs.** Every wire name has a row in
//!    `docs/observability.md` (glob rows like `verify_*_checks` count).
//! 3. **Telemetry registry ↔ prom exposition.** Rendering a zeroed
//!    report through the real `mc3_obs::prometheus_text` must expose
//!    every counter as `mc3_<name>_total` and every histogram family —
//!    zeros included, so a scrape can tell "never fired" from "missing".
//! 4. **Lint rules ↔ docs ↔ fixtures.** Every rule in `ALL_RULES` has a
//!    row in `docs/audit.md` and a negative fixture that the rule
//!    actually catches (run in-process through `check_file`).
//! 5. **Budgets ↔ reality.** Every `lint.allow` path exists, and no
//!    ceiling is looser than the measured violation count — debt may
//!    only shrink, so a stale ceiling is an error. `--tighten-budgets`
//!    rewrites ceilings down to measured reality (deleting lines whose
//!    count reached zero) instead of failing.
//! 6. **No-alloc waivers ↔ runtime.** Every file carrying a
//!    `no-alloc-in-hot-loops` waiver claims its hot-loop allocations are
//!    amortized away; this check closes the loop by solving a pinned
//!    deterministic workload under a telemetry session and requiring
//!    each waiver file's designated steady-state span to record at
//!    least one allocation-free instance (`min_instance_allocs == 0` in
//!    the memprof attribution). Skipped when the tree under audit has
//!    no such waivers.
//! 7. **Bench baselines ↔ their own spans.** Each checked-in baseline
//!    (`BENCH_baseline.json`, `BENCH_bestbuy.json`) parses, and its
//!    report-level `peak_live_bytes` equals its largest span root's
//!    `mem.peak_live_bytes`, which is how a report derives it. The gate
//!    does not compare that field, so a hand edit of the root figures
//!    would otherwise leave it stale. A baseline the tree lacks is
//!    skipped.

use crate::rules::{check_file, RULE_INFOS};
use crate::{collect_files, load_allowlist};
use mc3_telemetry::{Counter, Hist, TelemetryReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One consistency failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// Which check found it (e.g. `counter-incremented`, `budget-loose`).
    pub check: &'static str,
    /// What it is about (a counter name, rule name, or budget line).
    pub subject: String,
    /// Human-readable description with the expected fix.
    pub detail: String,
}

/// Outcome of a consistency run.
#[derive(Debug, Default)]
pub struct ConsistencyReport {
    /// Individual checks evaluated (for the summary line).
    pub checks_run: usize,
    /// Everything that failed.
    pub problems: Vec<Problem>,
    /// Budget rewrites applied by `--tighten-budgets`, human-readable.
    pub tightened: Vec<String>,
}

impl ConsistencyReport {
    /// Whether the run passes.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }

    /// Human-readable report text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.problems {
            let _ = writeln!(out, "error[{}]: {}: {}", p.check, p.subject, p.detail);
        }
        for t in &self.tightened {
            let _ = writeln!(out, "tightened: {t}");
        }
        let _ = writeln!(
            out,
            "{} consistency checks, {} problems",
            self.checks_run,
            self.problems.len()
        );
        out
    }
}

/// All backtick-quoted code spans in a markdown document.
fn code_spans(doc: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = doc;
    while let Some(start) = rest.find('`') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('`') else { break };
        spans.push(&rest[..end]);
        rest = &rest[end + 1..];
    }
    spans
}

/// Whether `name` matches `pattern`, where `*` in the pattern matches any
/// (possibly empty) substring — `verify_*_checks` covers every verify
/// counter with one docs row.
fn glob_match(pattern: &str, name: &str) -> bool {
    if !pattern.contains('*') {
        return pattern == name;
    }
    let parts: Vec<&str> = pattern.split('*').collect();
    let (first, last) = (parts[0], parts[parts.len() - 1]);
    if !name.starts_with(first) || !name.ends_with(last) {
        return false;
    }
    // The middle segments must appear, in order, strictly between the
    // anchored prefix and suffix (no overlap).
    let body = &name[first.len()..];
    let Some(body_end) = body.len().checked_sub(last.len()) else {
        return false;
    };
    let mut hay = &body[..body_end];
    for seg in &parts[1..parts.len() - 1] {
        if seg.is_empty() {
            continue;
        }
        match hay.find(seg) {
            Some(off) => hay = &hay[off + seg.len()..],
            None => return false,
        }
    }
    true
}

/// Whether any code span in `doc` names `name` (literally or via glob).
fn documented(doc_spans: &[&str], name: &str) -> bool {
    doc_spans
        .iter()
        .any(|s| *s == name || (s.contains('*') && glob_match(s, name)))
}

/// Runs the consistency pass over the workspace at `root`.
///
/// With `tighten_budgets`, loose ceilings are rewritten in `lint.allow`
/// (and zero-count lines deleted) instead of reported as problems.
pub fn check(root: &Path, tighten_budgets: bool) -> std::io::Result<ConsistencyReport> {
    let mut report = ConsistencyReport::default();

    // Lex the whole lint scope once; every registry check scans it.
    let files = collect_files(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(path)?));
    }

    check_registry(root, &sources, &mut report);
    check_rules(root, &mut report);
    check_budgets(root, &sources, tighten_budgets, &mut report)?;
    check_waivers(&sources, &mut report);
    check_baselines(root, &mut report);

    Ok(report)
}

/// Checks 1–3: registry variants are incremented, documented, exported.
fn check_registry(root: &Path, sources: &[(String, String)], report: &mut ConsistencyReport) {
    // Variant identifiers (`DinicPhases`) for the usage scan, wire names
    // (`dinic_phases`) for docs and prom. Both straight from the enum.
    let mut variants: Vec<(String, String, &'static str)> = Vec::new(); // (enum, variant, wire)
    for c in Counter::ALL {
        variants.push(("Counter".to_owned(), format!("{c:?}"), c.name()));
    }
    for h in Hist::ALL {
        variants.push(("Hist".to_owned(), format!("{h:?}"), h.name()));
    }

    let obs_doc = std::fs::read_to_string(root.join("docs/observability.md")).unwrap_or_default();
    let obs_spans = code_spans(&obs_doc);

    let prom = mc3_obs::prometheus_text(&TelemetryReport {
        spans: Vec::new(),
        counters: mc3_telemetry::COUNTER_NAMES
            .iter()
            .map(|n| ((*n).to_owned(), 0))
            .collect(),
        histograms: mc3_telemetry::HIST_NAMES
            .iter()
            .map(|n| mc3_telemetry::HistogramData {
                name: (*n).to_owned(),
                count: 0,
                sum: 0,
                buckets: Vec::new(),
            })
            .collect(),
        ..TelemetryReport::default()
    });

    for (enum_name, variant, wire) in &variants {
        // 1. Referenced somewhere outside the declaring registry file.
        report.checks_run += 1;
        let token = format!("{enum_name}::{variant}");
        let used = sources.iter().any(|(rel, src)| {
            rel != "crates/telemetry/src/counters.rs"
                && src.contains(&token[enum_name.len()..]) // fast reject on `::Variant`
                && source_references_variant(src, enum_name, variant)
        });
        if !used {
            report.problems.push(Problem {
                check: "counter-incremented",
                subject: token.clone(),
                detail: format!(
                    "registry variant `{wire}` is never referenced outside the registry; \
                     wire it into the code path it claims to measure or remove it"
                ),
            });
        }

        // 2. Documented in docs/observability.md.
        report.checks_run += 1;
        if !documented(&obs_spans, wire) {
            report.problems.push(Problem {
                check: "counter-documented",
                subject: (*wire).to_owned(),
                detail: "no row in docs/observability.md names this wire name \
                         (glob rows like `verify_*_checks` count)"
                    .to_owned(),
            });
        }

        // 3. Present in the prom exposition of a zeroed report.
        report.checks_run += 1;
        let expected = if enum_name == "Counter" {
            format!("mc3_{wire}_total ")
        } else {
            format!("# TYPE mc3_{wire} histogram")
        };
        if !prom.contains(&expected) {
            report.problems.push(Problem {
                check: "counter-exported",
                subject: (*wire).to_owned(),
                detail: format!(
                    "`{expected}` missing from the Prometheus exposition of a zeroed \
                     report; the exporter must render every registered family"
                ),
            });
        }
    }
}

/// Token-accurate check that `src` contains `Enum::Variant` (the fast
/// substring pre-filter cannot tell `Counter::X` from a comment).
fn source_references_variant(src: &str, enum_name: &str, variant: &str) -> bool {
    let toks = crate::lexer::lex(src).tokens;
    toks.windows(4).any(|w| {
        w[0].is_ident(enum_name)
            && w[1].is_punct(':')
            && w[2].is_punct(':')
            && w[3].is_ident(variant)
    })
}

/// Check 4: every lint rule is documented and has a caught fixture.
fn check_rules(root: &Path, report: &mut ConsistencyReport) {
    let audit_doc = std::fs::read_to_string(root.join("docs/audit.md")).unwrap_or_default();
    let audit_spans = code_spans(&audit_doc);
    let fixture_dir = root.join("crates/audit/tests/fixtures");

    for info in RULE_INFOS {
        report.checks_run += 1;
        if !documented(&audit_spans, info.name) {
            report.problems.push(Problem {
                check: "rule-documented",
                subject: info.name.to_owned(),
                detail: "no row in docs/audit.md names this rule; add it to the rules table"
                    .to_owned(),
            });
        }

        report.checks_run += 1;
        let path = fixture_dir.join(info.fixture);
        match std::fs::read_to_string(&path) {
            Err(_) => report.problems.push(Problem {
                check: "rule-fixture",
                subject: info.name.to_owned(),
                detail: format!(
                    "negative fixture crates/audit/tests/fixtures/{} is missing",
                    info.fixture
                ),
            }),
            Ok(source) => {
                let caught = check_file(info.lint_as, &source)
                    .iter()
                    .any(|v| v.rule == info.name);
                if !caught {
                    report.problems.push(Problem {
                        check: "rule-fixture",
                        subject: info.name.to_owned(),
                        detail: format!(
                            "fixture {} (linted as {}) produces no `{}` violation — \
                             the rule no longer catches its own counterexample",
                            info.fixture, info.lint_as, info.name
                        ),
                    });
                }
            }
        }
    }
}

/// Check 5: budget paths exist and ceilings match measured reality.
fn check_budgets(
    root: &Path,
    sources: &[(String, String)],
    tighten: bool,
    report: &mut ConsistencyReport,
) -> std::io::Result<()> {
    let allowlist = match load_allowlist(root) {
        Ok(a) => a,
        Err(e) => {
            report.checks_run += 1;
            report.problems.push(Problem {
                check: "budget-parse",
                subject: "lint.allow".to_owned(),
                detail: e,
            });
            return Ok(());
        }
    };
    if allowlist.entries.is_empty() {
        return Ok(());
    }

    // Measure actual violation counts per entry, longest-prefix matched
    // exactly as the lint does.
    let mut violations = Vec::new();
    for (rel, src) in sources {
        violations.extend(check_file(rel, src));
    }
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in &violations {
        let matched = allowlist
            .entries
            .iter()
            .filter(|e| e.rule == v.rule && v.file.starts_with(e.path.as_str()))
            .max_by_key(|e| e.path.len());
        if let Some(e) = matched {
            *counts.entry((e.rule.clone(), e.path.clone())).or_insert(0) += 1;
        }
    }

    let mut rewrites: BTreeMap<(String, String), Option<usize>> = BTreeMap::new();
    for entry in &allowlist.entries {
        report.checks_run += 1;
        if !root.join(&entry.path).exists() {
            report.problems.push(Problem {
                check: "budget-path",
                subject: format!("{} {}", entry.rule, entry.path),
                detail: "budget path no longer exists; delete the stale line".to_owned(),
            });
            continue;
        }

        report.checks_run += 1;
        let actual = counts
            .get(&(entry.rule.clone(), entry.path.clone()))
            .copied()
            .unwrap_or(0);
        if entry.budget > actual {
            if tighten {
                let new = (actual > 0).then_some(actual);
                rewrites.insert((entry.rule.clone(), entry.path.clone()), new);
                report.tightened.push(match new {
                    Some(n) => format!(
                        "{} {}: budget {} -> {n}",
                        entry.rule, entry.path, entry.budget
                    ),
                    None => format!(
                        "{} {}: budget {} -> line deleted (count is 0)",
                        entry.rule, entry.path, entry.budget
                    ),
                });
            } else {
                report.problems.push(Problem {
                    check: "budget-loose",
                    subject: format!("{} {}", entry.rule, entry.path),
                    detail: format!(
                        "ceiling is {} but only {actual} violations remain; budgets may \
                         only shrink — lower it (or run `consistency --tighten-budgets`)",
                        entry.budget
                    ),
                });
            }
        }
    }

    if !rewrites.is_empty() {
        rewrite_allowlist(&root.join("lint.allow"), &rewrites)?;
    }
    Ok(())
}

/// Rewrites `lint.allow` in place: entries in `rewrites` get their budget
/// replaced (`Some(n)`) or their line dropped (`None`); comments, blank
/// lines and untouched entries pass through byte-for-byte.
fn rewrite_allowlist(
    path: &Path,
    rewrites: &BTreeMap<(String, String), Option<usize>>,
) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let mut out = String::with_capacity(text.len());
    for raw in text.lines() {
        let line = raw.trim();
        let parsed = if line.is_empty() || line.starts_with('#') {
            None
        } else {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(r), Some(p)) => Some((r.to_owned(), p.to_owned())),
                _ => None,
            }
        };
        match parsed.and_then(|key| rewrites.get(&key).map(|r| (key, r))) {
            None => {
                out.push_str(raw);
                out.push('\n');
            }
            Some((_, None)) => {} // line deleted: debt fully burned down
            Some(((rule, p), Some(n))) => {
                // Preserve the column layout by replacing the last field.
                let prefix_len = raw
                    .rfind(|c: char| !c.is_whitespace())
                    .map(|e| raw[..e].rfind(char::is_whitespace).map_or(0, |s| s + 1))
                    .unwrap_or(0);
                let _ = writeln!(out, "{}{n}", &raw[..prefix_len]);
                debug_assert!(raw.contains(&rule) && raw.contains(&p));
            }
        }
    }
    std::fs::write(path, out)
}

/// The lint rule whose inline waivers check 6 closes the loop on.
const NO_ALLOC_RULE: &str = "no-alloc-in-hot-loops";

/// File name → the designated steady-state span for its no-alloc waivers.
/// A waiver says "this allocation is amortized away"; the span is where
/// the runtime half of that claim is measured — it must record at least
/// one allocation-free instance on the pinned workload. A waiver in a file
/// absent from this table is itself a problem: the claim would be
/// unverifiable.
const NO_ALLOC_SPANS: &[(&str, &str)] = &[
    ("dinic.rs", "dinic.max_flow"),
    ("greedy.rs", "setcover.greedy.select"),
    ("prune.rs", "setcover.prune"),
    ("local_search.rs", "setcover.local_search.pass"),
    ("bitcover.rs", "setcover.local_search.pass"),
    ("reduction.rs", "solver.reduce"),
];

/// Check 6: every no-alloc waiver file's designated span is steady-state
/// allocation-free on the pinned workload.
fn check_waivers(sources: &[(String, String)], report: &mut ConsistencyReport) {
    // Waivers come from the real lexer (comment-form only), so prose
    // mentions of the rule name — including this file's — don't count.
    let waiver_files: Vec<&str> = sources
        .iter()
        .filter(|(_, src)| {
            crate::lexer::lex(src)
                .waivers
                .iter()
                .any(|w| w.rules.iter().any(|r| r == NO_ALLOC_RULE))
        })
        .map(|(rel, _)| rel.as_str())
        .collect();
    // A tree with no waivers (unit-test workspaces, stripped checkouts)
    // has nothing to verify and no workload to run.
    if waiver_files.is_empty() {
        return;
    }

    // span → waiver files whose claim it carries
    let mut required: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for rel in &waiver_files {
        report.checks_run += 1;
        let file = rel.rsplit('/').next().unwrap_or(rel);
        match NO_ALLOC_SPANS.iter().find(|(f, _)| *f == file) {
            Some((_, span)) => required.entry(span).or_default().push(rel),
            None => report.problems.push(Problem {
                check: "waiver-span",
                subject: (*rel).to_owned(),
                detail: format!(
                    "file carries a `{NO_ALLOC_RULE}` waiver but has no \
                     designated steady-state span; instrument one and add it \
                     to the NO_ALLOC_SPANS table in \
                     crates/audit/src/consistency.rs"
                ),
            }),
        }
    }

    let tel = match run_pinned_workload() {
        Ok(tel) => tel,
        Err(e) => {
            report.checks_run += 1;
            report.problems.push(Problem {
                check: "waiver-alloc-free",
                subject: "pinned workload".to_owned(),
                detail: e,
            });
            return;
        }
    };
    // name → (merged instances, min allocations over any single instance)
    let mut observed: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    fn visit<'a>(nodes: &'a [mc3_telemetry::SpanData], out: &mut BTreeMap<&'a str, (u64, u64)>) {
        for n in nodes {
            let e = out.entry(n.name.as_str()).or_insert((0, u64::MAX));
            e.0 += n.count;
            e.1 = e.1.min(n.mem.min_instance_allocs);
            visit(&n.children, out);
        }
    }
    visit(&tel.spans, &mut observed);

    for (span, files) in required {
        report.checks_run += 1;
        match observed.get(span) {
            None => report.problems.push(Problem {
                check: "waiver-alloc-free",
                subject: span.to_owned(),
                detail: format!(
                    "designated span never ran on the pinned workload, so the \
                     zero-allocation claim behind the waivers in {} is \
                     unverified; extend run_pinned_workload to exercise it",
                    files.join(", ")
                ),
            }),
            Some(&(instances, min_allocs)) if min_allocs != 0 => report.problems.push(Problem {
                check: "waiver-alloc-free",
                subject: span.to_owned(),
                detail: format!(
                    "all {instances} instances on the pinned workload \
                         allocated (best case {min_allocs} allocs); the \
                         `{NO_ALLOC_RULE}` waivers in {} claim an \
                         amortized-to-zero steady state",
                    files.join(", ")
                ),
            }),
            Some(_) => {}
        }
    }
}

/// Solves two deterministic instances under one telemetry session and
/// returns the merged report:
///
/// * a handcrafted instance with pinned structure — a k ≤ 2 property
///   triangle (real WVC/max-flow work for `dinic.max_flow`) plus two
///   property-disjoint long-query components, largest first, solved
///   sequentially so the reduction's recycled scratch gets warm
///   (allocation-free) rounds;
/// * a small mixed synthetic dataset from `mc3-workload`, for breadth
///   across the greedy/prune/local-search kernels.
fn run_pinned_workload() -> Result<TelemetryReport, String> {
    use mc3_solver::{Algorithm, Mc3Solver};
    let queries: Vec<Vec<u32>> = vec![
        // short phase: a WVC triangle sharing properties pairwise
        vec![0, 1],
        vec![1, 2],
        vec![0, 2],
        // general components (disjoint property ranges), largest first so
        // every later reduction fits the recycled scratch capacities
        vec![10, 11, 12, 13],
        vec![11, 12, 13, 14],
        vec![10, 12, 14],
        vec![20, 21, 22],
        vec![21, 22, 23],
    ];
    let handcrafted = mc3_core::Instance::new(queries, mc3_core::Weights::seeded(7, 1, 50))
        .map_err(|e| format!("handcrafted pinned instance rejected: {e}"))?;
    let synthetic = mc3_workload::SyntheticConfig::with_queries(160)
        .seed(0x3C0)
        .generate();

    let session = mc3_telemetry::Session::begin();
    let solver = Mc3Solver::new().algorithm(Algorithm::ShortFirst);
    let solved = solver
        .solve_report(&handcrafted)
        .and_then(|_| solver.solve_report(&synthetic.instance));
    let tel = session.finish();
    match solved {
        Ok(_) => Ok(tel),
        Err(e) => Err(format!("pinned workload failed to solve: {e}")),
    }
}

/// The bench-gate baselines check 7 reads, relative to the workspace root.
const BASELINE_FILES: [&str; 3] = [
    "BENCH_baseline.json",
    "BENCH_bestbuy.json",
    "BENCH_private.json",
];

/// Check 7: each baseline's report-level peak is its largest root's peak.
fn check_baselines(root: &Path, report: &mut ConsistencyReport) {
    for file in BASELINE_FILES {
        check_baseline(root, file, report);
    }
}

fn check_baseline(root: &Path, file: &str, report: &mut ConsistencyReport) {
    let Ok(text) = std::fs::read_to_string(root.join(file)) else {
        return;
    };
    report.checks_run += 1;
    let parsed = mc3_core::json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|v| mc3_obs::BaselineFile::from_json(&v));
    let baseline = match parsed {
        Ok(b) => b,
        Err(e) => {
            report.problems.push(Problem {
                check: "baseline-parse",
                subject: file.to_owned(),
                detail: e,
            });
            return;
        }
    };
    let roots = &baseline.report.spans;
    let largest = roots.iter().map(|s| s.mem.peak_live_bytes).max();
    let recorded = baseline.report.peak_live_bytes;
    if largest.unwrap_or(0) != recorded {
        report.problems.push(Problem {
            check: "baseline-peak",
            subject: file.to_owned(),
            detail: format!(
                "report-level peak_live_bytes is {recorded} but the largest span \
                 root's mem.peak_live_bytes is {}; set the report figure to the \
                 root's (a report derives it that way)",
                largest.unwrap_or(0)
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globs_match_like_the_docs_rows() {
        assert!(glob_match("verify_*_checks", "verify_flow_checks"));
        assert!(glob_match("verify_*_checks", "verify_greedy_dual_checks"));
        assert!(!glob_match("verify_*_checks", "verify_flow"));
        assert!(!glob_match("verify_*_checks", "dinic_phases"));
        assert!(glob_match("lp_*", "lp_pivots"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("exact", "exactly"));
        assert!(glob_match("*", "anything"));
    }

    #[test]
    fn code_spans_are_extracted() {
        let spans = code_spans("a `one` b `two_three`, and `x*y`.");
        assert_eq!(spans, vec!["one", "two_three", "x*y"]);
    }

    #[test]
    fn variant_references_are_token_accurate() {
        assert!(source_references_variant(
            "fn f() { count(Counter::DinicPhases, 1); }",
            "Counter",
            "DinicPhases"
        ));
        // A comment or string must not count.
        assert!(!source_references_variant(
            "fn f() { let s = \"Counter::DinicPhases\"; }",
            "Counter",
            "DinicPhases"
        ));
        assert!(!source_references_variant(
            "// Counter::DinicPhases\nfn f() {}",
            "Counter",
            "DinicPhases"
        ));
    }

    #[test]
    fn the_prom_check_sees_every_family() {
        // Replicates check 3 inline: a zeroed report exposes everything.
        let prom = mc3_obs::prometheus_text(&TelemetryReport {
            spans: Vec::new(),
            counters: mc3_telemetry::COUNTER_NAMES
                .iter()
                .map(|n| ((*n).to_owned(), 0))
                .collect(),
            histograms: mc3_telemetry::HIST_NAMES
                .iter()
                .map(|n| mc3_telemetry::HistogramData {
                    name: (*n).to_owned(),
                    count: 0,
                    sum: 0,
                    buckets: Vec::new(),
                })
                .collect(),
            ..TelemetryReport::default()
        });
        for name in mc3_telemetry::COUNTER_NAMES {
            assert!(prom.contains(&format!("mc3_{name}_total ")), "{name}");
        }
        for name in mc3_telemetry::HIST_NAMES {
            assert!(
                prom.contains(&format!("# TYPE mc3_{name} histogram")),
                "{name}"
            );
        }
    }

    #[test]
    fn no_alloc_waivers_are_steady_state_allocation_free() {
        // End-to-end on the real workspace: every waiver file maps to a
        // designated span and that span records an allocation-free
        // instance on the pinned workload.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let files = crate::collect_files(root).expect("collect lint scope");
        let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
        for path in &files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push((rel, std::fs::read_to_string(path).expect("read source")));
        }
        let mut report = ConsistencyReport::default();
        check_waivers(&sources, &mut report);
        assert!(
            report.checks_run > 0,
            "the real tree has waivers; the check must not skip"
        );
        assert!(report.problems.is_empty(), "{}", report.render());
    }

    #[test]
    fn the_checked_in_baseline_peak_is_its_largest_root_peak() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let mut report = ConsistencyReport::default();
        check_baselines(root, &mut report);
        assert_eq!(
            report.checks_run,
            BASELINE_FILES.len(),
            "the real tree has every baseline"
        );
        assert!(report.problems.is_empty(), "{}", report.render());
    }

    #[test]
    fn a_stale_baseline_peak_is_flagged() {
        let root = std::env::temp_dir().join("mc3-audit-consistency-baseline-ws");
        std::fs::create_dir_all(&root).expect("mkdir");
        let real = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(BASELINE_FILES[0]);
        let text = std::fs::read_to_string(real).expect("read baseline");
        let json = mc3_core::json::parse(&text).expect("parse baseline");
        let mut baseline = mc3_obs::BaselineFile::from_json(&json).expect("baseline");
        baseline.report.peak_live_bytes += 1;
        let stale = baseline.to_json().to_string_pretty();
        std::fs::write(root.join(BASELINE_FILES[0]), stale).expect("write");
        let mut report = ConsistencyReport::default();
        check_baselines(&root, &mut report);
        assert!(
            report.problems.iter().any(|p| p.check == "baseline-peak"),
            "{:?}",
            report.problems
        );

        std::fs::write(root.join(BASELINE_FILES[0]), "not json").expect("write");
        let mut report = ConsistencyReport::default();
        check_baselines(&root, &mut report);
        assert!(report.problems.iter().any(|p| p.check == "baseline-parse"));

        std::fs::remove_dir_all(&root).expect("cleanup");
        let mut report = ConsistencyReport::default();
        check_baselines(&root, &mut report);
        assert_eq!(report.checks_run, 0, "no baseline, nothing to check");
    }

    #[test]
    fn waiver_check_skips_trees_without_waivers() {
        let sources = vec![("crates/x/src/a.rs".to_owned(), "pub fn f() {}\n".to_owned())];
        let mut report = ConsistencyReport::default();
        check_waivers(&sources, &mut report);
        assert_eq!(report.checks_run, 0);
        assert!(report.problems.is_empty());
    }

    #[test]
    fn unmapped_waiver_files_are_flagged() {
        let sources = vec![(
            "crates/x/src/mystery.rs".to_owned(),
            format!("fn f() {{}} // audit:allow({NO_ALLOC_RULE}) reviewed: test\n"),
        )];
        let mut report = ConsistencyReport::default();
        check_waivers(&sources, &mut report);
        assert!(
            report
                .problems
                .iter()
                .any(|p| p.check == "waiver-span" && p.subject.ends_with("mystery.rs")),
            "{:?}",
            report.problems
        );
    }

    #[test]
    fn loose_budgets_are_flagged_and_tightened() {
        let root = std::env::temp_dir().join("mc3-audit-consistency-tighten-ws");
        let src_dir = root.join("crates/x/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(
            src_dir.join("a.rs"),
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .expect("write src");
        std::fs::write(
            root.join("lint.allow"),
            "# budgets\nno-unwrap-in-lib crates/x/src/a.rs 5\nno-float-eq crates/x/src/a.rs 2\n",
        )
        .expect("write allowlist");

        // Without tightening: two loose ceilings (1 actual vs 5, 0 vs 2).
        let rep = check(&root, false).expect("consistency run");
        let loose: Vec<&Problem> = rep
            .problems
            .iter()
            .filter(|p| p.check == "budget-loose")
            .collect();
        assert_eq!(loose.len(), 2, "{:?}", rep.problems);

        // With tightening: rewritten to 1, zero-count line deleted.
        let rep = check(&root, true).expect("tighten run");
        assert!(rep.problems.iter().all(|p| p.check != "budget-loose"));
        assert_eq!(rep.tightened.len(), 2, "{:?}", rep.tightened);
        let new = std::fs::read_to_string(root.join("lint.allow")).expect("reread");
        assert!(new.contains("# budgets"), "comments survive: {new}");
        assert!(
            new.contains("no-unwrap-in-lib crates/x/src/a.rs 1"),
            "{new}"
        );
        assert!(
            !new.contains("no-float-eq"),
            "zero-count line deleted: {new}"
        );

        // A second run is now clean on the budget checks.
        let rep = check(&root, false).expect("second run");
        assert!(
            rep.problems.iter().all(|p| !p.check.starts_with("budget")),
            "{:?}",
            rep.problems
        );
    }

    #[test]
    fn stale_budget_paths_are_flagged() {
        let root = std::env::temp_dir().join("mc3-audit-consistency-stale-ws");
        std::fs::create_dir_all(root.join("crates")).expect("mkdir");
        std::fs::write(
            root.join("lint.allow"),
            "no-unwrap-in-lib crates/gone/src/a.rs 3\n",
        )
        .expect("write allowlist");
        let rep = check(&root, false).expect("consistency run");
        assert!(
            rep.problems.iter().any(|p| p.check == "budget-path"),
            "{:?}",
            rep.problems
        );
    }
}
