//! Command implementations; each returns its textual output so tests can
//! assert on it without process spawning.

use crate::args::{Cli, Command, GeneratorKind, USAGE};
use crate::solution_io::SolutionFile;
use mc3_core::InstanceStats;
use mc3_solver::Mc3Solver;
use mc3_workload::{generate_dataset, read_dataset_json, write_dataset_json, Dataset};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Read;

/// Runs a parsed CLI invocation; returns the report to print.
pub fn run(cli: &Cli) -> Result<String, String> {
    match &cli.command {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Generate {
            kind,
            queries,
            seed,
            out,
        } => generate(*kind, *queries, *seed, out),
        Command::Stats { dataset } => stats(dataset),
        Command::Solve {
            dataset,
            algorithm,
            no_preprocess,
            no_refine,
            max_classifier_len,
            out,
            trace,
            chrome,
        } => solve(
            dataset,
            *algorithm,
            *no_preprocess,
            *no_refine,
            *max_classifier_len,
            out.as_deref(),
            trace.as_ref(),
            chrome.as_deref(),
        ),
        Command::Profile {
            dataset,
            kind,
            queries,
            seed,
            algorithm,
            json,
            chrome,
            prom,
            top,
            mem,
        } => profile(
            dataset.as_deref(),
            *kind,
            *queries,
            *seed,
            *algorithm,
            json.as_deref(),
            chrome.as_deref(),
            prom.as_deref(),
            *top,
            *mem,
        ),
        Command::BenchGate {
            baseline,
            candidate,
            update,
            wall_tol,
            kind,
            queries,
            seed,
            algorithm,
        } => bench_gate(
            baseline,
            candidate.as_deref(),
            *update,
            *wall_tol,
            *kind,
            *queries,
            *seed,
            *algorithm,
        ),
        Command::Verify { dataset, solution } => verify(dataset, solution),
        Command::Audit { dataset, solution } => audit(dataset, solution),
        Command::Parse {
            queries,
            uniform_cost,
            cost_range,
            seed,
            out,
        } => parse_cmd(queries, *uniform_cost, *cost_range, *seed, out),
        Command::Compare { dataset } => compare(dataset),
        Command::Serve {
            addr,
            cache_mb,
            solve_threads,
        } => {
            let cfg = mc3_server::ServerConfig {
                addr: addr.clone(),
                cache_mb: *cache_mb,
                solve_threads: *solve_threads,
            };
            let server = mc3_server::Server::start(&cfg)?;
            // Announce before blocking: `join` does not return while the
            // server runs, and scripts need the resolved port.
            println!("mc3 serve: listening on http://{}", server.local_addr());
            server.join()
        }
        Command::Loadgen {
            addr,
            duration_secs,
            concurrency,
            mix,
            slo_p99_ms,
        } => {
            let mix = match mix {
                Some(spec) => mc3_workload::RequestMix::parse(spec)?,
                None => mc3_workload::RequestMix::pinned(),
            };
            let cfg = mc3_server::LoadgenConfig {
                addr: addr.clone(),
                duration_secs: *duration_secs,
                concurrency: *concurrency,
                mix,
                slo_p99_ms: *slo_p99_ms,
            };
            mc3_server::run_loadgen(&cfg)
        }
    }
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_dataset_json(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn write_out(path: &str, content: &str) -> Result<String, String> {
    if path == "-" {
        Ok(content.to_owned())
    } else {
        std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        Ok(format!("wrote {path}\n"))
    }
}

fn generate(kind: GeneratorKind, queries: usize, seed: u64, out: &str) -> Result<String, String> {
    let ds = generate_dataset(kind, queries, seed);
    let mut buf = Vec::new();
    write_dataset_json(&ds, &mut buf).map_err(|e| e.to_string())?;
    let json = String::from_utf8(buf).map_err(|e| e.to_string())?;
    let mut report = write_out(out, &json)?;
    if out != "-" {
        let _ = writeln!(
            report,
            "generated '{}': {} queries, {} properties, k = {}",
            ds.name,
            ds.instance.num_queries(),
            ds.instance.num_properties(),
            ds.instance.max_query_len()
        );
    }
    Ok(report)
}

fn stats(path: &str) -> Result<String, String> {
    let ds = load_dataset(path)?;
    let stats = InstanceStats::gather(&ds.instance);
    let mut out = String::new();
    let _ = writeln!(out, "dataset:            {}", ds.name);
    let _ = writeln!(out, "queries (n):        {}", stats.num_queries);
    let _ = writeln!(out, "properties |P|:     {}", stats.num_properties);
    let _ = writeln!(out, "max query len (k):  {}", stats.max_query_len);
    let _ = writeln!(out, "classifiers |C_Q|:  {}", stats.num_classifiers);
    let _ = writeln!(out, "incidence (I):      {}", stats.max_incidence);
    let _ = writeln!(out, "sum of lengths n̂:   {}", stats.sum_query_lens);
    let _ = writeln!(
        out,
        "short queries (≤2): {:.1}%",
        100.0 * stats.short_query_fraction()
    );
    let _ = writeln!(
        out,
        "Theorem 5.3 guarantee for MC3[G]: {:.2}×",
        stats.approximation_guarantee()
    );
    let _ = writeln!(out, "length histogram:   {:?}", stats.length_histogram);
    Ok(out)
}

/// Serializes a telemetry report to pretty JSON and re-parses it through
/// `mc3_core::json` + the strict [`TelemetryReport::from_json`] reader, so
/// every emitted trace is guaranteed to round-trip (schema drift fails the
/// command, not a later consumer).
fn telemetry_json_checked(tel: &mc3_telemetry::TelemetryReport) -> Result<String, String> {
    let json = tel.to_json().to_string_pretty();
    let parsed = mc3_core::json::parse(&json)
        .map_err(|e| format!("telemetry JSON does not parse back: {e}"))?;
    let back = mc3_telemetry::TelemetryReport::from_json(&parsed)
        .map_err(|e| format!("telemetry JSON failed the schema check: {e}"))?;
    if &back != tel {
        return Err("telemetry JSON round-trip changed the report".to_owned());
    }
    Ok(json)
}

#[allow(clippy::too_many_arguments)]
fn solve(
    dataset: &str,
    algorithm: mc3_solver::Algorithm,
    no_preprocess: bool,
    no_refine: bool,
    max_classifier_len: Option<usize>,
    out: Option<&str>,
    trace: Option<&Option<String>>,
    chrome: Option<&str>,
) -> Result<String, String> {
    let ds = load_dataset(dataset)?;
    let mut solver = Mc3Solver::new().algorithm(algorithm);
    if no_preprocess {
        solver = solver.without_preprocessing();
    }
    if no_refine {
        solver = solver.without_refinement();
    }
    if let Some(kp) = max_classifier_len {
        solver = solver.max_classifier_len(kp);
    }
    let session = (trace.is_some() || chrome.is_some()).then(mc3_telemetry::Session::begin);
    let report = solver
        .solve_report(&ds.instance)
        .map_err(|e| format!("solve failed: {e}"))?;
    let tel = session.map(mc3_telemetry::Session::finish);
    report
        .solution
        .verify(&ds.instance)
        .map_err(|e| format!("internal error — solution failed verification: {e}"))?;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "algorithm {:?}: cost {} with {} classifiers ({} components, {:.3}s total)",
        algorithm,
        report.solution.cost(),
        report.solution.len(),
        report.components,
        report.timings.total.as_secs_f64()
    );
    let _ = writeln!(
        text,
        "preprocessing: {} selected, {} removed, {} queries closed",
        report.preprocess_stats.selected,
        report.preprocess_stats.removed_by_decomposition
            + report.preprocess_stats.removed_by_singleton_pruning,
        report.preprocess_stats.covered_queries
    );
    if let Some(path) = out {
        let json = SolutionFile::from_solution(&report.solution)
            .to_json()
            .to_string_pretty();
        text.push_str(&write_out(path, &json)?);
    }
    if let Some(tel) = tel {
        match trace {
            Some(Some(path)) => {
                let json = telemetry_json_checked(&tel)?;
                text.push_str(&write_out(path, &json)?);
            }
            Some(None) => {
                text.push('\n');
                text.push_str(&tel.render());
            }
            None => {}
        }
        if let Some(path) = chrome {
            let json = mc3_obs::chrome_trace_json(&tel).to_string_pretty();
            text.push_str(&write_out(path, &json)?);
        }
    }
    Ok(text)
}

/// `mc3 profile`: solve a dataset (or a generated workload) under a
/// telemetry session and print the span tree plus the busiest counters —
/// or, with `--mem`, the allocation flame view.
#[allow(clippy::too_many_arguments)]
fn profile(
    dataset: Option<&str>,
    kind: GeneratorKind,
    queries: usize,
    seed: u64,
    algorithm: mc3_solver::Algorithm,
    json: Option<&str>,
    chrome: Option<&str>,
    prom: Option<&str>,
    top: usize,
    mem: bool,
) -> Result<String, String> {
    let ds = match dataset {
        Some(path) => load_dataset(path)?,
        None => generate_dataset(kind, queries, seed),
    };
    let session = mc3_telemetry::Session::begin();
    let report = Mc3Solver::new()
        .algorithm(algorithm)
        .solve_report(&ds.instance)
        .map_err(|e| format!("solve failed: {e}"))?;
    let tel = session.finish();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "profile of '{}' ({} queries, k = {}) with {:?}:",
        ds.name,
        ds.instance.num_queries(),
        ds.instance.max_query_len(),
        algorithm
    );
    let _ = writeln!(
        text,
        "cost {} with {} classifiers in {:.3}s\n",
        report.solution.cost(),
        report.solution.len(),
        report.timings.total.as_secs_f64()
    );
    if mem {
        text.push_str(&tel.render_mem());
    } else {
        text.push_str(&tel.render_top(top));
        match tel.peak_rss_bytes {
            Some(rss) => {
                let _ = writeln!(text, "peak rss (process): {rss} bytes");
            }
            None => {
                let _ = writeln!(text, "peak rss (process): not measured on this platform");
            }
        }
    }
    if let Some(path) = json {
        let json = telemetry_json_checked(&tel)?;
        text.push_str(&write_out(path, &json)?);
    }
    if let Some(path) = chrome {
        let json = mc3_obs::chrome_trace_json(&tel).to_string_pretty();
        text.push_str(&write_out(path, &json)?);
    }
    if let Some(path) = prom {
        text.push_str(&write_out(path, &mc3_obs::prometheus_text(&tel))?);
    }
    Ok(text)
}

/// Runs the deterministic workload a baseline pins and returns the
/// telemetry report the solve produced. The solve cache stays off:
/// memoization skips whole component solves, so a warm cache would make
/// gated counters depend on request history.
fn run_workload_spec(
    spec: &mc3_obs::WorkloadSpec,
) -> Result<mc3_telemetry::TelemetryReport, String> {
    let kind = GeneratorKind::parse(&spec.kind)?;
    let algorithm = mc3_solver::Algorithm::parse_name(&spec.algorithm)?;
    let ds = generate_dataset(kind, spec.queries as usize, spec.seed);
    let session = mc3_telemetry::Session::begin();
    Mc3Solver::new()
        .algorithm(algorithm)
        .solve_report(&ds.instance)
        .map_err(|e| format!("solve failed: {e}"))?;
    Ok(session.finish())
}

/// `mc3 bench-gate`: compare a candidate `TelemetryReport` against a
/// checked-in baseline (or re-record the baseline with `--update`).
#[allow(clippy::too_many_arguments)]
fn bench_gate(
    baseline_path: &str,
    candidate: Option<&str>,
    update: bool,
    wall_tol: Option<f64>,
    kind: Option<GeneratorKind>,
    queries: Option<u64>,
    seed: Option<u64>,
    algorithm: Option<mc3_solver::Algorithm>,
) -> Result<String, String> {
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("cannot read {baseline_path}: {e}")),
    };
    let baseline_json = baseline_text
        .as_deref()
        .map(|text| {
            mc3_core::json::parse(text).map_err(|e| format!("cannot parse {baseline_path}: {e}"))
        })
        .transpose()?;

    if update {
        // Only the workload pin is needed from the old file — its report may
        // legitimately fail the strict schema check (counters registered
        // since it was recorded are exactly what --update refreshes).
        let prev_spec = baseline_json
            .as_ref()
            .map(|json| {
                mc3_obs::BaselineFile::spec_from_json(json)
                    .map_err(|e| format!("invalid baseline {baseline_path}: {e}"))
            })
            .transpose()?;
        // flag > existing baseline > default, per field
        let prev = prev_spec.as_ref();
        let spec = mc3_obs::WorkloadSpec {
            kind: kind
                .map(|k| k.name().to_owned())
                .or_else(|| prev.map(|s| s.kind.clone()))
                .unwrap_or_else(|| GeneratorKind::Synthetic.name().to_owned()),
            queries: queries.or(prev.map(|s| s.queries)).unwrap_or(400),
            seed: seed.or(prev.map(|s| s.seed)).unwrap_or(7),
            algorithm: algorithm
                .map(|a| a.name().to_owned())
                .or_else(|| prev.map(|s| s.algorithm.clone()))
                .unwrap_or_else(|| mc3_solver::Algorithm::ShortFirst.name().to_owned()),
        };
        let report = run_workload_spec(&spec)?;
        let file = mc3_obs::BaselineFile { spec, report };
        std::fs::write(baseline_path, file.to_json().to_string_pretty())
            .map_err(|e| format!("cannot write {baseline_path}: {e}"))?;
        return Ok(format!(
            "recorded baseline '{}' ({} queries, seed {}, algorithm {}) to {baseline_path}\n",
            file.spec.kind, file.spec.queries, file.spec.seed, file.spec.algorithm
        ));
    }

    let baseline = match &baseline_json {
        Some(json) => mc3_obs::BaselineFile::from_json(json)
            .map_err(|e| format!("invalid baseline {baseline_path}: {e}"))?,
        None => {
            return Err(format!(
                "baseline {baseline_path} does not exist (record one with --update)"
            ))
        }
    };
    let cand_report = match candidate {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read candidate {path}: {e}"))?;
            let json = mc3_core::json::parse(&text)
                .map_err(|e| format!("cannot parse candidate {path}: {e}"))?;
            mc3_telemetry::TelemetryReport::from_json(&json)
                .map_err(|e| format!("invalid candidate report {path}: {e}"))?
        }
        None => run_workload_spec(&baseline.spec)?,
    };
    let mut cfg = mc3_obs::GateConfig::default();
    if let Some(t) = wall_tol {
        cfg.wall_tol = t;
    }
    let outcome = mc3_obs::compare(&baseline.report, &cand_report, &cfg);
    let text = outcome.render();
    if outcome.passed() {
        Ok(format!("{text}bench-gate: PASS\n"))
    } else {
        Err(format!("{text}bench-gate: FAIL"))
    }
}

fn verify(dataset: &str, solution: &str) -> Result<String, String> {
    let ds = load_dataset(dataset)?;
    let mut json = String::new();
    File::open(solution)
        .map_err(|e| format!("cannot open {solution}: {e}"))?
        .read_to_string(&mut json)
        .map_err(|e| e.to_string())?;
    let file =
        SolutionFile::from_json_str(&json).map_err(|e| format!("cannot parse {solution}: {e}"))?;
    let sol = file
        .into_solution(&ds.instance)
        .map_err(|e| format!("invalid solution: {e}"))?;
    sol.verify(&ds.instance)
        .map_err(|e| format!("solution does NOT cover the query load: {e}"))?;
    Ok(format!(
        "OK: {} classifiers cover all {} queries at cost {}\n",
        sol.len(),
        ds.instance.num_queries(),
        sol.cost()
    ))
}

/// `mc3 audit`: verify a solution file against an instance end to end and
/// print its cover certificate (per-query witnesses, cost, bound status).
fn audit(dataset: &str, solution: &str) -> Result<String, String> {
    let ds = load_dataset(dataset)?;
    let mut json = String::new();
    File::open(solution)
        .map_err(|e| format!("cannot open {solution}: {e}"))?
        .read_to_string(&mut json)
        .map_err(|e| e.to_string())?;
    let file =
        SolutionFile::from_json_str(&json).map_err(|e| format!("cannot parse {solution}: {e}"))?;
    let sol = file
        .into_solution(&ds.instance)
        .map_err(|e| format!("invalid solution: {e}"))?;
    let cert = mc3_core::Certificate::for_solution(&ds.instance, &sol)
        .map_err(|e| format!("certificate construction failed: {e}"))?;
    cert.verify(&ds.instance, &sol)
        .map_err(|e| format!("certificate verification failed: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "certificate for '{}' on '{}':", solution, ds.name);
    out.push_str(&cert.render());
    let _ = writeln!(out, "verdict: VALID");
    Ok(out)
}

fn parse_cmd(
    queries_path: &str,
    uniform_cost: Option<u64>,
    cost_range: Option<(u64, u64)>,
    seed: u64,
    out: &str,
) -> Result<String, String> {
    let text = std::fs::read_to_string(queries_path)
        .map_err(|e| format!("cannot read {queries_path}: {e}"))?;
    let (queries, interner) =
        mc3_core::parse_queries(&text).map_err(|e| format!("cannot parse queries: {e}"))?;
    let weights = match (uniform_cost, cost_range) {
        (Some(c), None) => mc3_core::Weights::uniform(c),
        (None, Some((lo, hi))) => mc3_core::Weights::seeded(seed, lo, hi),
        (None, None) => mc3_core::Weights::uniform(1u64),
        (Some(_), Some(_)) => unreachable!("rejected during arg parsing"),
    };
    let instance = mc3_core::Instance::from_propsets(queries, weights)
        .map_err(|e| format!("invalid query load: {e}"))?;
    let name = std::path::Path::new(queries_path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "parsed".to_owned());
    let ds = Dataset::new(name, instance);
    let mut buf = Vec::new();
    write_dataset_json(&ds, &mut buf).map_err(|e| e.to_string())?;
    let json = String::from_utf8(buf).map_err(|e| e.to_string())?;
    let mut report = write_out(out, &json)?;
    if out != "-" {
        let _ = writeln!(
            report,
            "parsed {} queries over {} properties",
            ds.instance.num_queries(),
            interner.len()
        );
    }
    Ok(report)
}

fn compare(path: &str) -> Result<String, String> {
    use mc3_solver::Algorithm;
    let ds = load_dataset(path)?;
    let short = ds.instance.is_short();
    let uniform = matches!(ds.instance.weights(), mc3_core::Weights::Uniform(_));
    let mut algorithms: Vec<(&str, Algorithm)> = vec![("MC3 (auto)", Algorithm::Auto)];
    if !short {
        algorithms.push(("Short-First", Algorithm::ShortFirst));
    }
    algorithms.push(("Local-Greedy", Algorithm::LocalGreedy));
    algorithms.push(("Query-Oriented", Algorithm::QueryOriented));
    algorithms.push(("Property-Oriented", Algorithm::PropertyOriented));
    if short && uniform {
        algorithms.push(("Mixed [13]", Algorithm::Mixed));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>9}",
        "algorithm", "cost", "classifiers", "time"
    );
    for (label, alg) in algorithms {
        let report = Mc3Solver::new()
            .algorithm(alg)
            .solve_report(&ds.instance)
            .map_err(|e| format!("{label} failed: {e}"))?;
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>8.3}s",
            label,
            report.solution.cost().to_string(),
            report.solution.len(),
            report.timings.total.as_secs_f64()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mc3_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_stats_solve_verify_pipeline() {
        let data = tmp("pipeline.json");
        let solution = tmp("pipeline_solution.json");

        let cli = Cli::parse([
            "generate",
            "--kind",
            "bestbuy",
            "--queries",
            "120",
            "--seed",
            "3",
            "--out",
            &data,
        ])
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("120 queries"), "{out}");

        let out = run(&Cli::parse(["stats", &data]).unwrap()).unwrap();
        assert!(out.contains("queries (n):        120"), "{out}");

        let out =
            run(&Cli::parse(["solve", &data, "--algorithm", "auto", "--out", &solution]).unwrap())
                .unwrap();
        assert!(out.contains("cost"), "{out}");

        let out = run(&Cli::parse(["verify", &data, &solution]).unwrap()).unwrap();
        assert!(out.starts_with("OK:"), "{out}");

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&solution).ok();
    }

    #[test]
    fn solve_to_stdout() {
        let data = tmp("stdout.json");
        run(&Cli::parse([
            "generate",
            "--kind",
            "synthetic-short",
            "--queries",
            "50",
            "--out",
            &data,
        ])
        .unwrap())
        .unwrap();
        let out = run(&Cli::parse(["solve", &data, "--out", "-"]).unwrap()).unwrap();
        assert!(out.contains("\"classifiers\""), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let err = run(&Cli::parse(["stats", "/nonexistent/x.json"]).unwrap()).unwrap_err();
        assert!(err.contains("cannot open"));
    }

    #[test]
    fn verify_rejects_tampered_solution() {
        let data = tmp("tamper.json");
        let solution = tmp("tamper_solution.json");
        run(&Cli::parse([
            "generate",
            "--kind",
            "bestbuy",
            "--queries",
            "40",
            "--out",
            &data,
        ])
        .unwrap())
        .unwrap();
        run(&Cli::parse(["solve", &data, "--out", &solution]).unwrap()).unwrap();
        // tamper: drop one classifier
        let mut file =
            SolutionFile::from_json_str(&std::fs::read_to_string(&solution).unwrap()).unwrap();
        let dropped = file.classifiers.pop().unwrap();
        file.cost -= 1; // uniform cost 1 per classifier in BB
        std::fs::write(&solution, file.to_json().to_string()).unwrap();
        let err = run(&Cli::parse(["verify", &data, &solution]).unwrap()).unwrap_err();
        assert!(
            err.contains("does NOT cover") || err.contains("invalid solution"),
            "unexpected: {err} (dropped {dropped:?})"
        );
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&solution).ok();
    }

    #[test]
    fn parse_then_compare_pipeline() {
        let queries = tmp("load.txt");
        let data = tmp("load.json");
        std::fs::write(
            &queries,
            "team=Juventus AND color=White AND brand=Adidas\nteam=Chelsea AND brand=Adidas\nbrand=Adidas",
        )
        .unwrap();
        let out = run(&Cli::parse([
            "parse",
            &queries,
            "--cost-range",
            "1..9",
            "--seed",
            "4",
            "--out",
            &data,
        ])
        .unwrap())
        .unwrap();
        assert!(out.contains("parsed 3 queries over 4 properties"), "{out}");
        let out = run(&Cli::parse(["compare", &data]).unwrap()).unwrap();
        assert!(out.contains("MC3 (auto)"), "{out}");
        assert!(out.contains("Property-Oriented"), "{out}");
        std::fs::remove_file(&queries).ok();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn parse_rejects_conflicting_cost_flags() {
        assert!(Cli::parse([
            "parse",
            "x.txt",
            "--uniform-cost",
            "1",
            "--cost-range",
            "1..5",
            "--out",
            "-",
        ])
        .is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&Cli::parse(["help"]).unwrap()).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn solve_trace_writes_a_parseable_report() {
        let data = tmp("trace.json");
        let trace = tmp("trace_out.json");
        run(&Cli::parse([
            "generate",
            "--kind",
            "synthetic",
            "--queries",
            "60",
            "--seed",
            "5",
            "--out",
            &data,
        ])
        .unwrap())
        .unwrap();
        let arg = format!("--trace={trace}");
        let out = run(&Cli::parse(["solve", &data, &arg]).unwrap()).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let json = mc3_core::json::parse(&text).unwrap();
        let tel = mc3_telemetry::TelemetryReport::from_json(&json).unwrap();
        assert!(
            tel.spans.iter().any(|s| s.name == "solve"),
            "{}",
            tel.render()
        );
        // bare --trace prints the tree instead of writing a file
        let out = run(&Cli::parse(["solve", &data, "--trace"]).unwrap()).unwrap();
        assert!(out.contains("solve"), "{out}");
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn profile_exports_chrome_and_prometheus() {
        let chrome = tmp("profile_chrome.json");
        let prom = tmp("profile_metrics.prom");
        let out = run(&Cli::parse([
            "profile",
            "--queries",
            "60",
            "--seed",
            "2",
            "--chrome",
            &chrome,
            "--prom",
            &prom,
        ])
        .unwrap())
        .unwrap();
        assert!(out.contains("profile of"), "{out}");
        let text = std::fs::read_to_string(&chrome).unwrap();
        let json = mc3_core::json::parse(&text).unwrap();
        let events = json.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")),
            "{text}"
        );
        let metrics = std::fs::read_to_string(&prom).unwrap();
        assert!(
            metrics.contains("# TYPE mc3_greedy_iterations_total counter"),
            "{metrics}"
        );
        std::fs::remove_file(&chrome).ok();
        std::fs::remove_file(&prom).ok();
    }

    #[test]
    fn solve_chrome_writes_trace_events() {
        let data = tmp("solve_chrome_data.json");
        let chrome = tmp("solve_chrome.json");
        run(&Cli::parse([
            "generate",
            "--kind",
            "synthetic",
            "--queries",
            "50",
            "--seed",
            "5",
            "--out",
            &data,
        ])
        .unwrap())
        .unwrap();
        let out = run(&Cli::parse(["solve", &data, "--chrome", &chrome]).unwrap()).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let text = std::fs::read_to_string(&chrome).unwrap();
        assert!(mc3_core::json::parse(&text).is_ok(), "{text}");
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&chrome).ok();
    }

    #[test]
    fn bench_gate_update_then_pass_then_inflated_fail() {
        let baseline = tmp("bench_gate_baseline.json");
        std::fs::remove_file(&baseline).ok();

        // gating against a missing baseline is an error
        let err = run(&Cli::parse(["bench-gate", "--baseline", &baseline]).unwrap()).unwrap_err();
        assert!(err.contains("--update"), "{err}");

        // record a small deterministic baseline
        let out = run(&Cli::parse([
            "bench-gate",
            "--baseline",
            &baseline,
            "--update",
            "--queries",
            "80",
            "--seed",
            "3",
            "--algorithm",
            "short-first",
        ])
        .unwrap())
        .unwrap();
        assert!(out.contains("recorded baseline"), "{out}");

        // an identical candidate passes. (Gating without --candidate
        // re-runs the spec in-process; concurrent tests solving without a
        // session would bleed into its counters, so the deterministic
        // re-run path is exercised by CI, where the process runs alone.)
        let text = std::fs::read_to_string(&baseline).unwrap();
        let file =
            mc3_obs::BaselineFile::from_json(&mc3_core::json::parse(&text).unwrap()).unwrap();
        let candidate = tmp("bench_gate_candidate.json");
        std::fs::write(&candidate, file.report.to_json().to_string_pretty()).unwrap();
        let out = run(&Cli::parse([
            "bench-gate",
            "--baseline",
            &baseline,
            "--candidate",
            &candidate,
        ])
        .unwrap())
        .unwrap();
        assert!(out.contains("bench-gate: PASS"), "{out}");

        // inflate one counter 2x in the candidate: must fail, naming it
        let mut file = file;
        let (name, val) = file
            .report
            .counters
            .iter()
            .find(|(_, &v)| v > 0)
            .map(|(n, &v)| (n.clone(), v))
            .unwrap();
        file.report.counters.insert(name.clone(), val * 2);
        std::fs::write(&candidate, file.report.to_json().to_string_pretty()).unwrap();
        let err = run(&Cli::parse([
            "bench-gate",
            "--baseline",
            &baseline,
            "--candidate",
            &candidate,
            "--wall-tol",
            "1000",
        ])
        .unwrap())
        .unwrap_err();
        assert!(err.contains("bench-gate: FAIL"), "{err}");
        assert!(err.contains(&format!("counter '{name}'")), "{err}");

        std::fs::remove_file(&baseline).ok();
        std::fs::remove_file(&candidate).ok();
    }

    #[test]
    fn profile_mem_renders_the_allocation_view() {
        let out = run(&Cli::parse(["profile", "--queries", "60", "--seed", "2", "--mem"]).unwrap())
            .unwrap();
        assert!(out.contains("allocations"), "{out}");
        assert!(
            out.contains("peak live bytes (largest span root):"),
            "{out}"
        );
    }

    #[test]
    fn profile_generates_solves_and_round_trips_json() {
        let json_path = tmp("profile_tel.json");
        let out = run(&Cli::parse([
            "profile",
            "--queries",
            "80",
            "--seed",
            "3",
            "--json",
            &json_path,
            "--top",
            "6",
        ])
        .unwrap())
        .unwrap();
        assert!(out.contains("profile of"), "{out}");
        assert!(out.contains("counters (non-zero, largest first):"), "{out}");
        let text = std::fs::read_to_string(&json_path).unwrap();
        let json = mc3_core::json::parse(&text).unwrap();
        let tel = mc3_telemetry::TelemetryReport::from_json(&json).unwrap();
        assert!(tel.counters.values().any(|&v| v > 0), "{}", tel.render());
        std::fs::remove_file(&json_path).ok();
    }
}
