//! Hand-rolled argument parsing (no external CLI dependency).

use mc3_solver::Algorithm;

// The generator vocabulary lives in `mc3-workload` (shared with the
// serving-plane request mix); re-exported here so downstream users of the
// CLI crate keep a stable path.
pub use mc3_workload::GeneratorKind;

/// A parsed CLI invocation.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
}

/// The `mc3` subcommands.
#[derive(Debug, Clone)]
pub enum Command {
    /// `mc3 generate --kind K --queries N [--seed S] --out FILE`
    Generate {
        /// Generator to use.
        kind: GeneratorKind,
        /// Number of queries.
        queries: usize,
        /// RNG seed.
        seed: u64,
        /// Output JSON path (`-` = stdout).
        out: String,
    },
    /// `mc3 stats FILE`
    Stats {
        /// Dataset JSON path.
        dataset: String,
    },
    /// `mc3 solve FILE [--algorithm A] [--no-preprocess] [--no-refine]
    /// [--parallel] [--max-classifier-len K] [--out FILE]`
    Solve {
        /// Dataset JSON path.
        dataset: String,
        /// Algorithm to run.
        algorithm: Algorithm,
        /// Disable Algorithm 1.
        no_preprocess: bool,
        /// Disable reverse-delete refinement.
        no_refine: bool,
        /// Solve components in parallel.
        parallel: bool,
        /// Bounded classifier length `k'`.
        max_classifier_len: Option<usize>,
        /// Worker count for the shared solve executor under `--parallel`
        /// (0 = one per available core).
        threads: usize,
        /// Optional solution output path (`-` = stdout).
        out: Option<String>,
        /// Telemetry trace: `None` = off, `Some(None)` = print the span
        /// tree, `Some(Some(path))` = write the `TelemetryReport` JSON.
        trace: Option<Option<String>>,
        /// Chrome trace-event JSON output path.
        chrome: Option<String>,
    },
    /// `mc3 profile [DATASET.json] [--kind K] [--queries N] [--seed S]
    /// [--algorithm A] [--parallel] [--json FILE] [--top N] [--mem]`
    Profile {
        /// Dataset JSON path; omitted = generate a workload.
        dataset: Option<String>,
        /// Generator when no dataset is given.
        kind: GeneratorKind,
        /// Queries to generate when no dataset is given.
        queries: usize,
        /// Generator seed.
        seed: u64,
        /// Algorithm to profile.
        algorithm: Algorithm,
        /// Solve components in parallel.
        parallel: bool,
        /// Also write the `TelemetryReport` JSON here (and re-parse it as
        /// a schema self-check).
        json: Option<String>,
        /// Chrome trace-event JSON output path.
        chrome: Option<String>,
        /// Prometheus text-exposition output path.
        prom: Option<String>,
        /// How many counters to list.
        top: usize,
        /// Render the memory (allocation) flame view instead of wall time.
        mem: bool,
    },
    /// `mc3 bench-gate --baseline FILE [--candidate FILE] [--update]
    /// [--wall-tol X] [--counter-tol X] [--kind K] [--queries N] [--seed S]
    /// [--algorithm A]`
    BenchGate {
        /// Baseline JSON path (spec + known-good report).
        baseline: String,
        /// Pre-recorded candidate `TelemetryReport` JSON; omitted = re-run
        /// the baseline's workload spec.
        candidate: Option<String>,
        /// Re-record the baseline instead of gating against it.
        update: bool,
        /// Override the wall-time regression tolerance.
        wall_tol: Option<f64>,
        /// Override the counter drift tolerance.
        counter_tol: Option<f64>,
        /// Workload generator override (only meaningful with `--update`).
        kind: Option<GeneratorKind>,
        /// Workload size override (only meaningful with `--update`).
        queries: Option<u64>,
        /// Workload seed override (only meaningful with `--update`).
        seed: Option<u64>,
        /// Algorithm override (only meaningful with `--update`).
        algorithm: Option<Algorithm>,
        /// Skip the exact per-span allocation-count checks.
        no_mem: bool,
    },
    /// `mc3 verify DATASET SOLUTION`
    Verify {
        /// Dataset JSON path.
        dataset: String,
        /// Solution JSON path.
        solution: String,
    },
    /// `mc3 audit DATASET SOLUTION` — full certificate check + report.
    Audit {
        /// Dataset JSON path.
        dataset: String,
        /// Solution JSON path.
        solution: String,
    },
    /// `mc3 parse QUERIES.txt [--uniform-cost N | --cost-range LO..HI [--seed S]] --out FILE`
    Parse {
        /// Text file: one conjunctive query per line (`a AND b`).
        queries: String,
        /// Uniform classifier cost; mutually exclusive with `cost_range`.
        uniform_cost: Option<u64>,
        /// Seeded cost range `(lo, hi)`.
        cost_range: Option<(u64, u64)>,
        /// Seed for the cost range.
        seed: u64,
        /// Output dataset JSON path (`-` = stdout).
        out: String,
    },
    /// `mc3 compare DATASET` — run every applicable algorithm.
    Compare {
        /// Dataset JSON path.
        dataset: String,
    },
    /// `mc3 serve [--addr HOST:PORT] [--workers N] [--cache-mb MB]
    /// [--solve-threads N]`
    Serve {
        /// Listen address.
        addr: String,
        /// Worker threads (0 = one per available core).
        workers: usize,
        /// Solve-cache budget in MiB (0 disables both caches).
        cache_mb: usize,
        /// Shared solve-executor size (0 = one per available core).
        solve_threads: usize,
    },
    /// `mc3 loadgen [--addr HOST:PORT] [--duration SECS] [--concurrency N]
    /// [--mix SPEC] [--slo p99=MS] [--batch N]`
    Loadgen {
        /// Server address to drive.
        addr: String,
        /// Run duration in seconds.
        duration_secs: u64,
        /// Concurrent client connections.
        concurrency: usize,
        /// Workload mix spec; `None` = the pinned bench-gate mix.
        mix: Option<String>,
        /// p99 latency SLO for `/solve`, in milliseconds.
        slo_p99_ms: Option<u64>,
        /// Items per request: `N > 1` drives `POST /solve-batch`.
        batch: usize,
    },
    /// `mc3 help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
mc3 — Minimization of Classifier Construction Cost for Search Queries

USAGE:
  mc3 generate --kind <synthetic|synthetic-short|bestbuy|private|private-fashion|
                       duplicate-heavy>
               --queries <N> [--seed <S>] --out <FILE|->
  mc3 stats <DATASET.json>
  mc3 solve <DATASET.json> [--algorithm <auto|k2|general|short-first|exact|
                             property-oriented|query-oriented|mixed|local-greedy>]
            [--no-preprocess] [--no-refine] [--parallel] [--threads <N>]
            [--max-classifier-len <K>] [--out <FILE|->] [--trace[=<FILE>]]
            [--chrome <FILE>]
  mc3 profile [DATASET.json] [--kind <K>] [--queries <N>] [--seed <S>]
              [--algorithm <A>] [--parallel] [--json <FILE>] [--top <N>]
              [--chrome <FILE>] [--prom <FILE>] [--mem]
  mc3 bench-gate --baseline <FILE> [--candidate <FILE>] [--update]
                 [--wall-tol <X>] [--counter-tol <X>] [--no-mem] [--kind <K>]
                 [--queries <N>] [--seed <S>] [--algorithm <A>]
  mc3 verify <DATASET.json> <SOLUTION.json>
  mc3 audit <DATASET.json> <SOLUTION.json>
  mc3 parse <QUERIES.txt> [--uniform-cost <N> | --cost-range <LO..HI> [--seed <S>]]
            --out <FILE|->
  mc3 compare <DATASET.json>
  mc3 serve [--addr <HOST:PORT>] [--workers <N>] [--cache-mb <MB>]
            [--solve-threads <N>]
  mc3 loadgen [--addr <HOST:PORT>] [--duration <SECS>] [--concurrency <N>]
              [--mix <kind:queries:seed[:algo][xW],...>] [--slo p99=<MS>]
              [--batch <N>]
  mc3 help
";

pub(crate) fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    // The vocabulary lives on the enum itself so the server's `/solve`
    // request field and the CLI can never drift apart.
    Algorithm::parse_name(s)
}

/// The canonical CLI spelling of an algorithm (inverse of the parser).
pub(crate) fn algorithm_name(a: Algorithm) -> &'static str {
    a.name()
}

struct ArgStream {
    args: Vec<String>,
    pos: usize,
}

impl ArgStream {
    fn next(&mut self) -> Option<&str> {
        let a = self.args.get(self.pos).map(String::as_str);
        if a.is_some() {
            self.pos += 1;
        }
        a
    }

    fn value_of(&mut self, flag: &str) -> Result<String, String> {
        self.next()
            .map(str::to_owned)
            .ok_or_else(|| format!("flag {flag} requires a value"))
    }

    /// The value after `flag`, parsed as `T`; a bad value is reported as
    /// `"{flag}: {error}"`.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value_of(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }
}

impl Cli {
    /// Parses `args` (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Cli, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut s = ArgStream {
            args: args.into_iter().map(Into::into).collect(),
            pos: 0,
        };
        let Some(cmd) = s.next().map(str::to_owned) else {
            return Ok(Cli {
                command: Command::Help,
            });
        };
        let command = match cmd.as_str() {
            "help" | "--help" | "-h" => Command::Help,
            "generate" => {
                let mut kind = None;
                let mut queries = None;
                let mut seed = 0u64;
                let mut out = None;
                while let Some(flag) = s.next().map(str::to_owned) {
                    match flag.as_str() {
                        "--kind" => kind = Some(GeneratorKind::parse(&s.value_of("--kind")?)?),
                        "--queries" => queries = Some(s.parsed("--queries")?),
                        "--seed" => seed = s.parsed("--seed")?,
                        "--out" => out = Some(s.value_of("--out")?),
                        other => return Err(format!("unknown flag '{other}' for generate")),
                    }
                }
                Command::Generate {
                    kind: kind.ok_or("generate requires --kind")?,
                    queries: queries.ok_or("generate requires --queries")?,
                    seed,
                    out: out.ok_or("generate requires --out")?,
                }
            }
            "stats" => Command::Stats {
                dataset: s.next().ok_or("stats requires a dataset path")?.to_owned(),
            },
            "solve" => {
                let dataset = s.next().ok_or("solve requires a dataset path")?.to_owned();
                let mut algorithm = Algorithm::Auto;
                let mut no_preprocess = false;
                let mut no_refine = false;
                let mut parallel = false;
                let mut max_classifier_len = None;
                let mut threads = 0usize;
                let mut out = None;
                let mut trace = None;
                let mut chrome = None;
                while let Some(flag) = s.next().map(str::to_owned) {
                    match flag.as_str() {
                        "--algorithm" => algorithm = parse_algorithm(&s.value_of("--algorithm")?)?,
                        "--no-preprocess" => no_preprocess = true,
                        "--no-refine" => no_refine = true,
                        "--parallel" => parallel = true,
                        "--threads" => threads = s.parsed("--threads")?,
                        "--max-classifier-len" => {
                            max_classifier_len = Some(s.parsed("--max-classifier-len")?)
                        }
                        "--out" => out = Some(s.value_of("--out")?),
                        "--trace" => trace = Some(None),
                        other if other.starts_with("--trace=") => {
                            trace = Some(Some(other["--trace=".len()..].to_owned()))
                        }
                        "--chrome" => chrome = Some(s.value_of("--chrome")?),
                        other => return Err(format!("unknown flag '{other}' for solve")),
                    }
                }
                Command::Solve {
                    dataset,
                    algorithm,
                    no_preprocess,
                    no_refine,
                    parallel,
                    max_classifier_len,
                    threads,
                    out,
                    trace,
                    chrome,
                }
            }
            "profile" => {
                let mut dataset = None;
                let mut kind = GeneratorKind::Synthetic;
                let mut queries = 200usize;
                let mut seed = 7u64;
                let mut algorithm = Algorithm::ShortFirst;
                let mut parallel = false;
                let mut json = None;
                let mut chrome = None;
                let mut prom = None;
                let mut top = 12usize;
                let mut mem = false;
                while let Some(arg) = s.next().map(str::to_owned) {
                    match arg.as_str() {
                        "--kind" => kind = GeneratorKind::parse(&s.value_of("--kind")?)?,
                        "--queries" => queries = s.parsed("--queries")?,
                        "--seed" => seed = s.parsed("--seed")?,
                        "--algorithm" => algorithm = parse_algorithm(&s.value_of("--algorithm")?)?,
                        "--parallel" => parallel = true,
                        "--json" => json = Some(s.value_of("--json")?),
                        "--chrome" => chrome = Some(s.value_of("--chrome")?),
                        "--prom" => prom = Some(s.value_of("--prom")?),
                        "--top" => top = s.parsed("--top")?,
                        "--mem" => mem = true,
                        other if !other.starts_with("--") && dataset.is_none() => {
                            dataset = Some(other.to_owned())
                        }
                        other => return Err(format!("unknown flag '{other}' for profile")),
                    }
                }
                Command::Profile {
                    dataset,
                    kind,
                    queries,
                    seed,
                    algorithm,
                    parallel,
                    json,
                    chrome,
                    prom,
                    top,
                    mem,
                }
            }
            "bench-gate" => {
                let mut baseline = None;
                let mut candidate = None;
                let mut update = false;
                let mut wall_tol = None;
                let mut counter_tol = None;
                let mut kind = None;
                let mut queries = None;
                let mut seed = None;
                let mut algorithm = None;
                let mut no_mem = false;
                while let Some(flag) = s.next().map(str::to_owned) {
                    match flag.as_str() {
                        "--baseline" => baseline = Some(s.value_of("--baseline")?),
                        "--candidate" => candidate = Some(s.value_of("--candidate")?),
                        "--update" => update = true,
                        "--no-mem" => no_mem = true,
                        "--wall-tol" => wall_tol = Some(s.parsed("--wall-tol")?),
                        "--counter-tol" => counter_tol = Some(s.parsed("--counter-tol")?),
                        "--kind" => kind = Some(GeneratorKind::parse(&s.value_of("--kind")?)?),
                        "--queries" => queries = Some(s.parsed("--queries")?),
                        "--seed" => seed = Some(s.parsed("--seed")?),
                        "--algorithm" => {
                            algorithm = Some(parse_algorithm(&s.value_of("--algorithm")?)?)
                        }
                        other => return Err(format!("unknown flag '{other}' for bench-gate")),
                    }
                }
                if candidate.is_some() && update {
                    return Err("--candidate and --update are mutually exclusive".into());
                }
                Command::BenchGate {
                    baseline: baseline.ok_or("bench-gate requires --baseline")?,
                    candidate,
                    update,
                    wall_tol,
                    counter_tol,
                    kind,
                    queries,
                    seed,
                    algorithm,
                    no_mem,
                }
            }
            "verify" => {
                let dataset = s.next().ok_or("verify requires a dataset path")?.to_owned();
                let solution = s
                    .next()
                    .ok_or("verify requires a solution path")?
                    .to_owned();
                Command::Verify { dataset, solution }
            }
            "audit" => {
                let dataset = s.next().ok_or("audit requires a dataset path")?.to_owned();
                let solution = s.next().ok_or("audit requires a solution path")?.to_owned();
                Command::Audit { dataset, solution }
            }
            "parse" => {
                let queries = s.next().ok_or("parse requires a queries path")?.to_owned();
                let mut uniform_cost = None;
                let mut cost_range = None;
                let mut seed = 0u64;
                let mut out = None;
                while let Some(flag) = s.next().map(str::to_owned) {
                    match flag.as_str() {
                        "--uniform-cost" => uniform_cost = Some(s.parsed("--uniform-cost")?),
                        "--cost-range" => {
                            let v = s.value_of("--cost-range")?;
                            let (lo, hi) = v
                                .split_once("..")
                                .ok_or_else(|| format!("--cost-range expects LO..HI, got '{v}'"))?;
                            cost_range = Some((
                                lo.parse().map_err(|e| format!("--cost-range lo: {e}"))?,
                                hi.parse().map_err(|e| format!("--cost-range hi: {e}"))?,
                            ));
                        }
                        "--seed" => seed = s.parsed("--seed")?,
                        "--out" => out = Some(s.value_of("--out")?),
                        other => return Err(format!("unknown flag '{other}' for parse")),
                    }
                }
                if uniform_cost.is_some() && cost_range.is_some() {
                    return Err("--uniform-cost and --cost-range are mutually exclusive".into());
                }
                Command::Parse {
                    queries,
                    uniform_cost,
                    cost_range,
                    seed,
                    out: out.ok_or("parse requires --out")?,
                }
            }
            "compare" => Command::Compare {
                dataset: s
                    .next()
                    .ok_or("compare requires a dataset path")?
                    .to_owned(),
            },
            "serve" => {
                let mut addr = "127.0.0.1:7920".to_owned();
                let mut workers = 0usize;
                let mut cache_mb = 64usize;
                let mut solve_threads = 0usize;
                while let Some(flag) = s.next().map(str::to_owned) {
                    match flag.as_str() {
                        "--addr" => addr = s.value_of("--addr")?,
                        "--workers" => workers = s.parsed("--workers")?,
                        "--cache-mb" => cache_mb = s.parsed("--cache-mb")?,
                        "--solve-threads" => solve_threads = s.parsed("--solve-threads")?,
                        other => return Err(format!("unknown flag '{other}' for serve")),
                    }
                }
                Command::Serve {
                    addr,
                    workers,
                    cache_mb,
                    solve_threads,
                }
            }
            "loadgen" => {
                let mut addr = "127.0.0.1:7920".to_owned();
                let mut duration_secs = 10u64;
                let mut concurrency = 4usize;
                let mut mix = None;
                let mut slo_p99_ms = None;
                let mut batch = 1usize;
                while let Some(flag) = s.next().map(str::to_owned) {
                    match flag.as_str() {
                        "--addr" => addr = s.value_of("--addr")?,
                        "--duration" => {
                            let v = s.value_of("--duration")?;
                            let v = v.strip_suffix('s').unwrap_or(&v);
                            duration_secs = v.parse().map_err(|e| format!("--duration: {e}"))?
                        }
                        "--concurrency" => concurrency = s.parsed("--concurrency")?,
                        "--mix" => mix = Some(s.value_of("--mix")?),
                        "--batch" => batch = s.parsed("--batch")?,
                        "--slo" => {
                            let v = s.value_of("--slo")?;
                            let ms = v
                                .strip_prefix("p99=")
                                .ok_or_else(|| format!("--slo expects p99=<MS>, got '{v}'"))?;
                            let ms = ms.strip_suffix("ms").unwrap_or(ms);
                            slo_p99_ms = Some(ms.parse().map_err(|e| format!("--slo p99: {e}"))?)
                        }
                        other => return Err(format!("unknown flag '{other}' for loadgen")),
                    }
                }
                if concurrency == 0 {
                    return Err("--concurrency must be >= 1".into());
                }
                Command::Loadgen {
                    addr,
                    duration_secs,
                    concurrency,
                    mix,
                    slo_p99_ms,
                    batch,
                }
            }
            other => return Err(format!("unknown command '{other}'\n{USAGE}")),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_generate() {
        let cli = Cli::parse([
            "generate",
            "--kind",
            "bestbuy",
            "--queries",
            "500",
            "--seed",
            "9",
            "--out",
            "x.json",
        ])
        .unwrap();
        match cli.command {
            Command::Generate {
                kind,
                queries,
                seed,
                out,
            } => {
                assert_eq!(kind, GeneratorKind::BestBuy);
                assert_eq!(queries, 500);
                assert_eq!(seed, 9);
                assert_eq!(out, "x.json");
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_solve_with_flags() {
        let cli = Cli::parse([
            "solve",
            "d.json",
            "--algorithm",
            "short-first",
            "--no-preprocess",
            "--parallel",
            "--threads",
            "3",
            "--max-classifier-len",
            "2",
        ])
        .unwrap();
        match cli.command {
            Command::Solve {
                dataset,
                algorithm,
                no_preprocess,
                parallel,
                threads,
                max_classifier_len,
                ..
            } => {
                assert_eq!(dataset, "d.json");
                assert_eq!(algorithm, Algorithm::ShortFirst);
                assert!(no_preprocess);
                assert!(parallel);
                assert_eq!(threads, 3);
                assert_eq!(max_classifier_len, Some(2));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // --threads defaults to 0 (auto) and rejects non-numbers.
        let cli = Cli::parse(["solve", "d.json", "--parallel"]).unwrap();
        assert!(matches!(cli.command, Command::Solve { threads: 0, .. }));
        assert!(Cli::parse(["solve", "d.json", "--threads", "many"]).is_err());
    }

    #[test]
    fn parses_solve_trace_variants() {
        let cli = Cli::parse(["solve", "d.json"]).unwrap();
        assert!(matches!(cli.command, Command::Solve { trace: None, .. }));
        let cli = Cli::parse(["solve", "d.json", "--trace"]).unwrap();
        assert!(matches!(
            cli.command,
            Command::Solve {
                trace: Some(None),
                ..
            }
        ));
        let cli = Cli::parse(["solve", "d.json", "--trace=t.json"]).unwrap();
        match cli.command {
            Command::Solve { trace, .. } => assert_eq!(trace, Some(Some("t.json".to_owned()))),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_profile_defaults_and_flags() {
        let cli = Cli::parse(["profile"]).unwrap();
        match cli.command {
            Command::Profile {
                dataset,
                kind,
                queries,
                seed,
                algorithm,
                parallel,
                json,
                chrome,
                prom,
                top,
                mem,
            } => {
                assert_eq!(dataset, None);
                assert_eq!(kind, GeneratorKind::Synthetic);
                assert_eq!(queries, 200);
                assert_eq!(seed, 7);
                assert_eq!(algorithm, Algorithm::ShortFirst);
                assert!(!parallel);
                assert_eq!(json, None);
                assert_eq!(chrome, None);
                assert_eq!(prom, None);
                assert_eq!(top, 12);
                assert!(!mem);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse([
            "profile",
            "d.json",
            "--algorithm",
            "general",
            "--parallel",
            "--json",
            "tel.json",
            "--top",
            "5",
            "--mem",
        ])
        .unwrap();
        match cli.command {
            Command::Profile {
                dataset,
                algorithm,
                parallel,
                json,
                top,
                mem,
                ..
            } => {
                assert_eq!(dataset.as_deref(), Some("d.json"));
                assert_eq!(algorithm, Algorithm::General);
                assert!(parallel);
                assert_eq!(json.as_deref(), Some("tel.json"));
                assert_eq!(top, 5);
                assert!(mem);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(Cli::parse(["profile", "--frob"]).is_err());
        assert!(Cli::parse(["profile", "a.json", "b.json"]).is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(Cli::parse(["generate", "--queries", "5"]).is_err());
        assert!(Cli::parse(["stats"]).is_err());
        assert!(Cli::parse(["verify", "only-one"]).is_err());
        assert!(Cli::parse([
            "generate",
            "--kind",
            "weird",
            "--queries",
            "5",
            "--out",
            "x"
        ])
        .is_err());
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(Cli::parse(["frobnicate"]).is_err());
        assert!(matches!(
            Cli::parse(["help"]).unwrap().command,
            Command::Help
        ));
        assert!(matches!(
            Cli::parse(Vec::<String>::new()).unwrap().command,
            Command::Help
        ));
    }

    #[test]
    fn parses_exporter_flags() {
        let cli = Cli::parse(["profile", "--chrome", "t.json", "--prom", "m.prom"]).unwrap();
        match cli.command {
            Command::Profile { chrome, prom, .. } => {
                assert_eq!(chrome.as_deref(), Some("t.json"));
                assert_eq!(prom.as_deref(), Some("m.prom"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(["solve", "d.json", "--chrome", "t.json"]).unwrap();
        match cli.command {
            Command::Solve { chrome, .. } => assert_eq!(chrome.as_deref(), Some("t.json")),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_bench_gate() {
        let cli = Cli::parse([
            "bench-gate",
            "--baseline",
            "BENCH_baseline.json",
            "--wall-tol",
            "2.5",
            "--counter-tol",
            "0.1",
        ])
        .unwrap();
        match cli.command {
            Command::BenchGate {
                baseline,
                candidate,
                update,
                wall_tol,
                counter_tol,
                no_mem,
                ..
            } => {
                assert_eq!(baseline, "BENCH_baseline.json");
                assert_eq!(candidate, None);
                assert!(!update);
                assert_eq!(wall_tol, Some(2.5));
                assert_eq!(counter_tol, Some(0.1));
                assert!(!no_mem);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse([
            "bench-gate",
            "--baseline",
            "b.json",
            "--update",
            "--kind",
            "bestbuy",
            "--queries",
            "300",
            "--seed",
            "11",
            "--algorithm",
            "auto",
            "--no-mem",
        ])
        .unwrap();
        match cli.command {
            Command::BenchGate {
                update,
                kind,
                queries,
                seed,
                algorithm,
                no_mem,
                ..
            } => {
                assert!(update);
                assert_eq!(kind, Some(GeneratorKind::BestBuy));
                assert_eq!(queries, Some(300));
                assert_eq!(seed, Some(11));
                assert_eq!(algorithm, Some(Algorithm::Auto));
                assert!(no_mem);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // --baseline is required; --candidate and --update conflict
        assert!(Cli::parse(["bench-gate"]).is_err());
        assert!(Cli::parse([
            "bench-gate",
            "--baseline",
            "b.json",
            "--candidate",
            "c.json",
            "--update",
        ])
        .is_err());
    }

    #[test]
    fn names_round_trip_through_parsers() {
        for kind in [
            GeneratorKind::Synthetic,
            GeneratorKind::SyntheticShort,
            GeneratorKind::BestBuy,
            GeneratorKind::Private,
            GeneratorKind::PrivateFashion,
            GeneratorKind::DuplicateHeavy,
        ] {
            assert_eq!(GeneratorKind::parse(kind.name()).unwrap(), kind);
        }
        for alg in [
            Algorithm::Auto,
            Algorithm::K2Exact,
            Algorithm::General,
            Algorithm::ShortFirst,
            Algorithm::Exact,
            Algorithm::PropertyOriented,
            Algorithm::QueryOriented,
            Algorithm::Mixed,
            Algorithm::LocalGreedy,
        ] {
            assert_eq!(parse_algorithm(algorithm_name(alg)).unwrap(), alg);
        }
    }

    #[test]
    fn parses_serve_and_loadgen() {
        let cli = Cli::parse(["serve"]).unwrap();
        match cli.command {
            Command::Serve {
                addr,
                workers,
                cache_mb,
                solve_threads,
            } => {
                assert_eq!(addr, "127.0.0.1:7920");
                assert_eq!(workers, 0);
                assert_eq!(cache_mb, 64);
                assert_eq!(solve_threads, 0);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse([
            "serve",
            "--addr",
            "0.0.0.0:8080",
            "--workers",
            "6",
            "--cache-mb",
            "128",
            "--solve-threads",
            "5",
        ])
        .unwrap();
        match cli.command {
            Command::Serve {
                addr,
                workers,
                cache_mb,
                solve_threads,
            } => {
                assert_eq!(addr, "0.0.0.0:8080");
                assert_eq!(workers, 6);
                assert_eq!(cache_mb, 128);
                assert_eq!(solve_threads, 5);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse([
            "loadgen",
            "--addr",
            "127.0.0.1:9999",
            "--duration",
            "5s",
            "--concurrency",
            "8",
            "--mix",
            "synthetic:100:7",
            "--slo",
            "p99=500ms",
            "--batch",
            "8",
        ])
        .unwrap();
        match cli.command {
            Command::Loadgen {
                addr,
                duration_secs,
                concurrency,
                mix,
                slo_p99_ms,
                batch,
            } => {
                assert_eq!(addr, "127.0.0.1:9999");
                assert_eq!(duration_secs, 5);
                assert_eq!(concurrency, 8);
                assert_eq!(mix.as_deref(), Some("synthetic:100:7"));
                assert_eq!(slo_p99_ms, Some(500));
                assert_eq!(batch, 8);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults, bare-`p99=` without the ms suffix, plain seconds.
        let cli = Cli::parse(["loadgen", "--duration", "3", "--slo", "p99=250"]).unwrap();
        match cli.command {
            Command::Loadgen {
                duration_secs,
                concurrency,
                mix,
                slo_p99_ms,
                batch,
                ..
            } => {
                assert_eq!(duration_secs, 3);
                assert_eq!(concurrency, 4);
                assert_eq!(mix, None);
                assert_eq!(slo_p99_ms, Some(250));
                assert_eq!(batch, 1);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(Cli::parse(["loadgen", "--slo", "p50=10"]).is_err());
        assert!(Cli::parse(["loadgen", "--batch", "nope"]).is_err());
        assert!(Cli::parse(["loadgen", "--concurrency", "0"]).is_err());
        assert!(Cli::parse(["serve", "--frob"]).is_err());
        // `--cache-mb 0` is the one way to turn caching off.
        assert!(Cli::parse(["serve", "--no-cache"]).is_err());
        assert!(Cli::parse(["bench-gate", "--baseline", "b.json", "--cache"]).is_err());
    }

    #[test]
    fn algorithm_aliases() {
        assert_eq!(parse_algorithm("po").unwrap(), Algorithm::PropertyOriented);
        assert_eq!(parse_algorithm("lg").unwrap(), Algorithm::LocalGreedy);
        assert!(parse_algorithm("nope").is_err());
    }
}
