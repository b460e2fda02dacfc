//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <solve-general|serve-cold|serve-repeat> --seed <n>
//!           --seconds <n> --trace <0|1> --mc3 <path to the mc3 binary>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit
//! code is non-zero when any operation failed.

mod http;
mod inputs;
mod pipeline;
mod prom;
mod report;
mod serve;
mod server;
mod solve_general;
mod stats;
mod trace;

use inputs::Workload;
use report::Outcome;
use std::path::PathBuf;

/// Set-ups timed per untraced run, before and after the timed window;
/// `setup_s` is their median. Machine speed drifts in phases lasting
/// seconds, so set-ups on both sides of the window sample more than one.
const SETUPS: (usize, usize) = (3, 4);

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mc3: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut mc3) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--mc3" => mc3 = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        mc3: mc3.ok_or("--mc3 is required")?,
    })
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    let inputs = inputs::generate(args.workload, args.seed, args.seconds);
    if !args.trace {
        return match args.workload {
            Workload::SolveGeneral => solve_general::run(&inputs),
            _ => serve::run(&args.mc3, &inputs),
        };
    }
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir)?;
    let dump = dir.join(format!("spans-{}-{}.jsonl", args.name, args.seed));
    let mut out = match args.workload {
        Workload::SolveGeneral => solve_general::run_traced(&inputs, &dump)?,
        _ => serve::run_traced(&args.mc3, &inputs, &args.name, &dump)?,
    };
    println!("span dump: {}", dump.display());
    for &(name, _) in report::PER_LAYER {
        if !out.metrics.iter().any(|m| m.0 == name) {
            out.put(name, 0.0);
        }
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print_table(&format!(
                "{} seed {} ({}):",
                args.name,
                args.seed,
                if args.trace { "traced" } else { "untraced" }
            ));
            println!("{}", out.json_line());
            if out.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
