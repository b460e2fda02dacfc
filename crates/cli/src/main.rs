//! The `mc3` command-line entry point.

/// Installs the JSONL event sink when `MC3_LOG` is set: `MC3_LOG=debug`
/// writes events to stderr (stdout stays reserved for command output),
/// `MC3_LOG=debug:events.jsonl` appends them to the named file. The
/// level is one of `debug|info|warn|error`; see docs/observability.md.
fn init_event_log() {
    let Ok(spec) = std::env::var("MC3_LOG") else {
        return;
    };
    let (level, path) = match spec.split_once(':') {
        Some((l, p)) => (l, Some(p)),
        None => (spec.as_str(), None),
    };
    let Some(min_level) = mc3_obs::Level::parse(level) else {
        eprintln!("warning: MC3_LOG level '{level}' is not debug|info|warn|error; event log off");
        return;
    };
    match path {
        Some(p) => {
            if let Err(e) = mc3_obs::events::install_file(p, min_level) {
                eprintln!("warning: MC3_LOG: cannot open '{p}': {e}; event log off");
            }
        }
        None => mc3_obs::events::install_stderr(min_level),
    }
}

fn main() {
    init_event_log();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match mc3_cli::Cli::parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match mc3_cli::run(&cli) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
