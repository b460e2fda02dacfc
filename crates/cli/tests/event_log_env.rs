//! End-to-end check of the `MC3_LOG` event-log hookup: run the real `mc3`
//! binary with the sink enabled and assert well-formed JSONL events show
//! up, one request-level event per line, with no rate-limiter fields.

use std::path::PathBuf;
use std::process::Command;

fn mc3() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mc3"))
}

#[test]
fn mc3_log_env_writes_jsonl_events_to_file() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let dataset = dir.join("events-dataset.json");
    let events = dir.join("events.jsonl");
    let _ = std::fs::remove_file(&events);

    let out = mc3()
        .args([
            "generate",
            "--kind",
            "synthetic",
            "--queries",
            "40",
            "--seed",
            "5",
            "--out",
            dataset.to_str().expect("utf-8 tmpdir"),
        ])
        .output()
        .expect("run mc3 generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = mc3()
        .env("MC3_LOG", format!("debug:{}", events.display()))
        .args(["solve", dataset.to_str().expect("utf-8 tmpdir")])
        .output()
        .expect("run mc3 solve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&events).expect("event log written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        !lines.is_empty(),
        "solve must emit at least one debug event"
    );
    for line in &lines {
        let j = mc3_core::json::parse(line).expect("each line is one JSON object");
        for key in ["ts_ns", "level", "target", "msg"] {
            assert!(j.get(key).is_some(), "event missing '{key}': {line}");
        }
        for key in ["seq", "dropped"] {
            assert!(j.get(key).is_none(), "event carries '{key}': {line}");
        }
    }
    // The dataset parse and at least one solver event use distinct targets.
    assert!(text.contains("\"target\":\"workload\""), "{text}");
}

#[test]
fn mc3_log_bad_level_warns_and_still_runs() {
    let out = mc3()
        .env("MC3_LOG", "chatty")
        .args(["help"])
        .output()
        .expect("run mc3 help");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MC3_LOG"), "bad level must warn: {stderr}");
}
