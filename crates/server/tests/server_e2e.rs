//! End-to-end serving-plane test: boots a real server on a loopback
//! port, exercises every route over real sockets, checks that `/metrics`
//! moves monotonically, and runs the load generator (both passing and
//! SLO-violating) against it.
//!
//! Everything lives in ONE `#[test]` because the server holds the
//! process-exclusive telemetry session for its whole lifetime —
//! concurrent servers in one test binary would serialize on it anyway.

use mc3_server::{LoadgenConfig, Server, ServerConfig};
use std::io::BufReader;
use std::net::TcpStream;

fn request(
    addr: std::net::SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    mc3_server::http::write_request(&mut writer, method, target, body).expect("write");
    let (status, body) = mc3_server::http::read_response(&mut reader).expect("read");
    (status, String::from_utf8(body).expect("utf8 body"))
}

fn dataset_body(queries: usize, seed: u64) -> Vec<u8> {
    let ds = mc3_workload::generate_dataset(mc3_workload::GeneratorKind::Synthetic, queries, seed);
    let mut body = Vec::new();
    mc3_workload::write_dataset_json(&ds, &mut body).expect("serialize dataset");
    body
}

/// `mc3_requests_total{route="...",status="..."}` value from an
/// exposition body.
fn requests_total(metrics: &str, route: &str, status: &str) -> u64 {
    let needle = format!("mc3_requests_total{{route=\"{route}\",status=\"{status}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("family {needle} missing from:\n{metrics}"))
}

/// Value of an unlabeled family line (`name value`).
fn family_value(metrics: &str, name: &str) -> u64 {
    let needle = format!("{name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("family {name} missing from:\n{metrics}"))
}

#[test]
fn serving_plane_end_to_end() {
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 3,
        cache_mb: 32,
        solve_threads: 0,
    })
    .expect("server start");
    let addr = server.local_addr();

    // --- /healthz and /buildinfo ---
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = request(addr, "GET", "/buildinfo", None);
    assert_eq!(status, 200);
    let info = mc3_core::json::parse(&body).expect("buildinfo json");
    assert_eq!(info.get("name").and_then(|v| v.as_str()), Some("mc3"));
    assert!(info.get("version").and_then(|v| v.as_str()).is_some());
    assert!(info.get("git").and_then(|v| v.as_str()).is_some());

    // --- error paths ---
    let (status, _) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/solve", None);
    assert_eq!(status, 405);
    let (status, body) = request(addr, "POST", "/solve", Some(b"not json"));
    assert_eq!(status, 400);
    assert!(body.contains("bad dataset"));
    let (status, _) = request(addr, "POST", "/solve?algorithm=wat", Some(b"{}"));
    assert_eq!(status, 400);
    // a body nested far past the parser's depth bound is a plain 400, not
    // a worker stack overflow, and the server keeps answering
    let deep = "[".repeat(100_000);
    let (status, body) = request(addr, "POST", "/solve", Some(deep.as_bytes()));
    assert_eq!(status, 400, "deep /solve body: {body}");
    assert!(body.contains("nesting"), "deep /solve body: {body}");
    let (status, _) = request(addr, "POST", "/solve-batch", Some(deep.as_bytes()));
    assert_eq!(status, 400);
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // --- a real solve, with certificate ---
    let body_bytes = dataset_body(50, 7);
    let (status, body) = request(addr, "POST", "/solve?algorithm=general", Some(&body_bytes));
    assert_eq!(status, 200, "solve failed: {body}");
    let doc = mc3_core::json::parse(&body).expect("solve response json");
    assert!(doc.get("request_id").and_then(|v| v.as_str()).is_some());
    assert_eq!(
        doc.get("algorithm").and_then(|v| v.as_str()),
        Some("general")
    );
    assert!(doc.get("cost").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(doc.get("queries").and_then(|v| v.as_u64()).unwrap() > 0);
    let cert = doc.get("certificate").expect("certificate block");
    assert_eq!(cert.get("valid").and_then(|v| v.as_bool()), Some(true));
    assert!(!doc
        .get("classifiers")
        .and_then(|v| v.as_array())
        .expect("classifier array")
        .is_empty());

    // --- /metrics: families present, counters monotone across requests ---
    let (status, m1) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    for family in [
        "# TYPE mc3_requests_total counter",
        "# TYPE mc3_inflight_requests gauge",
        "# TYPE mc3_request_latency_seconds histogram",
        "# TYPE mc3_log_events_dropped_total counter",
        "# TYPE mc3_build_info gauge",
        "# TYPE mc3_span_wall_nanoseconds_total counter",
    ] {
        assert!(m1.contains(family), "missing {family} in:\n{m1}");
    }
    let solves_before = requests_total(&m1, "solve", "2xx");
    assert!(solves_before >= 1);
    // The captured request-scoped span tree reached the aggregator: the
    // solver's root span shows up in the cumulative exposition.
    assert!(
        m1.contains("mc3_span_wall_nanoseconds_total{span=\"solve\"}"),
        "aggregated solve span missing from:\n{m1}"
    );

    let (_, _) = request(addr, "POST", "/solve", Some(&body_bytes));
    let (_, m2) = request(addr, "GET", "/metrics", None);
    assert!(requests_total(&m2, "solve", "2xx") > solves_before);
    assert!(requests_total(&m2, "metrics", "2xx") >= 1);
    assert!(requests_total(&m2, "other", "4xx") >= 1);

    // --- request cache: an identical (body, algorithm) pair replays the
    // response, byte-equal modulo a freshly stamped request_id ---
    let (status, first) = request(addr, "POST", "/solve?algorithm=general", Some(&body_bytes));
    assert_eq!(status, 200);
    let (status, replay) = request(addr, "POST", "/solve?algorithm=general", Some(&body_bytes));
    assert_eq!(status, 200);
    let split_id = |text: &str| {
        let mut doc = mc3_core::json::parse(text).expect("solve response json");
        let mc3_core::json::Json::Object(map) = &mut doc else {
            panic!("solve response is not an object: {text}");
        };
        let id = map
            .remove("request_id")
            .and_then(|v| v.as_str().map(str::to_owned))
            .expect("request_id present");
        (id, doc)
    };
    let (first_id, first_doc) = split_id(&first);
    let (replay_id, replay_doc) = split_id(&replay);
    assert_eq!(first_doc, replay_doc, "replay must match modulo request_id");
    assert_ne!(first_id, replay_id, "every response gets a fresh id");

    // --- solve cache: a textually different but isomorphic body misses
    // the request cache yet answers every component from the shared
    // component cache ---
    let mut padded = body_bytes.clone();
    padded.push(b'\n');
    let (status, _) = request(addr, "POST", "/solve?algorithm=general", Some(&padded));
    assert_eq!(status, 200);
    let (_, m3) = request(addr, "GET", "/metrics", None);
    for family in [
        "# TYPE mc3_cache_resident_bytes gauge",
        "# TYPE mc3_cache_entries gauge",
        "# TYPE mc3_request_cache_entries gauge",
    ] {
        assert!(m3.contains(family), "missing {family} in:\n{m3}");
    }
    assert!(
        family_value(&m3, "mc3_request_cache_hits_total") >= 1,
        "identical replay must hit the request cache:\n{m3}"
    );
    assert!(
        family_value(&m3, "mc3_cache_hits_total") >= 1,
        "isomorphic re-solve must hit the component cache:\n{m3}"
    );
    assert!(family_value(&m3, "mc3_cache_resident_bytes") > 0);

    // --- /solve-batch: one body, many datasets, per-item verified
    // certificates; duplicate items answered from the component cache ---
    let batch_items =
        mc3_workload::generate_batch(mc3_workload::GeneratorKind::DuplicateHeavy, 24, 5, 4);
    let mut batch_body = Vec::new();
    mc3_workload::write_batch_json(&batch_items, &mut batch_body).expect("serialize batch");
    let (_, mb_before) = request(addr, "GET", "/metrics", None);
    let hits_before = family_value(&mb_before, "mc3_cache_hits_total");
    let (status, body) = request(addr, "POST", "/solve-batch", Some(&batch_body));
    assert_eq!(status, 200, "batch failed: {body}");
    let doc = mc3_core::json::parse(&body).expect("batch response json");
    assert!(doc.get("request_id").and_then(|v| v.as_str()).is_some());
    assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(doc.get("ok").and_then(|v| v.as_u64()), Some(4));
    let item_docs = doc
        .get("items")
        .and_then(|v| v.as_array())
        .expect("items array");
    for item in item_docs {
        assert_eq!(item.get("status").and_then(|v| v.as_u64()), Some(200));
        assert!(item.get("cost").and_then(|v| v.as_u64()).unwrap() > 0);
        let cert = item.get("certificate").expect("per-item certificate");
        assert_eq!(cert.get("valid").and_then(|v| v.as_bool()), Some(true));
    }
    // generate_batch duplicates consecutive seeds, so at least the
    // duplicate items must have answered from the shared component cache.
    let (_, mb_after) = request(addr, "GET", "/metrics", None);
    assert!(
        family_value(&mb_after, "mc3_cache_hits_total") > hits_before,
        "isomorphic batch items must hit the component cache:\n{mb_after}"
    );
    assert!(requests_total(&mb_after, "solve-batch", "2xx") >= 1);
    // Executor families are live: the pool exists, it ran this batch's
    // component tasks, and nothing was dropped.
    assert!(family_value(&mb_after, "mc3_exec_threads") >= 1);
    assert!(family_value(&mb_after, "mc3_exec_tasks_total") >= 1);
    assert_eq!(family_value(&mb_after, "mc3_requests_dropped_total"), 0);

    // --- batch item isolation: a malformed item fails alone ---
    let good = String::from_utf8(dataset_body(30, 9)).expect("utf8 dataset");
    let mixed = format!("[{good}, {{\"nope\": 1}}]");
    let (status, body) = request(addr, "POST", "/solve-batch", Some(mixed.as_bytes()));
    assert_eq!(status, 200, "mixed batch failed: {body}");
    let doc = mc3_core::json::parse(&body).expect("mixed batch json");
    assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(doc.get("ok").and_then(|v| v.as_u64()), Some(1));
    let item_docs = doc
        .get("items")
        .and_then(|v| v.as_array())
        .expect("items array");
    assert_eq!(
        item_docs[0].get("status").and_then(|v| v.as_u64()),
        Some(200)
    );
    assert_eq!(
        item_docs[1].get("status").and_then(|v| v.as_u64()),
        Some(400)
    );
    assert!(item_docs[1].get("error").and_then(|v| v.as_str()).is_some());

    // --- batch error paths ---
    let (status, _) = request(addr, "POST", "/solve-batch", Some(b"not json"));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/solve-batch", Some(b"{}"));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/solve-batch", Some(b"[]"));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/solve-batch", None);
    assert_eq!(status, 405);

    // --- loadgen against the live server: small mix, no failures ---
    let report = mc3_server::run_loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        duration_secs: 1,
        concurrency: 2,
        mix: mc3_workload::RequestMix::parse("synthetic:40:7:general,synthetic-short:30:3")
            .expect("mix"),
        slo_p99_ms: Some(60_000),
        batch: 1,
    })
    .expect("loadgen run");
    assert!(report.contains("route solve"), "report: {report}");
    assert!(report.contains("loadgen: PASS"), "report: {report}");
    assert!(report.contains(" 0 failures"), "report: {report}");
    assert!(
        report.contains("cache solve-components:"),
        "report: {report}"
    );

    // --- batch-mode loadgen: per-item accounting on /solve-batch ---
    let report = mc3_server::run_loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        duration_secs: 1,
        concurrency: 2,
        mix: mc3_workload::RequestMix::parse("duplicate-heavy:24:5").expect("mix"),
        slo_p99_ms: Some(60_000),
        batch: 4,
    })
    .expect("batch loadgen run");
    assert!(report.contains("route solve-batch"), "report: {report}");
    assert!(report.contains("loadgen: PASS"), "report: {report}");
    assert!(report.contains(" 0 failures"), "report: {report}");

    // --- an impossible SLO must fail the run (non-zero CLI exit) ---
    let err = mc3_server::run_loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        duration_secs: 1,
        concurrency: 1,
        mix: mc3_workload::RequestMix::parse("synthetic:40:7").expect("mix"),
        slo_p99_ms: Some(0),
        batch: 1,
    })
    .expect_err("0ms SLO cannot pass");
    assert!(err.contains("loadgen: SLO FAIL"), "err: {err}");

    server.shutdown().expect("clean shutdown");
}
