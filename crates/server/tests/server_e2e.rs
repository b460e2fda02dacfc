//! End-to-end serving-plane test: boots a real server on a loopback
//! port, exercises every route over real sockets, checks that `/metrics`
//! moves monotonically, and runs the load generator (both passing and
//! SLO-violating) against it.
//!
//! Everything lives in ONE `#[test]` because the server holds the
//! process-exclusive telemetry session for its whole lifetime —
//! concurrent servers in one test binary would serialize on it anyway.
//! A second, cache-less server starts only after the first shut down.

use mc3_server::{LoadgenConfig, Server, ServerConfig};
use std::io::{BufReader, Read, Write};
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

/// Sends `raw` bytes as they are and reads the one response; also
/// reports whether the server then closed the connection.
fn raw_request(addr: std::net::SocketAddr, raw: &[u8]) -> (u16, String, bool) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(raw).expect("write");
    let mut reader = BufReader::new(stream);
    let (status, body) = mc3_server::http::read_response(&mut reader).expect("read");
    // Closing with request bytes still unread resets the connection.
    let closed = match reader.read(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    (status, String::from_utf8(body).expect("utf8 body"), closed)
}

fn dataset_body(queries: usize, seed: u64) -> Vec<u8> {
    kind_body(mc3_workload::GeneratorKind::Synthetic, queries, seed)
}

fn kind_body(kind: mc3_workload::GeneratorKind, queries: usize, seed: u64) -> Vec<u8> {
    let ds = mc3_workload::generate_dataset(kind, queries, seed);
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

/// `mc3_span_instances_total{span="..."}` value from an exposition body
/// (0 when the span path is absent).
fn span_instances(metrics: &str, path: &str) -> u64 {
    let needle = format!("mc3_span_instances_total{{span=\"{path}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
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
    // a thread stack overflow, and the server keeps answering
    let deep = "[".repeat(100_000);
    let (status, body) = request(addr, "POST", "/solve", Some(deep.as_bytes()));
    assert_eq!(status, 400, "deep /solve body: {body}");
    assert!(body.contains("nesting"), "deep /solve body: {body}");
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
    let components = doc
        .get("components")
        .and_then(|v| v.as_u64())
        .expect("components field");
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
        "# TYPE mc3_build_info gauge",
        "# TYPE mc3_span_wall_nanoseconds_total counter",
    ] {
        assert!(m1.contains(family), "missing {family} in:\n{m1}");
    }
    let solves_before = requests_total(&m1, "solve", "2xx");
    assert!(solves_before >= 1);
    // The request's span tree reached the aggregate: the solver's root
    // span shows up in the cumulative exposition.
    assert!(
        m1.contains("mc3_span_wall_nanoseconds_total{span=\"solve\"}"),
        "aggregated solve span missing from:\n{m1}"
    );
    // The solve cache's doorkeeper solves a component uncached on its
    // first sighting: counted as a miss, never fingerprinted or consulted.
    let first_sightings = family_value(&m1, "mc3_cache_first_sightings_total");
    assert!(first_sightings >= 1, "{m1}");
    assert_eq!(
        family_value(&m1, "mc3_cache_hits_total") + family_value(&m1, "mc3_cache_misses_total"),
        components,
        "one lookup per component in:\n{m1}"
    );
    let canon_before: Vec<u64> = ["cache.canon", "cache.consult"]
        .iter()
        .map(|span| {
            let n = span_instances(&m1, &format!("solve/solve_core/{span}"));
            assert_eq!(n, components - first_sightings, "{span} in:\n{m1}");
            n
        })
        .collect();

    // The second solve of the body (`auto` resolves to `general` here)
    // fingerprints and consults each component where it is solved, under
    // the request's solve_core, and inserts it.
    let (_, _) = request(addr, "POST", "/solve", Some(&body_bytes));
    let (_, m2) = request(addr, "GET", "/metrics", None);
    for (span, before) in ["cache.canon", "cache.consult"].iter().zip(&canon_before) {
        assert_eq!(
            span_instances(&m2, &format!("solve/solve_core/{span}")) - before,
            components,
            "one {span} per component in:\n{m2}"
        );
    }
    assert!(
        span_instances(&m2, "solve/solve_core/cache.insert") >= 1,
        "{m2}"
    );
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

    // --- /solve is the only solve route: /solve-batch is an unknown
    // path, counted under other/4xx ---
    let (_, before) = request(addr, "GET", "/metrics", None);
    let other_4xx = requests_total(&before, "other", "4xx");
    let (status, _) = request(addr, "POST", "/solve-batch", Some(&body_bytes));
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/solve-batch", None);
    assert_eq!(status, 404);
    let (_, after) = request(addr, "GET", "/metrics", None);
    assert_eq!(requests_total(&after, "other", "4xx"), other_4xx + 2);
    assert!(!after.contains("solve-batch"), "{after}");

    // --- framing errors are answered, counted and closed ---
    let framing: [(&str, Vec<u8>, u16); 4] = [
        (
            "oversized content-length",
            b"POST /solve HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n".to_vec(),
            413,
        ),
        ("malformed request line", b"NOT-HTTP\r\n\r\n".to_vec(), 400),
        (
            "header line without a colon",
            b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
            400,
        ),
        (
            "20 KB header",
            format!(
                "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
                "a".repeat(20_000)
            )
            .into_bytes(),
            431,
        ),
    ];
    for (case, raw, want) in &framing {
        let (status, body, closed) = raw_request(addr, raw);
        assert_eq!(status, *want, "{case}: {body}");
        assert!(body.contains("\"error\""), "{case}: {body}");
        assert!(closed, "{case}: the connection must close after a refusal");
    }
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (_, after_framing) = request(addr, "GET", "/metrics", None);
    assert_eq!(
        requests_total(&after_framing, "other", "4xx"),
        other_4xx + 2 + framing.len() as u64
    );
    // Nothing was dropped.
    assert_eq!(
        family_value(&after_framing, "mc3_requests_dropped_total"),
        0
    );

    // --- loadgen against the live server: small mix, no failures ---
    let report = mc3_server::run_loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        duration_secs: 1,
        concurrency: 2,
        mix: mc3_workload::RequestMix::parse("synthetic:40:7:general,synthetic-short:30:3")
            .expect("mix"),
        slo_p99_ms: Some(60_000),
    })
    .expect("loadgen run");
    assert!(report.contains("route solve"), "report: {report}");
    assert!(report.contains("loadgen: PASS"), "report: {report}");
    assert!(report.contains(" 0 failures"), "report: {report}");
    assert!(
        report.contains("cache solve-components:"),
        "report: {report}"
    );

    // --- an impossible SLO must fail the run (non-zero CLI exit) ---
    let err = mc3_server::run_loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        duration_secs: 1,
        concurrency: 1,
        mix: mc3_workload::RequestMix::parse("synthetic:40:7").expect("mix"),
        slo_p99_ms: Some(0),
    })
    .expect_err("0ms SLO cannot pass");
    assert!(err.contains("loadgen: SLO FAIL"), "err: {err}");

    server.shutdown().expect("clean shutdown");

    // --- a cache-less server: component spans nest under solve_core ---
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_mb: 0,
        solve_threads: 0,
    })
    .expect("cache-less server start");
    let addr = server.local_addr();
    let body = kind_body(mc3_workload::GeneratorKind::DuplicateHeavy, 400, 1);
    let (status, body) = request(addr, "POST", "/solve?algorithm=general", Some(&body));
    assert_eq!(status, 200, "solve failed: {body}");
    let doc = mc3_core::json::parse(&body).expect("solve response json");
    let components = doc
        .get("components")
        .and_then(|v| v.as_u64())
        .expect("components field");
    assert!(components > 1, "body must split into components");
    let (status, metrics) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(span_instances(&metrics, "solve"), 1, "{metrics}");
    assert_eq!(
        span_instances(&metrics, "solve/solve_core/general.solve"),
        components,
        "every component's general.solve must nest under the request's solve_core"
    );
    server.shutdown().expect("clean shutdown");
}
