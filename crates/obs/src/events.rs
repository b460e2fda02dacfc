//! The structured event log: leveled JSONL with span and request-id
//! context, written in full.
//!
//! Library crates must not write diagnostics to stderr directly (the
//! `no-raw-eprintln-in-lib` audit rule); they call [`debug`]/[`info`]/
//! [`warn`]/[`error`] instead. When no sink is installed an event costs
//! one relaxed atomic load — the same discipline as the telemetry gate —
//! so call sites can live on hot paths.
//!
//! One event is one JSON object on one line (keys sorted, courtesy of
//! `mc3_core::json`):
//!
//! ```json
//! {"fields":{"components":3},"level":"info","msg":"solve finished",
//!  "span":"solve/solve_core","target":"solver","ts_ns":1290334}
//! ```
//!
//! * `ts_ns` — [`mc3_telemetry::monotonic_ns`] (this crate never reads the
//!   clock itself; see the `no-bare-instant` rule); it restarts with the
//!   process.
//! * `span` — the emitting thread's open telemetry span path, when a
//!   session is recording.
//! * `request_id` — the thread's [`RequestIdScope`], when one is open.
//!
//! Every event at or above the installed minimum level is written: there
//! is no rate limiting. Lines are written under the sink lock, so their
//! order in the sink is the order the events were admitted. The log
//! carries request-level and anomaly events; per-phase quantities are
//! span-tree counters in the telemetry report, not log lines.

use mc3_core::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Verbose diagnostics (per-phase internals).
    Debug = 0,
    /// Normal operational events.
    Info = 1,
    /// Something unusual that did not fail the operation.
    Warn = 2,
    /// An operation failed.
    Error = 3,
}

impl Level {
    /// Wire name, lowercase.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a wire name back into a level.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    /// Gate encoding of the level: the discriminant as `u8`
    /// (`u8::MAX` is reserved for "gate closed").
    #[inline]
    fn as_gate(self) -> u8 {
        // audit:allow(no-silent-truncation) enum discriminants are 0..=3 by construction
        self as u8
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::Int(*v as i128),
            Value::I64(v) => Json::Int(*v as i128),
            Value::F64(v) => Json::Float(*v),
            Value::Bool(v) => Json::Bool(*v),
            Value::Str(v) => Json::Str(v.clone()),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// `u8::MAX` = no sink installed; otherwise the installed minimum level.
/// This single relaxed load is the whole disabled-path cost.
static GATE: AtomicU8 = AtomicU8::new(u8::MAX);
static SINK: Mutex<Option<Writer>> = Mutex::new(None);

/// An installed sink.
type Writer = Box<dyn std::io::Write + Send>;

thread_local! {
    /// Request id attached to every event this thread emits while a
    /// [`RequestIdScope`] is live — the span-context analogue for server
    /// requests, so one request's log lines correlate without parsing.
    static REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// RAII scope attaching `request_id` to every event emitted from this
/// thread until the guard drops. Scopes are per-thread (the type is
/// `!Send`) and restore the previous id on drop, so brief nested scopes
/// behave.
pub struct RequestIdScope {
    prev: Option<String>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a [`RequestIdScope`] for `request_id` on this thread.
pub fn request_id_scope(request_id: &str) -> RequestIdScope {
    let prev = REQUEST_ID.with(|r| r.borrow_mut().replace(request_id.to_owned()));
    RequestIdScope {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for RequestIdScope {
    fn drop(&mut self) {
        REQUEST_ID.with(|r| *r.borrow_mut() = self.prev.take());
    }
}

/// The request id currently scoped onto this thread, if any.
pub fn current_request_id() -> Option<String> {
    REQUEST_ID.with(|r| r.borrow().clone())
}

fn lock_sink() -> std::sync::MutexGuard<'static, Option<Writer>> {
    SINK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Installs `writer` as the process-wide event sink admitting events at
/// `min_level` and above, replacing any previous one.
pub fn install(writer: Writer, min_level: Level) {
    let mut sink = lock_sink();
    *sink = Some(writer);
    // audit:allow(no-relaxed-atomics) reviewed: SeqCst gate publish — opens the sink to concurrent emitters
    GATE.store(min_level.as_gate(), Ordering::SeqCst);
}

/// Installs a sink appending JSONL to `path`.
pub fn install_file(path: &str, min_level: Level) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    install(Box::new(std::io::BufWriter::new(file)), min_level);
    Ok(())
}

/// Installs a sink writing JSONL lines to stderr (the binary's stdout
/// stays reserved for its actual output).
pub fn install_stderr(min_level: Level) {
    install(Box::new(std::io::stderr()), min_level);
}

/// Shared line buffer for tests and in-process consumers.
pub type CaptureBuffer = Arc<Mutex<Vec<String>>>;

struct CaptureWriter {
    lines: CaptureBuffer,
    partial: Vec<u8>,
}

impl std::io::Write for CaptureWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(buf);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            if let Ok(mut lines) = self.lines.lock() {
                lines.push(text);
            }
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Installs an in-memory sink and returns the shared buffer of emitted
/// lines — the test harness's view of the log.
pub fn install_capture(min_level: Level) -> CaptureBuffer {
    let lines: CaptureBuffer = Arc::new(Mutex::new(Vec::new()));
    install(
        Box::new(CaptureWriter {
            lines: Arc::clone(&lines),
            partial: Vec::new(),
        }),
        min_level,
    );
    lines
}

/// Removes the installed sink (flushing it) and closes the gate.
pub fn uninstall() {
    let mut sink = lock_sink();
    // audit:allow(no-relaxed-atomics) reviewed: SeqCst gate close — must be visible before the sink is dropped
    GATE.store(u8::MAX, Ordering::SeqCst);
    if let Some(mut writer) = sink.take() {
        // audit:allow(no-swallowed-result) reviewed: best-effort flush on teardown, the sink is going away
        let _ = writer.flush();
    }
}

/// Whether an event at `level` would currently be admitted by the gate
/// (sink installed and level at or above the configured minimum).
#[inline]
pub fn enabled(level: Level) -> bool {
    // audit:allow(no-relaxed-atomics) reviewed: monotonic gate probe — a stale read only delays admission
    level.as_gate() >= GATE.load(Ordering::Relaxed) && GATE.load(Ordering::Relaxed) != u8::MAX
}

fn build_line(
    ts_ns: u64,
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, Value)],
    span: Option<String>,
    request_id: Option<String>,
) -> String {
    let mut map: BTreeMap<String, Json> = BTreeMap::new();
    map.insert("ts_ns".to_owned(), Json::Int(ts_ns as i128));
    map.insert("level".to_owned(), Json::Str(level.as_str().to_owned()));
    map.insert("target".to_owned(), Json::Str(target.to_owned()));
    map.insert("msg".to_owned(), Json::Str(msg.to_owned()));
    if let Some(span) = span {
        map.insert("span".to_owned(), Json::Str(span));
    }
    if let Some(rid) = request_id {
        map.insert("request_id".to_owned(), Json::Str(rid));
    }
    if !fields.is_empty() {
        map.insert(
            "fields".to_owned(),
            Json::Object(
                fields
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.to_json()))
                    .collect(),
            ),
        );
    }
    Json::Object(map).to_string()
}

/// Emits one event. The normal entry points are the level helpers
/// ([`debug`], [`info`], [`warn`], [`error`]); this is the shared core.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    // Fast path: no sink, or level below the installed minimum.
    // audit:allow(no-relaxed-atomics) reviewed: gate probe only — admission is re-checked under the sink lock
    let gate = GATE.load(Ordering::Relaxed);
    if gate == u8::MAX || level.as_gate() < gate {
        return;
    }
    let now = mc3_telemetry::monotonic_ns();
    let span = mc3_telemetry::current_span_path();
    let request_id = current_request_id();
    let line = build_line(now, level, target, msg, fields, span, request_id);
    let mut sink = lock_sink();
    let Some(writer) = sink.as_mut() else { return };
    if writeln!(writer, "{line}").is_err() || writer.flush().is_err() {
        // Last resort when the sink itself is broken: say so once on
        // stderr and tear the sink down rather than erroring every event.
        // audit:allow(no-raw-eprintln-in-lib) reviewed: sink-failure fallback, the sink is gone
        eprintln!("mc3-obs: event sink write failed; uninstalling event log");
        // audit:allow(no-relaxed-atomics) reviewed: SeqCst gate close on sink failure — must beat the sink teardown
        GATE.store(u8::MAX, Ordering::SeqCst);
        *sink = None;
    }
}

/// Emits a [`Level::Debug`] event.
pub fn debug(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Debug, target, msg, fields);
}

/// Emits a [`Level::Info`] event.
pub fn info(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Info, target, msg, fields);
}

/// Emits a [`Level::Warn`] event.
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Warn, target, msg, fields);
}

/// Emits a [`Level::Error`] event.
pub fn error(target: &str, msg: &str, fields: &[(&str, Value)]) {
    event(Level::Error, target, msg, fields);
}

/// Emits one structured access-log event for a served HTTP request
/// (target `server.access`, level info). The request id riding on the
/// thread's [`RequestIdScope`] attaches automatically, so the line
/// correlates with every other event the request emitted.
pub fn access(method: &str, route: &str, status: u16, latency_ns: u64, bytes_out: u64) {
    event(
        Level::Info,
        "server.access",
        "request served",
        &[
            ("method", Value::Str(method.to_owned())),
            ("route", Value::Str(route.to_owned())),
            ("status", Value::U64(u64::from(status))),
            ("latency_ns", Value::U64(latency_ns)),
            ("bytes_out", Value::U64(bytes_out)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Event-log tests share the global sink; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn parse_line(line: &str) -> Json {
        mc3_core::json::parse(line).expect("event line is valid JSON")
    }

    #[test]
    fn events_are_jsonl_in_emission_order() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let lines = install_capture(Level::Debug);
        info("solver", "solve finished", &[("cost", Value::U64(42))]);
        debug("flow", "phase done", &[]);
        warn("setcover", "fallback", &[("reason", "lp".into())]);
        uninstall();
        let lines = lines.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(lines.len(), 3);
        let events: Vec<Json> = lines.iter().map(|l| parse_line(l)).collect();
        for v in &events {
            assert!(v.get("ts_ns").and_then(Json::as_u64).is_some());
            assert_eq!(v.get("seq"), None);
            assert_eq!(v.get("dropped"), None);
        }
        let order: Vec<&str> = events
            .iter()
            .filter_map(|v| v.get("msg").and_then(Json::as_str))
            .collect();
        assert_eq!(order, ["solve finished", "phase done", "fallback"]);
        let first = parse_line(&lines[0]);
        assert_eq!(first.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(first.get("target").and_then(Json::as_str), Some("solver"));
        assert_eq!(
            first
                .get("fields")
                .and_then(|f| f.get("cost"))
                .and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn level_filter_drops_below_minimum() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let lines = install_capture(Level::Warn);
        debug("t", "nope", &[]);
        info("t", "nope", &[]);
        warn("t", "yes", &[]);
        error("t", "yes", &[]);
        uninstall();
        let lines = lines.lock().unwrap_or_else(|p| p.into_inner());
        let levels: Vec<String> = lines
            .iter()
            .filter_map(|l| {
                parse_line(l)
                    .get("level")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            })
            .collect();
        assert_eq!(levels, ["warn", "error"]);
    }

    #[test]
    fn every_admitted_event_is_written_in_order() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let lines = install_capture(Level::Info);
        for i in 0..2_000u64 {
            info("t", "flood", &[("i", Value::U64(i))]);
        }
        uninstall();
        let lines = lines.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(lines.len(), 2_000);
        for (i, line) in lines.iter().enumerate() {
            let v = parse_line(line);
            let got = v
                .get("fields")
                .and_then(|f| f.get("i"))
                .and_then(Json::as_u64);
            assert_eq!(got, Some(i as u64), "line {i}: {line}");
        }
    }

    #[test]
    fn no_sink_means_no_panic_and_no_cost() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        uninstall();
        assert!(!enabled(Level::Error));
        info("t", "dropped on the floor", &[]);
    }

    #[test]
    fn span_context_attaches_when_recording() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let lines = install_capture(Level::Debug);
        let session = mc3_telemetry::Session::begin();
        {
            let _outer = mc3_telemetry::span("solve");
            let _inner = mc3_telemetry::span("solve_core");
            info("solver", "inside", &[]);
        }
        drop(session);
        uninstall();
        let lines = lines.lock().unwrap_or_else(|p| p.into_inner());
        let v = parse_line(&lines[0]);
        assert_eq!(
            v.get("span").and_then(Json::as_str),
            Some("solve/solve_core")
        );
    }

    #[test]
    fn request_id_scope_attaches_and_restores() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let lines = install_capture(Level::Debug);
        info("t", "before", &[]);
        {
            let _scope = request_id_scope("req-42");
            assert_eq!(current_request_id().as_deref(), Some("req-42"));
            info("t", "inside", &[]);
        }
        assert_eq!(current_request_id(), None);
        info("t", "after", &[]);
        uninstall();
        let lines = lines.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(lines.len(), 3);
        assert_eq!(parse_line(&lines[0]).get("request_id"), None);
        assert_eq!(
            parse_line(&lines[1])
                .get("request_id")
                .and_then(Json::as_str),
            Some("req-42")
        );
        assert_eq!(parse_line(&lines[2]).get("request_id"), None);
    }

    #[test]
    fn access_event_carries_route_status_and_request_id() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let lines = install_capture(Level::Debug);
        {
            let _scope = request_id_scope("req-7");
            access("POST", "/solve", 200, 1_234, 567);
        }
        uninstall();
        let lines = lines.lock().unwrap_or_else(|p| p.into_inner());
        let v = parse_line(&lines[0]);
        assert_eq!(
            v.get("target").and_then(Json::as_str),
            Some("server.access")
        );
        assert_eq!(v.get("request_id").and_then(Json::as_str), Some("req-7"));
        let fields = v.get("fields").expect("fields object");
        assert_eq!(fields.get("route").and_then(Json::as_str), Some("/solve"));
        assert_eq!(fields.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(fields.get("latency_ns").and_then(Json::as_u64), Some(1_234));
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("fatal"), None);
    }
}
