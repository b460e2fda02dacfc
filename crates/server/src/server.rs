//! The `mc3 serve` HTTP server: span trees feeding the process-wide
//! telemetry aggregate, a scrapeable `/metrics` endpoint, and a
//! structured access log.
//!
//! # Request lifecycle
//!
//! The accept thread owns the **one** long-lived
//! [`mc3_telemetry::Session`] (keeping the telemetry gate open for the
//! server's lifetime) and serves each accepted connection on a thread of
//! its own, at most `MAX_CONNECTIONS` at once. Per request, the
//! connection's thread:
//!
//! 1. generates a request id and installs an
//!    [`mc3_obs::request_id_scope`] so every event-log line the request
//!    emits carries it,
//! 2. takes an in-flight guard on [`RequestMetrics`],
//! 3. dispatches the request under `catch_unwind`: a handler panic is
//!    answered 500, counted in the 5xx cell and logged as an `error`
//!    event, and the connection is closed,
//! 4. records route/status/latency into [`RequestMetrics`] and emits one
//!    [`mc3_obs::access`] event.
//!
//! A request that cannot be read — a malformed request line or header,
//! a header section over 16 KiB, a body over 16 MiB — is answered 400,
//! 431 or 413, counted under `route="other"`, logged as a `warn` event,
//! and its connection is closed. A clean close or an idle timeout ends
//! the connection silently.
//!
//! A `/solve` request that misses the request cache takes a solve-gate
//! permit, so at most `--solve-threads` of them run decode → solve →
//! certify at once, and is then solved inline on its connection's
//! thread. Each `solve` span root merges into the
//! process-wide telemetry aggregate when it closes, so the aggregate
//! holds the whole tree: no per-request capture, no second store.
//!
//! `/metrics` therefore serves four concatenated sections: the solver
//! registry rendered from the session's live report
//! ([`mc3_telemetry::live_report`], [`mc3_obs::prometheus_text`]), the
//! constant [`mc3_obs::build_info_text`] gauge, the live request-plane
//! families ([`RequestMetrics::render`]) and the cache occupancy
//! families.
//!
//! # Caching
//!
//! Unless `--cache-mb 0` is set, `/solve` consults two memo layers, each
//! a [`ByteLru`]:
//!
//! 1. an **exact-body request cache** — a byte-bounded LRU keyed by a
//!    stable hash of the raw body plus the algorithm selector; a hit
//!    replays the full 200 response with `request_id` re-stamped;
//! 2. the **cross-request component cache** ([`mc3_solver::SolveCache`],
//!    shared by every connection via [`Mc3Solver::cache`]) — bodies that
//!    differ textually but contain isomorphic components still hit,
//!    keyed by `mc3-core::canon` canonical fingerprints.

use crate::http::{encode_response, read_request, ReadError, Request};
use crate::ServerConfig;
use mc3_core::json::Json;
use mc3_core::StableHasher;
use mc3_obs::{RequestMetrics, Route};
use mc3_solver::{Algorithm, ByteLru, Mc3Solver, SolveCache};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a keep-alive connection may sit idle before its thread
/// closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Connections served at once; one more is answered 503 and dropped.
const MAX_CONNECTIONS: usize = 256;

/// How long the accept loop waits after a failed `accept()` (out of file
/// descriptors, an aborted handshake) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Fixed per-entry overhead charged by the request cache on top of the
/// rendered body: key, LRU slot, map slot, id range.
const REQUEST_ENTRY_OVERHEAD: usize = 160;

/// Exact-body response memo for `POST /solve`: keyed by a stable hash of
/// the raw request body plus the algorithm selector, holding the rendered
/// 200-response body. A hit re-stamps `request_id`, so every response
/// stays uniquely attributable.
struct RequestCache {
    lru: ByteLru<CachedResponse>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A rendered `/solve` response and the byte range of its `request_id`
/// value. A replay splices in the new id rather than cloning and
/// re-rendering the document, which costs more than the rest of a hit.
struct CachedResponse {
    body: Vec<u8>,
    id: std::ops::Range<usize>,
}

impl CachedResponse {
    /// Remembers `body`, rendered for `request_id`; `None` if the id is
    /// not found as the top-level `request_id` value.
    fn new(body: &[u8], request_id: &str) -> Option<CachedResponse> {
        let needle = format!("\"request_id\": \"{request_id}\"");
        let at = body
            .windows(needle.len())
            .position(|w| w == needle.as_bytes())?;
        let start = at + needle.len() - 1 - request_id.len();
        Some(CachedResponse {
            body: body.to_vec(),
            id: start..start + request_id.len(),
        })
    }

    /// The response body stamped with `request_id`.
    fn restamped(&self, request_id: &str) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.body.len() + request_id.len());
        body.extend_from_slice(&self.body[..self.id.start]);
        body.extend_from_slice(request_id.as_bytes());
        body.extend_from_slice(&self.body[self.id.end..]);
        body
    }
}

/// Stable exact-body key: length-prefixed body bytes, then the algorithm
/// selector, through the same seedless hasher the solve cache uses.
fn body_key(body: &[u8], algorithm: &str) -> u128 {
    let mut h = StableHasher::new();
    h.write_bytes(body);
    h.write_bytes(algorithm.as_bytes());
    h.finish128()
}

/// Admission for `/solve` requests: at most `permits` holders at once, the
/// rest wait and are admitted in arrival order. A permit is returned
/// when its guard drops, so a handler panic cannot leak it.
///
/// Arrivals draw consecutive tickets; ticket `t` may enter once
/// `t < returned + permits`. Every admitted ticket is below that bound
/// and every returned one was admitted, so at most `permits` hold at
/// once, and a released permit cannot be re-taken ahead of an earlier
/// waiter.
struct SolveGate {
    permits: u64,
    /// `(issued, returned)` ticket counts.
    tickets: Mutex<(u64, u64)>,
    returned: Condvar,
}

/// A held [`SolveGate`] permit.
struct Permit<'a>(&'a SolveGate);

impl SolveGate {
    fn new(permits: usize) -> SolveGate {
        SolveGate {
            permits: permits as u64,
            tickets: Mutex::new((0, 0)),
            returned: Condvar::new(),
        }
    }

    /// Blocks until every earlier arrival is admitted and a permit is
    /// free, then takes it.
    fn acquire(&self) -> Permit<'_> {
        let mut tickets = self.tickets.lock().unwrap_or_else(|p| p.into_inner());
        let ticket = tickets.0;
        tickets.0 += 1;
        while ticket >= tickets.1 + self.permits {
            tickets = self
                .returned
                .wait(tickets)
                .unwrap_or_else(|p| p.into_inner());
        }
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.tickets.lock().unwrap_or_else(|p| p.into_inner()).1 += 1;
        // Only the waiter whose ticket the return admits may go; wake
        // all so it is among them.
        self.0.returned.notify_all();
    }
}

/// The open connections, at most `limit` of them. Each holds a [`Slot`]
/// that frees its place when it drops, on return or while unwinding, so
/// a panicking connection thread cannot leak one; the accept loop waits
/// here for the last connection to close before the server stops.
struct Connections {
    limit: usize,
    open: Mutex<usize>,
    closed: Condvar,
}

/// A held [`Connections`] place.
struct Slot(Arc<Connections>);

impl Connections {
    fn new(limit: usize) -> Arc<Connections> {
        Arc::new(Connections {
            limit,
            open: Mutex::new(0),
            closed: Condvar::new(),
        })
    }

    /// Takes a place for a new connection; `None` when `limit` are open.
    fn open(self: &Arc<Self>) -> Option<Slot> {
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        if *open >= self.limit {
            return None;
        }
        *open += 1;
        Some(Slot(Arc::clone(self)))
    }

    /// Blocks until every slot has been dropped.
    fn wait_closed(&self) {
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        while *open > 0 {
            open = self.closed.wait(open).unwrap_or_else(|p| p.into_inner());
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        *self.0.open.lock().unwrap_or_else(|p| p.into_inner()) -= 1;
        self.0.closed.notify_all();
    }
}

/// Solves allowed in flight: `--solve-threads`, or one per available
/// core when it is `0`.
fn solve_threads(cfg: &ServerConfig) -> usize {
    match cfg.solve_threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Shared server state: the metric families `/metrics` serves, the
/// caches and the solve gate.
pub struct ServerState {
    /// Request-plane families (counters, in-flight gauge, latency
    /// histograms).
    pub metrics: RequestMetrics,
    request_seq: AtomicU64,
    nonce: u64,
    solve_cache: Option<Arc<SolveCache>>,
    request_cache: Option<Mutex<RequestCache>>,
    solve_gate: SolveGate,
}

impl ServerState {
    fn new(cfg: &ServerConfig) -> ServerState {
        let caching = cfg.cache_mb > 0;
        ServerState {
            metrics: RequestMetrics::new(),
            request_seq: AtomicU64::new(0),
            nonce: mc3_telemetry::monotonic_ns(),
            solve_cache: caching.then(|| Arc::new(SolveCache::with_capacity_mb(cfg.cache_mb))),
            request_cache: caching.then(|| {
                Mutex::new(RequestCache {
                    lru: ByteLru::new(cfg.cache_mb * (1 << 20) / 4),
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                })
            }),
            solve_gate: SolveGate::new(solve_threads(cfg)),
        }
    }

    /// The cross-request component solve cache, when enabled.
    pub fn solve_cache(&self) -> Option<&Arc<SolveCache>> {
        self.solve_cache.as_ref()
    }

    fn next_request_id(&self) -> String {
        // audit:allow(no-relaxed-atomics) reviewed: unique-id ticket counter — only atomicity matters, not ordering
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{seq:08x}", self.nonce & 0xffff_ffff)
    }
}

/// A running server; dropping it does **not** stop the accept loop —
/// call [`Server::shutdown`] (tests) or [`Server::join`] (the CLI, which
/// blocks for the life of the process).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and spawns the accept loop. Binding first means
    /// the caller always learns the real address — `--addr 127.0.0.1:0`
    /// works and tests never race the server's startup.
    pub fn start(cfg: &ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let state = Arc::new(ServerState::new(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("mc3-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &state, &stop))
                .map_err(|e| format!("cannot spawn accept thread: {e}"))?
        };
        mc3_obs::info(
            "server",
            "listening",
            &[
                ("addr", mc3_obs::Value::Str(addr.to_string())),
                (
                    "solve_threads",
                    mc3_obs::Value::U64(solve_threads(cfg) as u64),
                ),
                (
                    "cache_mb",
                    mc3_obs::Value::U64(if state.solve_cache.is_some() {
                        cfg.cache_mb as u64
                    } else {
                        0
                    }),
                ),
            ],
        );
        Ok(Server {
            addr,
            stop,
            accept,
            state,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metric state (exposed for tests).
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Blocks until the accept loop exits, which it does only after
    /// [`Server::shutdown`] from another thread or a panic.
    pub fn join(self) -> Result<String, String> {
        self.accept
            .join()
            .map(|()| "server stopped\n".to_owned())
            .map_err(|_| "accept thread panicked".to_owned())
    }

    /// Stops the accept loop and joins it; it returns once the last open
    /// connection has closed.
    pub fn shutdown(self) -> Result<(), String> {
        // audit:allow(no-relaxed-atomics) reviewed: SeqCst — the stop flag must be visible to the accept loop before the wake-up connection below
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection; a
        // failure means the accept loop is already gone, which is fine.
        // audit:allow(no-swallowed-result) reviewed: best-effort wake-up, both outcomes converge on the join below
        let _ = TcpStream::connect(self.addr);
        self.accept
            .join()
            .map_err(|_| "accept thread panicked".to_owned())
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, stop: &AtomicBool) {
    // The server-lifetime telemetry session: opens the recording gate so
    // every request's span tree lands in the aggregate /metrics renders.
    // Finished (and discarded) only when the accept loop ends.
    let session = mc3_telemetry::Session::begin();
    let connections = Connections::new(MAX_CONNECTIONS);
    loop {
        let conn = listener.accept();
        // audit:allow(no-relaxed-atomics) reviewed: SeqCst pairs with the store in shutdown(); the wake-up connection happens-after it
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok((stream, _)) => spawn_connection(stream, state, &connections),
            // Out of file descriptors, or a client that reset before it
            // was accepted: neither is the listener's fault, and the next
            // accept may well succeed once a connection closes.
            Err(e) => {
                mc3_obs::warn(
                    "server",
                    "accept failed; retrying",
                    &[("error", mc3_obs::Value::Str(e.to_string()))],
                );
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
    // Wait for open connections before closing the telemetry session. Its
    // report is unused: /metrics served the aggregate live.
    connections.wait_closed();
    session.finish();
}

/// Serves `stream` on a thread of its own, or answers it 503 — counted
/// in `mc3_requests_dropped_total` — when the connection bound is reached
/// or the thread cannot be spawned.
fn spawn_connection(stream: TcpStream, state: &Arc<ServerState>, connections: &Arc<Connections>) {
    let Some(slot) = connections.open() else {
        state.metrics.observe_dropped();
        refuse(state, &stream, 503, "too many open connections");
        return;
    };
    // Shared so that a failed spawn, which drops the thread's closure,
    // still leaves a handle to answer on. The thread is not joined: its
    // slot stands for it, and `Connections::wait_closed` is the join.
    let stream = Arc::new(stream);
    let conn_stream = Arc::clone(&stream);
    let conn_state = Arc::clone(state);
    let spawned = std::thread::Builder::new()
        .name("mc3-serve-conn".to_owned())
        .spawn(move || {
            // The backstop: a panic inside a request is already answered
            // 500 by `answer`, so only a panic outside one (connection
            // setup, the write path) reaches here. It ends this connection
            // alone; the slot is freed while unwinding.
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _slot = slot;
                serve_connection(&conn_stream, &conn_state);
            }));
            if served.is_err() {
                mc3_obs::warn(
                    "server",
                    "connection thread panicked outside a request; its connection was dropped",
                    &[],
                );
            }
        });
    if let Err(e) = spawned {
        state.metrics.observe_dropped();
        refuse(
            state,
            &stream,
            503,
            &format!("cannot spawn a connection thread: {e}"),
        );
    }
}

fn serve_connection(stream: &TcpStream, state: &ServerState) {
    // Without the read timeout an idle client would hold its thread and
    // connection slot forever, so a socket that cannot take one is not
    // worth serving.
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() {
        return;
    }
    if stream.set_nodelay(true).is_err() {
        mc3_obs::debug("server", "set_nodelay failed; serving anyway", &[]);
    }
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) | Err(ReadError::Io(_)) => return, // clean close, idle timeout, broken stream
            Err(ReadError::Refused { status, reason }) => {
                refuse(state, stream, status, &reason);
                return;
            }
        };
        let close = req.wants_close();
        let request_id = state.next_request_id();
        let _rid = mc3_obs::request_id_scope(&request_id);
        let _inflight = state.metrics.inflight_guard();
        let (wire, panicked) = answer(state, &req, || dispatch(state, &req, &request_id));
        let written = writer.write_all(&wire).and_then(|()| writer.flush());
        if close || panicked || written.is_err() {
            return;
        }
    }
}

/// Answers a connection with `status` before closing it — a request that
/// could not be read (4xx), or a connection that cannot be served (503) —
/// counts it under `route="other"` and logs a `warn` event; the caller
/// then closes the connection.
fn refuse(state: &ServerState, mut writer: &TcpStream, status: u16, reason: &str) {
    state.metrics.observe(Route::Other, status, 0);
    mc3_obs::warn(
        "server",
        "request refused",
        &[
            ("status", mc3_obs::Value::U64(u64::from(status))),
            ("reason", mc3_obs::Value::Str(reason.to_owned())),
        ],
    );
    let response = error_response(status, reason);
    let wire = encode_response(status, response.content_type, &response.body);
    // audit:allow(no-swallowed-result) reviewed: the connection is closed next whether or not the answer was written
    let _ = writer.write_all(&wire).and_then(|()| writer.flush());
}

/// Runs `handle` for `req` and returns the response's wire bytes, plus
/// whether the handler panicked. A panic becomes a 500 with a JSON
/// `error` body and an `error` event (the request id rides on the
/// thread's scope), and the caller closes the connection rather than
/// serve more requests after a failure it cannot explain. Either way the
/// response is observed into the request metrics and the access log
/// **before** the caller writes it: a client that has read its response
/// and then scrapes `/metrics` must already see this request counted.
fn answer(
    state: &ServerState,
    req: &Request,
    handle: impl FnOnce() -> (Route, HandlerResponse),
) -> (Vec<u8>, bool) {
    let start = mc3_telemetry::monotonic_ns();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(handle));
    let panicked = outcome.is_err();
    let (route, response) = outcome.unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        mc3_obs::error(
            "server",
            "request handler panicked",
            &[("panic", mc3_obs::Value::Str(what))],
        );
        (
            route_of(req.path()),
            error_response(500, "internal error: the request handler panicked"),
        )
    });
    let wire = encode_response(response.status, response.content_type, &response.body);
    let latency_ns = mc3_telemetry::monotonic_ns().saturating_sub(start);
    state.metrics.observe(route, response.status, latency_ns);
    mc3_obs::access(
        &req.method,
        route.as_str(),
        response.status,
        latency_ns,
        wire.len() as u64,
    );
    (wire, panicked)
}

struct HandlerResponse {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

fn json_response(status: u16, doc: &Json) -> HandlerResponse {
    let mut body = doc.to_string_pretty().into_bytes();
    body.push(b'\n');
    HandlerResponse {
        status,
        content_type: "application/json",
        body,
    }
}

fn error_response(status: u16, msg: &str) -> HandlerResponse {
    json_response(
        status,
        &Json::object([("error", Json::Str(msg.to_owned()))]),
    )
}

fn dispatch(state: &ServerState, req: &Request, request_id: &str) -> (Route, HandlerResponse) {
    match (req.method.as_str(), req.path()) {
        ("POST", "/solve") => (Route::Solve, handle_solve(state, req, request_id)),
        ("GET", "/metrics") => (Route::Metrics, handle_metrics(state)),
        ("GET", "/healthz") => (
            Route::Healthz,
            HandlerResponse {
                status: 200,
                content_type: "text/plain; charset=utf-8",
                body: b"ok\n".to_vec(),
            },
        ),
        ("GET", "/buildinfo") => (Route::Buildinfo, handle_buildinfo()),
        ("GET" | "POST", "/solve" | "/metrics" | "/healthz" | "/buildinfo") => (
            route_of(req.path()),
            error_response(405, "method not allowed for this route"),
        ),
        _ => (Route::Other, error_response(404, "no such route")),
    }
}

fn route_of(path: &str) -> Route {
    match path {
        "/solve" => Route::Solve,
        "/metrics" => Route::Metrics,
        "/healthz" => Route::Healthz,
        "/buildinfo" => Route::Buildinfo,
        _ => Route::Other,
    }
}

/// Version/revision pair stamped into `/buildinfo` and `mc3_build_info`.
fn build_ids() -> (&'static str, &'static str) {
    (
        env!("CARGO_PKG_VERSION"),
        option_env!("MC3_GIT_SHA").unwrap_or("unknown"),
    )
}

fn handle_buildinfo() -> HandlerResponse {
    let (version, git) = build_ids();
    json_response(
        200,
        &Json::object([
            ("name", Json::Str("mc3".to_owned())),
            ("version", Json::Str(version.to_owned())),
            ("git", Json::Str(git.to_owned())),
            (
                "report_version",
                Json::Int(i128::from(mc3_telemetry::REPORT_VERSION)),
            ),
        ]),
    )
}

/// Live gauge/counter families for the two caches. The cumulative
/// `mc3_cache_hits_total` / `mc3_cache_misses_total` /
/// `mc3_cache_evictions_total` counters already arrive through the
/// telemetry report ([`mc3_obs::prometheus_text`]); this adds the
/// instantaneous occupancy families a report cannot carry, plus the
/// request-cache plane.
fn cache_metrics_text(state: &ServerState) -> String {
    let mut out = String::new();
    if let Some(cache) = &state.solve_cache {
        let s = cache.stats();
        out.push_str("# TYPE mc3_cache_resident_bytes gauge\n");
        out.push_str(&format!("mc3_cache_resident_bytes {}\n", s.resident_bytes));
        out.push_str("# TYPE mc3_cache_capacity_bytes gauge\n");
        out.push_str(&format!("mc3_cache_capacity_bytes {}\n", s.capacity_bytes));
        out.push_str("# TYPE mc3_cache_entries gauge\n");
        out.push_str(&format!("mc3_cache_entries {}\n", s.entries));
    }
    if let Some(cache) = &state.request_cache {
        if let Ok(s) = cache.lock() {
            out.push_str("# TYPE mc3_request_cache_hits_total counter\n");
            out.push_str(&format!("mc3_request_cache_hits_total {}\n", s.hits));
            out.push_str("# TYPE mc3_request_cache_misses_total counter\n");
            out.push_str(&format!("mc3_request_cache_misses_total {}\n", s.misses));
            out.push_str("# TYPE mc3_request_cache_evictions_total counter\n");
            out.push_str(&format!(
                "mc3_request_cache_evictions_total {}\n",
                s.evictions
            ));
            out.push_str("# TYPE mc3_request_cache_entries gauge\n");
            out.push_str(&format!("mc3_request_cache_entries {}\n", s.lru.len()));
            out.push_str("# TYPE mc3_request_cache_resident_bytes gauge\n");
            out.push_str(&format!(
                "mc3_request_cache_resident_bytes {}\n",
                s.lru.bytes()
            ));
        }
    }
    out
}

fn handle_metrics(state: &ServerState) -> HandlerResponse {
    let (version, git) = build_ids();
    let mut body = mc3_obs::prometheus_text(&mc3_telemetry::live_report());
    body.push_str(&mc3_obs::build_info_text(version, Some(git)));
    body.push_str(&state.metrics.render());
    body.push_str(&cache_metrics_text(state));
    HandlerResponse {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: body.into_bytes(),
    }
}

/// `POST /solve`: the dataset body decoded, solved and certified under a
/// [`SolveGate`] permit, behind the exact-body request cache.
fn handle_solve(state: &ServerState, req: &Request, request_id: &str) -> HandlerResponse {
    let algorithm = match req
        .query_param("algorithm")
        .map_or(Ok(Algorithm::Auto), Algorithm::parse_name)
    {
        Ok(a) => a,
        Err(e) => return error_response(400, &e),
    };
    // Exact-body fast path: an identical (body, algorithm) pair replays
    // the memoized response, re-stamped with this request's id.
    let key = state
        .request_cache
        .as_ref()
        .map(|_| body_key(req.body.as_slice(), algorithm.name()));
    if let (Some(cache), Some(key)) = (state.request_cache.as_ref(), key) {
        let cached = match cache.lock() {
            Ok(mut cache) => {
                let body = cache.lru.get(key).map(|r| r.restamped(request_id));
                match body {
                    Some(_) => cache.hits += 1,
                    None => cache.misses += 1,
                }
                body
            }
            Err(_) => None, // poisoned lock: serve uncached, never fail the request
        };
        if let Some(body) = cached {
            return HandlerResponse {
                status: 200,
                content_type: "application/json",
                body,
            };
        }
    }

    let _permit = state.solve_gate.acquire();
    let response = match solve_document(state, &req.body, algorithm, request_id) {
        Ok(doc) => json_response(200, &doc),
        Err((status, msg)) => return error_response(status, &msg),
    };
    if let (Some(cache), Some(key)) = (state.request_cache.as_ref(), key) {
        let entry = CachedResponse::new(&response.body, request_id);
        if let (Some(entry), Ok(mut cache)) = (entry, cache.lock()) {
            let bytes = response.body.len() + REQUEST_ENTRY_OVERHEAD;
            // A response larger than the whole budget is refused rather
            // than evicting the cache for it.
            if let Some(evicted) = cache.lru.insert(key, entry, bytes) {
                cache.evictions += evicted;
            }
        }
    }
    response
}

/// Decodes a dataset body, solves it inline (its span tree merges into
/// the telemetry aggregate) and verifies a certificate for the solution,
/// rendering the `/solve` response document. `Err` carries the HTTP
/// status and message.
fn solve_document(
    state: &ServerState,
    body: &[u8],
    algorithm: Algorithm,
    request_id: &str,
) -> Result<Json, (u16, String)> {
    let ds = std::str::from_utf8(body)
        .map_err(|_| "stream did not contain valid UTF-8".to_owned())
        .and_then(mc3_workload::parse_dataset_json)
        .map_err(|e| (400, format!("bad dataset: {e}")))?;
    let mut solver = Mc3Solver::new().algorithm(algorithm);
    if let Some(cache) = &state.solve_cache {
        solver = solver.cache(Arc::clone(cache));
    }
    let report = solver
        .solve_report(&ds.instance)
        .map_err(|e| (422, format!("solve failed: {e}")))?;
    let cert = mc3_core::Certificate::for_solution(&ds.instance, &report.solution)
        .map_err(|e| (500, format!("certificate construction failed: {e}")))?;
    cert.verify(&ds.instance, &report.solution)
        .map_err(|e| (500, format!("certificate verification failed: {e}")))?;

    let classifiers = Json::array(
        report
            .solution
            .classifiers()
            .iter()
            .map(|c| Json::array(c.iter().map(|p| Json::Int(i128::from(p.0))))),
    );
    let ns = |d: std::time::Duration| Json::Int(d.as_nanos().min(u128::from(u64::MAX)) as i128);
    Ok(Json::object([
        ("request_id", Json::Str(request_id.to_owned())),
        ("dataset", Json::Str(ds.name.clone())),
        ("queries", Json::Int(ds.instance.num_queries() as i128)),
        ("algorithm", Json::Str(algorithm.name().to_owned())),
        ("cost", Json::Int(i128::from(report.solution.cost().raw()))),
        ("classifiers", classifiers),
        ("components", Json::Int(report.components as i128)),
        (
            "wall_ns",
            Json::object([
                ("setup", ns(report.timings.setup)),
                ("preprocess", ns(report.timings.preprocess)),
                ("solve", ns(report.timings.solve)),
                ("total", ns(report.timings.total)),
            ]),
        ),
        (
            "certificate",
            Json::object([
                ("valid", Json::Bool(true)),
                ("optimal", Json::Bool(cert.proves_optimality())),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_response_restamps_only_the_request_id() {
        // A dataset name that spells out the key cannot match: its quotes
        // are escaped in the rendered body.
        let doc = |id: &str| {
            Json::object([
                ("dataset", Json::Str("\"request_id\": \"0000\"".to_owned())),
                ("request_id", Json::Str(id.to_owned())),
                ("wall_ns", Json::object([("total", Json::Int(7))])),
            ])
        };
        let first = json_response(200, &doc("0000")).body;
        let cached = CachedResponse::new(&first, "0000").expect("id found");
        for id in ["0001", "00000001-0000000a", ""] {
            assert_eq!(cached.restamped(id), json_response(200, &doc(id)).body);
        }
        assert!(CachedResponse::new(&first, "0002").is_none());
    }

    #[test]
    fn the_solve_gate_admits_one_holder_per_permit() {
        use std::sync::mpsc;
        let gate = SolveGate::new(1);
        let first = gate.acquire();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _second = gate.acquire();
                tx.send(()).expect("receiver alive");
            });
            let wait = Duration::from_millis(100);
            assert!(
                rx.recv_timeout(wait).is_err(),
                "a second holder got in while the only permit was held"
            );
            drop(first);
            rx.recv_timeout(Duration::from_secs(10))
                .expect("the waiter takes the permit once it is released");
        });

        // Waiters are admitted in arrival order.
        let issued = || gate.tickets.lock().expect("gate lock").0;
        let first = gate.acquire();
        let (order_tx, order_rx) = mpsc::channel();
        std::thread::scope(|s| {
            for name in ["earlier", "later"] {
                let arrived = issued() + 1;
                let (gate, order_tx) = (&gate, order_tx.clone());
                s.spawn(move || {
                    let _permit = gate.acquire();
                    order_tx.send(name).expect("receiver alive");
                });
                while issued() < arrived {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            drop(first);
            let wait = Duration::from_secs(10);
            let order = [order_rx.recv_timeout(wait), order_rx.recv_timeout(wait)];
            assert_eq!(order, [Ok("earlier"), Ok("later")]);
        });

        // A holder that panics still returns its permit.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.acquire();
            panic!("handler died holding a permit");
        }));
        assert!(caught.is_err());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.acquire();
                tx.send(()).expect("receiver alive");
            });
            rx.recv_timeout(Duration::from_secs(10))
                .expect("the panicking holder released its permit");
        });
    }

    #[test]
    fn the_connection_bound_refuses_the_next_open_until_a_slot_drops() {
        let connections = Connections::new(2);
        let first = connections.open().expect("first of two");
        let second = connections.open().expect("second of two");
        assert!(connections.open().is_none(), "a third connection got in");
        drop(first);
        let third = connections.open().expect("a dropped slot frees its place");
        assert!(connections.open().is_none());

        // A connection thread that panics still frees its slot.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _slot = third;
            panic!("connection died holding a slot");
        }));
        assert!(caught.is_err());
        let fourth = connections
            .open()
            .expect("the panicking holder freed its slot");

        // Waiting for every connection to close returns once the last
        // slot drops on another thread.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                connections.wait_closed();
                tx.send(()).expect("receiver alive");
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "returned while two connections were open"
            );
            drop(second);
            drop(fourth);
            rx.recv_timeout(Duration::from_secs(10))
                .expect("returns once the last connection closed");
        });
        connections.wait_closed();
    }

    #[test]
    fn a_panicking_handler_is_answered_500_and_counted() {
        let state = ServerState::new(&ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_mb: 0,
            solve_threads: 0,
        });
        let req = Request {
            method: "POST".to_owned(),
            target: "/solve?algorithm=general".to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let (wire, panicked) = answer(&state, &req, || panic!("solver task exploded"));
        assert!(panicked);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("HTTP/1.1 500 "), "{text}");
        assert!(text.contains("\"error\""), "{text}");
        assert_eq!(state.metrics.requests_total(Route::Solve, 500), 1);
        assert!(state
            .metrics
            .render()
            .contains("mc3_requests_total{route=\"solve\",status=\"5xx\"} 1"));

        // A handler that returns is answered as it says, connection kept.
        let (wire, panicked) = answer(&state, &req, || {
            (Route::Solve, error_response(422, "solve failed"))
        });
        assert!(!panicked);
        assert!(String::from_utf8_lossy(&wire).starts_with("HTTP/1.1 422 "));
        assert_eq!(state.metrics.requests_total(Route::Solve, 500), 1);
    }
}
