//! The `mc3 serve` HTTP server: request-scoped tracing feeding a
//! process-global aggregate, a scrapeable `/metrics` endpoint, and a
//! structured access log.
//!
//! # Request lifecycle
//!
//! The accept thread owns the **one** long-lived
//! [`mc3_telemetry::Session`] (keeping the telemetry gate open for the
//! server's lifetime) and hands each accepted connection to a worker.
//! Per request, the worker:
//!
//! 1. generates a request id and installs an
//!    [`mc3_obs::request_id_scope`] so every event-log line the request
//!    emits carries it,
//! 2. takes an in-flight guard on [`RequestMetrics`],
//! 3. for `/solve` (and per item of `/solve-batch`), wraps the solver
//!    call in a [`mc3_telemetry::ScopedSession`] — the request's span
//!    tree diverts into a thread-local buffer instead of the global
//!    finished list — and [`absorb`](mc3_telemetry::Aggregator::absorb)s
//!    the finished tree into the global [`Aggregator`]. The solve itself
//!    runs `parallel(true)` on the shared [`mc3_solver::executor`];
//!    executor workers capture and discard their own span roots per
//!    task, so no cross-request telemetry bleeds into this request's
//!    tree,
//! 4. records route/status/latency into [`RequestMetrics`] and emits one
//!    [`mc3_obs::access`] event.
//!
//! `/metrics` therefore serves five concatenated sections: the solver
//! registry rendered from the aggregator's cumulative report
//! ([`mc3_obs::prometheus_text`]), the constant
//! [`mc3_obs::build_info_text`] gauge, the live request-plane
//! families ([`RequestMetrics::render`]), the cache occupancy
//! families, and the live executor families.
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
//!    shared by every worker via [`Mc3Solver::cache`]) — bodies that
//!    differ textually but contain isomorphic components still hit,
//!    keyed by `mc3-core::canon` canonical fingerprints.

use crate::http::{encode_response, read_request, Request};
use crate::pool::ThreadPool;
use crate::ServerConfig;
use mc3_core::json::Json;
use mc3_core::StableHasher;
use mc3_obs::{RequestMetrics, Route};
use mc3_solver::{executor, Algorithm, ByteLru, Mc3Solver, SolveCache};
use mc3_telemetry::Aggregator;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a keep-alive connection may sit idle before the worker
/// reclaims itself.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

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

/// Shared server state: the metric families `/metrics` serves.
pub struct ServerState {
    /// Request-plane families (counters, in-flight gauge, latency
    /// histograms).
    pub metrics: RequestMetrics,
    /// Cumulative per-span solver telemetry across all requests.
    pub aggregator: Aggregator,
    request_seq: AtomicU64,
    nonce: u64,
    solve_cache: Option<Arc<SolveCache>>,
    request_cache: Option<Mutex<RequestCache>>,
    requests_dropped: AtomicU64,
}

impl ServerState {
    fn new(cfg: &ServerConfig) -> ServerState {
        let caching = cfg.cache_mb > 0;
        ServerState {
            metrics: RequestMetrics::new(),
            aggregator: Aggregator::new(),
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
            requests_dropped: AtomicU64::new(0),
        }
    }

    /// The cross-request component solve cache, when enabled.
    pub fn solve_cache(&self) -> Option<&Arc<SolveCache>> {
        self.solve_cache.as_ref()
    }

    /// Connections the accept loop had to answer 503 for because the
    /// worker pool rejected them (shutdown in progress).
    pub fn requests_dropped(&self) -> u64 {
        // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
        self.requests_dropped.load(Ordering::Relaxed)
    }

    fn next_request_id(&self) -> String {
        // audit:allow(no-relaxed-atomics) reviewed: unique-id ticket counter — only atomicity matters, not ordering
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{seq:08x}", self.nonce & 0xffff_ffff)
    }
}

/// A running server; dropping it does **not** stop the accept loop —
/// call [`Server::shutdown`] (tests) or [`Server::join`] (the CLI, which
/// blocks until a fatal accept-loop error).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Result<(), String>>>,
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
        let workers = if cfg.workers == 0 {
            // Each live connection parks on a worker, so the floor must
            // cover the loadgen default of 8 concurrent connections.
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(8)
                .max(8)
        } else {
            cfg.workers
        };
        // Size the shared solve executor before any request can touch it:
        // the pool is process-wide and fixed after first use, and every
        // /solve and /solve-batch runs its component tasks on it.
        if cfg.solve_threads > 0 {
            executor::configure_threads(cfg.solve_threads);
        }
        let state = Arc::new(ServerState::new(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("mc3-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, workers, &state, &stop))
                .map_err(|e| format!("cannot spawn accept thread: {e}"))?
        };
        mc3_obs::info(
            "server",
            "listening",
            &[
                ("addr", mc3_obs::Value::Str(addr.to_string())),
                ("workers", mc3_obs::Value::U64(workers as u64)),
                (
                    "solve_threads",
                    mc3_obs::Value::U64(executor::effective_threads() as u64),
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
            accept: Some(accept),
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

    /// Blocks until the accept loop exits — which it never does except on
    /// a fatal listener error or [`Server::shutdown`] from another thread.
    pub fn join(mut self) -> Result<String, String> {
        match self.accept.take() {
            Some(handle) => match handle.join() {
                Ok(Ok(())) => Ok("server stopped\n".to_owned()),
                Ok(Err(e)) => Err(e),
                Err(_) => Err("accept thread panicked".to_owned()),
            },
            None => Ok(String::new()),
        }
    }

    /// Stops the accept loop and joins it (workers drain first).
    pub fn shutdown(mut self) -> Result<(), String> {
        // audit:allow(no-relaxed-atomics) reviewed: SeqCst — the stop flag must be visible to the accept loop before the wake-up connection below
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection; a
        // failure means the accept loop is already gone, which is fine.
        // audit:allow(no-swallowed-result) reviewed: best-effort wake-up, both outcomes converge on the join below
        let _ = TcpStream::connect(self.addr);
        match self.accept.take() {
            Some(handle) => match handle.join() {
                Ok(r) => r,
                Err(_) => Err("accept thread panicked".to_owned()),
            },
            None => Ok(()),
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    workers: usize,
    state: &Arc<ServerState>,
    stop: &Arc<AtomicBool>,
) -> Result<(), String> {
    let pool = match ThreadPool::new(workers) {
        Ok(pool) => pool,
        Err(e) => return Err(format!("cannot spawn server workers: {e}")),
    };
    // The server-lifetime telemetry session: opens the recording gate so
    // worker-thread ScopedSessions capture real span trees. Finished (and
    // discarded) only when the accept loop ends.
    let session = mc3_telemetry::Session::begin();
    let result = loop {
        let conn = listener.accept();
        // audit:allow(no-relaxed-atomics) reviewed: SeqCst pairs with the store in shutdown(); the wake-up connection happens-after it
        if stop.load(Ordering::SeqCst) {
            break Ok(());
        }
        match conn {
            Ok((stream, _)) => {
                // Keep a write handle so a rejected connection gets an
                // explicit 503 instead of hanging until its client times
                // out; the pool only rejects while shutting down.
                let reject_writer = stream.try_clone();
                let conn_state = Arc::clone(state);
                let accepted = pool.execute(move || serve_connection(stream, &conn_state));
                if !accepted {
                    // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
                    state.requests_dropped.fetch_add(1, Ordering::Relaxed);
                    state.metrics.observe(Route::Other, 503, 0);
                    mc3_obs::warn(
                        "server",
                        "connection rejected: worker pool unavailable",
                        &[],
                    );
                    if let Ok(mut w) = reject_writer {
                        let wire = encode_response(
                            503,
                            "application/json",
                            b"{\"error\":\"server is shutting down\"}\n",
                        );
                        // audit:allow(no-swallowed-result) reviewed: best-effort courtesy response on a doomed connection
                        let _ = w.write_all(&wire).and_then(|()| w.flush());
                    }
                }
            }
            Err(e) => break Err(format!("accept failed: {e}")),
        }
    };
    drop(pool); // join workers before closing the telemetry session
                // The session-level report is deliberately unused: per-request trees
                // already live in the aggregator, which is what /metrics serves.
    session.finish();
    result
}

fn serve_connection(stream: TcpStream, state: &ServerState) {
    // Without the read timeout an idle client would pin its worker
    // forever, so a socket that cannot take one is not worth serving.
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() {
        return;
    }
    if stream.set_nodelay(true).is_err() {
        mc3_obs::debug("server", "set_nodelay failed; serving anyway", &[]);
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close between requests
            Err(_) => return,   // idle timeout or malformed framing
        };
        let close = req.wants_close();
        let start = mc3_telemetry::monotonic_ns();
        let request_id = state.next_request_id();
        let _rid = mc3_obs::request_id_scope(&request_id);
        let _inflight = state.metrics.inflight_guard();
        let (route, response) = dispatch(state, &req, &request_id);
        let wire = encode_response(response.status, response.content_type, &response.body);
        // Observe BEFORE writing: a client that has read its response and
        // then scrapes /metrics must already see this request counted.
        let latency_ns = mc3_telemetry::monotonic_ns().saturating_sub(start);
        state.metrics.observe(route, response.status, latency_ns);
        mc3_obs::access(
            &req.method,
            route.as_str(),
            response.status,
            latency_ns,
            wire.len() as u64,
        );
        let written = writer.write_all(&wire).and_then(|()| writer.flush());
        if close || written.is_err() {
            return;
        }
    }
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
        ("POST", "/solve-batch") => (
            Route::SolveBatch,
            handle_solve_batch(state, req, request_id),
        ),
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
        ("GET" | "POST", "/solve" | "/solve-batch" | "/metrics" | "/healthz" | "/buildinfo") => (
            route_of(req.path()),
            error_response(405, "method not allowed for this route"),
        ),
        _ => (Route::Other, error_response(404, "no such route")),
    }
}

fn route_of(path: &str) -> Route {
    match path {
        "/solve" => Route::Solve,
        "/solve-batch" => Route::SolveBatch,
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
/// telemetry registry ([`mc3_obs::prometheus_text`]); this adds the
/// instantaneous occupancy families the registry cannot carry, plus the
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

/// Live executor families: pool size and queue depth gauges plus the
/// always-on spawn counter (steady state after warmup must read a stable
/// value — new spawns under load mean the shared pool is not actually
/// shared), and the accept-loop drop counter. The cumulative
/// `mc3_exec_tasks_total` / `mc3_exec_steals_total` /
/// `mc3_exec_park_ns_total` counters and the `mc3_exec_wait_ns`
/// histogram arrive through the telemetry registry.
fn exec_metrics_text(state: &ServerState) -> String {
    let mut out = String::new();
    out.push_str("# TYPE mc3_exec_threads gauge\n");
    out.push_str(&format!("mc3_exec_threads {}\n", executor::pool_threads()));
    out.push_str("# TYPE mc3_exec_queue_depth gauge\n");
    out.push_str(&format!(
        "mc3_exec_queue_depth {}\n",
        executor::queue_depth()
    ));
    out.push_str("# TYPE mc3_exec_thread_spawns_total counter\n");
    out.push_str(&format!(
        "mc3_exec_thread_spawns_total {}\n",
        executor::thread_spawns_total()
    ));
    out.push_str("# TYPE mc3_requests_dropped_total counter\n");
    out.push_str(&format!(
        "mc3_requests_dropped_total {}\n",
        state.requests_dropped()
    ));
    out
}

fn handle_metrics(state: &ServerState) -> HandlerResponse {
    let (version, git) = build_ids();
    let mut body = mc3_obs::prometheus_text(&state.aggregator.report());
    body.push_str(&mc3_obs::build_info_text(version, Some(git)));
    body.push_str(&state.metrics.render());
    body.push_str(&cache_metrics_text(state));
    body.push_str(&exec_metrics_text(state));
    HandlerResponse {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: body.into_bytes(),
    }
}

/// The `algorithm` query parameter of both solve routes (default `auto`).
fn algorithm_param(req: &Request) -> Result<Algorithm, String> {
    req.query_param("algorithm")
        .map_or(Ok(Algorithm::Auto), Algorithm::parse_name)
}

/// `POST /solve`: the one-item case of [`solve_item`], behind the
/// exact-body request cache.
fn handle_solve(state: &ServerState, req: &Request, request_id: &str) -> HandlerResponse {
    let algorithm = match algorithm_param(req) {
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

    let fields = std::str::from_utf8(&req.body)
        .map_err(|_| "stream did not contain valid UTF-8".to_owned())
        .and_then(|text| mc3_core::json::parse(text).map_err(|e| e.to_string()))
        .map_err(|e| (400, format!("bad dataset: {e}")))
        .and_then(|item| solve_item(state, item, algorithm));
    let fields = match fields {
        Ok(fields) => fields,
        Err((status, msg)) => return error_response(status, &msg),
    };
    let doc = Json::object(
        std::iter::once(("request_id", Json::Str(request_id.to_owned()))).chain(fields),
    );
    let response = json_response(200, &doc);
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

/// One item of either solve route: decodes a dataset document and
/// solves it, rendering the shared response fields (everything except
/// `request_id`/`status`, which the callers add). `Err` carries the HTTP
/// status and message.
///
/// Request-scoped tracing: the solve's span tree is captured on this
/// worker thread and merged into the global aggregate. The solve runs
/// `parallel(true)` on the shared executor — safe for the per-request
/// scope because executor workers capture and discard their own span
/// roots per task, so only this thread's `solve` tree lands here.
fn solve_item(
    state: &ServerState,
    item: Json,
    algorithm: Algorithm,
) -> Result<Vec<(&'static str, Json)>, (u16, String)> {
    let ds = mc3_workload::DatasetFile::from_json(&item)
        .and_then(|f| f.into_dataset().map_err(|e| e.to_string()))
        .map_err(|e| (400, format!("bad dataset: {e}")))?;
    drop(item); // the document tree is dead weight during the solve
    let scope = mc3_telemetry::ScopedSession::begin();
    let mut solver = Mc3Solver::new().algorithm(algorithm).parallel(true);
    if let Some(cache) = &state.solve_cache {
        solver = solver.cache(Arc::clone(cache));
    }
    let solved = solver.solve_report(&ds.instance);
    let roots = scope.finish();
    state.aggregator.absorb(&roots);

    let report = solved.map_err(|e| (422, format!("solve failed: {e}")))?;
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
    Ok(vec![
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
    ])
}

/// `POST /solve-batch`: a JSON array of dataset documents in one body,
/// one parse pass, one response. Items are solved as consecutive task
/// groups on the shared executor (each item's component tasks fan out
/// across the pool) and are fully independent: a bad or infeasible item
/// reports its own `status`/`error` without failing its siblings, and
/// every item gets its own verified certificate. Isomorphic items hit
/// the shared component cache, so duplicate-heavy batches amortize both
/// parsing and solving.
fn handle_solve_batch(state: &ServerState, req: &Request, request_id: &str) -> HandlerResponse {
    let algorithm = match algorithm_param(req) {
        Ok(a) => a,
        Err(e) => return error_response(400, &e),
    };
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error_response(400, "batch body must be UTF-8 JSON"),
    };
    let parsed = match mc3_core::json::parse(body) {
        Ok(doc) => doc,
        Err(e) => return error_response(400, &format!("bad batch body: {e}")),
    };
    let Json::Array(items) = parsed else {
        return error_response(400, "batch body must be a JSON array of datasets");
    };
    if items.is_empty() {
        return error_response(400, "empty batch");
    }

    let count = items.len();
    let mut ok = 0usize;
    let mut out = Vec::with_capacity(count);
    for item in items {
        let item_doc = match solve_item(state, item, algorithm) {
            Ok(fields) => {
                ok += 1;
                Json::object(std::iter::once(("status", Json::Int(200))).chain(fields))
            }
            Err((status, msg)) => Json::object([
                ("status", Json::Int(i128::from(status))),
                ("error", Json::Str(msg)),
            ]),
        };
        out.push(item_doc);
    }
    let doc = Json::object([
        ("request_id", Json::Str(request_id.to_owned())),
        ("algorithm", Json::Str(algorithm.name().to_owned())),
        ("count", Json::Int(count as i128)),
        ("ok", Json::Int(ok as i128)),
        ("items", Json::Array(out)),
    ]);
    json_response(200, &doc)
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
}
