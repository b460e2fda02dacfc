#![warn(missing_docs)]

//! `mc3-server` — the live serving plane for the MC³ solver.
//!
//! Zero external dependencies, like the rest of the workspace: the HTTP
//! layer is a hand-rolled HTTP/1.1 subset over `std::net::TcpListener`
//! ([`http`]), each connection is served on a thread of its own, and
//! all timing goes through [`mc3_telemetry::monotonic_ns`].
//!
//! * [`server`] — `mc3 serve`: `POST /solve` (dataset JSON in, solve
//!   report + certificate out), `GET /metrics` (live Prometheus
//!   exposition: cumulative solver telemetry from
//!   [`mc3_telemetry::live_report`], every request's span tree
//!   included, plus the request-plane families), `GET /healthz`,
//!   `GET /buildinfo`. Every request gets its own id, propagated into
//!   the JSONL event log, and a handler panic is answered 500. Repeated
//!   work is
//!   memoized across requests: a canonical-fingerprint component cache
//!   ([`mc3_solver::SolveCache`]) plus an exact-body response cache,
//!   both sized by [`ServerConfig::cache_mb`], and both off when it
//!   is `0`.
//! * [`loadgen`] — `mc3 loadgen`: drives a server with a deterministic
//!   [`mc3_workload::RequestMix`], reports per-route p50/p95/p99, and
//!   exits non-zero when the `/solve` p99 SLO is violated (the CI smoke
//!   job's gate).
//!
//! See `docs/serving.md` for the endpoint reference and request
//! lifecycle.

pub mod http;
pub mod loadgen;
pub mod server;

pub use loadgen::{run_loadgen, LoadReport, RouteStats};
pub use server::{Server, ServerState};

/// `mc3 serve` parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7920` (`:0` picks a free port).
    pub addr: String,
    /// Byte budget (MiB) for the cross-request solve cache; the
    /// exact-body request cache gets a quarter of it on top. `0`
    /// disables both: every request recomputes from scratch.
    pub cache_mb: usize,
    /// Solves in flight at once: at most this many `/solve` requests run
    /// decode → solve → certify together, each inline on its
    /// connection's thread; the rest wait. `0` = one per available core.
    pub solve_threads: usize,
}

/// `mc3 loadgen` parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address to drive.
    pub addr: String,
    /// Run duration in seconds.
    pub duration_secs: u64,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// The workload rotation.
    pub mix: mc3_workload::RequestMix,
    /// p99 latency SLO for `/solve`, milliseconds.
    pub slo_p99_ms: Option<u64>,
}
