#![warn(missing_docs)]

//! `mc3-server` — the live serving plane for the MC³ solver.
//!
//! Zero external dependencies, like the rest of the workspace: the HTTP
//! layer is a hand-rolled HTTP/1.1 subset over `std::net::TcpListener`
//! ([`http`]), requests run on a fixed [`pool`] of worker threads, and
//! all timing goes through [`mc3_telemetry::monotonic_ns`].
//!
//! * [`server`] — `mc3 serve`: `POST /solve` (dataset JSON in, solve
//!   report + certificate out), `GET /metrics` (live Prometheus
//!   exposition: cumulative solver telemetry from the per-request
//!   [`mc3_telemetry::Aggregator`], plus the request-plane families),
//!   `GET /healthz`, `GET /buildinfo`. Every request gets its own id,
//!   propagated into the JSONL event log, and its own
//!   [`mc3_telemetry::ScopedSession`] span tree. Repeated work is
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
pub mod pool;
pub mod server;

pub use loadgen::{run_loadgen, LoadReport, RouteStats};
pub use server::{Server, ServerState};

/// `mc3 serve` parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7920` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads; `0` = one per available core (floor 8, so the
    /// default covers `mc3 loadgen --concurrency 8`).
    pub workers: usize,
    /// Byte budget (MiB) for the cross-request solve cache; the
    /// exact-body request cache gets a quarter of it on top. `0`
    /// disables both: every request recomputes from scratch.
    pub cache_mb: usize,
    /// Worker count for the shared solve executor
    /// ([`mc3_solver::executor`]) all `/solve` and `/solve-batch`
    /// requests run their component solves on; `0` = one per available
    /// core. The pool is process-wide and sized once, at startup.
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
    /// Batch mode: `n > 1` posts each mix body as an `n`-item array to
    /// `POST /solve-batch` and accounts per-item latencies; `0` or `1`
    /// drives plain `POST /solve`.
    pub batch: usize,
}

/// Starts a server and blocks forever (the `mc3 serve` entry point);
/// returns only on a fatal accept-loop error.
pub fn serve_forever(cfg: &ServerConfig) -> Result<String, String> {
    Server::start(cfg)?.join()
}
