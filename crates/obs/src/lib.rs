#![warn(missing_docs)]

//! `mc3-obs` — the consumer layer on top of `mc3-telemetry`.
//!
//! `mc3-telemetry` records; this crate makes the recordings *usable*
//! outside the process, with the same zero-external-dependency rule as
//! the rest of the workspace:
//!
//! * [`chrome`] — converts a [`TelemetryReport`] span tree into Chrome
//!   trace-event JSON that `chrome://tracing` and Perfetto open directly
//!   (`mc3 profile --chrome FILE`, `mc3 solve --chrome FILE`).
//! * [`prom`] — renders every registered counter and histogram (and the
//!   span wall-times) in the Prometheus text exposition format, for file
//!   export today (`mc3 profile --prom FILE`) and a serving-mode scrape
//!   endpoint later.
//! * [`events`] — a leveled JSONL event sink that writes every event it
//!   admits, with per-event span and request-id context. Library crates emit
//!   diagnostics through it instead of `eprintln!` (the `mc3-audit` rule
//!   `no-raw-eprintln-in-lib` enforces that).
//! * [`gate`] — the perf-regression sentinel behind `mc3 bench-gate`:
//!   compares a candidate [`TelemetryReport`] against a checked-in
//!   baseline (`BENCH_baseline.json`), span wall-times under a loose
//!   relative tolerance and solver-internals counters strictly.
//! * [`serve_metrics`] — the request-plane families `mc3 serve` scrapes
//!   expose next to the solver registry: per-route/status request
//!   counters, the in-flight gauge and log2 latency histograms.
//!
//! [`TelemetryReport`]: mc3_telemetry::TelemetryReport

pub mod chrome;
pub mod events;
pub mod gate;
pub mod prom;
pub mod serve_metrics;

pub use chrome::chrome_trace_json;
pub use events::{
    access, current_request_id, debug, error, event, info, request_id_scope, warn, Level,
    RequestIdScope, Value,
};
pub use gate::{compare, BaselineFile, GateConfig, GateOutcome, GateViolation, WorkloadSpec};
pub use prom::{build_info_text, prometheus_text};
pub use serve_metrics::{InflightGuard, RequestMetrics, Route};
