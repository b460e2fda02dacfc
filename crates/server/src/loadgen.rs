//! `mc3 loadgen` — a deterministic, SLO-gated load generator for the
//! serving plane.
//!
//! Workers share one atomic request ticket; ticket `i` maps through
//! [`RequestMix::entry_for`](mc3_workload::RequestMix::entry_for) to a
//! pre-serialized `/solve` body (every 16th ticket scrapes `/metrics`
//! instead, so the report covers both routes). Request bodies are
//! generated **once** up front, so the load measured is the server's,
//! not the generator's. The run reports
//! p50/p95/p99 per route and exits non-zero when the `/solve` p99
//! exceeds `--slo p99=...`.
//!
//! With `--batch n` (n > 1) each mix body becomes an `n`-item
//! [`mc3_workload::generate_batch`] array posted to `POST /solve-batch`;
//! the run then accounts **per-item** latencies (an equal share of each
//! request's wire latency) and failures from the response envelope's
//! `count`/`ok` fields, and the SLO gate applies to the per-item
//! `solve-batch` percentiles.
//!
//! The run also scrapes the server's cache counters
//! (`mc3_cache_hits_total`, `mc3_request_cache_hits_total`, …) before
//! and after, and reports the hit ratios the run itself produced — the
//! observable that makes a duplicate-heavy mix worth driving.

use crate::http::{read_response, write_request};
use crate::LoadgenConfig;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every `SCRAPE_EVERY`-th ticket becomes a `/metrics` scrape.
const SCRAPE_EVERY: u64 = 16;

/// One completed request as seen by the client.
#[derive(Debug, Clone, Copy)]
struct Sample {
    route: &'static str,
    latency_ns: u64,
    ok: bool,
}

/// Per-route aggregation of a finished run.
#[derive(Debug, Default, Clone)]
pub struct RouteStats {
    /// Latencies of successful (2xx) requests, nanoseconds, sorted.
    pub latencies_ns: Vec<u64>,
    /// Requests that failed: non-2xx status or transport error.
    pub failures: u64,
}

impl RouteStats {
    /// The `p`-th percentile latency in nanoseconds (nearest-rank on the
    /// sorted successes); `None` with no successes.
    pub fn percentile_ns(&self, p: u64) -> Option<u64> {
        let n = self.latencies_ns.len() as u64;
        if n == 0 {
            return None;
        }
        let rank = ((n - 1) * p + 50) / 100;
        self.latencies_ns.get(rank as usize).copied()
    }
}

/// Outcome of a load run, keyed by route label.
#[derive(Debug, Default, Clone)]
pub struct LoadReport {
    /// Per-route stats.
    pub routes: BTreeMap<&'static str, RouteStats>,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u64,
}

impl LoadReport {
    fn total_requests(&self) -> u64 {
        self.routes
            .values()
            .map(|s| s.latencies_ns.len() as u64 + s.failures)
            .sum()
    }

    fn total_failures(&self) -> u64 {
        self.routes.values().map(|s| s.failures).sum()
    }

    /// Renders the human-readable run report.
    pub fn render(&self, concurrency: usize) -> String {
        use std::fmt::Write as _;
        let ms = |ns: Option<u64>| match ns {
            Some(ns) => format!("{:.2}ms", ns as f64 / 1e6),
            None => "n/a".to_owned(),
        };
        let secs = (self.wall_ns as f64 / 1e9).max(1e-9);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} requests in {secs:.1}s over {concurrency} connections ({:.1} req/s), {} failures",
            self.total_requests(),
            self.total_requests() as f64 / secs,
            self.total_failures(),
        );
        for (route, stats) in &self.routes {
            let _ = writeln!(
                out,
                "  route {route:<9} n={:<6} failures={:<4} p50={} p95={} p99={}",
                stats.latencies_ns.len(),
                stats.failures,
                ms(stats.percentile_ns(50)),
                ms(stats.percentile_ns(95)),
                ms(stats.percentile_ns(99)),
            );
        }
        out
    }
}

/// Pre-serialized request bodies, one per mix entry (same order as
/// [`RequestMix::entries`]). In batch mode each body is an
/// [`mc3_workload::generate_batch`] array targeting `/solve-batch`.
fn prepare_bodies(cfg: &LoadgenConfig) -> Result<Vec<(String, Vec<u8>)>, String> {
    let batch = cfg.batch.max(1);
    cfg.mix
        .entries()
        .iter()
        .map(|entry| {
            let mut body = Vec::new();
            let target = if batch > 1 {
                let items =
                    mc3_workload::generate_batch(entry.kind, entry.queries, entry.seed, batch);
                mc3_workload::write_batch_json(&items, &mut body)
                    .map_err(|e| format!("cannot serialize workload '{}': {e}", entry.spec()))?;
                format!("/solve-batch?algorithm={}", entry.algorithm)
            } else {
                let ds = mc3_workload::generate_dataset(entry.kind, entry.queries, entry.seed);
                mc3_workload::write_dataset_json(&ds, &mut body)
                    .map_err(|e| format!("cannot serialize workload '{}': {e}", entry.spec()))?;
                format!("/solve?algorithm={}", entry.algorithm)
            };
            Ok((target, body))
        })
        .collect()
}

/// Lifts `(count, ok)` from a `/solve-batch` envelope; `None` when the
/// body is not a well-formed envelope.
fn parse_batch_envelope(body: &[u8]) -> Option<(u64, u64)> {
    let doc = mc3_core::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some((doc.get("count")?.as_u64()?, doc.get("ok")?.as_u64()?))
}

/// Cache counters lifted from one `/metrics` exposition.
#[derive(Debug, Default, Clone, Copy)]
struct CacheCounters {
    solve_hits: u64,
    solve_misses: u64,
    request_hits: u64,
    request_misses: u64,
}

/// Scrapes `/metrics` once and extracts the cache counter families;
/// `None` when the scrape itself fails (families missing parse as 0 —
/// a `--no-cache` server still renders the registry counters).
fn scrape_cache_counters(addr: &str) -> Option<CacheCounters> {
    let (mut reader, mut writer) = connect(addr).ok()?;
    write_request(&mut writer, "GET", "/metrics", None).ok()?;
    let (status, body) = read_response(&mut reader).ok()?;
    if !(200..300).contains(&status) {
        return None;
    }
    let text = String::from_utf8(body).ok()?;
    let value = |name: &str| -> u64 {
        let needle = format!("{name} ");
        text.lines()
            .find_map(|l| l.strip_prefix(needle.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    Some(CacheCounters {
        solve_hits: value("mc3_cache_hits_total"),
        solve_misses: value("mc3_cache_misses_total"),
        request_hits: value("mc3_request_cache_hits_total"),
        request_misses: value("mc3_request_cache_misses_total"),
    })
}

/// `"83.3% (120/144)"`, or `"n/a"` with no lookups.
fn hit_ratio(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "n/a".to_owned()
    } else {
        format!(
            "{:.1}% ({hits}/{total})",
            100.0 * hits as f64 / total as f64
        )
    }
}

fn connect(addr: &str) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

fn worker_loop(
    cfg: &LoadgenConfig,
    bodies: &[(String, Vec<u8>)],
    ticket: &AtomicU64,
    deadline_ns: u64,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn = connect(&cfg.addr).ok();
    while mc3_telemetry::monotonic_ns() < deadline_ns {
        let Some((reader, writer)) = conn.as_mut() else {
            std::thread::sleep(Duration::from_millis(20));
            conn = connect(&cfg.addr).ok();
            continue;
        };
        // audit:allow(no-relaxed-atomics) reviewed: shared ticket counter — entry choice only needs uniqueness, not ordering
        let i = ticket.fetch_add(1, Ordering::Relaxed);
        let solve_route = if cfg.batch > 1 {
            "solve-batch"
        } else {
            "solve"
        };
        let (route, method, target, body) = if i % SCRAPE_EVERY == SCRAPE_EVERY - 1 {
            ("metrics", "GET", "/metrics", None)
        } else {
            let Some(entry) = cfg.mix.entry_for(i) else {
                break;
            };
            let idx = cfg
                .mix
                .entries()
                .iter()
                .position(|e| std::ptr::eq(e, entry))
                .unwrap_or(0);
            match bodies.get(idx) {
                Some((target, body)) => {
                    (solve_route, "POST", target.as_str(), Some(body.as_slice()))
                }
                None => break,
            }
        };
        let start = mc3_telemetry::monotonic_ns();
        let outcome =
            write_request(writer, method, target, body).and_then(|()| read_response(reader));
        let latency_ns = mc3_telemetry::monotonic_ns().saturating_sub(start);
        match outcome {
            Ok((status, body)) => {
                if route == "solve-batch" && (200..300).contains(&status) {
                    // Per-item accounting: the envelope says how many
                    // items succeeded; each is charged an equal share of
                    // the wire latency. A 200 that is not a well-formed
                    // envelope counts as one failed item.
                    let (count, ok) = parse_batch_envelope(&body).unwrap_or((1, 0));
                    let per_item_ns = latency_ns / count.max(1);
                    for item in 0..count.max(1) {
                        samples.push(Sample {
                            route,
                            latency_ns: per_item_ns,
                            ok: item < ok,
                        });
                    }
                } else {
                    samples.push(Sample {
                        route,
                        latency_ns,
                        ok: (200..300).contains(&status),
                    });
                }
            }
            Err(_) => {
                samples.push(Sample {
                    route,
                    latency_ns,
                    ok: false,
                });
                conn = None; // transport error: reconnect on the next tick
            }
        }
    }
    samples
}

/// Runs the load and renders the report; `Err` when the `/solve` p99 SLO
/// is violated (or nothing could be measured), so the CLI exits non-zero
/// and CI fails.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<String, String> {
    let bodies = prepare_bodies(cfg)?;
    let ticket = Arc::new(AtomicU64::new(0));
    let cache_before = scrape_cache_counters(&cfg.addr);
    let start_ns = mc3_telemetry::monotonic_ns();
    let deadline_ns = start_ns.saturating_add(cfg.duration_secs.saturating_mul(1_000_000_000));

    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.concurrency.max(1))
            .map(|_| {
                let ticket = Arc::clone(&ticket);
                let bodies = &bodies;
                scope.spawn(move || worker_loop(cfg, bodies, &ticket, deadline_ns))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut report = LoadReport {
        wall_ns: mc3_telemetry::monotonic_ns().saturating_sub(start_ns),
        ..LoadReport::default()
    };
    for s in samples {
        let stats = report.routes.entry(s.route).or_default();
        if s.ok {
            stats.latencies_ns.push(s.latency_ns);
        } else {
            stats.failures += 1;
        }
    }
    for stats in report.routes.values_mut() {
        stats.latencies_ns.sort_unstable();
    }

    let mut text = report.render(cfg.concurrency.max(1));
    if let (Some(before), Some(after)) = (cache_before, scrape_cache_counters(&cfg.addr)) {
        text.push_str(&format!(
            "  cache solve-components: {} hit  request-bodies: {} hit\n",
            hit_ratio(
                after.solve_hits.saturating_sub(before.solve_hits),
                after.solve_misses.saturating_sub(before.solve_misses),
            ),
            hit_ratio(
                after.request_hits.saturating_sub(before.request_hits),
                after.request_misses.saturating_sub(before.request_misses),
            ),
        ));
    }
    // In batch mode the gate applies to per-item latencies on the
    // solve-batch route — same quantity of work per sample either way.
    let solve_route = if cfg.batch > 1 {
        "solve-batch"
    } else {
        "solve"
    };
    let solve_p99 = report
        .routes
        .get(solve_route)
        .and_then(|s| s.percentile_ns(99));
    match (cfg.slo_p99_ms, solve_p99) {
        (Some(slo_ms), Some(p99_ns)) => {
            let p99_ms = p99_ns as f64 / 1e6;
            if p99_ns > slo_ms.saturating_mul(1_000_000) {
                text.push_str(&format!(
                    "slo: p99({solve_route}) = {p99_ms:.2}ms > {slo_ms}ms\nloadgen: SLO FAIL"
                ));
                return Err(text);
            }
            text.push_str(&format!(
                "slo: p99({solve_route}) = {p99_ms:.2}ms <= {slo_ms}ms\nloadgen: PASS\n"
            ));
        }
        (Some(_), None) => {
            text.push_str(&format!(
                "slo: no successful /{solve_route} samples to measure\nloadgen: SLO FAIL"
            ));
            return Err(text);
        }
        (None, _) => {}
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let stats = RouteStats {
            latencies_ns: (1..=100).collect(),
            failures: 0,
        };
        assert_eq!(stats.percentile_ns(50), Some(51)); // rank 50 of 0..=99
        assert_eq!(stats.percentile_ns(99), Some(99));
        assert_eq!(stats.percentile_ns(100), Some(100));
        assert_eq!(RouteStats::default().percentile_ns(99), None);
    }

    #[test]
    fn hit_ratio_formats_and_handles_empty() {
        assert_eq!(hit_ratio(0, 0), "n/a");
        assert_eq!(hit_ratio(3, 1), "75.0% (3/4)");
        assert_eq!(hit_ratio(0, 5), "0.0% (0/5)");
    }

    #[test]
    fn report_renders_routes_and_counts() {
        let mut report = LoadReport::default();
        report.wall_ns = 2_000_000_000;
        let solve = report.routes.entry("solve").or_default();
        solve.latencies_ns = vec![1_000_000, 2_000_000, 3_000_000];
        solve.failures = 1;
        let text = report.render(4);
        assert!(text.contains("4 requests in 2.0s over 4 connections"));
        assert!(text.contains("1 failures"));
        assert!(text.contains("route solve"));
        assert!(text.contains("p50=2.00ms"));
    }
}
