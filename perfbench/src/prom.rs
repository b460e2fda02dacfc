//! Prometheus text-exposition scraping and counter deltas.
//!
//! The serve workloads scrape `/metrics` once before and once after the
//! timed window — never during it — and report the difference of the
//! `mc3_cache_*`, `mc3_request_cache_*`, `mc3_exec_*` and kernel counter
//! families.

use std::collections::BTreeMap;

/// The unlabelled samples of one scrape, by metric name. Labelled series
/// (`name{...} value`) and comment lines are skipped: every family this
/// benchmark reads is exposed without labels (histograms through their
/// `_sum` and `_count` series).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses exposition text. Malformed lines are skipped rather than
    /// failing the scrape, so one odd family cannot hide the others.
    pub fn parse(text: &str) -> Scrape {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.contains('{') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                samples.insert(name.to_owned(), v);
            }
        }
        Scrape(samples)
    }

    /// The sample named `name`, if the scrape exposed it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Growth of the monotonic counter `name` from `before` to `after`.
///
/// * A counter absent from `after` did not exist during the window (the
///   family is disabled, e.g. a server without caches): 0.
/// * A counter absent from `before` but present in `after` started at 0.
/// * A counter that went *down* was reset (a restarted process): the
///   growth since the reset is its whole `after` value.
pub fn counter_delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    let Some(a) = after.get(name) else {
        return 0.0;
    };
    let b = before.get(name).unwrap_or(0.0);
    if a < b {
        a
    } else {
        a - b
    }
}

/// `hits / (hits + misses)` over the window, 0 when nothing was looked up.
pub fn hit_ratio(before: &Scrape, after: &Scrape, hits: &str, misses: &str) -> f64 {
    let h = counter_delta(before, after, hits);
    let m = counter_delta(before, after, misses);
    if h + m > 0.0 {
        h / (h + m)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP mc3_cache_hits_total Component cache hits.
# TYPE mc3_cache_hits_total counter
mc3_cache_hits_total 10
mc3_cache_misses_total 30
mc3_cache_lookup_ns_bucket{le=\"255\"} 4
mc3_exec_tasks_total 100
mc3_exec_steals_total 7
mc3_exec_park_ns_total 5000
mc3_exec_wait_ns_sum 2.5e6
mc3_exec_wait_ns_count 100
mc3_request_cache_hits_total 0
mc3_request_cache_misses_total 2
mc3_requests_dropped_total 0
";

    const AFTER: &str = "\
mc3_cache_hits_total 70
mc3_cache_misses_total 50
mc3_cache_lookup_ns_bucket{le=\"255\"} 9
mc3_exec_tasks_total 160
mc3_exec_steals_total 7
mc3_exec_park_ns_total 9000
mc3_exec_wait_ns_sum 4.0e6
mc3_exec_wait_ns_count 160
mc3_request_cache_hits_total 6
mc3_request_cache_misses_total 8
mc3_requests_dropped_total 0
";

    #[test]
    fn parses_unlabelled_samples_only() {
        let s = Scrape::parse(BEFORE);
        assert_eq!(s.get("mc3_cache_hits_total"), Some(10.0));
        assert_eq!(s.get("mc3_exec_wait_ns_sum"), Some(2.5e6));
        assert_eq!(s.get("mc3_cache_lookup_ns_bucket"), None);
        assert_eq!(s.get("mc3_cache_lookup_ns_bucket{le=\"255\"}"), None);
        assert_eq!(s.get("# TYPE"), None);
    }

    #[test]
    fn deltas_of_the_three_families() {
        let (b, a) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(counter_delta(&b, &a, "mc3_cache_hits_total"), 60.0);
        assert_eq!(counter_delta(&b, &a, "mc3_cache_misses_total"), 20.0);
        assert_eq!(
            hit_ratio(&b, &a, "mc3_cache_hits_total", "mc3_cache_misses_total"),
            0.75
        );
        assert_eq!(
            hit_ratio(
                &b,
                &a,
                "mc3_request_cache_hits_total",
                "mc3_request_cache_misses_total"
            ),
            0.5
        );
        assert_eq!(counter_delta(&b, &a, "mc3_exec_tasks_total"), 60.0);
        assert_eq!(counter_delta(&b, &a, "mc3_exec_steals_total"), 0.0);
        assert_eq!(counter_delta(&b, &a, "mc3_exec_park_ns_total"), 4000.0);
        assert_eq!(counter_delta(&b, &a, "mc3_exec_wait_ns_sum"), 1.5e6);
        assert_eq!(counter_delta(&b, &a, "mc3_requests_dropped_total"), 0.0);
    }

    #[test]
    fn absent_counters_read_as_no_growth() {
        let b = Scrape::parse(BEFORE);
        let a = Scrape::parse("mc3_cache_hits_total 12\n");
        // absent after: the family is not exposed, so nothing happened
        assert_eq!(counter_delta(&b, &a, "mc3_request_cache_hits_total"), 0.0);
        assert_eq!(
            hit_ratio(
                &b,
                &a,
                "mc3_request_cache_hits_total",
                "mc3_request_cache_misses_total"
            ),
            0.0
        );
        // absent before: it started from zero
        let empty = Scrape::parse("");
        assert_eq!(counter_delta(&empty, &a, "mc3_cache_hits_total"), 12.0);
        assert_eq!(counter_delta(&empty, &empty, "mc3_cache_hits_total"), 0.0);
    }

    #[test]
    fn a_reset_counter_counts_from_zero() {
        let b = Scrape::parse("mc3_exec_tasks_total 500\nmc3_cache_hits_total 40\n");
        let a = Scrape::parse("mc3_exec_tasks_total 25\nmc3_cache_hits_total 40\n");
        assert_eq!(counter_delta(&b, &a, "mc3_exec_tasks_total"), 25.0);
        assert_eq!(counter_delta(&b, &a, "mc3_cache_hits_total"), 0.0);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let s = Scrape::parse("mc3_a_total\nmc3_b_total x\nmc3_c_total 3\n\n");
        assert_eq!(s.get("mc3_a_total"), None);
        assert_eq!(s.get("mc3_b_total"), None);
        assert_eq!(s.get("mc3_c_total"), Some(3.0));
    }
}
