//! Telemetry properties of the full solve pipeline: the span tree's
//! phase nodes store *exactly* the public `SolveTimings` durations, the
//! tree covers (almost) all of the solve wall time, a mixed-length
//! workload lights up both the k ≤ 2 flow counters and the general-path
//! greedy counters, and every counter total is the sum of its span
//! nodes, the solve cache's included.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`):
//! deterministic random cases from [`mc3_core::rng::StdRng`], printing
//! the seed on failure. Telemetry state is process-global, so tests
//! serialize on a file-local mutex (sessions also serialize themselves,
//! but the lock keeps assertions from interleaving with another test's
//! recording window).

mod common;

use mc3_core::rng::prelude::*;
use mc3_core::{Instance, Weights};
use mc3_solver::{Algorithm, Mc3Solver, SolveCache};
use mc3_telemetry::{Session, SpanData, TelemetryReport, COUNTER_NAMES};
use std::sync::{Arc, Mutex};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A mixed-length instance: short (≤ 2) and long queries over a small
/// property space, so components split and both solver paths get work.
fn rand_instance(rng: &mut StdRng) -> Instance {
    let nq = rng.gen_range(4..24usize);
    let queries: Vec<Vec<u32>> = (0..nq)
        .map(|_| {
            let len = rng.gen_range(1..5usize);
            (0..len).map(|_| rng.gen_range(0..24u32)).collect()
        })
        .collect();
    let wseed = rng.gen::<u64>();
    Instance::new(queries, Weights::seeded(wseed, 1, 40)).expect("valid instance")
}

fn find_child<'a>(node: &'a SpanData, name: &str) -> Option<&'a SpanData> {
    node.children.iter().find(|c| c.name == name)
}

fn find_root<'a>(report: &'a TelemetryReport, name: &str) -> Option<&'a SpanData> {
    report.spans.iter().find(|s| s.name == name)
}

#[test]
fn span_tree_wall_times_equal_solve_timings_exactly() {
    let _guard = locked();
    for seed in 0..40 {
        let mut rng = StdRng::seed_from_u64(0x7151E ^ seed);
        let instance = rand_instance(&mut rng);
        let session = Session::begin();
        let report = Mc3Solver::new()
            .algorithm(Algorithm::ShortFirst)
            .solve_report(&instance)
            .expect("solvable");
        let tel = session.finish();
        let t = report.timings;
        let root = find_root(&tel, "solve").expect("root solve span");
        assert_eq!(
            u128::from(root.wall_ns),
            t.total.as_nanos(),
            "seed {seed}: total"
        );
        let phases = [
            ("setup", t.setup),
            ("preprocess", t.preprocess),
            ("solve_core", t.solve),
        ];
        for (name, want) in phases {
            let node = find_child(root, name)
                .unwrap_or_else(|| panic!("seed {seed}: phase span '{name}' missing"));
            assert_eq!(
                u128::from(node.wall_ns),
                want.as_nanos(),
                "seed {seed}: span '{name}' must store exactly the SolveTimings duration"
            );
        }
    }
}

#[test]
fn span_tree_covers_at_least_90_percent_of_solve_wall_time() {
    let _guard = locked();
    // One sequential solve of a mid-sized instance: the three phase spans
    // must account for ≥ 90% of the root's wall time (the rest is match
    // dispatch and report assembly glue).
    let mut rng = StdRng::seed_from_u64(0xC07E1);
    let queries: Vec<Vec<u32>> = (0..150)
        .map(|_| {
            let len = rng.gen_range(1..5usize);
            (0..len).map(|_| rng.gen_range(0..40u32)).collect()
        })
        .collect();
    let instance = Instance::new(queries, Weights::seeded(11, 1, 40)).expect("valid instance");
    let session = Session::begin();
    Mc3Solver::new()
        .algorithm(Algorithm::ShortFirst)
        .solve_report(&instance)
        .expect("solvable");
    let tel = session.finish();
    let root = find_root(&tel, "solve").expect("root solve span");
    let phase_sum: u64 = root.children.iter().map(|c| c.wall_ns).sum();
    assert!(root.wall_ns > 0);
    let coverage = phase_sum as f64 / root.wall_ns as f64;
    assert!(
        coverage >= 0.9,
        "phase spans cover only {:.1}% of solve wall time\n{}",
        100.0 * coverage,
        tel.render()
    );
}

#[test]
fn mixed_workload_lights_up_both_k2_and_general_counters() {
    let _guard = locked();
    // Deterministic instance with pair queries (sharing properties, so the
    // WVC flow network has real edges) plus long queries for the general
    // path.
    let queries: Vec<Vec<u32>> = vec![
        vec![0, 1],
        vec![1, 2],
        vec![0, 2],
        vec![3, 4],
        vec![0, 1, 2, 3],
        vec![2, 3, 4, 5],
        vec![5, 6, 7],
    ];
    let instance = Instance::new(queries, Weights::seeded(3, 2, 9)).expect("valid instance");
    let session = Session::begin();
    Mc3Solver::new()
        .algorithm(Algorithm::ShortFirst)
        .solve_report(&instance)
        .expect("solvable");
    let tel = session.finish();
    for name in [
        "dispatch_k2",
        "dispatch_general",
        "wvc_solves",
        "dinic_phases",
        "dinic_bfs_visits",
        "greedy_iterations",
        "greedy_selected",
        "components_split",
    ] {
        assert!(
            tel.counters[name] > 0,
            "counter '{name}' stayed zero on a mixed workload\n{}",
            tel.render()
        );
    }
    let comp_hist = tel
        .histograms
        .iter()
        .find(|h| h.name == "component_size")
        .expect("registered histogram");
    assert!(comp_hist.count > 0, "component sizes must be recorded");
}

#[test]
fn solves_outside_a_session_record_nothing() {
    let _guard = locked();
    // Reset, close the gate, then solve without a session.
    drop(Session::begin().finish());
    let mut rng = StdRng::seed_from_u64(0x0FF);
    let instance = rand_instance(&mut rng);
    let report = Mc3Solver::new()
        .algorithm(Algorithm::ShortFirst)
        .solve_report(&instance)
        .expect("solvable");
    // Timings still work without telemetry (TimedSpan measures anyway).
    assert!(report.timings.total.as_nanos() > 0);
    assert!(report.timings.total >= report.timings.solve);
    // Nothing was recorded: a fresh session sees a clean slate.
    let tel = Session::begin().finish();
    assert!(tel.spans.is_empty(), "untraced solve leaked spans");
    assert!(
        tel.counters.values().all(|&v| v == 0),
        "untraced solve leaked counters"
    );
}

/// Counter `name` summed over `nodes` and all their descendants.
fn span_sum(nodes: &[SpanData], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| n.counters.get(name).copied().unwrap_or(0) + span_sum(&n.children, name))
        .sum()
}

#[test]
fn counter_totals_are_the_sums_of_their_span_nodes() {
    let _guard = locked();
    // Four copies of one shape, left whole by skipping preprocessing: the
    // first solve sights the shape, inserts it and hits the later copies,
    // and the second hits every copy.
    let instance = common::replicated_instance(5, 4);
    let cache = Arc::new(SolveCache::with_capacity_mb(8));
    let session = Session::begin();
    for _ in 0..2 {
        Mc3Solver::new()
            .without_preprocessing()
            .cache(Arc::clone(&cache))
            .solve_report(&instance)
            .expect("solvable");
    }
    let tel = session.finish();
    for name in COUNTER_NAMES {
        assert_eq!(
            tel.counters[*name],
            span_sum(&tel.spans, name),
            "counter '{name}': report total vs span tree\n{}",
            tel.render()
        );
    }
    let core = find_root(&tel, "solve")
        .and_then(|root| find_child(root, "solve_core"))
        .expect("solve/solve_core span");
    for name in ["cache_hits", "cache_misses", "components_split"] {
        assert!(
            span_sum(std::slice::from_ref(core), name) > 0,
            "counter '{name}' is not under solve/solve_core\n{}",
            tel.render()
        );
    }
}
