//! Telemetry overhead benchmarks: the ISSUE acceptance bar is that a
//! *disabled* gate costs the `general` solve < 2% — here both states are
//! measured side by side so a regression shows up as a ratio, not a
//! guess. Also times the raw primitives (gated counter add, span
//! open/close) to keep the per-call cost visible. Counters only count
//! inside an open span, so the counter cases run under one.

use mc3_bench::timing::Group;
use mc3_solver::{Algorithm, Mc3Solver};
use mc3_telemetry::{Counter, Hist, Session};
use mc3_workload::SyntheticConfig;
use std::hint::black_box;

fn bench_solve_overhead() {
    let ds = SyntheticConfig::with_queries(10_000).generate();
    let solver = Mc3Solver::new().algorithm(Algorithm::General);
    let group = Group::new("telemetry_solve_overhead").samples(5);
    group.bench("general/disabled_gate", || {
        black_box(solver.solve(&ds.instance).expect("solvable").cost())
    });
    let session = Session::begin();
    group.bench("general/enabled_gate", || {
        black_box(solver.solve(&ds.instance).expect("solvable").cost())
    });
    drop(session.finish());
}

fn bench_primitives() {
    let group = Group::new("telemetry_primitives").samples(5);
    group.bench("span_add/disabled", || {
        let _root = mc3_telemetry::span("bench.root");
        for _ in 0..1_000 {
            mc3_telemetry::span_add(Counter::DinicPhases, 1);
        }
    });
    group.bench("span/disabled", || {
        for _ in 0..1_000 {
            let _span = mc3_telemetry::span("bench.noop");
        }
    });
    let session = Session::begin();
    group.bench("span_add/enabled", || {
        let _root = mc3_telemetry::span("bench.root");
        for _ in 0..1_000 {
            mc3_telemetry::span_add(Counter::DinicPhases, 1);
        }
    });
    group.bench("span/enabled", || {
        for _ in 0..1_000 {
            let _span = mc3_telemetry::span("bench.noop");
        }
    });
    // Two threads counting and recording at once, each under its own
    // root: both write only their own call tree until the root closes,
    // so this should cost about what one thread's 10,000 of each do,
    // plus two thread spawns; shared per-increment writes would show
    // here as cache-line contention.
    group.bench("span_add_record/enabled_gate_2threads", || {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _root = mc3_telemetry::span("bench.root");
                    for i in 0..10_000u64 {
                        mc3_telemetry::span_add(Counter::GreedyIterations, 1);
                        mc3_telemetry::record(Hist::GreedyPickCoverage, black_box(i));
                    }
                });
            }
        });
    });
    drop(session.finish());
}

fn bench_allocator_overhead() {
    let group = Group::new("memprof_allocator").samples(5);
    group.bench("alloc_free/disabled_gate", || {
        for i in 0..1_000usize {
            black_box(Box::new(i));
        }
    });
    let session = Session::begin();
    group.bench("alloc_free/enabled_gate", || {
        for i in 0..1_000usize {
            black_box(Box::new(i));
        }
    });
    // Two threads allocating at once: the hook writes only each thread's
    // own cells, so this should cost about what one thread's 10,000
    // round trips do, plus two thread spawns; shared per-allocation
    // writes would show here as cache-line contention.
    group.bench("alloc_free/enabled_gate_2threads", || {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for i in 0..10_000usize {
                        black_box(Box::new(i));
                    }
                });
            }
        });
    });
    drop(session.finish());

    // Hard ceiling while the gate is closed: the tracking wrapper adds a
    // single relaxed load on top of malloc, so one alloc+free round trip
    // is single-digit-to-tens of ns in practice. The ceiling is
    // deliberately loose (shared-runner noise, debug builds) while still
    // catching an accidental always-on slow path.
    const ITERS: u32 = 100_000;
    let mut per_alloc = f64::MAX;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        for i in 0..ITERS {
            black_box(Box::new(i));
        }
        per_alloc = per_alloc.min(t0.elapsed().as_nanos() as f64 / f64::from(ITERS));
    }
    println!("memprof_allocator/disabled_gate_floor     {per_alloc:.1} ns per alloc+free");
    assert!(
        per_alloc < 1_000.0,
        "disabled-gate allocator costs {per_alloc:.1} ns per alloc+free; \
         the tracking wrapper must stay a single relaxed load while off"
    );
}

fn main() {
    bench_solve_overhead();
    bench_primitives();
    bench_allocator_overhead();
}
