//! Concurrency property for the one span aggregate: roots that threads
//! close at the same time all merge into it, under one session, and the
//! report equals the first-principles totals — roots per name, one
//! `child` per root, and span counters summed exactly. Every thread files
//! top-level roots, the way the server's concurrent requests do, and one
//! root name is shared by all threads, so merging into one node races.

use mc3_telemetry::{Counter, Session};

const THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 25;

/// Root name of request `i` on `thread`: even requests share one name
/// across all threads, odd ones are per-thread.
fn root_name(thread: usize, i: usize) -> &'static str {
    if i % 2 == 0 {
        "request"
    } else {
        ["req_a", "req_b", "req_c", "req_d"][thread % 4]
    }
}

/// The counter increment request `i` attributes to its `child` span.
fn increment(i: usize) -> u64 {
    1 + i as u64
}

/// One simulated request: a root span with a counted child.
fn simulate_request(thread: usize, i: usize) {
    let _root = mc3_telemetry::span(root_name(thread, i));
    let _child = mc3_telemetry::span("child");
    mc3_telemetry::span_add(Counter::GreedyIterations, increment(i));
    std::hint::black_box(vec![0u8; 64 + i]);
}

#[test]
fn concurrently_filed_roots_give_first_principles_totals() {
    let session = Session::begin();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    simulate_request(t, i);
                }
            });
        }
    });
    let report = session.finish();

    // Expected totals per root name: (name, roots, summed increments).
    let mut want: Vec<(&str, u64, u64)> = Vec::new();
    for t in 0..THREADS {
        for i in 0..REQUESTS_PER_THREAD {
            let name = root_name(t, i);
            match want.iter_mut().find(|w| w.0 == name) {
                Some(w) => {
                    w.1 += 1;
                    w.2 += increment(i);
                }
                None => want.push((name, 1, increment(i))),
            }
        }
    }

    for (name, roots, counted) in want {
        let root = report
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("root {name} missing"));
        assert_eq!(root.count, roots, "root {name}");
        assert_eq!(root.children.len(), 1, "root {name}: one child name");
        let child = &root.children[0];
        assert_eq!(child.name, "child");
        assert_eq!(child.count, roots, "root {name}: one child per root");
        assert_eq!(
            child.counters.get("greedy_iterations"),
            Some(&counted),
            "root {name}: summed counters"
        );
        assert!(root.wall_ns >= child.wall_ns);
        assert!(root.mem.allocs >= child.mem.allocs);
    }
    // Every root landed exactly once, at the top level: the shared name
    // and the four per-thread names.
    assert_eq!(report.spans.len(), 1 + THREADS);
    let top: u64 = report.spans.iter().map(|s| s.count).sum();
    assert_eq!(top, (THREADS * REQUESTS_PER_THREAD) as u64);
    assert_eq!(
        report.counters["greedy_iterations"],
        (0..REQUESTS_PER_THREAD).map(increment).sum::<u64>() * THREADS as u64
    );
}
