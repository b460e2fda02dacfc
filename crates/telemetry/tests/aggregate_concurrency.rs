//! Concurrency property for the one span aggregate: roots that threads
//! close at the same time all merge into it, under one session, and the
//! report equals the first-principles totals — roots per name, one
//! `child` per root, and span counters summed exactly. Half the roots
//! are filed under an adopted parent path, the way a parallel solve's
//! threads file theirs, so merging under a shared open node races too.

use mc3_telemetry::{Counter, Session, SpanParent};

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
    // A submitter span stays open while the threads file under it.
    let parent = {
        let _submitter = mc3_telemetry::span("submitter");
        let parent = SpanParent::current().expect("a session records and a span is open");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let parent = &parent;
                scope.spawn(move || {
                    for i in 0..REQUESTS_PER_THREAD {
                        if t % 2 == 0 {
                            simulate_request(t, i);
                        } else {
                            let _adopted = parent.adopt();
                            simulate_request(t, i);
                        }
                    }
                });
            }
        });
        parent
    };
    drop(parent);
    let report = session.finish();

    // Expected totals per (filed-under-submitter, root name).
    let mut want: Vec<(bool, &str, u64, u64)> = Vec::new();
    for t in 0..THREADS {
        for i in 0..REQUESTS_PER_THREAD {
            let key = (t % 2 == 1, root_name(t, i));
            match want.iter_mut().find(|w| (w.0, w.1) == key) {
                Some(w) => {
                    w.2 += 1;
                    w.3 += increment(i);
                }
                None => want.push((key.0, key.1, 1, increment(i))),
            }
        }
    }

    let submitter = report
        .spans
        .iter()
        .find(|s| s.name == "submitter")
        .expect("submitter root recorded");
    assert_eq!(submitter.count, 1);
    for (adopted, name, roots, counted) in want {
        let level = if adopted {
            &submitter.children
        } else {
            &report.spans
        };
        let root = level
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("root {name} (adopted: {adopted}) missing"));
        assert_eq!(root.count, roots, "root {name} (adopted: {adopted})");
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
    // Every root landed exactly once: the submitter, the four per-thread
    // names and the shared name at the top level and under the submitter.
    let top: u64 = report.spans.iter().map(|s| s.count).sum();
    let under: u64 = submitter.children.iter().map(|s| s.count).sum();
    assert_eq!(top + under, 1 + (THREADS * REQUESTS_PER_THREAD) as u64);
    assert_eq!(
        report.counters["greedy_iterations"],
        (0..REQUESTS_PER_THREAD).map(increment).sum::<u64>() * THREADS as u64
    );
}
