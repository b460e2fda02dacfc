//! Property-based tests of the telemetry substrate: span trees are
//! well-nested, counter totals are monotone and sum-exact, nothing
//! outside an open span is recorded, the disabled gate records nothing,
//! histogram buckets tile `u64`, and reports survive a JSON round trip
//! byte-exactly.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`):
//! each test replays a few hundred deterministic random cases from
//! [`mc3_core::rng::StdRng`], printing the seed on failure.
//!
//! Telemetry state is process-global, so every test here serializes on a
//! file-local mutex *in addition to* the `Session` lock — tests that
//! assert on the disabled gate must not overlap with a recording session
//! on another test thread.

use mc3_core::rng::prelude::*;
use mc3_telemetry::{
    bucket_bounds, bucket_of, live_report, open_span_depth, record, span, span_add, timed_span,
    Counter, Hist, HistogramData, Session, SpanData, SpanMem, TelemetryReport, COUNTER_NAMES,
    HIST_BUCKETS,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

const CASES: u64 = 200;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Σ over every node of a well-nestedness check: children's wall times
/// must not exceed their parent's (spans close LIFO, so a child's
/// interval is contained in its parent's).
fn assert_well_nested(node: &SpanData) {
    let child_sum: u64 = node.children.iter().map(|c| c.wall_ns).sum();
    assert!(
        child_sum <= node.wall_ns,
        "span '{}': children sum {} ns exceeds parent {} ns",
        node.name,
        child_sum,
        node.wall_ns
    );
    for child in &node.children {
        assert_well_nested(child);
    }
}

fn span_count(node: &SpanData) -> u64 {
    node.count + node.children.iter().map(span_count).sum::<u64>()
}

#[test]
fn random_span_trees_are_well_nested_and_counts_are_exact() {
    let _guard = locked();
    const NAMES: &[&str] = &["a", "b", "c", "d", "e"];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let session = Session::begin();
        let mut open: Vec<mc3_telemetry::SpanGuard> = Vec::new();
        let mut closed = 0u64;
        let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
        for _ in 0..rng.gen_range(1..60usize) {
            match rng.gen_range(0..3u32) {
                0 if open.len() < 6 => {
                    open.push(span(NAMES[rng.gen_range(0..NAMES.len())]));
                }
                1 if !open.is_empty() => {
                    drop(open.pop());
                    closed += 1;
                }
                _ => {
                    // An increment with no span open is recorded nowhere.
                    let c = Counter::ALL[rng.gen_range(0..Counter::ALL.len())];
                    let n = rng.gen_range(0..100u64);
                    span_add(c, n);
                    if !open.is_empty() {
                        *expected.entry(c.name()).or_insert(0) += n;
                    }
                }
            }
        }
        closed += open.len() as u64;
        while let Some(guard) = open.pop() {
            drop(guard);
        }
        assert_eq!(open_span_depth(), 0, "seed {seed}: span stack must drain");
        let report = session.finish();
        assert_well_nested_roots(&report, seed);
        let recorded: u64 = report.spans.iter().map(span_count).sum();
        assert_eq!(
            recorded, closed,
            "seed {seed}: every closed span is reported once"
        );
        for name in COUNTER_NAMES {
            let want = expected.get(name).copied().unwrap_or(0);
            let got = report.counters.get(*name).copied();
            assert_eq!(got, Some(want), "seed {seed}: counter {name} total");
        }
    }
}

fn assert_well_nested_roots(report: &TelemetryReport, seed: u64) {
    for root in &report.spans {
        // Attach the seed to any failure via a wrapping assertion message.
        let child_sum: u64 = root.children.iter().map(|c| c.wall_ns).sum();
        assert!(
            child_sum <= root.wall_ns,
            "seed {seed}: root '{}' not well-nested",
            root.name
        );
        assert_well_nested(root);
    }
}

#[test]
fn counter_totals_are_monotone_under_increments() {
    let _guard = locked();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ seed);
        let session = Session::begin();
        let c = Counter::ALL[rng.gen_range(0..Counter::ALL.len())];
        let total = || live_report().counters[c.name()];
        let mut last = total();
        assert_eq!(last, 0, "seed {seed}: session begin resets counters");
        let mut sum = 0u64;
        for _ in 0..rng.gen_range(1..40usize) {
            let n = rng.gen_range(0..1000u64);
            {
                let _root = span("increment");
                span_add(c, n);
            }
            sum += n;
            let now = total();
            assert!(now >= last, "seed {seed}: counter went backwards");
            last = now;
        }
        assert_eq!(total(), sum, "seed {seed}: final total is the exact sum");
        let report = session.finish();
        assert_eq!(report.counters[c.name()], sum);
    }
}

#[test]
fn disabled_gate_records_nothing() {
    let _guard = locked();
    // Reset global state, then make sure the gate is off.
    drop(Session::begin().finish());
    assert!(!mc3_telemetry::is_enabled());
    let before = live_report();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD15AB1ED ^ seed);
        let c = Counter::ALL[rng.gen_range(0..Counter::ALL.len())];
        let h = Hist::ALL[rng.gen_range(0..Hist::ALL.len())];
        let _span = span("disabled");
        assert_eq!(
            open_span_depth(),
            0,
            "seed {seed}: disabled span must not open"
        );
        span_add(c, rng.gen_range(1..50u64));
        record(h, rng.gen_range(0..1000u64));
        let t = timed_span("disabled.timed");
        assert_eq!(open_span_depth(), 0);
        let wall = t.finish();
        assert!(wall.as_nanos() < u128::MAX);
        let now = live_report();
        assert_eq!(
            now.counters, before.counters,
            "seed {seed}: disabled counter moved"
        );
        assert_eq!(
            now.histograms, before.histograms,
            "seed {seed}: disabled hist moved"
        );
    }
    // A fresh session right after sees a clean slate: no spans leaked in.
    let report = Session::begin().finish();
    assert!(
        report.spans.is_empty(),
        "disabled ops must not leave spans behind"
    );
    assert!(report.counters.values().all(|&v| v == 0));
}

#[test]
fn histogram_buckets_tile_u64_and_contain_their_values() {
    let mut rng = StdRng::seed_from_u64(0x81C0);
    for case in 0..CASES {
        let v: u64 = match case % 4 {
            0 => rng.gen_range(0..16u64),
            1 => rng.gen_range(0..(1u64 << 32)),
            2 => rng.next_u64(),
            _ => 1u64 << rng.gen_range(0..64u32),
        };
        let b = bucket_of(v);
        assert!(b < HIST_BUCKETS);
        let (lo, hi) = bucket_bounds(b);
        assert!(
            lo <= v && v <= hi,
            "value {v} outside bucket {b} = [{lo}, {hi}]"
        );
        if b > 0 {
            let (_, prev_hi) = bucket_bounds(b - 1);
            assert_eq!(
                lo,
                prev_hi + 1,
                "buckets {b} and {} must be adjacent",
                b - 1
            );
        }
    }
}

#[test]
fn histogram_count_and_sum_match_recorded_values() {
    let _guard = locked();
    for seed in 0..50 {
        let mut rng = StdRng::seed_from_u64(0x415 ^ seed);
        let session = Session::begin();
        let mut n = 0u64;
        let mut sum = 0u64;
        {
            let _root = span("observe");
            for _ in 0..rng.gen_range(0..64usize) {
                let v = rng.gen_range(0..10_000u64);
                record(Hist::ComponentSize, v);
                n += 1;
                sum += v;
            }
        }
        // An observation with no span open is recorded nowhere.
        record(Hist::ComponentSize, rng.gen_range(0..10_000u64));
        let report = session.finish();
        let h = report
            .histograms
            .iter()
            .find(|h| h.name == Hist::ComponentSize.name())
            .expect("registered histogram present");
        assert_eq!((h.count, h.sum), (n, sum), "seed {seed}");
        let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, n, "seed {seed}: bucket counts sum to n");
    }
}

fn random_span_data(rng: &mut StdRng, depth: usize) -> SpanData {
    const NAMES: &[&str] = &["solve", "setup", "k2.solve", "dinic.max_flow", "x"];
    let n_children = if depth >= 3 {
        0
    } else {
        rng.gen_range(0..3usize)
    };
    let mut counters = BTreeMap::new();
    for _ in 0..rng.gen_range(0..3usize) {
        let c = Counter::ALL[rng.gen_range(0..Counter::ALL.len())];
        counters.insert(c.name().to_owned(), rng.next_u64() >> 1);
    }
    SpanData {
        name: NAMES[rng.gen_range(0..NAMES.len())].to_owned(),
        wall_ns: rng.next_u64() >> 1,
        count: rng.gen_range(1..4u64),
        counters,
        mem: SpanMem {
            allocs: rng.next_u64() >> 1,
            alloc_bytes: rng.next_u64() >> 1,
            frees: rng.next_u64() >> 1,
            free_bytes: rng.next_u64() >> 1,
            peak_live_bytes: rng.next_u64() >> 1,
            min_instance_allocs: rng.next_u64() >> 1,
        },
        children: (0..n_children)
            .map(|_| random_span_data(rng, depth + 1))
            .collect(),
    }
}

#[test]
fn random_reports_round_trip_through_json() {
    // Not a session test, but heavily allocating: serialize with the
    // session-holding tests so their mem counters stay unpolluted.
    let _guard = locked();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x10_AD ^ seed);
        let report = TelemetryReport {
            spans: (0..rng.gen_range(0..4usize))
                .map(|_| random_span_data(&mut rng, 0))
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|c| (c.name().to_owned(), rng.next_u64() >> 1))
                .collect(),
            histograms: Hist::ALL
                .iter()
                .map(|h| HistogramData {
                    name: h.name().to_owned(),
                    count: rng.gen_range(0..100u64),
                    sum: rng.next_u64() >> 1,
                    buckets: (0..rng.gen_range(0..5u32))
                        .map(|i| (i, rng.gen_range(1..50u64)))
                        .collect(),
                })
                .collect(),
            peak_live_bytes: rng.next_u64() >> 1,
            // Exercise both the measured and the not-measured (null) arm.
            peak_rss_bytes: if rng.gen_range(0..4u32) == 0 {
                None
            } else {
                Some(rng.next_u64() >> 1)
            },
        };
        let text = report.to_json().to_string_pretty();
        let parsed = mc3_core::json::parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: emitted JSON must parse: {e:?}"));
        let back = TelemetryReport::from_json(&parsed)
            .unwrap_or_else(|e| panic!("seed {seed}: strict parse failed: {e}"));
        assert_eq!(back, report, "seed {seed}: JSON round trip must be exact");
    }
}

#[test]
fn recorded_allocations_attribute_to_the_open_span() {
    let _guard = locked();
    let session = Session::begin();
    {
        let _s = span("alloc.host");
        // black_box keeps the optimizer from eliding the allocate/free
        // pair in release builds.
        let v = std::hint::black_box(vec![0u8; 4096]);
        drop(v);
    }
    let report = session.finish();
    let node = report
        .spans
        .iter()
        .find(|s| s.name == "alloc.host")
        .expect("span recorded");
    assert!(node.mem.allocs >= 1, "{:?}", node.mem);
    assert!(node.mem.alloc_bytes >= 4096, "{:?}", node.mem);
    assert!(node.mem.frees >= 1, "{:?}", node.mem);
    assert!(node.mem.peak_live_bytes >= 4096, "{:?}", node.mem);
    // The report peak is read off the roots, so it covers this one.
    assert!(
        report.peak_live_bytes >= 4096,
        "report peak_live_bytes {}",
        report.peak_live_bytes
    );
}

/// Deterministic allocation script: the same `(name, seed)` performs the
/// same allocation sequence whether run inline or on a worker thread.
fn mem_workload(name: &'static str, seed: u64) {
    let _s = span(name);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keep: Vec<Vec<u8>> = Vec::new();
    for _ in 0..rng.gen_range(1..12usize) {
        keep.push(vec![0u8; rng.gen_range(1..2048usize)]);
    }
}

#[test]
fn parallel_and_sequential_span_mem_totals_agree() {
    let _guard = locked();
    const WORKERS: [&str; 4] = ["mem.w0", "mem.w1", "mem.w2", "mem.w3"];
    for case in 0..CASES {
        let session = Session::begin();
        for (i, name) in WORKERS.iter().enumerate() {
            mem_workload(name, case ^ ((i as u64) << 32));
        }
        let seq = session.finish();

        let session = Session::begin();
        std::thread::scope(|scope| {
            for (i, name) in WORKERS.iter().enumerate() {
                scope.spawn(move || mem_workload(name, case ^ ((i as u64) << 32)));
            }
        });
        let par = session.finish();

        for name in WORKERS {
            let a = seq
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("case {case}: sequential span {name} missing"));
            let b = par
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("case {case}: parallel span {name} missing"));
            assert!(a.mem.allocs >= 1, "case {case}: span {name} saw no allocs");
            assert_eq!(
                (
                    a.mem.allocs,
                    a.mem.alloc_bytes,
                    a.mem.frees,
                    a.mem.free_bytes
                ),
                (
                    b.mem.allocs,
                    b.mem.alloc_bytes,
                    b.mem.frees,
                    b.mem.free_bytes
                ),
                "case {case}: span {name} parallel ≡ sequential totals"
            );
            assert_eq!(
                a.mem.peak_live_bytes, b.mem.peak_live_bytes,
                "case {case}: span {name} relative live peak"
            );
        }
    }
}

#[test]
fn timed_span_wall_matches_reported_node_exactly() {
    let _guard = locked();
    let session = Session::begin();
    let t = timed_span("phase");
    std::thread::sleep(std::time::Duration::from_millis(2));
    let wall = t.finish();
    let report = session.finish();
    let node = report
        .spans
        .iter()
        .find(|s| s.name == "phase")
        .expect("timed span recorded");
    assert_eq!(u128::from(node.wall_ns), wall.as_nanos());
}

#[test]
fn the_profiler_does_not_charge_its_bookkeeping_to_spans() {
    let _guard = locked();
    const CHILDREN: u64 = 1_000;
    let session = Session::begin();
    {
        let _p = span("bookkeeping.p");
        for _ in 0..CHILDREN {
            let _c = span("bookkeeping.c");
        }
    }
    let report = session.finish();
    let p = report
        .spans
        .iter()
        .find(|s| s.name == "bookkeeping.p")
        .expect("parent span recorded");
    let c = p
        .children
        .iter()
        .find(|s| s.name == "bookkeeping.c")
        .expect("child span recorded under the parent");
    assert_eq!(c.count, CHILDREN);
    assert_eq!(c.mem.allocs, 0, "{:?}", c.mem);
    assert_eq!(c.mem.min_instance_allocs, 0, "{:?}", c.mem);
    // Opening and closing an allocation-free child must cost its parent
    // nothing per instance: at most the one-time growth of the call tree.
    assert!(
        p.mem.allocs < 4,
        "parent charged {} allocations for {CHILDREN} allocation-free children",
        p.mem.allocs
    );
}
