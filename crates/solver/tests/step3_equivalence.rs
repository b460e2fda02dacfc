//! Equivalence of the worklist Step 3 with the pass-based Step 3 it
//! replaced.
//!
//! The reference below is the pass-based fixpoint: every pass re-prices
//! every classifier of length ≥ 2, in increasing length, over all proper
//! submask pairs. The library prices only classifiers whose subsets'
//! effective weights dropped and enumerates only pairs holding the lowest
//! bit; both must leave the working state and the statistics — pass count
//! included — bit-identical.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`).

use mc3_core::rng::prelude::*;
use mc3_core::{
    ClassifierId, ClassifierUniverse, Instance, Mc3Error, PropSet, Result, Weight, Weights,
    WeightsBuilder,
};
use mc3_solver::preprocess::{preprocess, PreprocessOptions, PreprocessStats};
use mc3_solver::work::WorkState;

const CASES: u64 = 200;

/// The pass-based Step 3: a full sweep per pass, then forced selections.
fn reference_step3(
    ws: &mut WorkState<'_>,
    max_passes: usize,
    stats: &mut PreprocessStats,
) -> Result<()> {
    let max_len = ws.universe.max_classifier_len();
    let mut by_len: Vec<Vec<u32>> = vec![Vec::new(); max_len + 1];
    for (id, c) in ws.universe.iter() {
        if c.len() >= 2 {
            by_len[c.len()].push(id.0);
        }
    }
    for _pass in 0..max_passes {
        stats.passes += 1;
        let mut changed = false;
        for group in by_len.iter().skip(2) {
            for &raw in group {
                let id = ClassifierId(raw);
                let c = raw as usize;
                if ws.selected[c] || ws.relevant_count[c] == 0 {
                    continue;
                }
                let Some((q, m)) = ws.occurrences(id).next() else {
                    continue;
                };
                let best = reference_decomposition(ws, q as usize, m);
                if ws.removed[c] {
                    if best < ws.eff[c] {
                        ws.eff[c] = best;
                        changed = true;
                    }
                } else if best <= ws.weight[c] {
                    ws.remove(id, best);
                    stats.removed_by_decomposition += 1;
                    changed = true;
                } else {
                    ws.eff[c] = ws.weight[c];
                }
            }
        }
        changed |= reference_forced(ws, stats)?;
        if !changed {
            break;
        }
    }
    Ok(())
}

/// Cheapest covering pair over *all* proper submasks `A`.
fn reference_decomposition(ws: &WorkState<'_>, q: usize, m: u32) -> Weight {
    let local = ws.universe.query_local(q);
    let mut best = Weight::INFINITE;
    let mut a = (m - 1) & m;
    while a > 0 {
        let wa = ws.eff[local.table[a as usize].index()];
        if wa < best {
            let r = m & !a;
            let mut extra = (a - 1) & a;
            loop {
                let wb = ws.eff[local.table[(r | extra) as usize].index()];
                let total = wa.saturating_add(wb);
                if total < best {
                    best = total;
                }
                if extra == 0 {
                    break;
                }
                extra = (extra - 1) & a;
            }
        }
        a = (a - 1) & m;
    }
    best
}

fn reference_forced(ws: &mut WorkState<'_>, stats: &mut PreprocessStats) -> Result<bool> {
    let mut changed = false;
    for q in 0..ws.instance.num_queries() {
        if !ws.alive[q] {
            continue;
        }
        let need = ws.need(q);
        if need == 0 {
            ws.kill_query(q);
            continue;
        }
        let local = ws.universe.query_local(q);
        let mut count = [0u32; mc3_core::MAX_QUERY_LEN];
        let mut last = [0u32; mc3_core::MAX_QUERY_LEN];
        for mask in 1..local.table.len() as u32 {
            let id = local.table[mask as usize];
            if id.is_none() || !ws.is_usable(id) {
                continue;
            }
            for (b, slot) in count.iter_mut().enumerate().take(local.len) {
                if mask & need & (1 << b) != 0 {
                    *slot += 1;
                    last[b] = mask;
                }
            }
        }
        let mut to_select = None;
        for b in 0..local.len {
            if need & (1 << b) == 0 {
                continue;
            }
            match count[b] {
                0 => return Err(Mc3Error::Uncoverable { query_index: q }),
                1 => {
                    to_select = Some(last[b]);
                    break;
                }
                _ => {}
            }
        }
        if let Some(mask) = to_select {
            let id = ws.universe.query_local(q).table[mask as usize];
            ws.select(id);
            stats.selected += 1;
            changed = true;
        }
    }
    Ok(changed)
}

/// Algorithm 1 with the reference Step 3 in place of the library's.
fn reference_preprocess(
    ws: &mut WorkState<'_>,
    opts: &PreprocessOptions,
) -> Result<PreprocessStats> {
    let before = ws.alive_queries();
    let only = PreprocessOptions {
        decomposition: false,
        k2_singleton_pruning: false,
        ..*opts
    };
    let mut stats = preprocess(ws, &only)?;
    if opts.decomposition {
        reference_step3(ws, opts.max_passes, &mut stats)?;
    }
    let step4 = PreprocessOptions {
        singletons_and_zero: false,
        decomposition: false,
        ..*opts
    };
    let s4 = preprocess(ws, &step4)?;
    stats.selected += s4.selected;
    stats.removed_by_singleton_pruning += s4.removed_by_singleton_pruning;
    stats.covered_queries = before - ws.alive_queries();
    Ok(stats)
}

/// A random instance shape: overlapping queries over a small pool, so that
/// decompositions cascade across passes.
fn rand_queries(rng: &mut StdRng) -> Vec<Vec<u32>> {
    // large cases follow the §6.1 synthetic shape (length ≥ 2, a pool of
    // about n/5 properties): those cascade past the default 6-pass cap
    let (nq, min_len, max_len, pool) = if rng.gen_bool(0.25) {
        let nq = rng.gen_range(120..300usize);
        (nq, 2, 6, nq as u32 / 5)
    } else {
        (
            rng.gen_range(1..40usize),
            1,
            rng.gen_range(2..6usize),
            rng.gen_range(4..16u32),
        )
    };
    (0..nq)
        .map(|_| {
            let len = rng.gen_range(min_len..=max_len);
            (0..len).map(|_| rng.gen_range(0..pool)).collect()
        })
        .collect()
}

/// Explicit weights over every classifier of `queries`: some zero, some
/// infinite, some absent (default infinite).
fn map_weights(rng: &mut StdRng, queries: &[Vec<u32>]) -> Weights {
    let mut b = WeightsBuilder::new();
    let instance = Instance::new(queries.to_vec(), Weights::uniform(1u64)).expect("valid");
    let universe = ClassifierUniverse::build(&instance);
    for (_, c) in universe.iter() {
        let roll = rng.gen_range(0..20u32);
        let w = match roll {
            0 => continue,
            1 if c.len() > 1 => Weight::INFINITE,
            2 => Weight::ZERO,
            _ => Weight::new(rng.gen_range(1..40u64) * c.len() as u64),
        };
        b.insert(c.to_propset(), w);
    }
    b.build()
}

struct Case {
    instance: Instance,
    kp: Option<usize>,
    prebuilt: Vec<PropSet>,
    opts: PreprocessOptions,
}

fn rand_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = rand_queries(&mut rng);
    let weights = match rng.gen_range(0..4u32) {
        0 => Weights::seeded(rng.gen::<u64>(), 1, 50),
        1 => Weights::seeded(rng.gen::<u64>(), 0, 3), // many zeros and ties
        2 => map_weights(&mut rng, &queries),
        _ => Weights::uniform(rng.gen_range(1..5u64)),
    };
    let instance = Instance::new(queries, weights).expect("valid instance");
    let kp = match rng.gen_range(0..4u32) {
        0 => Some(2),
        1 => Some(3),
        _ => None,
    };
    let prebuilt = if rng.gen_bool(0.25) {
        let qs = instance.queries();
        (0..rng.gen_range(1..6usize))
            .map(|_| {
                let q = &qs[rng.gen_range(0..qs.len())];
                let mask = rng.gen_range(1..(1u32 << q.len()));
                q.subset_by_mask(mask)
            })
            .collect()
    } else {
        Vec::new()
    };
    let max_passes = [1, 6, 50][rng.gen_range(0..3usize)];
    let opts = PreprocessOptions {
        singletons_and_zero: rng.gen_bool(0.85),
        max_passes,
        ..PreprocessOptions::default()
    };
    Case {
        instance,
        kp,
        prebuilt,
        opts,
    }
}

fn work_state<'a>(case: &'a Case) -> WorkState<'a> {
    let kp = case
        .kp
        .unwrap_or_else(|| case.instance.max_query_len().max(1));
    let mut universe = ClassifierUniverse::build_bounded(&case.instance, kp);
    for c in &case.prebuilt {
        if let Some(id) = universe.id_of(c) {
            universe.override_weight(id, Weight::ZERO);
        }
    }
    WorkState::new(&case.instance, universe)
}

/// Runs `case` through the library and the reference and asserts the
/// outcome, the statistics and the whole working state identical; returns
/// the outcome and the library's state.
fn assert_matches_reference<'a>(
    case: &'a Case,
    seed: u64,
) -> (Result<PreprocessStats>, WorkState<'a>) {
    let mut lib = work_state(case);
    let mut reference = work_state(case);
    let got = preprocess(&mut lib, &case.opts);
    let want = reference_preprocess(&mut reference, &case.opts);
    assert_eq!(got, want, "outcome and stats, seed {seed}");
    if got.is_ok() {
        assert_eq!(lib.removed, reference.removed, "removed, seed {seed}");
        assert_eq!(lib.eff, reference.eff, "eff, seed {seed}");
        assert_eq!(lib.weight, reference.weight, "weight, seed {seed}");
        assert_eq!(lib.selected, reference.selected, "selected, seed {seed}");
        assert_eq!(
            lib.selected_ids(),
            reference.selected_ids(),
            "selection order, seed {seed}"
        );
        assert_eq!(lib.covered, reference.covered, "covered, seed {seed}");
        assert_eq!(lib.alive, reference.alive, "alive, seed {seed}");
        assert_eq!(
            lib.relevant_count, reference.relevant_count,
            "relevance, seed {seed}"
        );
        assert_eq!(lib.base_cost, reference.base_cost, "base cost, seed {seed}");
    }
    (got, lib)
}

#[test]
fn worklist_step3_matches_pass_based_reference() {
    let (mut capped, mut beyond_cap, mut bounded) = (0, 0, 0);
    for seed in 0..CASES {
        let case = rand_case(seed);
        let (got, _) = assert_matches_reference(&case, seed);
        let Ok(stats) = got else { continue };
        capped += usize::from(case.opts.max_passes == 6 && stats.passes == 6);
        beyond_cap += usize::from(stats.passes > 6);
        bounded += usize::from(case.kp.is_some());
    }
    // the corpus must exercise the cap, runs past it, and bounded universes
    assert!(capped > 0, "no case reached the 6-pass cap");
    assert!(beyond_cap > 0, "no case ran past 6 passes");
    assert!(bounded > 0, "no bounded-universe case");
}

/// Weights at and just below `Weight::MAX_FINITE`, and halves and thirds
/// of it, so that decomposition sums saturate and tie weights of
/// `MAX_FINITE`; some classifiers are absent (infinite), so some of those
/// have no finite decomposition.
fn near_max_weights(rng: &mut StdRng, queries: &[Vec<u32>]) -> Weights {
    let max = Weight::MAX_FINITE.raw();
    let mut b = WeightsBuilder::new();
    let instance = Instance::new(queries.to_vec(), Weights::uniform(1u64)).expect("valid");
    let universe = ClassifierUniverse::build(&instance);
    for (_, c) in universe.iter() {
        let w = match rng.gen_range(0..8u32) {
            0 => continue,
            1 => max,
            2 => max - rng.gen_range(0..4u64),
            3 | 4 => max / 2 + rng.gen_range(0..3u64),
            5 => max / 3 + rng.gen_range(0..3u64),
            _ => rng.gen_range(1..40u64),
        };
        b.insert(c.to_propset(), Weight::new(w));
    }
    b.build()
}

#[test]
fn bounded_pricing_matches_reference_near_max_finite() {
    // A classifier of weight MAX_FINITE has no W(c) + 1 to bound its
    // pricing by: a saturated decomposition sum ties it and must remove
    // it, and one with no finite decomposition must keep it.
    let (mut ties, mut kept) = (0, 0);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a7u64 << 32);
        let queries = rand_queries(&mut rng);
        let weights = near_max_weights(&mut rng, &queries);
        let case = Case {
            instance: Instance::new(queries, weights).expect("valid instance"),
            kp: None,
            prebuilt: Vec::new(),
            opts: PreprocessOptions {
                max_passes: [1, 6, 50][rng.gen_range(0..3usize)],
                ..PreprocessOptions::default()
            },
        };
        let (got, lib) = assert_matches_reference(&case, seed);
        if got.is_err() {
            continue;
        }
        for (id, c) in lib.universe.iter() {
            let c_at_max = c.len() > 1 && lib.universe.weight(id) == Weight::MAX_FINITE;
            if c_at_max && lib.removed[id.index()] && lib.eff[id.index()] == Weight::MAX_FINITE {
                ties += 1;
            }
            if c_at_max && !lib.removed[id.index()] && !lib.selected[id.index()] {
                kept += 1;
            }
        }
    }
    assert!(ties > 0, "no MAX_FINITE classifier was removed at a tie");
    assert!(kept > 0, "no MAX_FINITE classifier was kept");

    // The smallest tie: X + Y saturates at W(XY) = MAX_FINITE, while XZ
    // has no finite decomposition (Z is absent) and stays.
    let half = Weight::new(Weight::MAX_FINITE.raw() / 2 + 1);
    let w = WeightsBuilder::new()
        .classifier([0u32], half)
        .classifier([1u32], half)
        .classifier([0u32, 1], Weight::MAX_FINITE)
        .classifier([0u32, 2], Weight::MAX_FINITE)
        .build();
    let case = Case {
        instance: Instance::new(vec![vec![0u32, 1], vec![0u32, 2]], w).expect("valid"),
        kp: None,
        prebuilt: Vec::new(),
        opts: PreprocessOptions::default(),
    };
    let (got, lib) = assert_matches_reference(&case, u64::MAX);
    assert!(got.is_ok());
    let xy = lib
        .universe
        .id_of(&PropSet::from_ids([0u32, 1]))
        .expect("XY");
    assert!(lib.removed[xy.index()], "the tie at MAX_FINITE removes XY");
    let xz = lib
        .universe
        .id_of(&PropSet::from_ids([0u32, 2]))
        .expect("XZ");
    assert!(!lib.removed[xz.index()], "XZ has no finite decomposition");
}

#[test]
fn touched_scan_reports_uncoverable_like_the_full_scan() {
    // A Step-3 removal never makes a query uncoverable on its own: a
    // removed classifier's finite price comes from a finite sub-classifier
    // holding each of its properties, down to a usable or selected one.
    // So an uncoverable query is reported by the first forced scan, which
    // runs after pass 1's removals and selections have touched queries,
    // and it must name the same query as the full scan.
    //
    // Queries {0,1} and {1,2} lose XY and YZ to their decompositions in
    // pass 1; {3,4} and {4,5} need property 4, which no finite classifier
    // holds.
    let w = WeightsBuilder::new()
        .classifier([0u32], 1u64)
        .classifier([1u32], 1u64)
        .classifier([2u32], 1u64)
        .classifier([3u32], 1u64)
        .classifier([0u32, 1], 5u64)
        .classifier([1u32, 2], 5u64)
        .classifier([3u32, 4], Weight::INFINITE)
        .build();
    let queries = vec![vec![0u32, 1], vec![1u32, 2], vec![3u32, 4], vec![4u32, 5]];
    let case = Case {
        instance: Instance::new(queries, w).expect("valid"),
        kp: None,
        prebuilt: Vec::new(),
        opts: PreprocessOptions::default(),
    };
    let (got, _) = assert_matches_reference(&case, u64::MAX);
    assert!(matches!(got, Err(Mc3Error::Uncoverable { .. })), "{got:?}");

    // Random uncoverable cases after Step-3 removals: mostly absent
    // weights, so both removals and uncoverable properties are common.
    let mut after_removals = 0;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        let queries = rand_queries(&mut rng);
        let mut b = WeightsBuilder::new();
        let instance = Instance::new(queries.clone(), Weights::uniform(1u64)).expect("valid");
        for (_, c) in ClassifierUniverse::build(&instance).iter() {
            if rng.gen_bool(0.85) {
                b.insert(
                    c.to_propset(),
                    Weight::new(rng.gen_range(1..9u64) * c.len() as u64),
                );
            }
        }
        let case = Case {
            instance: Instance::new(queries, b.build()).expect("valid instance"),
            kp: None,
            prebuilt: Vec::new(),
            opts: PreprocessOptions {
                singletons_and_zero: false,
                ..PreprocessOptions::default()
            },
        };
        let (got, lib) = assert_matches_reference(&case, seed);
        if got.is_err() && lib.removed.iter().any(|&r| r) {
            after_removals += 1;
        }
    }
    assert!(
        after_removals > 0,
        "no uncoverable case followed a Step-3 removal"
    );
}
