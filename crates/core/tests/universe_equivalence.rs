//! The arena-interned classifier universe against a reference build that
//! keys a `HashMap` by owned `PropSet`s: identical ids (first-occurrence
//! order), mask tables, weights, incidences and lookups.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`).

use mc3_core::rng::prelude::*;
use mc3_core::{
    ClassifierId, ClassifierUniverse, FxHashMap, Instance, Mc3Error, PropSet, Weight, Weights,
    WeightsBuilder,
};

const CASES: u64 = 200;

/// The hash-map build: one owned `PropSet` per (query, mask) pair.
struct Reference {
    classifiers: Vec<PropSet>,
    weights: Vec<Weight>,
    incidence: Vec<u32>,
    index: FxHashMap<PropSet, ClassifierId>,
    tables: Vec<Vec<ClassifierId>>,
}

fn reference(instance: &Instance, kp: usize) -> Reference {
    let mut r = Reference {
        classifiers: Vec::new(),
        weights: Vec::new(),
        incidence: Vec::new(),
        index: FxHashMap::default(),
        tables: Vec::new(),
    };
    for q in instance.queries() {
        let mut table = vec![ClassifierId::NONE; 1 << q.len()];
        for mask in 1..(1u32 << q.len()) {
            if mask.count_ones() as usize > kp {
                continue;
            }
            let subset = q.subset_by_mask(mask);
            let id = match r.index.get(&subset) {
                Some(&id) => id,
                None => {
                    let id = ClassifierId(r.classifiers.len() as u32);
                    r.weights.push(instance.weight(&subset));
                    r.classifiers.push(subset.clone());
                    r.incidence.push(0);
                    r.index.insert(subset, id);
                    id
                }
            };
            if r.weights[id.index()].is_finite() {
                r.incidence[id.index()] += 1;
            }
            table[mask as usize] = id;
        }
        r.tables.push(table);
    }
    r
}

fn rand_instance(rng: &mut StdRng) -> Instance {
    let nq = rng.gen_range(1..120usize);
    let pool = rng.gen_range(2..40u32);
    let max_len = rng.gen_range(1..8usize);
    let queries: Vec<Vec<u32>> = (0..nq)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            (0..len).map(|_| rng.gen_range(0..pool)).collect()
        })
        .collect();
    let weights = match rng.gen_range(0..4u32) {
        0 => Weights::seeded(rng.gen::<u64>(), 1, 50),
        1 => Weights::uniform(rng.gen_range(0..5u64)),
        2 => {
            // explicit entries for some subsets of some queries, infinite
            // ones included; the rest default to infinity
            let mut b = WeightsBuilder::new();
            for q in &queries {
                let q = PropSet::from_ids(q.iter().copied());
                for mask in 1..(1u32 << q.len()) {
                    match rng.gen_range(0..4u32) {
                        0 => {}
                        1 => {
                            b.insert(q.subset_by_mask(mask), Weight::INFINITE);
                        }
                        _ => {
                            b.insert(q.subset_by_mask(mask), Weight::new(rng.gen_range(0..9u64)));
                        }
                    }
                }
            }
            b.build()
        }
        _ => Weights::custom(|c: &PropSet| {
            if c.len() > 3 {
                Weight::INFINITE
            } else {
                Weight::new(c.iter().map(|p| u64::from(p.0 % 7)).sum())
            }
        }),
    };
    Instance::new(queries, weights).expect("valid instance")
}

/// Builds the bounded universe of `instance` and asserts it equal to the
/// reference in every observable: ids, weights, incidences, lookups and
/// mask tables. Returns the number of `(query, subset)` pairs and the
/// number of distinct classifiers.
fn assert_matches_reference(
    instance: &Instance,
    kp: usize,
    rng: &mut StdRng,
    seed: u64,
) -> (usize, usize) {
    let u = ClassifierUniverse::build_bounded(instance, kp);
    let r = reference(instance, kp);

    assert_eq!(u.len(), r.classifiers.len(), "size, seed {seed}");
    assert_eq!(u.weights(), &r.weights[..], "weights, seed {seed}");
    for (id, c) in u.iter() {
        assert_eq!(
            c.to_propset(),
            r.classifiers[id.index()],
            "id {id}, seed {seed}"
        );
        assert_eq!(u.classifier(id), c, "seed {seed}");
        assert_eq!(u.incidence(id), r.incidence[id.index()], "seed {seed}");
        assert_eq!(u.id_of(&r.classifiers[id.index()]), Some(id), "seed {seed}");
        assert_eq!(
            u.require_id(&r.classifiers[id.index()]),
            Ok(id),
            "seed {seed}"
        );
    }
    assert_eq!(
        u.max_incidence(),
        r.incidence.iter().copied().max().unwrap_or(0),
        "seed {seed}"
    );
    assert_eq!(u.num_queries(), r.tables.len(), "seed {seed}");
    for (qi, table) in r.tables.iter().enumerate() {
        let local = u.query_local(qi);
        assert_eq!(local.table, &table[..], "table {qi}, seed {seed}");
        assert_eq!(1 << local.len, table.len(), "length {qi}, seed {seed}");
    }
    assert_eq!(
        u.mask_tables(),
        &r.tables.concat()[..],
        "table arena, seed {seed}"
    );
    // sets outside C_Q: a property no query has, and pairs no query holds
    let absent = PropSet::from_ids([1_000_000u32]);
    assert_eq!(u.id_of(&absent), None, "seed {seed}");
    assert!(matches!(
        u.require_id(&absent),
        Err(Mc3Error::ClassifierOutsideUniverse { .. })
    ));
    for _ in 0..20 {
        let probe = PropSet::from_ids([rng.gen_range(0..40u32), rng.gen_range(0..40u32)]);
        assert_eq!(
            u.id_of(&probe),
            r.index.get(&probe).copied(),
            "probe {probe}, seed {seed}"
        );
    }
    let pairs = r
        .tables
        .iter()
        .map(|t| t.iter().filter(|id| !id.is_none()).count())
        .sum();
    (pairs, u.len())
}

fn rand_kp(rng: &mut StdRng, instance: &Instance) -> usize {
    match rng.gen_range(0..4u32) {
        0 => 1,
        1 => 2,
        2 => 3,
        _ => instance.max_query_len(),
    }
}

#[test]
fn arena_universe_matches_hash_map_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng);
        let kp = rand_kp(&mut rng, &instance);
        assert_matches_reference(&instance, kp, &mut rng, seed);
    }
}

#[test]
fn heavy_sharing_keeps_first_occurrence_ids() {
    // Long queries over a tiny pool: every query's subsets are mostly
    // ones an earlier query already interned, so the pair count the
    // universe is sized by far exceeds the distinct classifiers. Ids
    // must still follow first occurrence, and every lookup must find its
    // classifier in the sized table.
    let mut widest = 0.0f64;
    for seed in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bad);
        let pool = rng.gen_range(6..12u32);
        let nq = rng.gen_range(20..200usize);
        let queries: Vec<Vec<u32>> = (0..nq)
            .map(|_| {
                let len = rng.gen_range(4..=8usize);
                (0..len).map(|_| rng.gen_range(0..pool)).collect()
            })
            .collect();
        let weights = if rng.gen_bool(0.5) {
            Weights::seeded(rng.gen::<u64>(), 1, 50)
        } else {
            Weights::uniform(1u64)
        };
        let instance = Instance::new(queries, weights).expect("valid instance");
        let kp = rand_kp(&mut rng, &instance);
        let (pairs, distinct) = assert_matches_reference(&instance, kp, &mut rng, seed);
        widest = widest.max(pairs as f64 / distinct as f64);
    }
    assert!(
        widest > 10.0,
        "no case shared heavily: {widest:.1} pairs per classifier"
    );
}
