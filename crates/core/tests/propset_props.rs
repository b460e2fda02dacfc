//! Property-based tests of the core set algebra against a `BTreeSet` model,
//! plus `Weight` arithmetic laws and cover-semantics invariants.
//!
//! The workspace builds offline, so instead of `proptest` these are
//! seeded-loop properties: each test draws a few hundred random cases from
//! the deterministic [`mc3_core::rng::StdRng`] and asserts the invariant on
//! every one. Failures print the seed so a case can be replayed.

use mc3_core::cover::cover_pass;
use mc3_core::rng::prelude::*;
use mc3_core::{is_cover, Instance, PropId, PropSet, Weight, Weights};
use std::collections::BTreeSet;

const CASES: u64 = 300;

fn model(s: &PropSet) -> BTreeSet<u32> {
    s.iter().map(|p| p.0).collect()
}

fn rand_ids(rng: &mut StdRng, max: u32, len_max: usize) -> Vec<u32> {
    let len = rng.gen_range(0..len_max);
    (0..len).map(|_| rng.gen_range(0..max)).collect()
}

fn rand_propset(rng: &mut StdRng, max: u32) -> PropSet {
    PropSet::from_ids(rand_ids(rng, max, 12))
}

#[test]
fn union_difference_intersection_match_model() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_propset(&mut rng, 30);
        let b = rand_propset(&mut rng, 30);
        let (ma, mb) = (model(&a), model(&b));

        let union: BTreeSet<u32> = ma.union(&mb).copied().collect();
        assert_eq!(model(&a.union(&b)), union, "union, seed {seed}");

        let diff: BTreeSet<u32> = ma.difference(&mb).copied().collect();
        assert_eq!(model(&a.difference(&b)), diff, "difference, seed {seed}");

        let inter: BTreeSet<u32> = ma.intersection(&mb).copied().collect();
        assert_eq!(
            a.intersects(&b),
            !inter.is_empty(),
            "intersects, seed {seed}"
        );
        assert_eq!(
            model(&a.intersection(&b)),
            inter,
            "intersection, seed {seed}"
        );
    }
}

#[test]
fn subset_and_contains_match_model() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_propset(&mut rng, 12);
        let b = rand_propset(&mut rng, 12);
        assert_eq!(
            a.is_subset_of(&b),
            model(&a).is_subset(&model(&b)),
            "subset, seed {seed}"
        );
        let p = rng.gen_range(0..20u32);
        let c = rand_propset(&mut rng, 20);
        assert_eq!(
            c.contains(PropId(p)),
            model(&c).contains(&p),
            "contains, seed {seed}"
        );
    }
}

#[test]
fn mask_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = rand_ids(&mut rng, 100, 10);
        ids.push(rng.gen_range(0..100)); // non-empty
        let q = PropSet::from_ids(ids);
        if q.len() > 16 {
            continue;
        }
        let full = (1u32 << q.len()) - 1;
        for mask in 0..=full {
            let sub = q.subset_by_mask(mask);
            assert!(sub.is_subset_of(&q), "mask subset, seed {seed}");
            assert_eq!(q.mask_of(&sub), Some(mask), "mask roundtrip, seed {seed}");
        }
    }
}

#[test]
fn union_laws() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_propset(&mut rng, 20);
        let b = rand_propset(&mut rng, 20);
        let c = rand_propset(&mut rng, 20);
        // commutativity, associativity, idempotence
        assert_eq!(a.union(&b), b.union(&a), "commutativity, seed {seed}");
        assert_eq!(
            a.union(&b).union(&c),
            a.union(&b.union(&c)),
            "associativity, seed {seed}"
        );
        assert_eq!(a.union(&a), a.clone(), "idempotence, seed {seed}");
        // absorption with difference: (a \ b) ∪ (a ∩ b) = a
        assert_eq!(
            a.difference(&b).union(&a.intersection(&b)),
            a,
            "absorption, seed {seed}"
        );
    }
}

#[test]
fn weight_addition_laws() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rng.gen_range(0..u64::MAX / 4);
        let b = rng.gen_range(0..u64::MAX / 4);
        let c = rng.gen_range(0..u64::MAX / 8);
        let (wa, wb, wc) = (Weight::new(a), Weight::new(b), Weight::new(c));
        assert_eq!(wa + wb, wb + wa, "commutativity, seed {seed}");
        assert_eq!((wa + wb) + wc, wa + (wb + wc), "associativity, seed {seed}");
        assert_eq!(wa + Weight::ZERO, wa, "identity, seed {seed}");
        assert_eq!(
            wa + Weight::INFINITE,
            Weight::INFINITE,
            "absorbing, seed {seed}"
        );
        // monotone
        assert!(wa + wb >= wa, "monotonicity, seed {seed}");
    }
}

#[test]
fn cover_is_monotone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut query = rand_ids(&mut rng, 8, 5);
        query.push(rng.gen_range(0..8));
        let instance = Instance::new(vec![query], Weights::uniform(1u64)).unwrap();
        let n = rng.gen_range(0..6);
        let mut cs: Vec<PropSet> = (0..n)
            .map(|_| {
                let mut ids = rand_ids(&mut rng, 8, 3);
                ids.push(rng.gen_range(0..8));
                PropSet::from_ids(ids)
            })
            .collect();
        let before = is_cover(&instance, &cs);
        let mut extra = rand_ids(&mut rng, 8, 3);
        extra.push(rng.gen_range(0..8));
        cs.push(PropSet::from_ids(extra));
        // adding classifiers can only help
        assert!(
            !before || is_cover(&instance, &cs),
            "monotone cover, seed {seed}"
        );
    }
}

#[test]
fn cover_pass_witness_is_sound() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut query = rand_ids(&mut rng, 8, 5);
        query.push(rng.gen_range(0..8));
        let q = PropSet::from_ids(query.iter().copied());
        let instance = Instance::new(vec![query], Weights::uniform(1u64)).unwrap();
        let n = rng.gen_range(0..8);
        let cs: Vec<PropSet> = (0..n)
            .map(|_| {
                let mut ids = rand_ids(&mut rng, 8, 3);
                ids.push(rng.gen_range(0..8));
                PropSet::from_ids(ids)
            })
            .collect();
        cover_pass(&instance, &cs, |_, witness| {
            let mut union = PropSet::empty();
            for &i in witness {
                assert!(cs[i].is_subset_of(&q), "witness member ⊆ q, seed {seed}");
                union = union.union(&cs[i]);
            }
            assert_eq!(union, q, "witness union = q, seed {seed}");
        });
    }
}

#[test]
fn instance_canonicalization_is_stable() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..10);
        let queries: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut ids = rand_ids(&mut rng, 10, 4);
                ids.push(rng.gen_range(0..10));
                ids
            })
            .collect();
        let a = Instance::new(queries.clone(), Weights::uniform(1u64)).expect("valid");
        let mut shuffled = queries;
        shuffled.reverse();
        let b = Instance::new(shuffled, Weights::uniform(1u64)).expect("valid");
        assert_eq!(a.queries(), b.queries(), "canonical queries, seed {seed}");
        assert_eq!(
            a.num_properties(),
            b.num_properties(),
            "property count, seed {seed}"
        );
    }
}
