//! Seeded equivalence of the one cover pass (`mc3_core::cover::cover_pass`,
//! an inverted-index pass) with the linear reference it replaced: a scan of
//! every classifier per query, kept here as the oracle.
//!
//! On random instances and classifier lists (empty classifiers and
//! duplicates included) both must report the same first uncovered query
//! and byte-identical witness lists, and `Certificate::for_solution` must
//! return the same certificate — or the same error — as the reference
//! built on the scan.

use mc3_core::certificate::CertificateError;
use mc3_core::cover::{cover_pass, first_uncovered, is_cover};
use mc3_core::rng::prelude::*;
use mc3_core::{Certificate, Classifier, CoverWitness, Instance, PropSet, Solution, Weight};
use mc3_core::{Query, Weights};

const CASES: u64 = 300;

/// The reference witness: every member of `classifiers` that is a subset
/// of `query`, in index order, if their union is the query.
fn linear_witness(query: &Query, classifiers: &[Classifier]) -> Option<Vec<usize>> {
    let mut union = PropSet::empty();
    let mut witness = Vec::new();
    for (i, c) in classifiers.iter().enumerate() {
        if c.is_subset_of(query) {
            witness.push(i);
            union = union.union(c);
        }
    }
    (&union == query).then_some(witness)
}

/// The reference pass: witnesses up to the first uncovered query.
fn linear_pass(
    instance: &Instance,
    classifiers: &[Classifier],
) -> (Vec<Vec<usize>>, Option<usize>) {
    let mut witnesses = Vec::new();
    for (qi, q) in instance.queries().iter().enumerate() {
        match linear_witness(q, classifiers) {
            Some(w) => witnesses.push(w),
            None => return (witnesses, Some(qi)),
        }
    }
    (witnesses, None)
}

fn indexed_pass(
    instance: &Instance,
    classifiers: &[Classifier],
) -> (Vec<Vec<usize>>, Option<usize>) {
    let mut witnesses = Vec::new();
    let mut expected_qi = 0;
    let uncovered = cover_pass(instance, classifiers, |qi, w| {
        assert_eq!(qi, expected_qi, "queries are visited in order");
        expected_qi += 1;
        witnesses.push(w.to_vec());
    });
    (witnesses, uncovered)
}

/// `Certificate::for_solution` as it was built on the linear scan.
fn linear_certificate(
    instance: &Instance,
    solution: &Solution,
) -> Result<Certificate, CertificateError> {
    let classifiers = solution.classifiers();
    let mut witnesses = Vec::new();
    for (qi, q) in instance.queries().iter().enumerate() {
        let w = linear_witness(q, classifiers)
            .ok_or(CertificateError::Uncovered { query_index: qi })?;
        witnesses.push(CoverWitness {
            query_index: qi,
            classifier_indices: w,
        });
    }
    let recomputed: Weight = classifiers.iter().map(|c| instance.weight(c)).sum();
    if recomputed != solution.cost() {
        return Err(CertificateError::CostMismatch {
            recorded: solution.cost(),
            recomputed,
        });
    }
    Ok(Certificate {
        cost: solution.cost(),
        witnesses,
        lower_bound: None,
        lower_bound_kind: None,
        ratio_bound: None,
    })
}

fn rand_set(rng: &mut StdRng, props: u32, max_len: usize) -> Vec<u32> {
    let len = rng.gen_range(1..=max_len);
    (0..len).map(|_| rng.gen_range(0..props)).collect()
}

fn rand_instance(rng: &mut StdRng) -> Instance {
    let props = rng.gen_range(2..=12u32);
    let n = rng.gen_range(1..=10usize);
    let queries: Vec<Vec<u32>> = (0..n).map(|_| rand_set(rng, props, 5)).collect();
    Instance::new(queries, Weights::seeded(rng.gen(), 1, 20)).expect("valid instance")
}

/// A random classifier list over the instance's properties: whole queries,
/// parts of queries, strays that are subsets of nothing, the occasional
/// empty classifier and duplicates of earlier members.
fn rand_classifiers(rng: &mut StdRng, instance: &Instance) -> Vec<Classifier> {
    let queries = instance.queries();
    let n = rng.gen_range(0..=14usize);
    let mut out: Vec<Classifier> = Vec::with_capacity(n);
    for _ in 0..n {
        let q = &queries[rng.gen_range(0..queries.len())];
        let c = match rng.gen_range(0..10u32) {
            0 => PropSet::empty(),
            1 if !out.is_empty() => out[rng.gen_range(0..out.len())].clone(),
            2 => PropSet::from_ids(rand_set(rng, 14, 3)),
            3 | 4 => q.clone(),
            _ => {
                let mask = rng.gen_range(1..(1u32 << q.len()));
                q.subset_by_mask(mask)
            }
        };
        out.push(c);
    }
    out
}

#[test]
fn witnesses_and_first_uncovered_match_the_linear_scan() {
    let mut covered = 0;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng);
        let classifiers = rand_classifiers(&mut rng, &instance);
        let reference = linear_pass(&instance, &classifiers);
        assert_eq!(
            indexed_pass(&instance, &classifiers),
            reference,
            "seed {seed}"
        );
        assert_eq!(
            first_uncovered(&instance, &classifiers),
            reference.1,
            "seed {seed}"
        );
        assert_eq!(
            is_cover(&instance, &classifiers),
            reference.1.is_none(),
            "seed {seed}"
        );
        covered += usize::from(reference.1.is_none());
    }
    // The corpus must exercise both outcomes.
    assert!(covered > 20 && covered < CASES as usize - 20, "{covered}");
}

/// A feasible solution: each query gets itself, a random split of itself
/// into two parts, or singletons — plus a few stray extras.
fn feasible_solution(rng: &mut StdRng, instance: &Instance) -> Solution {
    let mut classifiers = Vec::new();
    for q in instance.queries() {
        match rng.gen_range(0..3u32) {
            0 => classifiers.push(q.clone()),
            1 if q.len() > 1 => {
                let full = (1u32 << q.len()) - 1;
                let mask = rng.gen_range(1..full);
                classifiers.push(q.subset_by_mask(mask));
                classifiers.push(q.subset_by_mask(full & !mask));
            }
            _ => classifiers.extend(q.iter().map(PropSet::singleton)),
        }
    }
    for _ in 0..rng.gen_range(0..3usize) {
        classifiers.push(PropSet::from_ids(rand_set(rng, 14, 2)));
    }
    Solution::new(instance, classifiers).expect("finite weights")
}

#[test]
fn certificates_match_the_linear_scan() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng);
        let solution = feasible_solution(&mut rng, &instance);
        let cert = Certificate::for_solution(&instance, &solution);
        assert_eq!(
            cert,
            linear_certificate(&instance, &solution),
            "seed {seed}"
        );
        cert.expect("feasible by construction")
            .verify(&instance, &solution)
            .expect("verifies");
        solution.verify(&instance).expect("covers");

        // Every one-classifier-dropped solution fails (or passes) alike.
        for drop in 0..solution.len() {
            let mut kept = solution.classifiers().to_vec();
            kept.remove(drop);
            let smaller = Solution::new(&instance, kept).expect("finite weights");
            assert_eq!(
                Certificate::for_solution(&instance, &smaller),
                linear_certificate(&instance, &smaller),
                "seed {seed}, drop {drop}"
            );
        }

        // A recorded cost that disagrees with the weights.
        let wrong = Solution::with_cost(
            solution.classifiers().to_vec(),
            solution.cost().saturating_add(Weight::new(1)),
        );
        assert_eq!(
            Certificate::for_solution(&instance, &wrong),
            linear_certificate(&instance, &wrong),
            "seed {seed}"
        );
    }
}

#[test]
fn empty_classifier_stays_in_every_witness() {
    let instance = Instance::new(
        vec![vec![0u32, 1], vec![2u32], vec![1u32, 3]],
        Weights::uniform(1u64),
    )
    .unwrap();
    let solution = Solution::new(
        &instance,
        vec![
            PropSet::empty(),
            PropSet::from_ids([0u32, 1]),
            PropSet::from_ids([2u32]),
            PropSet::from_ids([1u32]),
            PropSet::from_ids([3u32]),
        ],
    )
    .unwrap();
    // The empty set sorts first, so it is index 0 of every witness.
    assert!(solution.classifiers()[0].is_empty());
    let cert = Certificate::for_solution(&instance, &solution).unwrap();
    assert_eq!(cert, linear_certificate(&instance, &solution).unwrap());
    assert!(cert
        .witnesses
        .iter()
        .all(|w| w.classifier_indices.first() == Some(&0)));
    cert.verify(&instance, &solution).unwrap();

    // Alone, the empty classifier covers nothing.
    let only_empty = Solution::new(&instance, vec![PropSet::empty()]).unwrap();
    assert_eq!(
        Certificate::for_solution(&instance, &only_empty),
        Err(CertificateError::Uncovered { query_index: 0 })
    );
    assert_eq!(
        indexed_pass(&instance, only_empty.classifiers()),
        (Vec::new(), Some(0))
    );
}

#[test]
fn empty_instance_needs_nothing() {
    let instance = Instance::new(Vec::<Vec<u32>>::new(), Weights::uniform(1u64)).unwrap();
    for classifiers in [
        vec![],
        vec![PropSet::empty()],
        vec![PropSet::singleton(4u32.into())],
    ] {
        assert_eq!(indexed_pass(&instance, &classifiers), (Vec::new(), None));
        assert_eq!(
            indexed_pass(&instance, &classifiers),
            linear_pass(&instance, &classifiers)
        );
    }
    let cert = Certificate::for_solution(&instance, &Solution::empty()).unwrap();
    assert!(cert.witnesses.is_empty());
}

#[test]
fn duplicate_classifiers_each_join_the_witness() {
    let instance = Instance::new(vec![vec![0u32, 1], vec![1u32]], Weights::uniform(1u64)).unwrap();
    let one = PropSet::from_ids([1u32]);
    let classifiers = vec![
        one.clone(),
        PropSet::from_ids([0u32]),
        one.clone(),
        PropSet::from_ids([0u32, 1]),
        one,
    ];
    let (witnesses, uncovered) = indexed_pass(&instance, &classifiers);
    assert_eq!(uncovered, None);
    assert_eq!(witnesses[0], vec![0, 1, 2, 3, 4]);
    assert_eq!(witnesses[1], vec![0, 2, 4]);
    assert_eq!((witnesses, uncovered), linear_pass(&instance, &classifiers));
}
