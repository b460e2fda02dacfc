//! Invariance properties of component canonicalization on the residual
//! components the solver actually fingerprints.
//!
//! Each corpus instance is preprocessed with the solver's default options
//! and split into components. Every component is canonicalized as the
//! component cache sees it (queries with their covered masks, the live
//! weight oracle) and again as a relabelled copy: permuted `PropId`s,
//! shuffled query order, covered bits moved with the sorted-member order
//! and the weight oracle transported. Then:
//!
//! * the two fingerprints are equal, or both canonicalizations abort;
//! * bumping one finite weight, or flipping one covered bit, changes the
//!   fingerprint (either changes an invariant — the weight multiset or
//!   the covered count — so the mutant is never isomorphic);
//! * no private-like residual component exhausts `canon::DEFAULT_BUDGET`.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`).

use mc3_core::canon::{self, Canonical};
use mc3_core::rng::prelude::*;
use mc3_core::{ClassifierUniverse, PropId, PropSet, Query, Weight};
use mc3_solver::components::connected_components;
use mc3_solver::preprocess::preprocess;
use mc3_solver::work::WorkState;
use mc3_solver::SolverConfig;
use mc3_workload::{generate_dataset, GeneratorKind};

/// One residual component, detached from its working state.
#[derive(Clone)]
struct Component {
    /// Queries with their covered masks (bit `i` = the `i`-th smallest
    /// member).
    queries: Vec<(Query, u32)>,
    /// Per query, per local mask: the index into `weights` of that
    /// classifier, or `None` when it is not in the universe. Shared
    /// classifiers share an index, so the oracle stays consistent.
    class: Vec<Vec<Option<usize>>>,
    /// Live weight per classifier index (∞ once removed).
    weights: Vec<Weight>,
    kp: usize,
}

impl Component {
    fn canonicalize(&self) -> Option<Canonical> {
        let queries: Vec<(&Query, u32)> = self.queries.iter().map(|(q, c)| (q, *c)).collect();
        canon::canonicalize(&queries, self.kp, canon::DEFAULT_BUDGET, |qi, mask| {
            self.class[qi][mask as usize].map_or(Weight::INFINITE, |c| self.weights[c])
        })
    }

    /// The copy under the property map `perm` with queries listed in
    /// `order`.
    fn relabel(&self, perm: &dyn Fn(PropId) -> PropId, order: &[usize]) -> Component {
        let mut queries = Vec::with_capacity(order.len());
        let mut class = Vec::with_capacity(order.len());
        for &qi in order {
            let (q, covered) = &self.queries[qi];
            let image = PropSet::from_ids(q.ids().iter().map(|&p| perm(p)));
            // pos[i]: where the image of the i-th smallest member sits.
            let pos: Vec<usize> = q
                .ids()
                .iter()
                .map(|&p| {
                    image
                        .ids()
                        .binary_search(&perm(p))
                        .expect("image contains it")
                })
                .collect();
            let moved = |mask: u32| -> usize {
                (0..pos.len())
                    .filter(|&i| (mask >> i) & 1 == 1)
                    .map(|i| 1usize << pos[i])
                    .sum()
            };
            let old = &self.class[qi];
            let mut table = vec![None; old.len()];
            for (mask, &c) in old.iter().enumerate() {
                table[moved(mask as u32)] = c;
            }
            queries.push((image, moved(*covered) as u32));
            class.push(table);
        }
        Component {
            queries,
            class,
            weights: self.weights.clone(),
            kp: self.kp,
        }
    }
}

/// The residual components of one generated instance after the solver's
/// default preprocessing.
fn residual_components(kind: GeneratorKind, queries: usize, seed: u64) -> Vec<Component> {
    let instance = generate_dataset(kind, queries, seed).instance;
    let kp = instance.max_query_len().max(1);
    let mut ws = WorkState::new(&instance, ClassifierUniverse::build_bounded(&instance, kp));
    preprocess(&mut ws, &SolverConfig::default().preprocess).expect("coverable instance");
    let comps = connected_components(instance.queries(), &ws.alive_query_indices());
    comps
        .iter()
        .map(|comp| {
            let mut index = mc3_core::FxHashMap::default();
            let mut weights = Vec::new();
            let class = comp
                .iter()
                .map(|&q| {
                    ws.universe
                        .query_local(q)
                        .table
                        .iter()
                        .map(|&id| {
                            (!id.is_none()).then(|| {
                                *index.entry(id).or_insert_with(|| {
                                    let w = if ws.is_available(id) {
                                        ws.weight[id.index()]
                                    } else {
                                        Weight::INFINITE
                                    };
                                    weights.push(w);
                                    weights.len() - 1
                                })
                            })
                        })
                        .collect()
                })
                .collect();
            Component {
                queries: comp
                    .iter()
                    .map(|&q| (instance.queries()[q].clone(), ws.covered[q]))
                    .collect(),
                class,
                weights,
                kp,
            }
        })
        .collect()
}

/// Outcome counts over one corpus instance.
#[derive(Debug, Default)]
struct Tally {
    components: usize,
    exhausted: usize,
    mutants: usize,
}

/// Checks every residual component of one corpus instance; returns the
/// tally.
fn check_corpus(kind: GeneratorKind, queries: usize, seed: u64) -> Tally {
    let label = format!("{}/{queries}/{seed}", kind.name());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA_F0_0D);
    let mut tally = Tally::default();
    for (ci, comp) in residual_components(kind, queries, seed)
        .into_iter()
        .enumerate()
    {
        tally.components += 1;
        let base = comp.canonicalize();

        // A random injective relabelling onto spread-out ids, and a
        // random query order.
        let mut props: Vec<PropId> = comp
            .queries
            .iter()
            .flat_map(|(q, _)| q.ids().iter().copied())
            .collect();
        props.sort_unstable();
        props.dedup();
        let mut ids: Vec<u32> = (0..props.len() as u32).map(|i| 7 * i + 3).collect();
        ids.shuffle(&mut rng);
        let perm = |p: PropId| {
            let i = props.binary_search(&p).expect("component prop");
            PropId(ids[i])
        };
        let mut order: Vec<usize> = (0..comp.queries.len()).collect();
        order.shuffle(&mut rng);
        let copy = comp.relabel(&perm, &order).canonicalize();

        let base = match (base, copy) {
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "{label} component {ci}: relabelled copy fingerprints differently"
                );
                a
            }
            (None, None) => {
                tally.exhausted += 1;
                continue;
            }
            _ => panic!("{label} component {ci}: budget abort is not isomorphism-invariant"),
        };

        // Bump one finite weight the oracle exposes (pick a random query,
        // then a random finite classifier of it within k').
        let qi = rng.gen_range(0..comp.queries.len());
        let finite: Vec<usize> = comp.class[qi]
            .iter()
            .enumerate()
            .filter(|&(mask, _)| (mask as u32).count_ones() as usize <= comp.kp)
            .filter_map(|(_, &c)| c)
            .filter(|&c| comp.weights[c].is_finite())
            .collect();
        if let Some(&c) = finite.choose(&mut rng) {
            let mut bumped = comp.clone();
            bumped.weights[c] = bumped.weights[c].saturating_add(Weight::new(1));
            if let Some(b) = bumped.canonicalize() {
                tally.mutants += 1;
                assert_ne!(
                    base.fingerprint(),
                    b.fingerprint(),
                    "{label} component {ci}: bumping a weight kept the fingerprint"
                );
            }
        }

        // Flip one covered bit.
        let mut flipped = comp.clone();
        let (q, covered) = &mut flipped.queries[qi];
        *covered ^= 1 << rng.gen_range(0..q.len());
        if let Some(f) = flipped.canonicalize() {
            tally.mutants += 1;
            assert_ne!(
                base.fingerprint(),
                f.fingerprint(),
                "{label} component {ci}: flipping a covered bit kept the fingerprint"
            );
        }
    }
    tally
}

#[test]
fn private_like_components_canonicalize_within_budget() {
    let mut total = Tally::default();
    for seed in 1..=8 {
        let t = check_corpus(GeneratorKind::Private, 1000, seed);
        total.components += t.components;
        total.exhausted += t.exhausted;
        total.mutants += t.mutants;
    }
    assert!(total.components > 0 && total.mutants > 0, "{total:?}");
    assert_eq!(
        total.exhausted, 0,
        "private-like residual components exhausted the budget: {total:?}"
    );
}

#[test]
fn bestbuy_components_are_relabelling_invariant() {
    let t = check_corpus(GeneratorKind::BestBuy, 2000, 3);
    assert!(t.components > 0 && t.mutants > 0, "{t:?}");
}

#[test]
fn synthetic_and_duplicate_heavy_components_are_relabelling_invariant() {
    for (kind, queries, seed) in [
        (GeneratorKind::Synthetic, 300, 5),
        (GeneratorKind::DuplicateHeavy, 400, 7),
    ] {
        let t = check_corpus(kind, queries, seed);
        assert!(t.components > 0, "{}: {t:?}", kind.name());
    }
}
