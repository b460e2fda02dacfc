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
//! * the two fingerprints are equal, or both canonicalizations abort; a
//!   one-sided abort (legitimate since automorphism pruning: the two
//!   searches walk different trees) is re-run at four times the budget,
//!   where both must finish with equal fingerprints;
//! * the two admission pre-keys (`cache::prekey`) are equal, and so are
//!   the pre-keys of any two components of one instance that fingerprint
//!   the same, so the doorkeeper never keeps an isomorphic copy out;
//! * bumping one finite weight, or flipping one covered bit, changes the
//!   fingerprint (either changes an invariant — the weight multiset or
//!   the covered count — so the mutant is never isomorphic);
//! * no private-like residual component exhausts `canon::DEFAULT_BUDGET`,
//!   and neither does a single uniform-cost query of length 2–10, whose
//!   properties are all interchangeable.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`).

use mc3_core::canon::{self, Canonical};
use mc3_core::rng::prelude::*;
use mc3_core::{ClassifierUniverse, PropId, PropSet, Query, Weight};
use mc3_solver::cache;
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

/// Any configuration digest: the pre-key only mixes it in.
const DIGEST: u64 = 0x00D1_6E57;

impl Component {
    fn weight(&self, qi: usize, mask: u32) -> Weight {
        self.class[qi][mask as usize].map_or(Weight::INFINITE, |c| self.weights[c])
    }

    fn canonicalize(&self) -> Option<Canonical> {
        self.canonicalize_within(canon::DEFAULT_BUDGET)
    }

    fn canonicalize_within(&self, budget: usize) -> Option<Canonical> {
        let queries: Vec<(&Query, u32)> = self.queries.iter().map(|(q, c)| (q, *c)).collect();
        canon::canonicalize(&queries, self.kp, budget, |qi, mask| self.weight(qi, mask))
    }

    /// The doorkeeper's pre-key, with property degrees counted here.
    fn prekey(&self) -> u64 {
        let mut degree: mc3_core::FxHashMap<PropId, u32> = mc3_core::FxHashMap::default();
        for (q, _) in &self.queries {
            for &p in q.ids() {
                *degree.entry(p).or_default() += 1;
            }
        }
        let queries: Vec<(&Query, u32)> = self.queries.iter().map(|(q, c)| (q, *c)).collect();
        cache::prekey(
            DIGEST,
            &queries,
            self.kp,
            |qi, bit| degree[&self.queries[qi].0.ids()[bit]],
            |qi, mask| self.weight(qi, mask),
        )
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
            // The solver's pre-key reads a property's degree from its
            // singleton's alive-query count; pin that it is the degree
            // within the component.
            let mut degree: mc3_core::FxHashMap<PropId, u32> = mc3_core::FxHashMap::default();
            for &q in comp {
                for &p in instance.queries()[q].ids() {
                    *degree.entry(p).or_default() += 1;
                }
            }
            for &q in comp {
                for (bit, p) in instance.queries()[q].ids().iter().enumerate() {
                    let singleton = ws.universe.query_local(q).table[1 << bit];
                    assert_eq!(ws.relevant_count[singleton.index()], degree[p]);
                }
            }
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
    /// Components that fingerprint like an earlier one of the instance.
    repeats: usize,
}

/// Checks every residual component of one corpus instance; returns the
/// tally.
fn check_corpus(kind: GeneratorKind, queries: usize, seed: u64) -> Tally {
    let label = format!("{}/{queries}/{seed}", kind.name());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA_F0_0D);
    let mut tally = Tally::default();
    let mut prekey_of: mc3_core::FxHashMap<u128, u64> = mc3_core::FxHashMap::default();
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
        let relabelled = comp.relabel(&perm, &order);
        let copy = relabelled.canonicalize();
        assert_eq!(
            comp.prekey(),
            relabelled.prekey(),
            "{label} component {ci}: relabelled copy has another pre-key"
        );

        let (a, b) = match (base, copy) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => {
                tally.exhausted += 1;
                continue;
            }
            _ => {
                tally.exhausted += 1;
                let retry = |c: &Component| {
                    c.canonicalize_within(4 * canon::DEFAULT_BUDGET)
                        .unwrap_or_else(|| {
                            panic!("{label} component {ci}: one-sided abort at 4x the budget")
                        })
                };
                (retry(&comp), retry(&relabelled))
            }
        };
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{label} component {ci}: relabelled copy fingerprints differently"
        );
        let base = a;
        match prekey_of.entry(base.fingerprint()) {
            std::collections::hash_map::Entry::Occupied(seen) => {
                tally.repeats += 1;
                assert_eq!(
                    *seen.get(),
                    comp.prekey(),
                    "{label} component {ci}: an isomorphic component has another pre-key"
                );
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(comp.prekey());
            }
        }

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
        if kind == GeneratorKind::DuplicateHeavy {
            assert!(t.repeats > 0, "shared shapes must repeat: {t:?}");
        }
    }
}

#[test]
fn uniform_single_queries_canonicalize_within_budget() {
    // One query of length 2–10 with every classifier at cost 1: all its
    // properties are interchangeable, the most symmetric component there
    // is. Automorphism pruning must keep the search within the default
    // budget, and a relabelled copy must fingerprint the same.
    let mut rng = StdRng::seed_from_u64(0x5E_77);
    for len in 2..=10u32 {
        let query = PropSet::from_ids((0..len).map(|i| PropId(3 * i + 1)));
        let masks = 1usize << len;
        let comp = Component {
            queries: vec![(query, 0)],
            class: vec![(0..masks).map(|mask| (mask > 0).then_some(mask)).collect()],
            weights: vec![Weight::new(1); masks],
            kp: len as usize,
        };
        let mut ids: Vec<u32> = (0..len).map(|i| 5 * i + 2).collect();
        ids.shuffle(&mut rng);
        let perm = |p: PropId| PropId(ids[((p.0 - 1) / 3) as usize]);
        let base = comp
            .canonicalize()
            .unwrap_or_else(|| panic!("length {len}: exhausted the budget"));
        let relabelled = comp.relabel(&perm, &[0]);
        let copy = relabelled
            .canonicalize()
            .unwrap_or_else(|| panic!("length {len}: relabelled copy exhausted the budget"));
        assert_eq!(base.fingerprint(), copy.fingerprint(), "length {len}");
        assert_eq!(comp.prekey(), relabelled.prekey(), "length {len}");
    }
}
