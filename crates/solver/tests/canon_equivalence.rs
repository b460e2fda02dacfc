//! Bit-identical equivalence of `canon::canonicalize` against the
//! canonicalization it replaced.
//!
//! The flat-buffer rewrite with automorphism pruning only skips work:
//! refinement rounds on discrete colorings and subtrees that are
//! automorphic images of subtrees explored earlier. Whenever the old
//! search finished, the new one must return the same fingerprint and the
//! same relabeling, so cache keys and cached entries do not change. These
//! tests replay the old implementation (copied below verbatim, except that
//! it returns its tables instead of a `Canonical`) and demand identical
//! outputs on:
//!
//! * every residual component of private-like 1000 (8 seeds), BestBuy-like
//!   2000 (4 seeds), synthetic 300 and duplicate-heavy 400;
//! * 2,400 random small instances with uniform or 1–3 weights, random
//!   covered masks and classifier bounds, at the default budget and at
//!   small ones.
//!
//! A reference budget abort may become `Some` (the new search charges
//! less); the reverse fails.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`).

use mc3_core::canon::{self, Canonical, Canonicalizer};
use mc3_core::rng::prelude::*;
use mc3_core::{ClassifierUniverse, Instance, PropId, Query, Weight, Weights};
use mc3_solver::components::connected_components;
use mc3_solver::preprocess::preprocess;
use mc3_solver::work::WorkState;
use mc3_solver::SolverConfig;
use mc3_workload::{generate_dataset, GeneratorKind};

/// What the reference returns: the fields of a `Canonical`.
struct Reference {
    fingerprint: u128,
    from_canonical: Vec<PropId>,
    to_canonical: Vec<(PropId, u32)>,
}

/// The canonicalization before the flat-buffer rewrite.
mod reference {
    use super::Reference;
    use mc3_core::canon::{stable_hash128, StableHasher};
    use mc3_core::cast::u32_of;
    use mc3_core::{PropId, Query, Weight};

    /// One finite weight-oracle entry: a classifier as a query-local mask.
    struct WeightEntry {
        query: u32,
        mask: u32,
        weight_raw: u64,
    }

    /// Everything precomputed once per [`canonicalize`] call.
    struct CanonCtx<'a> {
        /// Sorted distinct original properties; index = local prop id.
        props: Vec<PropId>,
        /// Per query: members as local prop ids (sorted ascending).
        q_members: Vec<Vec<u32>>,
        /// Per query: covered mask in query-local bit positions.
        q_covered: &'a [u32],
        /// CSR incidence: for local prop `i`, `occ[occ_off[i]..occ_off[i+1]]`
        /// is its `(query index, bit position within query)` occurrences.
        occ_off: Vec<usize>,
        occ: Vec<(u32, u32)>,
        /// Finite weight-oracle entries, grouped by query, ascending mask.
        weights: Vec<WeightEntry>,
        /// Classifier length bound `k'`.
        kp: usize,
        /// Remaining work units; `None` from any step once exhausted.
        budget: usize,
    }

    impl CanonCtx<'_> {
        fn n(&self) -> usize {
            self.props.len()
        }

        fn m(&self) -> usize {
            self.q_members.len()
        }

        /// Deducts `units` of work; `None` when the budget runs dry.
        fn charge(&mut self, units: usize) -> Option<()> {
            if self.budget < units {
                self.budget = 0;
                return None;
            }
            self.budget -= units;
            Some(())
        }

        /// Re-ranks arbitrary per-prop keys into dense colors `0..distinct`,
        /// ordered by key value. Returns `(colors, distinct)`.
        fn rerank(&self, keys: &[u128]) -> (Vec<u32>, usize) {
            let mut order: Vec<u32> = (0..u32_of(keys.len())).collect();
            order.sort_unstable_by_key(|&i| keys[i as usize]);
            let mut colors = vec![0u32; keys.len()];
            let mut distinct = 0usize;
            let mut prev: Option<u128> = None;
            for &i in &order {
                let k = keys[i as usize];
                if prev != Some(k) {
                    distinct += 1;
                    prev = Some(k);
                }
                colors[i as usize] = u32_of(distinct - 1);
            }
            (colors, distinct)
        }

        /// Color refinement to a fixpoint. Input colors may be non-dense;
        /// the output is a dense coloring ordered by invariant signatures.
        fn refine(&mut self, colors: &[u32]) -> Option<(Vec<u32>, usize)> {
            let n = self.n();
            let m = self.m();
            let keys: Vec<u128> = colors.iter().map(|&c| u128::from(c)).collect();
            let (mut colors, mut distinct) = self.rerank(&keys);
            if n == 0 {
                return Some((colors, distinct));
            }
            loop {
                self.charge(n + m + self.occ.len())?;
                // Per-query signature over member colors + covered flags.
                let mut qsig = Vec::with_capacity(m);
                let mut member_keys: Vec<u64> = Vec::new();
                for (qi, members) in self.q_members.iter().enumerate() {
                    member_keys.clear();
                    for (bit, &p) in members.iter().enumerate() {
                        let covered = u64::from((self.q_covered[qi] >> bit) & 1);
                        member_keys.push((u64::from(colors[p as usize]) << 1) | covered);
                    }
                    member_keys.sort_unstable();
                    let mut h = StableHasher::new();
                    h.write_u64(members.len() as u64);
                    h.write_words(&member_keys);
                    qsig.push(h.finish128());
                }
                // Per-prop signature: old color + sorted occurrence multiset.
                let mut psig = Vec::with_capacity(n);
                let mut occ_keys: Vec<(u64, u128)> = Vec::new();
                for p in 0..n {
                    occ_keys.clear();
                    for &(qi, bit) in &self.occ[self.occ_off[p]..self.occ_off[p + 1]] {
                        let covered = u64::from((self.q_covered[qi as usize] >> bit) & 1);
                        occ_keys.push((covered, qsig[qi as usize]));
                    }
                    occ_keys.sort_unstable();
                    let mut h = StableHasher::new();
                    h.write_u64(u64::from(colors[p]));
                    for &(covered, sig) in &occ_keys {
                        h.write_u64(covered);
                        h.write_u64((sig >> 64) as u64);
                        h.write_u64(sig as u64);
                    }
                    psig.push(h.finish128());
                }
                let (next, next_distinct) = self.rerank(&psig);
                // The old color is part of the signature, so colors only ever
                // split; an unchanged class count means a fixpoint.
                if next_distinct == distinct {
                    return Some((colors, distinct));
                }
                colors = next;
                distinct = next_distinct;
            }
        }

        /// Full canonical encoding of the instance under a discrete coloring
        /// (`colors` is a bijection local prop id → canonical id).
        fn encode(&mut self, colors: &[u32]) -> Option<Vec<u64>> {
            let mut words = Vec::new();
            words.push(self.n() as u64);
            words.push(self.m() as u64);
            words.push(self.kp as u64);
            // Queries: each rep = [len, canonical ids…, covered count,
            // covered canonical ids…]; the rep list is sorted so query order
            // never matters.
            let mut reps: Vec<Vec<u64>> = Vec::with_capacity(self.m());
            for (qi, members) in self.q_members.iter().enumerate() {
                let mut ids: Vec<u64> = members
                    .iter()
                    .map(|&p| u64::from(colors[p as usize]))
                    .collect();
                let mut covered: Vec<u64> = members
                    .iter()
                    .enumerate()
                    .filter(|&(bit, _)| (self.q_covered[qi] >> bit) & 1 == 1)
                    .map(|(_, &p)| u64::from(colors[p as usize]))
                    .collect();
                ids.sort_unstable();
                covered.sort_unstable();
                let mut rep = Vec::with_capacity(ids.len() + covered.len() + 2);
                rep.push(ids.len() as u64);
                rep.extend_from_slice(&ids);
                rep.push(covered.len() as u64);
                rep.extend_from_slice(&covered);
                reps.push(rep);
            }
            reps.sort_unstable();
            for rep in &reps {
                words.extend_from_slice(rep);
            }
            // Weight oracle: finite entries as sorted, deduplicated
            // [len, canonical ids…, weight] tuples. Shared classifiers
            // (reachable from several queries) collapse to one entry.
            let mut entries: Vec<Vec<u64>> = Vec::with_capacity(self.weights.len());
            for e in &self.weights {
                let members = &self.q_members[e.query as usize];
                let mut ids: Vec<u64> = members
                    .iter()
                    .enumerate()
                    .filter(|&(bit, _)| (e.mask >> bit) & 1 == 1)
                    .map(|(_, &p)| u64::from(colors[p as usize]))
                    .collect();
                ids.sort_unstable();
                let mut entry = Vec::with_capacity(ids.len() + 2);
                entry.push(ids.len() as u64);
                entry.extend_from_slice(&ids);
                entry.push(e.weight_raw);
                entries.push(entry);
            }
            entries.sort_unstable();
            entries.dedup();
            words.push(entries.len() as u64);
            for entry in &entries {
                words.extend_from_slice(entry);
            }
            self.charge(words.len())?;
            Some(words)
        }

        /// Individualization-refinement search for the minimal leaf encoding.
        fn search(
            &mut self,
            colors: Vec<u32>,
            best: &mut Option<(Vec<u64>, Vec<u32>)>,
        ) -> Option<()> {
            let (colors, distinct) = self.refine(&colors)?;
            if distinct == self.n() {
                let enc = self.encode(&colors)?;
                let better = match best {
                    Some((b, _)) => enc < *b,
                    None => true,
                };
                if better {
                    *best = Some((enc, colors));
                }
                return Some(());
            }
            // Target cell: the smallest color value with ≥ 2 members — an
            // isomorphism-invariant choice, since colors are ranked by
            // invariant signatures.
            let mut count = vec![0u32; distinct];
            for &c in &colors {
                count[c as usize] += 1;
            }
            let target = match count.iter().position(|&c| c >= 2) {
                Some(t) => u32_of(t),
                None => return Some(()), // unreachable: distinct < n implies a class ≥ 2
            };
            for p in 0..self.n() {
                if colors[p] != target {
                    continue;
                }
                let branched: Vec<u32> = colors
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| c * 2 + u32::from(i != p))
                    .collect();
                self.search(branched, best)?;
            }
            Some(())
        }
    }

    /// Canonicalizes a (sub-)instance given as `(query, covered_mask)` pairs
    /// plus a weight oracle.
    ///
    /// * `queries[qi].1` is a query-local bitmask (bit `i` = the `i`-th
    ///   smallest property of the query) of properties already covered —
    ///   pass `0` for a fresh instance.
    /// * `kp` is the classifier length bound `k'` (`max_classifier_len`
    ///   clamped to the instance, or the max query length).
    /// * `weight_of(qi, mask)` returns the construction cost of the
    ///   classifier `mask ⊆ queries[qi].0`; return [`Weight::INFINITE`] for
    ///   unavailable classifiers. The oracle must be consistent: a classifier
    ///   reachable from two queries must get one weight.
    /// * `budget` bounds the total work (see [`DEFAULT_BUDGET`]); `None` is
    ///   returned when it is exhausted, which callers should treat as
    ///   "don't cache this one".
    pub fn canonicalize(
        queries: &[(&Query, u32)],
        kp: usize,
        budget: usize,
        mut weight_of: impl FnMut(usize, u32) -> Weight,
    ) -> Option<Reference> {
        let kp = kp.max(1);
        // Local prop table: sorted distinct PropIds.
        let mut props: Vec<PropId> = queries
            .iter()
            .flat_map(|(q, _)| q.ids().iter().copied())
            .collect();
        props.sort_unstable();
        props.dedup();
        let n = props.len();
        let m = queries.len();

        let local_of = |p: PropId| -> u32 {
            match props.binary_search(&p) {
                Ok(i) => u32_of(i),
                // audit:allow(no-unwrap-in-lib) props was built from these exact queries
                Err(_) => unreachable!("query property missing from the prop table"),
            }
        };

        let mut q_members: Vec<Vec<u32>> = Vec::with_capacity(m);
        let mut q_covered: Vec<u32> = Vec::with_capacity(m);
        for &(q, covered) in queries {
            let members: Vec<u32> = q.ids().iter().map(|&p| local_of(p)).collect();
            q_members.push(members);
            q_covered.push(covered);
        }

        // CSR incidence.
        let mut deg = vec![0usize; n];
        for members in &q_members {
            for &p in members {
                deg[p as usize] += 1;
            }
        }
        let mut occ_off = vec![0usize; n + 1];
        for i in 0..n {
            occ_off[i + 1] = occ_off[i] + deg[i];
        }
        let mut occ = vec![(0u32, 0u32); occ_off[n]];
        let mut cursor = occ_off.clone();
        for (qi, members) in q_members.iter().enumerate() {
            for (bit, &p) in members.iter().enumerate() {
                occ[cursor[p as usize]] = (u32_of(qi), u32_of(bit));
                cursor[p as usize] += 1;
            }
        }

        // Finite weight-oracle entries, plus each prop's `(prop, entry size,
        // weight)` triples for the initial coloring.
        let mut budget_left = budget;
        let mut weights = Vec::new();
        let mut prop_entries: Vec<(u32, u64, u64)> = Vec::new();
        for (qi, members) in q_members.iter().enumerate() {
            let len = members.len();
            if len >= 32 {
                // Query-local masks are u32; longer queries (beyond
                // MAX_QUERY_LEN anyway) are simply not canonicalized.
                return None;
            }
            let masks: u32 = 1u32 << len;
            if budget_left < masks as usize {
                return None;
            }
            budget_left -= masks as usize;
            for mask in 1..masks {
                if (mask.count_ones() as usize) > kp {
                    continue;
                }
                let w = weight_of(qi, mask);
                if !w.is_finite() {
                    continue;
                }
                let size = u64::from(mask.count_ones());
                for (bit, &p) in members.iter().enumerate() {
                    if (mask >> bit) & 1 == 1 {
                        prop_entries.push((p, size, w.raw()));
                    }
                }
                weights.push(WeightEntry {
                    query: u32_of(qi),
                    mask,
                    weight_raw: w.raw(),
                });
            }
        }

        let mut ctx = CanonCtx {
            props,
            q_members,
            q_covered: &q_covered,
            occ_off,
            occ,
            weights,
            kp,
            budget: budget_left,
        };

        // Initial invariant coloring: sizes and weights of the finite
        // entries holding the prop, degree, shapes of the containing queries.
        prop_entries.sort_unstable();
        let mut run = 0usize;
        let mut init_keys = Vec::with_capacity(n);
        let mut shape: Vec<u64> = Vec::new();
        for p in 0..n {
            let start = run;
            while prop_entries.get(run).is_some_and(|e| e.0 as usize == p) {
                run += 1;
            }
            shape.clear();
            for &(qi, bit) in &ctx.occ[ctx.occ_off[p]..ctx.occ_off[p + 1]] {
                let covered = u64::from((q_covered[qi as usize] >> bit) & 1);
                let len = ctx.q_members[qi as usize].len() as u64;
                shape.push((len << 1) | covered);
            }
            shape.sort_unstable();
            let mut h = StableHasher::new();
            h.write_u64((run - start) as u64);
            for &(_, size, weight_raw) in &prop_entries[start..run] {
                h.write_u64(size);
                h.write_u64(weight_raw);
            }
            h.write_u64(deg[p] as u64);
            h.write_words(&shape);
            init_keys.push(h.finish128());
        }
        let (init_colors, _) = ctx.rerank(&init_keys);

        let mut best: Option<(Vec<u64>, Vec<u32>)> = None;
        ctx.search(init_colors, &mut best)?;
        let (encoding, colors) = best?;

        let mut from_canonical = vec![PropId(0); n];
        let mut to_canonical = Vec::with_capacity(n);
        for (p, &c) in colors.iter().enumerate() {
            from_canonical[c as usize] = ctx.props[p];
            to_canonical.push((ctx.props[p], c));
        }
        // ctx.props is sorted, so to_canonical is sorted by original id.
        Some(Reference {
            fingerprint: stable_hash128(&encoding),
            from_canonical,
            to_canonical,
        })
    }
}

/// Outcome counts over one corpus.
#[derive(Debug, Default)]
struct Tally {
    compared: usize,
    /// Reference aborts that now canonicalize.
    rescued: usize,
    /// Aborts on both sides.
    aborted: usize,
    /// One canonicalizer for the whole corpus, so every component after
    /// the first runs on buffers a different component left behind.
    reused: Canonicalizer,
}

/// Canonicalizes one component both ways with the same oracle and
/// requires identical outputs whenever the reference finishes.
fn check(
    label: &str,
    queries: &[(&Query, u32)],
    kp: usize,
    budget: usize,
    weight_of: impl Fn(usize, u32) -> Weight,
    tally: &mut Tally,
) {
    let expected = reference::canonicalize(queries, kp, budget, &weight_of);
    let got: Option<Canonical> = canon::canonicalize(queries, kp, budget, &weight_of);
    let again = tally.reused.canonicalize(queries, kp, budget, &weight_of);
    assert_eq!(
        again.as_ref().map(Canonical::fingerprint),
        got.as_ref().map(Canonical::fingerprint),
        "{label}: reused buffers"
    );
    assert_eq!(
        again.as_ref().map(Canonical::from_canonical),
        got.as_ref().map(Canonical::from_canonical),
        "{label}: reused buffers"
    );
    match (expected, got) {
        (Some(r), Some(c)) => {
            tally.compared += 1;
            assert_eq!(r.fingerprint, c.fingerprint(), "{label}: fingerprint");
            assert_eq!(
                r.from_canonical,
                c.from_canonical(),
                "{label}: from_canonical"
            );
            for &(p, id) in &r.to_canonical {
                assert_eq!(c.canonical_of(p), Some(id), "{label}: canonical_of({p:?})");
            }
        }
        (Some(_), None) => panic!("{label}: the reference canonicalized, the rewrite aborted"),
        (None, Some(_)) => tally.rescued += 1,
        (None, None) => tally.aborted += 1,
    }
}

/// Every residual component of one generated instance after the solver's
/// default preprocessing, with the live weight oracle the component cache
/// reads.
fn check_corpus(kind: GeneratorKind, queries: usize, seed: u64, tally: &mut Tally) {
    let instance = generate_dataset(kind, queries, seed).instance;
    let kp = instance.max_query_len().max(1);
    let mut ws = WorkState::new(&instance, ClassifierUniverse::build_bounded(&instance, kp));
    preprocess(&mut ws, &SolverConfig::default().preprocess).expect("coverable instance");
    for (ci, comp) in connected_components(instance.queries(), &ws.alive_query_indices())
        .iter()
        .enumerate()
    {
        let qs: Vec<(&Query, u32)> = comp
            .iter()
            .map(|&q| (&instance.queries()[q], ws.covered[q]))
            .collect();
        let label = format!("{}/{queries}/{seed} component {ci}", kind.name());
        check(
            &label,
            &qs,
            kp,
            canon::DEFAULT_BUDGET,
            |qi, mask| {
                let id = ws.universe.query_local(comp[qi]).table[mask as usize];
                if id.is_none() || !ws.is_available(id) {
                    Weight::INFINITE
                } else {
                    ws.weight[id.index()]
                }
            },
            tally,
        );
    }
}

#[test]
fn private_like_components_match_the_reference() {
    let mut tally = Tally::default();
    for seed in 1..=8 {
        check_corpus(GeneratorKind::Private, 1000, seed, &mut tally);
    }
    assert!(tally.compared > 0, "{tally:?}");
    assert_eq!(tally.aborted, 0, "{tally:?}");
}

#[test]
fn bestbuy_components_match_the_reference() {
    let mut tally = Tally::default();
    for seed in 1..=4 {
        check_corpus(GeneratorKind::BestBuy, 2000, seed, &mut tally);
    }
    assert!(tally.compared > 1000, "{tally:?}");
}

#[test]
fn synthetic_and_duplicate_heavy_components_match_the_reference() {
    let mut tally = Tally::default();
    check_corpus(GeneratorKind::Synthetic, 300, 5, &mut tally);
    check_corpus(GeneratorKind::DuplicateHeavy, 400, 7, &mut tally);
    assert!(tally.compared > 0, "{tally:?}");
}

/// Small random instances, many of them symmetric: up to 9 properties,
/// up to 6 queries of length 1–5, uniform or 1–3 weights, random covered
/// masks and classifier bounds.
#[test]
fn random_small_instances_match_the_reference() {
    let mut tally = Tally::default();
    for case in 0..2400u64 {
        let mut rng = StdRng::seed_from_u64(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0_FFEE);
        let n_props = rng.gen_range(1..=9u32);
        let n_queries = rng.gen_range(1..=6usize);
        let queries: Vec<Vec<u32>> = (0..n_queries)
            .map(|_| {
                let mut ids: Vec<u32> = (0..n_props).collect();
                ids.shuffle(&mut rng);
                ids.truncate(rng.gen_range(1..=5usize.min(n_props as usize)));
                ids.sort_unstable();
                ids
            })
            .collect();
        let weights = if case % 2 == 0 {
            Weights::uniform(1u64)
        } else {
            Weights::seeded(case, 1, 3)
        };
        let instance = Instance::new(queries, weights).expect("valid instance");
        let max_len = instance.max_query_len().max(1);
        let kp = if rng.gen_bool(0.5) {
            max_len
        } else {
            rng.gen_range(1..=max_len)
        };
        let covered: Vec<u32> = instance
            .queries()
            .iter()
            .map(|q| {
                if rng.gen_bool(0.3) {
                    rng.gen_range(0..(1u32 << q.len()))
                } else {
                    0
                }
            })
            .collect();
        let qs: Vec<(&Query, u32)> = instance.queries().iter().zip(covered).collect();
        let budget = match case % 4 {
            0 => 64,
            1 => 512,
            _ => canon::DEFAULT_BUDGET,
        };
        check(
            &format!("case {case}"),
            &qs,
            kp,
            budget,
            |qi, mask| instance.weight(&instance.queries()[qi].subset_by_mask(mask)),
            &mut tally,
        );
    }
    assert!(tally.compared >= 1500, "{tally:?}");
}
