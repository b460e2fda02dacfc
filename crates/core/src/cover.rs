//! Cover semantics (§2.1).
//!
//! A query `q` is covered by a classifier set `S` iff some `T ⊆ S` satisfies
//! `⋃T = q`. Since the union must equal `q` *exactly*, every member of such a
//! `T` is necessarily a subset of `q`; hence `q` is covered iff the union of
//! all members of `S` that are subsets of `q` equals `q`.
//!
//! [`cover_pass`] is the one implementation of that test. Cover checks
//! ([`is_cover`], [`first_uncovered`], [`Solution::verify`]) and
//! certificate witnesses ([`Certificate::for_solution`]) all run it.
//!
//! [`Solution::verify`]: crate::Solution::verify
//! [`Certificate::for_solution`]: crate::Certificate::for_solution

use crate::fxhash::FxHashMap;
use crate::instance::Instance;
use crate::prop::PropId;
use crate::propset::Classifier;

/// Runs the cover test over every query of `instance`, in order.
///
/// For each covered query, `visit` receives the query index and its
/// witness: the ascending indices of *every* member of `classifiers` that
/// is a subset of the query (the maximal covering subset). The pass stops
/// at the first uncovered query and returns its index; `None` means every
/// query is covered.
///
/// A property → classifier inverted index means each query inspects only
/// the classifiers sharing one of its properties. An empty classifier
/// shares none, yet is a subset of every query, so it joins every witness.
pub fn cover_pass(
    instance: &Instance,
    classifiers: &[Classifier],
    mut visit: impl FnMut(usize, &[usize]),
) -> Option<usize> {
    let mut by_prop: FxHashMap<PropId, Vec<usize>> = FxHashMap::default();
    let mut empty = Vec::new();
    for (i, c) in classifiers.iter().enumerate() {
        if c.is_empty() {
            empty.push(i);
        }
        for p in c.iter() {
            by_prop.entry(p).or_default().push(i);
        }
    }
    // `seen[i] == qi + 1`: classifier `i` was already tested against query `qi`.
    let mut seen = vec![0usize; classifiers.len()];
    let mut witness = Vec::new();
    for (qi, q) in instance.queries().iter().enumerate() {
        witness.clear();
        witness.extend_from_slice(&empty);
        // The union as a bitmask over the query's own properties.
        let mut union = 0u32;
        for p in q.iter() {
            for &ci in by_prop.get(&p).map_or(&[][..], Vec::as_slice) {
                if seen[ci] == qi + 1 {
                    continue;
                }
                seen[ci] = qi + 1;
                if let Some(mask) = q.mask_of(&classifiers[ci]) {
                    witness.push(ci);
                    union |= mask;
                }
            }
        }
        if union != (1u32 << q.len()) - 1 {
            return Some(qi);
        }
        witness.sort_unstable();
        visit(qi, &witness);
    }
    None
}

/// Whether every query of `instance` is covered by `classifiers`.
pub fn is_cover(instance: &Instance, classifiers: &[Classifier]) -> bool {
    first_uncovered(instance, classifiers).is_none()
}

/// Index of the first uncovered query, if any.
pub fn first_uncovered(instance: &Instance, classifiers: &[Classifier]) -> Option<usize> {
    cover_pass(instance, classifiers, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propset::PropSet;
    use crate::weights::Weights;

    fn ps(ids: &[u32]) -> PropSet {
        PropSet::from_ids(ids.iter().copied())
    }

    fn one_query(q: &[u32]) -> Instance {
        Instance::new(vec![q.to_vec()], Weights::uniform(1u64)).unwrap()
    }

    fn witnesses(instance: &Instance, cs: &[Classifier]) -> Option<Vec<Vec<usize>>> {
        let mut out = Vec::new();
        match cover_pass(instance, cs, |_, w| out.push(w.to_vec())) {
            None => Some(out),
            Some(_) => None,
        }
    }

    #[test]
    fn exact_union_required() {
        let q = one_query(&[1, 2, 3]);
        // {1,2} ∪ {3} = q → covered
        assert!(is_cover(&q, &[ps(&[1, 2]), ps(&[3])]));
        // {1,2} alone: union ⊊ q
        assert!(!is_cover(&q, &[ps(&[1, 2])]));
        // {1,2,3,4} is not a subset of q, so it cannot participate
        assert!(!is_cover(&q, &[ps(&[1, 2, 3, 4])]));
        // overlapping subsets are fine
        assert!(is_cover(&q, &[ps(&[1, 2]), ps(&[2, 3])]));
    }

    #[test]
    fn witness_lists_participating_classifiers() {
        let q = one_query(&[1, 2]);
        let cs = [ps(&[5]), ps(&[1]), ps(&[2])];
        assert_eq!(witnesses(&q, &cs), Some(vec![vec![1, 2]]));
    }

    #[test]
    fn witness_is_maximal_and_ascending() {
        // Every subset joins the witness, redundant ones included, in
        // index order regardless of which property reached it first.
        let q = one_query(&[1, 2]);
        let cs = [ps(&[2]), ps(&[1, 2]), ps(&[1]), ps(&[1, 3])];
        assert_eq!(witnesses(&q, &cs), Some(vec![vec![0, 1, 2]]));
    }

    #[test]
    fn empty_classifier_joins_every_witness() {
        let instance =
            Instance::new(vec![vec![0u32, 1], vec![2u32]], Weights::uniform(1u64)).unwrap();
        let cs = [ps(&[0, 1]), ps(&[]), ps(&[2])];
        assert_eq!(
            witnesses(&instance, &cs),
            Some(vec![vec![0, 1], vec![1, 2]])
        );
    }

    #[test]
    fn full_query_classifier_covers() {
        assert!(is_cover(&one_query(&[4, 5]), &[ps(&[4, 5])]));
    }

    #[test]
    fn instance_cover_check() {
        let instance =
            Instance::new(vec![vec![0u32, 1], vec![1u32, 2]], Weights::uniform(1u64)).unwrap();
        assert!(is_cover(&instance, &[ps(&[0]), ps(&[1]), ps(&[2])]));
        assert!(is_cover(&instance, &[ps(&[0, 1]), ps(&[1, 2])]));
        assert!(!is_cover(&instance, &[ps(&[0, 1])]));
        assert_eq!(first_uncovered(&instance, &[ps(&[0, 1])]), Some(1));
        assert_eq!(first_uncovered(&instance, &[]), Some(0));
    }

    #[test]
    fn empty_instance_is_trivially_covered() {
        let instance = Instance::new(Vec::<Vec<u32>>::new(), Weights::uniform(1u64)).unwrap();
        assert!(is_cover(&instance, &[]));
    }
}
