//! Solutions: sets of classifiers selected for construction.

use crate::cover;
use crate::error::{Mc3Error, Result};
use crate::instance::Instance;
use crate::propset::Classifier;
use crate::universe::{ClassifierId, ClassifierUniverse};
use crate::weight::Weight;

/// A candidate MC³ solution: a set of classifiers plus its total
/// construction cost `W(S) = Σ_{c∈S} W(c)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    classifiers: Vec<Classifier>,
    cost: Weight,
}

impl Solution {
    /// The empty solution (valid only for empty instances).
    pub fn empty() -> Solution {
        Solution {
            classifiers: Vec::new(),
            cost: Weight::ZERO,
        }
    }

    /// Builds a solution from classifiers, computing the cost under
    /// `instance`'s weight function. Deduplicates.
    pub fn new(instance: &Instance, classifiers: Vec<Classifier>) -> Result<Solution> {
        let mut classifiers = classifiers;
        classifiers.sort_unstable();
        classifiers.dedup();
        let mut cost = Weight::ZERO;
        for c in &classifiers {
            let w = instance.weight(c);
            cost = cost
                .checked_add(w)
                .ok_or(if w.is_infinite() || cost.is_infinite() {
                    Mc3Error::Internal(format!("solution selects infinite-weight classifier {c}"))
                } else {
                    Mc3Error::CostOverflow
                })?;
        }
        Ok(Solution { classifiers, cost })
    }

    /// Builds a solution from dense universe ids.
    pub fn from_ids(
        universe: &ClassifierUniverse,
        ids: impl IntoIterator<Item = ClassifierId>,
    ) -> Solution {
        let mut ids: Vec<ClassifierId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut cost = Weight::ZERO;
        let mut classifiers = Vec::with_capacity(ids.len());
        for id in ids {
            cost = cost.saturating_add(universe.weight(id));
            classifiers.push(universe.classifier(id).to_propset());
        }
        classifiers.sort_unstable();
        Solution { classifiers, cost }
    }

    /// Builds a solution with a pre-computed cost (solver internal; the cost
    /// is trusted). `classifiers` are canonicalized.
    pub fn with_cost(mut classifiers: Vec<Classifier>, cost: Weight) -> Solution {
        classifiers.sort_unstable();
        classifiers.dedup();
        Solution { classifiers, cost }
    }

    /// The selected classifiers, in canonical order.
    #[inline]
    pub fn classifiers(&self) -> &[Classifier] {
        &self.classifiers
    }

    /// Total construction cost.
    #[inline]
    pub fn cost(&self) -> Weight {
        self.cost
    }

    /// Number of selected classifiers.
    #[inline]
    pub fn len(&self) -> usize {
        self.classifiers.len()
    }

    /// Whether no classifier is selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.classifiers.is_empty()
    }

    /// Histogram of selected classifier lengths: `hist[l]` = number of
    /// selected classifiers testing `l` properties (index 0 unused).
    pub fn length_histogram(&self) -> Vec<usize> {
        let max = self
            .classifiers
            .iter()
            .map(Classifier::len)
            .max()
            .unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for c in &self.classifiers {
            hist[c.len()] += 1;
        }
        hist
    }

    /// Verifies that this solution covers every query of `instance` and that
    /// the recorded cost matches the weight function.
    pub fn verify(&self, instance: &Instance) -> Result<()> {
        if let Some(qi) = cover::first_uncovered(instance, &self.classifiers) {
            return Err(Mc3Error::Uncoverable { query_index: qi });
        }
        let recomputed: Weight = self.classifiers.iter().map(|c| instance.weight(c)).sum();
        if recomputed != self.cost {
            return Err(Mc3Error::Internal(format!(
                "solution cost mismatch: recorded {} but weights sum to {}",
                self.cost, recomputed
            )));
        }
        Ok(())
    }
}

impl std::fmt::Display for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Solution(cost={}, classifiers=[", self.cost)?;
        for (i, c) in self.classifiers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propset::PropSet;
    use crate::weights::{Weights, WeightsBuilder};

    fn ps(ids: &[u32]) -> PropSet {
        PropSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn cost_is_sum_of_weights() {
        let w = WeightsBuilder::new()
            .classifier([0u32], 2u64)
            .classifier([1u32], 3u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let sol = Solution::new(&instance, vec![ps(&[0]), ps(&[1])]).unwrap();
        assert_eq!(sol.cost(), Weight::new(5));
        sol.verify(&instance).unwrap();
    }

    #[test]
    fn verify_rejects_non_cover() {
        let instance = Instance::new(vec![vec![0u32, 1]], Weights::uniform(1u64)).unwrap();
        let sol = Solution::new(&instance, vec![ps(&[0])]).unwrap();
        assert_eq!(
            sol.verify(&instance),
            Err(Mc3Error::Uncoverable { query_index: 0 })
        );
    }

    #[test]
    fn new_rejects_infinite_classifier() {
        let w = WeightsBuilder::new().classifier([0u32], 1u64).build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let err = Solution::new(&instance, vec![ps(&[1])]).unwrap_err();
        assert!(matches!(err, Mc3Error::Internal(_)));
    }

    #[test]
    fn dedup_classifiers() {
        let instance = Instance::new(vec![vec![0u32]], Weights::uniform(4u64)).unwrap();
        let sol = Solution::new(&instance, vec![ps(&[0]), ps(&[0])]).unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(sol.cost(), Weight::new(4));
    }

    #[test]
    fn from_ids_builds_from_universe() {
        let instance = Instance::new(vec![vec![0u32, 1]], Weights::uniform(2u64)).unwrap();
        let u = crate::universe::ClassifierUniverse::build(&instance);
        let x = u.id_of(&ps(&[0])).unwrap();
        let y = u.id_of(&ps(&[1])).unwrap();
        let sol = Solution::from_ids(&u, [x, y, x]);
        assert_eq!(sol.len(), 2);
        assert_eq!(sol.cost(), Weight::new(4));
        sol.verify(&instance).unwrap();
    }

    #[test]
    fn display_and_histogram() {
        let instance = Instance::new(vec![vec![0u32, 1, 2]], Weights::uniform(1u64)).unwrap();
        let sol = Solution::new(&instance, vec![ps(&[0, 1]), ps(&[2])]).unwrap();
        assert_eq!(sol.length_histogram(), vec![0, 1, 1]);
        let rendered = sol.to_string();
        assert!(rendered.contains("cost=2"));
        assert!(rendered.contains("{p2}"));
        assert_eq!(Solution::empty().length_histogram(), vec![0]);
    }

    #[test]
    fn empty_solution_covers_empty_instance() {
        let instance = Instance::new(Vec::<Vec<u32>>::new(), Weights::uniform(1u64)).unwrap();
        Solution::empty().verify(&instance).unwrap();
    }
}
