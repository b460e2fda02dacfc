//! Mixed binary + multi-valued classifier solving (§5.3).
//!
//! A multi-valued classifier decides the value of an attribute, so it acts
//! as a binary classifier for *every* property of that attribute. The
//! paper's extension of the WSC reduction adds one set per multi-valued
//! classifier, covering every element whose property belongs to the
//! attribute; the analysis then proceeds exactly as in the binary case.
//!
//! Preprocessing is not applied in this mode: Algorithm 1's forced-selection
//! rule assumes binary classifiers are the only way to cover a property,
//! which no longer holds once multi-valued classifiers exist.

use crate::reduction::reduce_to_wsc;
use crate::work::WorkState;
use mc3_core::u32_of;
use mc3_core::{
    AttributeSchema, Classifier, ClassifierUniverse, Instance, Mc3Error, MultiValuedClassifier,
    Result, Weight,
};
use mc3_setcover::{prune_redundant, solve_greedy, solve_primal_dual};

/// One selected trainable unit in the mixed setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixedPick {
    /// An ordinary conjunction classifier.
    Binary(Classifier),
    /// A multi-valued classifier deciding the attribute (reported by its
    /// index into the input `multi_valued` slice).
    MultiValued(usize),
}

/// A solution over binary and multi-valued classifiers.
#[derive(Debug, Clone)]
pub struct MixedSolution {
    /// The selected units.
    pub picks: Vec<MixedPick>,
    /// Total construction cost.
    pub cost: Weight,
}

impl MixedSolution {
    /// Whether the picks cover every query: a query is covered when each of
    /// its properties is covered by a selected binary classifier fitting
    /// the query or by a selected multi-valued classifier of its attribute.
    pub fn covers(
        &self,
        instance: &Instance,
        schema: &AttributeSchema,
        multi_valued: &[MultiValuedClassifier],
    ) -> bool {
        instance.queries().iter().all(|q| {
            let mut covered = vec![false; q.len()];
            for pick in &self.picks {
                match pick {
                    MixedPick::Binary(c) => {
                        if c.is_subset_of(q) {
                            for (i, p) in q.iter().enumerate() {
                                if c.contains(p) {
                                    covered[i] = true;
                                }
                            }
                        }
                    }
                    MixedPick::MultiValued(mi) => {
                        let attr = multi_valued[*mi].attribute;
                        for (i, p) in q.iter().enumerate() {
                            if schema.attribute_of(p) == Some(attr) {
                                covered[i] = true;
                            }
                        }
                    }
                }
            }
            covered.into_iter().all(|c| c)
        })
    }
}

/// Solves the mixed setting with the extended WSC reduction, running greedy
/// and primal–dual and keeping the cheaper cover.
pub fn solve_with_multivalued(
    instance: &Instance,
    schema: &AttributeSchema,
    multi_valued: &[MultiValuedClassifier],
) -> Result<MixedSolution> {
    for (i, mv) in multi_valued.iter().enumerate() {
        if mv.cost.is_infinite() {
            return Err(Mc3Error::Internal(format!(
                "multi-valued classifier #{i} has infinite cost; omit it instead"
            )));
        }
    }

    let universe = ClassifierUniverse::build(instance);
    let ws = WorkState::new(instance, universe);
    let queries: Vec<usize> = (0..instance.num_queries()).collect();
    let red = reduce_to_wsc(&ws, &queries);

    // Extend with one set per multi-valued classifier.
    let mut sets: Vec<(Vec<u32>, Weight)> = (0..red.instance.num_sets())
        .map(|s| (red.instance.set(s).to_vec(), red.instance.cost(s)))
        .collect();
    let binary_sets = sets.len();
    for mv in multi_valued {
        let elements: Vec<u32> = red
            .element_origin
            .iter()
            .enumerate()
            .filter(|&(_, &(q, bit))| {
                let prop = instance.queries()[q as usize].ids()[bit as usize];
                schema.attribute_of(prop) == Some(mv.attribute)
            })
            .map(|(e, _)| u32_of(e))
            .collect();
        sets.push((elements, mv.cost));
    }

    let extended = mc3_setcover::SetCoverInstance::new(red.instance.num_elements(), sets);
    extended.ensure_coverable().map_err(|e| {
        if let Mc3Error::Uncoverable { query_index } = e {
            Mc3Error::Uncoverable {
                query_index: red.element_origin[query_index].0 as usize,
            }
        } else {
            e
        }
    })?;

    let greedy = prune_redundant(&extended, &solve_greedy(&extended)?);
    let dual = prune_redundant(&extended, &solve_primal_dual(&extended)?);
    let best = if dual.cost < greedy.cost {
        dual
    } else {
        greedy
    };

    let picks = best
        .selected
        .iter()
        .map(|&s| {
            if s < binary_sets {
                MixedPick::Binary(
                    ws.universe
                        .classifier(red.set_to_classifier[s])
                        .to_propset(),
                )
            } else {
                MixedPick::MultiValued(s - binary_sets)
            }
        })
        .collect();
    Ok(MixedSolution {
        picks,
        cost: best.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::{PropId, Weights};

    /// Soccer-shirt style setup: two team properties under one attribute.
    fn setup() -> (Instance, AttributeSchema) {
        // props: 0 = team=Juventus, 1 = team=Chelsea, 2 = brand=Adidas
        let instance =
            Instance::new(vec![vec![0u32, 2], vec![1u32, 2]], Weights::uniform(10u64)).unwrap();
        let mut schema = AttributeSchema::new();
        let team = schema.attribute("team");
        schema.assign(PropId(0), team).assign(PropId(1), team);
        (instance, schema)
    }

    #[test]
    fn cheap_multivalued_classifier_replaces_binaries() {
        let (instance, schema) = setup();
        let team = schema.attribute_of(PropId(0)).unwrap();
        let mv = vec![MultiValuedClassifier {
            attribute: team,
            cost: Weight::new(5),
        }];
        let sol = solve_with_multivalued(&instance, &schema, &mv).unwrap();
        assert!(sol.covers(&instance, &schema, &mv));
        // T (5) + A (10) = 15 beats any all-binary cover (≥ 20)
        assert_eq!(sol.cost, Weight::new(15));
        assert!(sol.picks.contains(&MixedPick::MultiValued(0)));
    }

    #[test]
    fn expensive_multivalued_classifier_is_ignored() {
        let (instance, schema) = setup();
        let team = schema.attribute_of(PropId(0)).unwrap();
        let mv = vec![MultiValuedClassifier {
            attribute: team,
            cost: Weight::new(500),
        }];
        let sol = solve_with_multivalued(&instance, &schema, &mv).unwrap();
        assert!(sol.covers(&instance, &schema, &mv));
        // optimum is 20 (two pair classifiers); the approximation may pick
        // the A+J+C cover (30) but must never touch the 500-cost MV set
        assert!(sol.cost <= Weight::new(30));
        assert!(!sol.picks.contains(&MixedPick::MultiValued(0)));
    }

    #[test]
    fn no_multivalued_classifiers_degenerates_to_binary() {
        let (instance, schema) = setup();
        let sol = solve_with_multivalued(&instance, &schema, &[]).unwrap();
        assert!(sol.covers(&instance, &schema, &[]));
        assert!(sol.picks.iter().all(|p| matches!(p, MixedPick::Binary(_))));
    }

    #[test]
    fn infinite_mv_cost_is_rejected() {
        let (instance, schema) = setup();
        let team = schema.attribute_of(PropId(0)).unwrap();
        let mv = vec![MultiValuedClassifier {
            attribute: team,
            cost: Weight::INFINITE,
        }];
        assert!(solve_with_multivalued(&instance, &schema, &mv).is_err());
    }
}
