//! Checkable certificates for MC³ solutions.
//!
//! A [`Certificate`] is a self-contained, machine-verifiable record of *why*
//! a solution is correct and (when the producing algorithm knows) *how good*
//! it is:
//!
//! * **feasibility** — for every query `q` a witness `T ⊆ S` with `⋃T = q`
//!   (§2.1 cover semantics), stored as indices into the solution's
//!   classifier list;
//! * **cost** — the claimed total `W(S)`, re-derivable from the instance's
//!   weight function;
//! * **quality** — an optional certified lower bound `LB ≤ OPT` (a min-cut
//!   value via Theorem 4.1's WVC/max-flow duality, an LP relaxation value,
//!   a greedy dual-fitting bound, or an exact optimum) together with an
//!   optional approximation factor `ρ`, asserting `W(S) ≤ ρ · LB`
//!   (Theorem 5.3's `ln I + ln(k−1) + 1` for the general solver, `ρ = 1`
//!   for the exact `k ≤ 2` solver).
//!
//! [`Certificate::verify`] re-checks all three claims against the instance
//! and solution from scratch; it trusts nothing recorded by the producer
//! beyond the witness indices themselves. The `mc3 audit` CLI subcommand and
//! the `verify`-feature solver paths are built on this type.

use crate::cover;
use crate::instance::Instance;
use crate::solution::Solution;
use crate::weight::Weight;
use std::fmt;

/// How a certificate's lower bound was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerBoundKind {
    /// A min-cut value equal to the optimal WVC weight (Theorem 4.1);
    /// certifies optimality when it matches the solution cost.
    MinCut,
    /// The optimal value of the weighted-set-cover LP relaxation.
    LpRelaxation,
    /// The greedy dual-fitting bound (price vector scaled by `H_d`).
    DualFitting,
    /// An exact optimum from a reference solver.
    Exact,
}

impl fmt::Display for LowerBoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LowerBoundKind::MinCut => "min-cut duality",
            LowerBoundKind::LpRelaxation => "LP relaxation",
            LowerBoundKind::DualFitting => "greedy dual fitting",
            LowerBoundKind::Exact => "exact reference",
        };
        f.write_str(s)
    }
}

/// Per-query feasibility witness: the indices (into the solution's canonical
/// classifier list) of a `T ⊆ S` whose union is exactly the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverWitness {
    /// Index of the query in the instance.
    pub query_index: usize,
    /// Indices into [`Solution::classifiers`] forming the witness `T`.
    pub classifier_indices: Vec<usize>,
}

/// A checkable record of solution feasibility, cost and quality.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Claimed total construction cost `W(S)`.
    pub cost: Weight,
    /// One witness per query, in query order.
    pub witnesses: Vec<CoverWitness>,
    /// A certified lower bound on `OPT`, if the producer computed one.
    pub lower_bound: Option<Weight>,
    /// Provenance of [`Certificate::lower_bound`].
    pub lower_bound_kind: Option<LowerBoundKind>,
    /// Guaranteed approximation factor `ρ` with `W(S) ≤ ρ · LB`, if known.
    pub ratio_bound: Option<f64>,
}

/// Why certificate construction or verification failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// A query has no witness (or construction found it uncovered).
    Uncovered {
        /// Index of the uncovered query.
        query_index: usize,
    },
    /// A witness references a classifier index outside the solution.
    BadWitnessIndex {
        /// The offending query.
        query_index: usize,
        /// The out-of-range index.
        index: usize,
    },
    /// A witness member is not a subset of its query, or the witness union
    /// differs from the query.
    BadWitness {
        /// The offending query.
        query_index: usize,
    },
    /// The recorded cost does not match the weight function.
    CostMismatch {
        /// Cost recorded in the certificate.
        recorded: Weight,
        /// Cost recomputed from the instance.
        recomputed: Weight,
    },
    /// The recorded lower bound exceeds the solution cost — an impossible
    /// "lower" bound, so either the bound or the solution is corrupt.
    BoundAboveCost {
        /// The claimed lower bound.
        lower_bound: Weight,
        /// The solution cost.
        cost: Weight,
    },
    /// The solution cost exceeds `ρ · LB`: the approximation guarantee the
    /// producer claimed does not hold.
    RatioViolated {
        /// Solution cost.
        cost: Weight,
        /// Certified lower bound.
        lower_bound: Weight,
        /// Claimed factor.
        ratio: f64,
    },
    /// Witness count does not match the instance's query count.
    WitnessCountMismatch {
        /// Witnesses recorded.
        recorded: usize,
        /// Queries in the instance.
        expected: usize,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::Uncovered { query_index } => {
                write!(f, "query #{query_index} is not covered by the solution")
            }
            CertificateError::BadWitnessIndex { query_index, index } => write!(
                f,
                "witness for query #{query_index} references classifier #{index} outside the solution"
            ),
            CertificateError::BadWitness { query_index } => write!(
                f,
                "witness for query #{query_index} does not union to the query"
            ),
            CertificateError::CostMismatch {
                recorded,
                recomputed,
            } => write!(
                f,
                "certificate records cost {recorded} but weights sum to {recomputed}"
            ),
            CertificateError::BoundAboveCost { lower_bound, cost } => write!(
                f,
                "claimed lower bound {lower_bound} exceeds solution cost {cost}"
            ),
            CertificateError::RatioViolated {
                cost,
                lower_bound,
                ratio,
            } => write!(
                f,
                "cost {cost} exceeds {ratio:.4} x lower bound {lower_bound}: approximation guarantee violated"
            ),
            CertificateError::WitnessCountMismatch { recorded, expected } => write!(
                f,
                "certificate has {recorded} witnesses for {expected} queries"
            ),
        }
    }
}

impl std::error::Error for CertificateError {}

impl Certificate {
    /// Builds a feasibility certificate for `solution` on `instance`,
    /// extracting a cover witness for every query.
    ///
    /// The witness is the maximal covering subset per query (every selected
    /// classifier that is a subset of the query); quality fields start
    /// empty and can be attached with [`Certificate::with_lower_bound`].
    pub fn for_solution(
        instance: &Instance,
        solution: &Solution,
    ) -> Result<Certificate, CertificateError> {
        let classifiers = solution.classifiers();
        let mut witnesses = Vec::with_capacity(instance.num_queries());
        let uncovered = cover::cover_pass(instance, classifiers, |qi, w| {
            witnesses.push(CoverWitness {
                query_index: qi,
                classifier_indices: w.to_vec(),
            });
        });
        if let Some(query_index) = uncovered {
            return Err(CertificateError::Uncovered { query_index });
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

    /// Attaches a certified lower bound (and optionally a guaranteed
    /// approximation factor) to the certificate.
    pub fn with_lower_bound(
        mut self,
        bound: Weight,
        kind: LowerBoundKind,
        ratio: Option<f64>,
    ) -> Certificate {
        self.lower_bound = Some(bound);
        self.lower_bound_kind = Some(kind);
        self.ratio_bound = ratio;
        self
    }

    /// Whether the certificate proves optimality (`LB = W(S)`).
    pub fn proves_optimality(&self) -> bool {
        self.lower_bound == Some(self.cost)
    }

    /// Re-verifies every claim against `instance` and `solution` from
    /// scratch. Trusts only the witness index lists.
    pub fn verify(&self, instance: &Instance, solution: &Solution) -> Result<(), CertificateError> {
        let classifiers = solution.classifiers();
        if self.witnesses.len() != instance.num_queries() {
            return Err(CertificateError::WitnessCountMismatch {
                recorded: self.witnesses.len(),
                expected: instance.num_queries(),
            });
        }
        for w in &self.witnesses {
            let q = &instance.queries()[w.query_index];
            let mut union = crate::propset::PropSet::empty();
            for &ci in &w.classifier_indices {
                let c = classifiers
                    .get(ci)
                    .ok_or(CertificateError::BadWitnessIndex {
                        query_index: w.query_index,
                        index: ci,
                    })?;
                if !c.is_subset_of(q) {
                    return Err(CertificateError::BadWitness {
                        query_index: w.query_index,
                    });
                }
                union = union.union(c);
            }
            if &union != q {
                return Err(CertificateError::BadWitness {
                    query_index: w.query_index,
                });
            }
        }
        let recomputed: Weight = classifiers.iter().map(|c| instance.weight(c)).sum();
        if recomputed != self.cost || solution.cost() != self.cost {
            return Err(CertificateError::CostMismatch {
                recorded: self.cost,
                recomputed,
            });
        }
        if let Some(lb) = self.lower_bound {
            if lb > self.cost {
                return Err(CertificateError::BoundAboveCost {
                    lower_bound: lb,
                    cost: self.cost,
                });
            }
            if let Some(ratio) = self.ratio_bound {
                if !ratio_holds(self.cost, lb, ratio) {
                    return Err(CertificateError::RatioViolated {
                        cost: self.cost,
                        lower_bound: lb,
                        ratio,
                    });
                }
            }
        }
        Ok(())
    }

    /// A short multi-line human-readable rendering for CLI output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cost: {}", self.cost);
        let _ = writeln!(out, "queries certified: {}", self.witnesses.len());
        let max_witness = self
            .witnesses
            .iter()
            .map(|w| w.classifier_indices.len())
            .max()
            .unwrap_or(0);
        let _ = writeln!(out, "largest witness |T|: {max_witness}");
        match (self.lower_bound, self.lower_bound_kind) {
            (Some(lb), Some(kind)) => {
                let _ = writeln!(out, "lower bound: {lb} ({kind})");
                if self.proves_optimality() {
                    let _ = writeln!(out, "optimality: PROVEN (cost = lower bound)");
                } else if let Some(r) = self.ratio_bound {
                    let _ = writeln!(out, "guaranteed ratio: {r:.4}");
                }
            }
            _ => {
                let _ = writeln!(out, "lower bound: (none recorded)");
            }
        }
        out
    }
}

/// Checks `cost ≤ ratio · lb` entirely in integer arithmetic where possible,
/// avoiding float-equality pitfalls (`no-float-eq` lint rule).
fn ratio_holds(cost: Weight, lb: Weight, ratio: f64) -> bool {
    match (cost.finite(), lb.finite()) {
        (Some(c), Some(l)) => {
            // ceil(ratio * l) with a small epsilon for the f64 product; the
            // comparison itself stays on integers.
            let limit = (ratio * l as f64) * (1.0 + 1e-12) + 1e-9;
            (c as f64) <= limit
        }
        // An infinite lower bound can only be matched by an infinite cost;
        // finite bounds never constrain an infinite cost claim (it already
        // failed the BoundAboveCost check upstream).
        (None, _) => false,
        (Some(_), None) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propset::PropSet;
    use crate::weights::Weights;

    fn tiny() -> (Instance, Solution) {
        let instance =
            Instance::new(vec![vec![0u32, 1], vec![1u32, 2]], Weights::uniform(2u64)).unwrap();
        let solution = Solution::new(
            &instance,
            vec![
                PropSet::from_ids([0u32]),
                PropSet::from_ids([1u32]),
                PropSet::from_ids([2u32]),
            ],
        )
        .unwrap();
        (instance, solution)
    }

    #[test]
    fn builds_and_verifies() {
        let (instance, solution) = tiny();
        let cert = Certificate::for_solution(&instance, &solution).unwrap();
        assert_eq!(cert.witnesses.len(), 2);
        cert.verify(&instance, &solution).unwrap();
        assert!(!cert.proves_optimality());
    }

    #[test]
    fn uncovered_solution_is_rejected_at_construction() {
        let (instance, _) = tiny();
        let partial = Solution::new(&instance, vec![PropSet::from_ids([0u32, 1])]).unwrap();
        assert_eq!(
            Certificate::for_solution(&instance, &partial),
            Err(CertificateError::Uncovered { query_index: 1 })
        );
    }

    #[test]
    fn dropped_classifier_fails_verification() {
        let (instance, solution) = tiny();
        let cert = Certificate::for_solution(&instance, &solution).unwrap();
        // Corrupt the solution: drop one selected classifier.
        let mut fewer = solution.classifiers().to_vec();
        fewer.remove(1);
        let corrupted = Solution::new(&instance, fewer).unwrap();
        assert!(cert.verify(&instance, &corrupted).is_err());
    }

    #[test]
    fn tampered_witness_fails_verification() {
        let (instance, solution) = tiny();
        let mut cert = Certificate::for_solution(&instance, &solution).unwrap();
        cert.witnesses[0].classifier_indices = vec![99];
        assert!(matches!(
            cert.verify(&instance, &solution),
            Err(CertificateError::BadWitnessIndex { .. })
        ));
        let mut cert = Certificate::for_solution(&instance, &solution).unwrap();
        cert.witnesses[1].classifier_indices = vec![0];
        assert!(matches!(
            cert.verify(&instance, &solution),
            Err(CertificateError::BadWitness { .. })
        ));
    }

    #[test]
    fn optimality_and_ratio_checks() {
        let (instance, solution) = tiny();
        let cert = Certificate::for_solution(&instance, &solution)
            .unwrap()
            .with_lower_bound(solution.cost(), LowerBoundKind::MinCut, None);
        assert!(cert.proves_optimality());
        cert.verify(&instance, &solution).unwrap();

        // A "lower bound" above the cost is impossible.
        let bad = Certificate::for_solution(&instance, &solution)
            .unwrap()
            .with_lower_bound(Weight::new(1_000), LowerBoundKind::Exact, None);
        assert!(matches!(
            bad.verify(&instance, &solution),
            Err(CertificateError::BoundAboveCost { .. })
        ));

        // Ratio claim that does not hold: cost 6, bound 2, claimed ratio 2.
        let bad = Certificate::for_solution(&instance, &solution)
            .unwrap()
            .with_lower_bound(Weight::new(2), LowerBoundKind::DualFitting, Some(2.0));
        assert!(matches!(
            bad.verify(&instance, &solution),
            Err(CertificateError::RatioViolated { .. })
        ));

        // Ratio claim that holds: cost 6 <= 3.0 * 2.
        let ok = Certificate::for_solution(&instance, &solution)
            .unwrap()
            .with_lower_bound(Weight::new(2), LowerBoundKind::DualFitting, Some(3.0));
        ok.verify(&instance, &solution).unwrap();
    }

    #[test]
    fn render_mentions_cost_and_bound() {
        let (instance, solution) = tiny();
        let cert = Certificate::for_solution(&instance, &solution)
            .unwrap()
            .with_lower_bound(solution.cost(), LowerBoundKind::MinCut, Some(1.0));
        let text = cert.render();
        assert!(text.contains("cost: 6"));
        assert!(text.contains("min-cut duality"));
        assert!(text.contains("PROVEN"));
    }
}
