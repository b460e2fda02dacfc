//! The top-level solver facade: configuration, the solving pipeline
//! (universe → preprocessing → component split → per-component core
//! algorithm → solution assembly) and the Short-First heuristic.

use crate::baselines;
use crate::components::connected_components;
use crate::exact;
use crate::general::{LpLimits, WscStrategy};
use crate::k2::solve_k2;
use crate::preprocess::{preprocess, PreprocessOptions, PreprocessStats};
use crate::work::WorkState;
use mc3_core::{ClassifierId, ClassifierUniverse, Instance, InstanceStats, Result, Solution};
use mc3_telemetry::TimedSpan;
use std::time::Duration;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// `MC3[S]` (Algorithm 2) when `k ≤ 2`, otherwise `MC3[G]`
    /// (Algorithm 3).
    #[default]
    Auto,
    /// The exact PTIME solver for `k ≤ 2` (Algorithm 2); errors on longer
    /// queries.
    K2Exact,
    /// The general approximation solver (Algorithm 3).
    General,
    /// Algorithm 2 on the length-≤2 queries, Algorithm 3 on the residual
    /// (§4, "Almost k = 2").
    ShortFirst,
    /// Exponential-time exact reference solver.
    Exact,
    /// Baseline: all singleton classifiers.
    PropertyOriented,
    /// Baseline: one classifier per query.
    QueryOriented,
    /// Baseline of \[13\]: uniform costs, `k ≤ 2`, matching-based.
    Mixed,
    /// Baseline: iterated cheapest-single-query covering.
    LocalGreedy,
}

impl Algorithm {
    /// Canonical wire name, shared by the CLI's `--algorithm` vocabulary,
    /// bench-gate baselines and the server's `/solve` request field.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::K2Exact => "k2",
            Algorithm::General => "general",
            Algorithm::ShortFirst => "short-first",
            Algorithm::Exact => "exact",
            Algorithm::PropertyOriented => "property-oriented",
            Algorithm::QueryOriented => "query-oriented",
            Algorithm::Mixed => "mixed",
            Algorithm::LocalGreedy => "local-greedy",
        }
    }

    /// Parses a wire name (plus the short aliases `po`/`qo`/`lg`) back
    /// into an algorithm.
    pub fn parse_name(s: &str) -> std::result::Result<Algorithm, String> {
        match s {
            "auto" => Ok(Algorithm::Auto),
            "k2" => Ok(Algorithm::K2Exact),
            "general" => Ok(Algorithm::General),
            "short-first" => Ok(Algorithm::ShortFirst),
            "exact" => Ok(Algorithm::Exact),
            "property-oriented" | "po" => Ok(Algorithm::PropertyOriented),
            "query-oriented" | "qo" => Ok(Algorithm::QueryOriented),
            "mixed" => Ok(Algorithm::Mixed),
            "local-greedy" | "lg" => Ok(Algorithm::LocalGreedy),
            other => Err(format!("unknown algorithm '{other}'")),
        }
    }
}

/// Full solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Algorithm selection.
    pub algorithm: Algorithm,
    /// Preprocessing steps (Algorithm 1) to apply.
    pub preprocess: PreprocessOptions,
    /// WSC strategy for Algorithm 3.
    pub wsc_strategy: WscStrategy,
    /// Size thresholds for the simplex-based LP rounding path.
    pub lp_limits: LpLimits,
    /// Consider only classifiers of length ≤ `k'` (§5.3, bounded
    /// classifiers); `None` = the full universe.
    pub max_classifier_len: Option<usize>,
    /// Apply the reverse-delete refinement to WSC outputs (an augmentation
    /// beyond the published Algorithm 3 that preserves all guarantees;
    /// disable to reproduce the paper's algorithm verbatim).
    pub refine_wsc: bool,
    /// Classifiers that are already built (incremental planning): their
    /// construction cost is sunk, so they participate in covers for free
    /// and the reported solution cost is the *marginal* cost of the new
    /// classifiers only. Prebuilt classifiers outside `C_Q` are ignored
    /// (they cannot participate in any cover).
    pub prebuilt: Vec<mc3_core::Classifier>,
    /// Memoization cache for per-component solves, shared across solver
    /// instances (and, in `mc3 serve`, across requests). `None` — the
    /// default — disables memoization entirely: the solve path is then
    /// byte-for-byte the uncached pipeline, which keeps `mc3 bench-gate`
    /// counters and allocations deterministic. Ignored when `prebuilt`
    /// is non-empty (inventory re-pricing is request-local).
    pub cache: Option<std::sync::Arc<crate::cache::SolveCache>>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            algorithm: Algorithm::Auto,
            preprocess: PreprocessOptions::default(),
            wsc_strategy: WscStrategy::Combined,
            lp_limits: LpLimits::default(),
            max_classifier_len: None,
            refine_wsc: true,
            prebuilt: Vec::new(),
            cache: None,
        }
    }
}

/// Wall-clock breakdown of a solve.
///
/// Derived from the telemetry span tree (`solve` → `setup` /
/// `preprocess` / `solve_core`): each field is the exact duration stored
/// in the corresponding span node, so the tree and these public fields
/// can never disagree (see `docs/observability.md`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveTimings {
    /// Universe enumeration + working-state construction.
    pub setup: Duration,
    /// Algorithm 1.
    pub preprocess: Duration,
    /// Core algorithm (including component split).
    pub solve: Duration,
    /// End-to-end.
    pub total: Duration,
}

/// A solution plus everything the experiments report about how it was found.
#[derive(Debug, Clone)]
pub struct SolverReport {
    /// The solution: the classifiers to construct, at their construction
    /// cost. With [`SolverConfig::prebuilt`] inventory this contains only
    /// the *new* classifiers (marginal cost); the full cover is
    /// [`SolverReport::full_cover`].
    pub solution: Solution,
    /// Prebuilt classifiers the solution relies on (empty without
    /// [`SolverConfig::prebuilt`]).
    pub prebuilt_used: Vec<mc3_core::Classifier>,
    /// Input-instance parameters.
    pub instance_stats: InstanceStats,
    /// Preprocessing counters (zeroed when preprocessing is disabled).
    pub preprocess_stats: PreprocessStats,
    /// Number of property-connected components of the residual problem.
    pub components: usize,
    /// Wall-clock breakdown.
    pub timings: SolveTimings,
}

impl SolverReport {
    /// The complete cover: the new classifiers plus the prebuilt ones they
    /// rely on. Verify with [`mc3_core::is_cover`].
    pub fn full_cover(&self) -> Vec<mc3_core::Classifier> {
        let mut all: Vec<mc3_core::Classifier> = self
            .solution
            .classifiers()
            .iter()
            .chain(self.prebuilt_used.iter())
            .cloned()
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// The MC³ solver.
///
/// # Example
///
/// ```
/// use mc3_solver::{Algorithm, Mc3Solver};
/// use mc3_core::{Instance, Weights, Weight};
///
/// let instance = Instance::new(
///     vec![vec![0u32, 1], vec![1u32, 2]],
///     Weights::uniform(1u64),
/// ).unwrap();
/// let solution = Mc3Solver::new().solve(&instance).unwrap();
/// solution.verify(&instance).unwrap();
/// assert_eq!(solution.cost(), Weight::new(2)); // XY + YZ
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mc3Solver {
    config: SolverConfig,
}

impl Mc3Solver {
    /// A solver with the default configuration ([`Algorithm::Auto`], full
    /// preprocessing, combined WSC strategy).
    pub fn new() -> Mc3Solver {
        Mc3Solver::default()
    }

    /// A solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Mc3Solver {
        Mc3Solver { config }
    }

    /// Sets the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the preprocessing options.
    pub fn preprocess(mut self, opts: PreprocessOptions) -> Self {
        self.config.preprocess = opts;
        self
    }

    /// Disables Algorithm 1 entirely (the ablation mode of §6.2).
    pub fn without_preprocessing(mut self) -> Self {
        self.config.preprocess = PreprocessOptions::disabled();
        self
    }

    /// Sets the WSC strategy used by Algorithm 3.
    pub fn wsc_strategy(mut self, strategy: WscStrategy) -> Self {
        self.config.wsc_strategy = strategy;
        self
    }

    /// Restricts the classifier universe to length ≤ `k'` (§5.3).
    pub fn max_classifier_len(mut self, kp: usize) -> Self {
        self.config.max_classifier_len = Some(kp);
        self
    }

    /// Disables the reverse-delete refinement, running Algorithm 3 exactly
    /// as published.
    pub fn without_refinement(mut self) -> Self {
        self.config.refine_wsc = false;
        self
    }

    /// Declares classifiers as already built: they cost nothing in the
    /// produced solution, whose cost is then the marginal cost of covering
    /// the query load given this existing inventory.
    ///
    /// ```
    /// use mc3_solver::Mc3Solver;
    /// use mc3_core::{is_cover, Instance, PropSet, Weight, Weights};
    ///
    /// let instance = Instance::new(
    ///     vec![vec![0u32, 1], vec![1u32, 2]],
    ///     Weights::uniform(5u64),
    /// ).unwrap();
    /// let already_built = vec![PropSet::from_ids([0u32, 1])];
    /// let report = Mc3Solver::new()
    ///     .prebuilt(already_built)
    ///     .solve_report(&instance)
    ///     .unwrap();
    /// // only the second query still costs anything
    /// assert_eq!(report.solution.cost(), Weight::new(5));
    /// assert!(is_cover(&instance, &report.full_cover()));
    /// ```
    pub fn prebuilt(mut self, classifiers: Vec<mc3_core::Classifier>) -> Self {
        self.config.prebuilt = classifiers;
        self
    }

    /// Shares a [`SolveCache`](crate::cache::SolveCache): per-component
    /// solutions are memoized by canonical fingerprint and reused —
    /// after re-verification — whenever a structurally identical
    /// component shows up again, in this solve or any later solve
    /// holding the same cache.
    pub fn cache(mut self, cache: std::sync::Arc<crate::cache::SolveCache>) -> Self {
        self.config.cache = Some(cache);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solves and returns just the solution.
    pub fn solve(&self, instance: &Instance) -> Result<Solution> {
        self.solve_report(instance).map(|r| r.solution)
    }

    /// Solves and returns the full report.
    pub fn solve_report(&self, instance: &Instance) -> Result<SolverReport> {
        // The root span doubles as the end-to-end clock: `SolveTimings` is
        // read back out of the same `TimedSpan`s that build the telemetry
        // tree, so there are no independent `Instant` pairs to drift.
        let total_t = mc3_telemetry::timed_span("solve");
        // Baselines and the exact solver bypass the shared pipeline.
        match self.config.algorithm {
            Algorithm::PropertyOriented => {
                return self.baseline_report(instance, total_t, baselines::property_oriented)
            }
            Algorithm::QueryOriented => {
                return self.baseline_report(instance, total_t, baselines::query_oriented)
            }
            Algorithm::Mixed => return self.baseline_report(instance, total_t, baselines::mixed),
            Algorithm::LocalGreedy => {
                return self.baseline_report(instance, total_t, baselines::local_greedy)
            }
            Algorithm::Exact => {
                return self.baseline_report(instance, total_t, |i| {
                    exact::solve_exact_with(i, &self.config.preprocess)
                })
            }
            _ => {}
        }

        let setup_t = mc3_telemetry::timed_span("setup");
        let kp = self
            .config
            .max_classifier_len
            .unwrap_or_else(|| instance.max_query_len().max(1));
        let universe = {
            let _span = mc3_telemetry::span("setup.universe");
            let mut universe = ClassifierUniverse::build_bounded(instance, kp);
            for c in &self.config.prebuilt {
                if let Some(id) = universe.id_of(c) {
                    universe.override_weight(id, mc3_core::Weight::ZERO);
                }
            }
            universe
        };
        let instance_stats = InstanceStats::gather_with_universe(instance, &universe);
        let mut ws = {
            let _span = mc3_telemetry::span("setup.workstate");
            WorkState::new(instance, universe)
        };
        let setup = setup_t.finish();

        let pre_t = mc3_telemetry::timed_span("preprocess");
        let preprocess_stats = preprocess(&mut ws, &self.config.preprocess)?;
        let pre = pre_t.finish();

        let solve_t = mc3_telemetry::timed_span("solve_core");
        let mut picked: Vec<ClassifierId> = Vec::new();

        let effective = match self.config.algorithm {
            Algorithm::Auto => {
                if instance.max_query_len() <= 2 {
                    Algorithm::K2Exact
                } else {
                    Algorithm::General
                }
            }
            a => a,
        };

        if effective == Algorithm::ShortFirst {
            // Phase 1: Algorithm 2 over the short queries, committing its
            // selections so long queries benefit from the shared (now free)
            // classifiers.
            let short: Vec<usize> = ws
                .alive_query_indices()
                .into_iter()
                .filter(|&q| ws.universe.query_local(q).len <= 2)
                .collect();
            let ids = solve_k2(&ws, &short)?;
            for id in ids {
                ws.select(id);
            }
        }

        let alive = ws.alive_query_indices();
        let comps = connected_components(instance.queries(), &alive);
        let num_components = comps.len();
        mc3_telemetry::span_add(mc3_telemetry::Counter::ComponentsSplit, comps.len() as u64);
        if mc3_telemetry::is_enabled() {
            for comp in &comps {
                mc3_telemetry::record(mc3_telemetry::Hist::ComponentSize, comp.len() as u64);
            }
        }

        // Cross-request memoization (opt-in): consulted per component,
        // keyed by canonical fingerprint + a config digest. Disabled with
        // a prebuilt inventory, whose zero re-pricing is request-local.
        let mut cache_ctx = if self.config.prebuilt.is_empty() {
            self.config
                .cache
                .as_ref()
                .map(|c| crate::cache::CacheContext {
                    cache: std::sync::Arc::clone(c),
                    digest: crate::cache::config_digest(effective, &self.config, kp),
                    kp,
                    canonicalizer: mc3_core::Canonicalizer::default(),
                })
        } else {
            None
        };

        // The core dispatch. Reductions across components reuse one
        // ReductionScratch instead of reallocating both CSR directions
        // per component.
        let run_core = |comp: &[usize],
                        scratch: &mut crate::reduction::ReductionScratch|
         -> Result<Vec<ClassifierId>> {
            match effective {
                Algorithm::K2Exact => solve_k2(&ws, comp),
                Algorithm::General | Algorithm::ShortFirst => {
                    crate::general::solve_general_scratch(
                        &ws,
                        comp,
                        self.config.wsc_strategy,
                        self.config.lp_limits,
                        self.config.refine_wsc,
                        scratch,
                    )
                }
                _ => unreachable!("pipeline algorithms only"),
            }
        };

        // The components (Observation 3.2) solve one after another in
        // index order, each fingerprinted, consulted and solved in turn.
        // The first error is the reported one; later components are then
        // not solved.
        let mut scratch = crate::reduction::ReductionScratch::new();
        for comp in &comps {
            let ids = match &mut cache_ctx {
                Some(ctx) => ctx.solve_component(&ws, comp, || run_core(comp, &mut scratch)),
                None => run_core(comp, &mut scratch),
            }?;
            picked.extend(ids);
        }
        // Freed here, so their frees stay on the `solve_core` span.
        drop(scratch);
        drop(cache_ctx);

        picked.extend(ws.selected_ids().iter().copied());

        // Separate the prebuilt inventory (sunk cost) from new selections so
        // the returned Solution stays consistent with the instance's weight
        // function: its cost is exactly the marginal construction cost.
        let mut prebuilt_ids: mc3_core::FxHashSet<u32> = mc3_core::FxHashSet::default();
        for c in &self.config.prebuilt {
            if let Some(id) = ws.universe.id_of(c) {
                prebuilt_ids.insert(id.0);
            }
        }
        let mut prebuilt_used: Vec<mc3_core::Classifier> = Vec::new();
        if !prebuilt_ids.is_empty() {
            picked.sort_unstable();
            picked.dedup();
            let (pre_ids, new_ids): (Vec<_>, Vec<_>) = picked
                .into_iter()
                .partition(|id| prebuilt_ids.contains(&id.0));
            prebuilt_used = pre_ids
                .into_iter()
                .map(|id| ws.universe.classifier(id).to_propset())
                .collect();
            prebuilt_used.sort_unstable();
            picked = new_ids;
        }
        let solution = Solution::from_ids(&ws.universe, picked);
        // End-to-end certificate (verify feature): rebuild per-query cover
        // witnesses and re-check feasibility and cost accounting from
        // scratch. A prebuilt inventory re-prices classifiers to zero, so
        // the instance-level cost recomputation only applies without one.
        #[cfg(feature = "verify")]
        if self.config.prebuilt.is_empty() {
            let _vspan = mc3_telemetry::span("verify.certificate");
            let cert = mc3_core::Certificate::for_solution(instance, &solution).map_err(|e| {
                mc3_core::Mc3Error::Internal(format!("certificate construction failed: {e}"))
            })?;
            cert.verify(instance, &solution).map_err(|e| {
                mc3_core::Mc3Error::Internal(format!("certificate verification failed: {e}"))
            })?;
            mc3_telemetry::span_add(mc3_telemetry::Counter::VerifyCertificateChecks, 1);
        }
        let solve = solve_t.finish();
        mc3_obs::info(
            "solver",
            "solve finished",
            &[
                ("cost", solution.cost().raw().into()),
                ("classifiers", solution.len().into()),
                ("components", num_components.into()),
            ],
        );

        Ok(SolverReport {
            solution,
            prebuilt_used,
            instance_stats,
            preprocess_stats,
            components: num_components,
            timings: SolveTimings {
                setup,
                preprocess: pre,
                solve,
                total: total_t.finish(),
            },
        })
    }

    // --- helpers -----------------------------------------------------------

    fn baseline_report(
        &self,
        instance: &Instance,
        total_t: TimedSpan,
        f: impl Fn(&Instance) -> Result<Solution>,
    ) -> Result<SolverReport> {
        let solution = f(instance)?;
        let total = total_t.finish();
        Ok(SolverReport {
            solution,
            prebuilt_used: Vec::new(),
            instance_stats: InstanceStats::gather(instance),
            preprocess_stats: PreprocessStats::default(),
            components: 0,
            timings: SolveTimings {
                setup: Duration::ZERO,
                preprocess: Duration::ZERO,
                solve: total,
                total,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::{Weight, Weights, WeightsBuilder};

    fn example_1_1() -> Instance {
        let w = WeightsBuilder::new()
            .classifier([3u32], 5u64)
            .classifier([2u32], 5u64)
            .classifier([0u32], 5u64)
            .classifier([1u32], 1u64)
            .classifier([2u32, 3], 3u64)
            .classifier([1u32, 2], 5u64)
            .classifier([0u32, 2], 3u64)
            .classifier([0u32, 1], 4u64)
            .classifier([0u32, 1, 2], 5u64)
            .build();
        Instance::new(vec![vec![0u32, 1, 2], vec![2u32, 3]], w).unwrap()
    }

    #[test]
    fn default_solver_reaches_paper_optimum() {
        let instance = example_1_1();
        let sol = Mc3Solver::new().solve(&instance).unwrap();
        sol.verify(&instance).unwrap();
        assert_eq!(sol.cost(), Weight::new(7));
    }

    #[test]
    fn k2_exact_matches_reference_exact() {
        use mc3_core::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(909);
        for round in 0..30 {
            let n = rng.gen_range(1..=8usize);
            let mut queries = Vec::new();
            for _ in 0..n {
                let len = rng.gen_range(1..=2usize);
                let props: Vec<u32> = (0..len).map(|_| rng.gen_range(0..7u32)).collect();
                queries.push(props);
            }
            let instance = Instance::new(queries.clone(), Weights::seeded(round, 1, 25)).unwrap();
            let k2 = Mc3Solver::new()
                .algorithm(Algorithm::K2Exact)
                .solve(&instance)
                .unwrap();
            k2.verify(&instance).unwrap();
            let exact = Mc3Solver::new()
                .algorithm(Algorithm::Exact)
                .solve(&instance)
                .unwrap();
            assert_eq!(k2.cost(), exact.cost(), "queries {queries:?} round {round}");
        }
    }

    #[test]
    fn k2_exact_without_preprocessing_still_optimal() {
        use mc3_core::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(911);
        for round in 0..20 {
            let n = rng.gen_range(1..=6usize);
            let mut queries = Vec::new();
            for _ in 0..n {
                let len = rng.gen_range(1..=2usize);
                let props: Vec<u32> = (0..len).map(|_| rng.gen_range(0..6u32)).collect();
                queries.push(props);
            }
            let instance = Instance::new(queries, Weights::seeded(round + 100, 1, 25)).unwrap();
            let a = Mc3Solver::new()
                .algorithm(Algorithm::K2Exact)
                .without_preprocessing()
                .solve(&instance)
                .unwrap();
            let b = Mc3Solver::new()
                .algorithm(Algorithm::K2Exact)
                .solve(&instance)
                .unwrap();
            a.verify(&instance).unwrap();
            assert_eq!(a.cost(), b.cost());
        }
    }

    #[test]
    fn general_stays_within_guarantee_on_random_instances() {
        use mc3_core::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(1234);
        for round in 0..25 {
            let n = rng.gen_range(1..=5usize);
            let mut queries = Vec::new();
            for _ in 0..n {
                let len = rng.gen_range(1..=4usize);
                let props: Vec<u32> = (0..len).map(|_| rng.gen_range(0..8u32)).collect();
                queries.push(props);
            }
            let instance = Instance::new(queries.clone(), Weights::seeded(round, 1, 20)).unwrap();
            let report = Mc3Solver::new()
                .algorithm(Algorithm::General)
                .solve_report(&instance)
                .unwrap();
            report.solution.verify(&instance).unwrap();
            let exact = Mc3Solver::new()
                .algorithm(Algorithm::Exact)
                .solve(&instance)
                .unwrap();
            let guarantee = report.instance_stats.approximation_guarantee();
            assert!(
                report.solution.cost().raw() as f64 <= guarantee * exact.cost().raw() as f64 + 1e-9,
                "cost {} > {guarantee:.2} × opt {} on {queries:?}",
                report.solution.cost(),
                exact.cost()
            );
        }
    }

    #[test]
    fn short_first_handles_mixed_lengths() {
        let w = WeightsBuilder::new()
            .default_weight(Weight::new(6))
            .classifier([0u32, 1], 2u64)
            .classifier([2u32], 1u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1], vec![0u32, 1, 2]], w).unwrap();
        let sol = Mc3Solver::new()
            .algorithm(Algorithm::ShortFirst)
            .solve(&instance)
            .unwrap();
        sol.verify(&instance).unwrap();
        // XY (2) covers the short query; residual of the long one is z → Z (1)
        assert_eq!(sol.cost(), Weight::new(3));
    }

    #[test]
    fn bounded_universe_restricts_classifier_length() {
        let instance = Instance::new(vec![vec![0u32, 1, 2, 3]], Weights::uniform(1u64)).unwrap();
        let sol = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .max_classifier_len(2)
            .solve(&instance)
            .unwrap();
        sol.verify(&instance).unwrap();
        assert!(sol.classifiers().iter().all(|c| c.len() <= 2));
        // pairs cost 1 each → best bounded cover = 2 pairs
        assert_eq!(sol.cost(), Weight::new(2));
    }

    #[test]
    fn auto_dispatches_by_query_length() {
        let short = Instance::new(vec![vec![0u32, 1]], Weights::uniform(1u64)).unwrap();
        let long = Instance::new(vec![vec![0u32, 1, 2]], Weights::uniform(1u64)).unwrap();
        // both must simply succeed and verify
        Mc3Solver::new()
            .solve(&short)
            .unwrap()
            .verify(&short)
            .unwrap();
        Mc3Solver::new()
            .solve(&long)
            .unwrap()
            .verify(&long)
            .unwrap();
    }

    #[test]
    fn report_counts_components() {
        // X < XY < X+Y keeps every pruning rule quiet, so both queries
        // survive preprocessing as separate components
        let w = WeightsBuilder::new()
            .classifier([0u32], 2u64)
            .classifier([1u32], 2u64)
            .classifier([5u32], 2u64)
            .classifier([6u32], 2u64)
            .classifier([0u32, 1], 3u64)
            .classifier([5u32, 6], 3u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1], vec![5u32, 6]], w).unwrap();
        let report = Mc3Solver::new().solve_report(&instance).unwrap();
        assert_eq!(report.components, 2);
        assert_eq!(report.instance_stats.num_queries, 2);
    }

    #[test]
    fn prebuilt_inventory_reduces_marginal_cost() {
        // Example 1.1 with AC already built: only {AJ, W} remain → 4N
        let instance = example_1_1();
        let ac = mc3_core::PropSet::from_ids([2u32, 3]);
        let report = Mc3Solver::new()
            .prebuilt(vec![ac.clone()])
            .solve_report(&instance)
            .unwrap();
        assert_eq!(report.solution.cost(), Weight::new(4));
        assert_eq!(report.prebuilt_used, vec![ac]);
        // full cover still covers everything
        assert!(mc3_core::is_cover(&instance, &report.full_cover()));
        // marginal solution alone does not
        assert!(!mc3_core::is_cover(
            &instance,
            report.solution.classifiers()
        ));
    }

    #[test]
    fn irrelevant_prebuilt_classifiers_are_ignored() {
        let instance = example_1_1();
        let alien = mc3_core::PropSet::from_ids([42u32, 43]);
        let report = Mc3Solver::new()
            .prebuilt(vec![alien])
            .solve_report(&instance)
            .unwrap();
        assert!(report.prebuilt_used.is_empty());
        assert_eq!(report.solution.cost(), Weight::new(7));
        report.solution.verify(&instance).unwrap();
    }

    #[test]
    fn prebuilt_works_for_k2_pipeline_too() {
        let w = WeightsBuilder::new()
            .classifier([0u32], 4u64)
            .classifier([1u32], 4u64)
            .classifier([0u32, 1], 6u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let x = mc3_core::PropSet::from_ids([0u32]);
        let report = Mc3Solver::new()
            .algorithm(Algorithm::K2Exact)
            .prebuilt(vec![x])
            .solve_report(&instance)
            .unwrap();
        // with X free, completing via Y (4) beats XY (6)
        assert_eq!(report.solution.cost(), Weight::new(4));
        assert!(mc3_core::is_cover(&instance, &report.full_cover()));
    }

    #[test]
    fn baselines_run_through_facade() {
        let instance =
            Instance::new(vec![vec![0u32, 1], vec![1u32, 2]], Weights::uniform(1u64)).unwrap();
        for alg in [
            Algorithm::PropertyOriented,
            Algorithm::QueryOriented,
            Algorithm::Mixed,
            Algorithm::LocalGreedy,
            Algorithm::Exact,
        ] {
            let sol = Mc3Solver::new().algorithm(alg).solve(&instance).unwrap();
            sol.verify(&instance).unwrap();
        }
    }
}
