//! Planning classifier construction for a large synthetic query load:
//! generate a workload with the paper's §6.1 recipe, compare every
//! algorithm, and show what the preprocessing pipeline contributes.
//!
//! ```sh
//! cargo run --release --example workload_planner [num_queries]
//! ```

use mc3::prelude::*;
use mc3::solver::Algorithm;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    let mut cfg = SyntheticConfig::with_queries(n);
    cfg.pool_size = Some((n / 2).max(16));
    let dataset = cfg.generate();
    let instance = &dataset.instance;
    println!("generated workload: {}", InstanceStats::gather(instance));
    println!();

    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "algorithm", "cost", "classifiers", "time"
    );
    for (label, alg) in [
        ("MC3[G]", Algorithm::General),
        ("Short-First", Algorithm::ShortFirst),
        ("Local-Greedy", Algorithm::LocalGreedy),
        ("Query-Oriented", Algorithm::QueryOriented),
        ("Property-Oriented", Algorithm::PropertyOriented),
    ] {
        let report = Mc3Solver::new()
            .algorithm(alg)
            .solve_report(instance)
            .expect("coverable");
        report.solution.verify(instance).expect("must cover");
        println!(
            "{:<22} {:>12} {:>12} {:>9.2}s",
            label,
            report.solution.cost().to_string(),
            report.solution.len(),
            report.timings.total.as_secs_f64()
        );
    }
    println!();

    // Preprocessing ablation on the winning algorithm.
    let with = Mc3Solver::new().solve_report(instance).unwrap();
    let without = Mc3Solver::new()
        .without_preprocessing()
        .solve_report(instance)
        .unwrap();
    println!(
        "preprocessing effect on MC3: cost {} → {}, {} classifiers pruned, {} queries closed before solving",
        without.solution.cost(),
        with.solution.cost(),
        with.preprocess_stats.removed_by_decomposition
            + with.preprocess_stats.removed_by_singleton_pruning,
        with.preprocess_stats.covered_queries,
    );

    // Observation 3.2: the residual problem solves per component.
    println!(
        "residual problem split into {} property-connected components",
        with.components
    );
}
