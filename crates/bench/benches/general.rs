//! Benchmarks behind Figs. 3e/3f and the §5.2 ablation: MC3[G]
//! (Algorithm 3) on the paper's synthetic workload, with/without
//! preprocessing and across WSC strategies, plus Short-First and the
//! Local-Greedy baseline.

use mc3_bench::timing::Group;
use mc3_solver::{Algorithm, Mc3Solver, WscStrategy};
use mc3_workload::{PrivateConfig, SyntheticConfig};
use std::hint::black_box;

fn bench_general() {
    let group = Group::new("mc3g_algorithm3").samples(5);
    for &n in &[1_000usize, 10_000, 50_000] {
        let ds = SyntheticConfig::with_queries(n).generate();
        let with = Mc3Solver::new().algorithm(Algorithm::General);
        group.bench(format!("with_preprocessing/{n}"), || {
            black_box(with.solve(&ds.instance).expect("solvable").cost())
        });
        let without = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .without_preprocessing();
        group.bench(format!("without_preprocessing/{n}"), || {
            black_box(without.solve(&ds.instance).expect("solvable").cost())
        });
    }
}

fn bench_anti_cycling_q80_seed3() {
    // The workload that exposed simplex cycling: its reduced component
    // yields a degenerate covering LP. Named so the bench gate tracks the
    // anti-cycling path specifically.
    let ds = SyntheticConfig::with_queries(80).seed(3).generate();
    let solver = Mc3Solver::new().algorithm(Algorithm::General);
    let group = Group::new("mc3g_anti_cycling").samples(5);
    group.bench("synthetic_q80_seed3", || {
        black_box(solver.solve(&ds.instance).expect("solvable").cost())
    });
}

fn bench_strategies() {
    let ds = SyntheticConfig::with_queries(10_000).generate();
    let group = Group::new("mc3g_wsc_strategy").samples(5);
    for (name, strategy) in [
        ("greedy", WscStrategy::GreedyOnly),
        ("primal_dual", WscStrategy::PrimalDualOnly),
        ("combined", WscStrategy::Combined),
    ] {
        let solver = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .wsc_strategy(strategy);
        group.bench(name, || {
            black_box(solver.solve(&ds.instance).expect("solvable").cost())
        });
    }
}

fn bench_short_first_and_local_greedy() {
    let ds = PrivateConfig::with_queries(5_000).generate();
    let group = Group::new("private_dataset_algorithms").samples(5);
    for (name, alg) in [
        ("mc3g", Algorithm::General),
        ("short_first", Algorithm::ShortFirst),
        ("local_greedy", Algorithm::LocalGreedy),
    ] {
        let solver = Mc3Solver::new().algorithm(alg);
        group.bench(name, || {
            black_box(solver.solve(&ds.instance).expect("solvable").cost())
        });
    }
}

fn main() {
    bench_general();
    bench_anti_cycling_q80_seed3();
    bench_strategies();
    bench_short_first_and_local_greedy();
}
