//! Micro-benchmarks of component canonicalization (`canon::canonicalize`),
//! the fingerprint the solve cache keys components by: every residual
//! component of a private-like and a BestBuy-like body (what a cold served
//! request fingerprints), and one fully symmetric query, where only
//! automorphism pruning keeps the search small.

use mc3_bench::timing::Group;
use mc3_core::canon::{self, Canonical};
use mc3_core::{ClassifierUniverse, Instance, Query, Weight, Weights};
use mc3_solver::components::connected_components;
use mc3_solver::preprocess::preprocess;
use mc3_solver::work::WorkState;
use mc3_solver::SolverConfig;
use mc3_workload::{generate_dataset, GeneratorKind};
use std::hint::black_box;

/// Canonicalizes every residual component of `ws` as the solve cache
/// does (covered masks, the live weight oracle); returns how many
/// finished.
fn canonicalize_components(ws: &WorkState<'_>, comps: &[Vec<usize>], kp: usize) -> usize {
    comps
        .iter()
        .filter_map(|comp| {
            let queries: Vec<(&Query, u32)> = comp
                .iter()
                .map(|&q| (&ws.instance.queries()[q], ws.covered[q]))
                .collect();
            canon::canonicalize(&queries, kp, canon::DEFAULT_BUDGET, |qi, mask| {
                let id = ws.universe.query_local(comp[qi]).table[mask as usize];
                if id.is_none() || !ws.is_available(id) {
                    Weight::INFINITE
                } else {
                    ws.weight[id.index()]
                }
            })
        })
        .map(|c: Canonical| black_box(c.fingerprint()))
        .count()
}

fn bench_residual_components() {
    let group = Group::new("canon_residual_components");
    for (kind, queries) in [
        (GeneratorKind::Private, 1000),
        (GeneratorKind::BestBuy, 2000),
    ] {
        let instance = generate_dataset(kind, queries, 1).instance;
        let kp = instance.max_query_len().max(1);
        let mut ws = WorkState::new(&instance, ClassifierUniverse::build_bounded(&instance, kp));
        preprocess(&mut ws, &SolverConfig::default().preprocess).expect("coverable instance");
        let comps = connected_components(instance.queries(), &ws.alive_query_indices());
        group.bench(format!("{}/{queries}/{}", kind.name(), comps.len()), || {
            canonicalize_components(&ws, &comps, kp)
        });
    }
}

fn bench_symmetric_query() {
    let group = Group::new("canon_symmetric_query");
    let instance = Instance::new(vec![(0..7u32).collect::<Vec<_>>()], Weights::uniform(1u64))
        .expect("valid instance");
    group.bench("uniform_len7", || {
        black_box(canon::canonicalize_instance(&instance, canon::DEFAULT_BUDGET).is_some())
    });
}

fn main() {
    bench_residual_components();
    bench_symmetric_query();
}
