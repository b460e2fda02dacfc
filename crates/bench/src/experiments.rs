//! The experiment implementations (one per paper table/figure).

use crate::report::{pct, secs, Table};
use mc3_core::u32_of;
use mc3_core::{Instance, InstanceStats, WeightsBuilder};
use mc3_solver::{Algorithm, Mc3Solver, PreprocessOptions, WscStrategy};
use mc3_workload::{random_subset, BestBuyConfig, PrivateConfig, SyntheticConfig};
use std::time::Duration;

/// All experiment ids accepted by [`run_experiment`].
pub const EXPERIMENT_IDS: &[&str] = &[
    "table1",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig3e",
    "fig3f",
    "example11",
    "ablation-wsc",
    "ablation-preprocess",
    "ablation-flow",
    "ablation-guarantee",
    "ablation-popularity",
    "ablation-bounded",
    "ablation-partial",
];

/// Dataset sizes: `Quick` keeps every experiment in seconds; `Full` uses the
/// paper's sizes (up to 100 000 synthetic queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Reduced sizes for fast iteration and CI.
    Quick,
    /// The paper's dataset sizes.
    Full,
}

impl ExperimentScale {
    fn synthetic_sizes(self) -> &'static [usize] {
        match self {
            ExperimentScale::Quick => &[1_000, 5_000, 20_000],
            ExperimentScale::Full => &[1_000, 10_000, 50_000, 100_000],
        }
    }

    /// The largest synthetic size — the last entry of [`Self::synthetic_sizes`].
    fn synthetic_max(self) -> usize {
        match self {
            ExperimentScale::Quick => 20_000,
            ExperimentScale::Full => 100_000,
        }
    }

    fn private_total(self) -> usize {
        match self {
            ExperimentScale::Quick => 5_000,
            ExperimentScale::Full => 10_000,
        }
    }
}

/// Runs one experiment; returns its rendered report.
pub fn run_experiment(id: &str, scale: ExperimentScale) -> Result<String, String> {
    match id {
        "table1" => table1(scale).map_err(|e| e.to_string()),
        "fig3a" => fig3a().map_err(|e| e.to_string()),
        "fig3b" => fig3b(scale).map_err(|e| e.to_string()),
        "fig3c" => fig3c(scale).map_err(|e| e.to_string()),
        "fig3d" => fig3d(scale).map_err(|e| e.to_string()),
        "fig3e" => fig3e(scale).map_err(|e| e.to_string()),
        "fig3f" => fig3f(scale).map_err(|e| e.to_string()),
        "example11" => example11().map_err(|e| e.to_string()),
        "ablation-wsc" => ablation_wsc(scale).map_err(|e| e.to_string()),
        "ablation-preprocess" => ablation_preprocess(scale).map_err(|e| e.to_string()),
        "ablation-flow" => ablation_flow(scale).map_err(|e| e.to_string()),
        "ablation-guarantee" => ablation_guarantee().map_err(|e| e.to_string()),
        "ablation-popularity" => ablation_popularity(scale).map_err(|e| e.to_string()),
        "ablation-bounded" => ablation_bounded(scale).map_err(|e| e.to_string()),
        "ablation-partial" => ablation_partial(scale).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            EXPERIMENT_IDS.join(", ")
        )),
    }
}

fn solve(instance: &Instance, algorithm: Algorithm) -> mc3_core::Result<(u64, Duration)> {
    let report = Mc3Solver::new()
        .algorithm(algorithm)
        .solve_report(instance)?;
    debug_assert!(report.solution.verify(instance).is_ok());
    Ok((report.solution.cost().raw(), report.timings.total))
}

fn solve_with_pre(
    instance: &Instance,
    algorithm: Algorithm,
    pre: bool,
) -> mc3_core::Result<(u64, Duration)> {
    let solver = if pre {
        Mc3Solver::new().algorithm(algorithm)
    } else {
        Mc3Solver::new()
            .algorithm(algorithm)
            .without_preprocessing()
    };
    let report = solver.solve_report(instance)?;
    Ok((report.solution.cost().raw(), report.timings.total))
}

// --- Table 1 ------------------------------------------------------------

fn table1(scale: ExperimentScale) -> mc3_core::Result<String> {
    let mut t = Table::new(
        "Table 1: datasets",
        &[
            "Dataset",
            "# of queries",
            "Max cost",
            "Max length",
            "short (≤2)",
        ],
    );
    let bb = BestBuyConfig::default().generate();
    let p = PrivateConfig::with_queries(scale.private_total()).generate();
    let s = SyntheticConfig::with_queries(scale.synthetic_max()).generate();
    for (name, inst, max_cost) in [
        ("BestBuy (BB)", &bb.instance, 1u64),
        ("Private (P)", &p.instance, 63),
        ("Synthetic (S)", &s.instance, 50),
    ] {
        let stats = InstanceStats::gather(inst);
        t.row(vec![
            name.to_owned(),
            stats.num_queries.to_string(),
            max_cost.to_string(),
            stats.max_query_len.to_string(),
            pct(
                stats.short_query_fraction() * stats.num_queries as f64,
                stats.num_queries as f64,
            ),
        ]);
    }
    Ok(t.to_string())
}

// --- Figure 3a ----------------------------------------------------------

fn fig3a() -> mc3_core::Result<String> {
    // The Mixed algorithm of [13] is defined only for queries of length ≤ 2,
    // which is 95% of BB; the comparison runs on that short-query slice.
    let bb = BestBuyConfig::default().generate();
    let bb_short = bb.instance.filter_queries(|q| q.len() <= 2)?;
    let mut t = Table::new(
        format!(
            "Fig 3a: BB (uniform costs, {} short queries of {}) — cost vs #queries",
            bb_short.num_queries(),
            bb.instance.num_queries()
        ),
        &[
            "#queries",
            "MC3[S]",
            "Mixed",
            "Query-Oriented",
            "Property-Oriented",
        ],
    );
    let full = bb_short.num_queries();
    for (i, &size) in [
        full / 5,
        (2 * full) / 5,
        (3 * full) / 5,
        (4 * full) / 5,
        full,
    ]
    .iter()
    .enumerate()
    {
        let sub = random_subset(&bb_short, size, 0x3A + i as u64)?;
        let (mc3s, _) = solve(&sub, Algorithm::K2Exact)?;
        let (mixed, _) = solve(&sub, Algorithm::Mixed)?;
        let (qo, _) = solve(&sub, Algorithm::QueryOriented)?;
        let (po, _) = solve(&sub, Algorithm::PropertyOriented)?;
        t.row(vec![
            size.to_string(),
            mc3s.to_string(),
            mixed.to_string(),
            qo.to_string(),
            po.to_string(),
        ]);
    }
    Ok(format!(
        "{t}Expected shape (paper): MC3[S] = Mixed (both optimal) ≤ QO ≤ PO.\n"
    ))
}

// --- Figure 3b ----------------------------------------------------------

fn fig3b(scale: ExperimentScale) -> mc3_core::Result<String> {
    let p = PrivateConfig::with_queries(scale.private_total()).generate();
    let short = p.instance.filter_queries(|q| q.len() <= 2)?;
    let full = short.num_queries();
    let mut t = Table::new(
        format!(
            "Fig 3b: P restricted to short queries ({full} of {}) — cost vs #queries",
            p.instance.num_queries()
        ),
        &[
            "#queries",
            "MC3[S]",
            "Query-Oriented",
            "Property-Oriented",
            "MC3[S] vs best baseline",
        ],
    );
    let sizes: Vec<usize> = [full / 8, full / 4, full / 2, (3 * full) / 4, full]
        .into_iter()
        .filter(|&s| s > 0)
        .collect();
    for (i, &size) in sizes.iter().enumerate() {
        let sub = random_subset(&short, size, 0x3B + i as u64)?;
        let (mc3s, _) = solve(&sub, Algorithm::K2Exact)?;
        let (qo, _) = solve(&sub, Algorithm::QueryOriented)?;
        let (po, _) = solve(&sub, Algorithm::PropertyOriented)?;
        let best_baseline = qo.min(po);
        t.row(vec![
            size.to_string(),
            mc3s.to_string(),
            qo.to_string(),
            po.to_string(),
            pct((best_baseline - mc3s) as f64, best_baseline as f64) + " cheaper",
        ]);
    }
    Ok(format!(
        "{t}Expected shape (paper): MC3[S] outperforms QO and PO by ≈30%.\n"
    ))
}

// --- Figure 3c ----------------------------------------------------------

fn fig3c(scale: ExperimentScale) -> mc3_core::Result<String> {
    let mut t = Table::new(
        "Fig 3c: synthetic short queries — MC3[S] running time ± preprocessing",
        &[
            "#queries",
            "without preprocessing",
            "with preprocessing",
            "time saved",
        ],
    );
    for (i, &n) in scale.synthetic_sizes().iter().enumerate() {
        let ds = SyntheticConfig::short(n).seed(0x3C + i as u64).generate();
        let (cost_without, t_without) = solve_with_pre(&ds.instance, Algorithm::K2Exact, false)?;
        let (cost_with, t_with) = solve_with_pre(&ds.instance, Algorithm::K2Exact, true)?;
        assert_eq!(
            cost_with, cost_without,
            "preprocessing must not change the k=2 optimum"
        );
        t.row(vec![
            n.to_string(),
            secs(t_without),
            secs(t_with),
            // signed: a negative saving means preprocessing cost time
            pct(
                t_without.as_secs_f64() - t_with.as_secs_f64(),
                t_without.as_secs_f64(),
            ),
        ]);
    }
    Ok(format!("{t}Expected shape (paper): preprocessing saves most (≈85%) of the running time;\nthe solution cost is identical (both are optimal).\n"))
}

// --- Figure 3d ----------------------------------------------------------

fn fig3d(scale: ExperimentScale) -> mc3_core::Result<String> {
    let cfg = PrivateConfig::with_queries(scale.private_total());
    let p = cfg.generate();
    let fashion = cfg.generate_fashion();
    let n = p.instance.num_queries();
    let mut t = Table::new(
        "Fig 3d: P (general) — construction cost vs #queries",
        &[
            "#queries",
            "MC3[G]",
            "Short-First",
            "Local-Greedy",
            "Query-Oriented",
            "Property-Oriented",
            "winner",
        ],
    );
    let mut subsets: Vec<(String, Instance)> = vec![(
        format!("{} (fashion)", fashion.instance.num_queries()),
        fashion.instance.clone(),
    )];
    for (i, &size) in [n / 4, n / 2, n].iter().enumerate() {
        subsets.push((
            size.to_string(),
            random_subset(&p.instance, size, 0x3D + i as u64)?,
        ));
    }
    for (label, sub) in subsets {
        let (g, _) = solve(&sub, Algorithm::General)?;
        let (sf, _) = solve(&sub, Algorithm::ShortFirst)?;
        let (lg, _) = solve(&sub, Algorithm::LocalGreedy)?;
        let (qo, _) = solve(&sub, Algorithm::QueryOriented)?;
        let (po, _) = solve(&sub, Algorithm::PropertyOriented)?;
        let entries = [
            ("MC3[G]", g),
            ("SF", sf),
            ("LG", lg),
            ("QO", qo),
            ("PO", po),
        ];
        let best = entries.iter().map(|&(_, c)| c).min().unwrap_or(u64::MAX);
        let winner = entries
            .iter()
            .filter(|&&(_, c)| c == best)
            .map(|&(n, _)| n)
            .collect::<Vec<_>>()
            .join("/");
        t.row(vec![
            label,
            g.to_string(),
            sf.to_string(),
            lg.to_string(),
            qo.to_string(),
            po.to_string(),
            winner,
        ]);
    }
    Ok(format!("{t}Expected shape (paper): Short-First wins on the 96%-short fashion subset;\nMC3[G] wins on every mixed subset (≈12% over the closest competitor at full size).\n"))
}

// --- Figures 3e / 3f ----------------------------------------------------

fn fig3e(scale: ExperimentScale) -> mc3_core::Result<String> {
    let mut t = Table::new(
        "Fig 3e: synthetic — MC3[G] (as published) solution cost ± preprocessing",
        &[
            "#queries",
            "without preprocessing",
            "with preprocessing",
            "cost saved",
            "+ reverse-delete",
        ],
    );
    for (i, &size) in scale.synthetic_sizes().iter().enumerate() {
        let mut cfg = SyntheticConfig::with_queries(size).seed(0x3E + i as u64);
        cfg.pool_size = Some(size / 5); // t = 5, a representative U[2, √n] draw
        let ds = cfg.generate();
        // the paper's Algorithm 3 verbatim (no reverse-delete refinement)
        let run_raw = |pre: bool| -> mc3_core::Result<u64> {
            let mut solver = Mc3Solver::new()
                .algorithm(Algorithm::General)
                .without_refinement();
            if !pre {
                solver = solver.without_preprocessing();
            }
            Ok(solver.solve(&ds.instance)?.cost().raw())
        };
        let cost_without = run_raw(false)?;
        let cost_with = run_raw(true)?;
        let (cost_refined, _) = solve_with_pre(&ds.instance, Algorithm::General, true)?;
        t.row(vec![
            size.to_string(),
            cost_without.to_string(),
            cost_with.to_string(),
            pct(
                cost_without.saturating_sub(cost_with) as f64,
                cost_without as f64,
            ),
            cost_refined.to_string(),
        ]);
    }
    Ok(format!("{t}Expected shape (paper): preprocessing lowers MC3[G]'s construction cost (≈35%).\nThe last column is this implementation's guarantee-preserving reverse-delete\naugmentation, which recovers most of the effect even without preprocessing.\n"))
}

fn fig3f(scale: ExperimentScale) -> mc3_core::Result<String> {
    let mut t = Table::new(
        "Fig 3f: synthetic — MC3[G] running time ± preprocessing",
        &[
            "#queries",
            "without preprocessing",
            "with preprocessing",
            "time saved",
        ],
    );
    for (i, &size) in scale.synthetic_sizes().iter().enumerate() {
        let mut cfg = SyntheticConfig::with_queries(size).seed(0x3F + i as u64);
        cfg.pool_size = Some(size / 5); // t = 5, a representative U[2, √n] draw
        let ds = cfg.generate();
        let (_, t_without) = solve_with_pre(&ds.instance, Algorithm::General, false)?;
        let (_, t_with) = solve_with_pre(&ds.instance, Algorithm::General, true)?;
        t.row(vec![
            size.to_string(),
            secs(t_without),
            secs(t_with),
            // signed: a negative saving means preprocessing cost time
            pct(
                t_without.as_secs_f64() - t_with.as_secs_f64(),
                t_without.as_secs_f64(),
            ),
        ]);
    }
    Ok(format!(
        "{t}Expected shape (paper): preprocessing saves ≈50% of MC3[G]'s running time.\n"
    ))
}

// --- Example 1.1 ----------------------------------------------------------

/// The paper's running example as an instance: queries
/// `{juventus, white, adidas}` and `{chelsea, adidas}` with the §1 costs.
pub fn example11_instance() -> mc3_core::Result<Instance> {
    // props: j = 0, w = 1, a = 2, c = 3
    let w = WeightsBuilder::new()
        .classifier([3u32], 5u64) // C
        .classifier([2u32], 5u64) // A
        .classifier([0u32], 5u64) // J
        .classifier([1u32], 1u64) // W
        .classifier([2u32, 3], 3u64) // AC
        .classifier([1u32, 2], 5u64) // AW
        .classifier([0u32, 2], 3u64) // AJ
        .classifier([0u32, 1], 4u64) // JW
        .classifier([0u32, 1, 2], 5u64) // JAW
        .build();
    Instance::new(vec![vec![0u32, 1, 2], vec![2u32, 3]], w)
}

fn example11() -> mc3_core::Result<String> {
    let instance = example11_instance()?;
    let mut t = Table::new(
        "Example 1.1: soccer shirts (optimum {AC, AJ, W} = 7N)",
        &["algorithm", "cost", "classifiers"],
    );
    for (name, alg) in [
        ("Exact", Algorithm::Exact),
        ("MC3[G]", Algorithm::General),
        ("Local-Greedy", Algorithm::LocalGreedy),
        ("Query-Oriented", Algorithm::QueryOriented),
        ("Property-Oriented", Algorithm::PropertyOriented),
    ] {
        let sol = Mc3Solver::new().algorithm(alg).solve(&instance)?;
        sol.verify(&instance)?;
        let names: Vec<String> = sol
            .classifiers()
            .iter()
            .map(|c| {
                c.iter()
                    .map(|p| ["J", "W", "A", "C"][p.index()])
                    .collect::<String>()
            })
            .collect();
        t.row(vec![
            name.to_owned(),
            sol.cost().to_string(),
            names.join(" "),
        ]);
    }
    Ok(t.to_string())
}

// --- Ablations ------------------------------------------------------------

fn ablation_wsc(scale: ExperimentScale) -> mc3_core::Result<String> {
    let sizes: &[usize] = match scale {
        ExperimentScale::Quick => &[200, 2_000],
        ExperimentScale::Full => &[200, 2_000, 10_000],
    };
    let mut t = Table::new(
        "Ablation (§5.2): WSC strategy inside Algorithm 3",
        &[
            "#queries",
            "greedy",
            "primal-dual",
            "LP rounding",
            "combined",
            "greedy time",
            "combined time",
        ],
    );
    for (i, &n) in sizes.iter().enumerate() {
        let ds = SyntheticConfig::with_queries(n)
            .seed(0xAB + i as u64)
            .generate();
        let run = |strategy: WscStrategy| -> mc3_core::Result<(u64, Duration)> {
            let report = Mc3Solver::new()
                .algorithm(Algorithm::General)
                .wsc_strategy(strategy)
                .solve_report(&ds.instance)?;
            Ok((report.solution.cost().raw(), report.timings.total))
        };
        let (g, tg) = run(WscStrategy::GreedyOnly)?;
        let (pd, _) = run(WscStrategy::PrimalDualOnly)?;
        // the dense simplex only fits small reductions
        let lp = if n <= 200 {
            run(WscStrategy::LpRoundingOnly)?.0.to_string()
        } else {
            "(too large)".to_owned()
        };
        let (c, tc) = run(WscStrategy::Combined)?;
        t.row(vec![
            n.to_string(),
            g.to_string(),
            pd.to_string(),
            lp,
            c.to_string(),
            secs(tg),
            secs(tc),
        ]);
    }
    Ok(format!(
        "{t}Combined = min(greedy, f-approximation) — never worse than either (Theorem 5.3).\n"
    ))
}

fn ablation_preprocess(scale: ExperimentScale) -> mc3_core::Result<String> {
    let n = match scale {
        ExperimentScale::Quick => 5_000,
        ExperimentScale::Full => 20_000,
    };
    let mut cfg = SyntheticConfig::with_queries(n).seed(0xAB1);
    cfg.pool_size = Some(n / 5); // match the Fig. 3e workload
    let ds = cfg.generate();
    let mut t = Table::new(
        format!("Ablation (§3): preprocessing steps, synthetic n = {n}, MC3[G]"),
        &["steps enabled", "cost", "time"],
    );
    let configs: [(&str, PreprocessOptions); 4] = [
        ("none", PreprocessOptions::disabled()),
        (
            "step 1 (singletons + zero-weight)",
            PreprocessOptions {
                singletons_and_zero: true,
                decomposition: false,
                k2_singleton_pruning: false,
                max_passes: 0,
            },
        ),
        (
            "steps 1 + 3 (+ forced selections)",
            PreprocessOptions {
                singletons_and_zero: true,
                decomposition: true,
                k2_singleton_pruning: false,
                max_passes: 6,
            },
        ),
        (
            "all (step 4 inactive for k > 2)",
            PreprocessOptions::default(),
        ),
    ];
    for (label, opts) in configs {
        let report = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .preprocess(opts)
            .solve_report(&ds.instance)?;
        t.row(vec![
            label.to_owned(),
            report.solution.cost().raw().to_string(),
            secs(report.timings.total),
        ]);
    }
    Ok(t.to_string())
}

// --- Flow-algorithm ablation -----------------------------------------------

fn ablation_flow(scale: ExperimentScale) -> mc3_core::Result<String> {
    use mc3_core::rng::prelude::*;
    use mc3_core::Weight;
    use mc3_flow::{solve_bipartite_wvc_with, BipartiteWvc, FlowAlgorithm};

    let sizes: &[usize] = match scale {
        ExperimentScale::Quick => &[10_000, 50_000],
        ExperimentScale::Full => &[10_000, 100_000, 500_000],
    };
    let mut t = Table::new(
        "Ablation (§4/§6): max-flow algorithm inside Algorithm 2's WVC step",
        &[
            "#pair nodes",
            "Dinic cost",
            "push-relabel cost",
            "Dinic time",
            "push-relabel time",
        ],
    );
    for &n in sizes {
        // the exact network shape the k=2 reduction produces
        let mut rng = StdRng::seed_from_u64(0xF10 + n as u64);
        let nl = (n / 2).max(2);
        let inst = BipartiteWvc {
            left_weights: (0..nl).map(|_| Weight::new(rng.gen_range(1..50))).collect(),
            right_weights: (0..n).map(|_| Weight::new(rng.gen_range(1..50))).collect(),
            edges: (0..u32_of(n))
                .flat_map(|r| {
                    let a = rng.gen_range(0..u32_of(nl));
                    let mut b = rng.gen_range(0..u32_of(nl));
                    if b == a {
                        b = (b + 1) % u32_of(nl);
                    }
                    [(a, r), (b, r)]
                })
                .collect(),
        };
        // audit:allow(no-bare-instant) the experiment times the two flow kernels
        let t0 = std::time::Instant::now();
        let dinic = solve_bipartite_wvc_with(&inst, FlowAlgorithm::Dinic)?;
        let dt = t0.elapsed();
        // audit:allow(no-bare-instant) the experiment times the two flow kernels
        let t1 = std::time::Instant::now();
        let pr = solve_bipartite_wvc_with(&inst, FlowAlgorithm::PushRelabel)?;
        let pt = t1.elapsed();
        assert_eq!(
            dinic.weight, pr.weight,
            "the two exact algorithms must agree"
        );
        t.row(vec![
            n.to_string(),
            dinic.weight.to_string(),
            pr.weight.to_string(),
            secs(dt),
            secs(pt),
        ]);
    }
    Ok(format!(
        "{t}Both are exact (identical costs); the paper selected Dinic [10] for speed.\n"
    ))
}

// --- Empirical approximation ratios ----------------------------------------

fn ablation_guarantee() -> mc3_core::Result<String> {
    use mc3_core::rng::prelude::*;
    let mut t = Table::new(
        "Empirical approximation ratio vs the Theorem 5.3 guarantee (small random instances)",
        &[
            "k",
            "instances",
            "max ratio MC3[G]/OPT",
            "mean ratio",
            "Theorem 5.3 bound (max)",
        ],
    );
    let mut rng = StdRng::seed_from_u64(0x6A);
    for k in [3usize, 4, 5] {
        let mut max_ratio: f64 = 1.0;
        let mut sum_ratio = 0.0;
        let mut max_bound: f64 = 0.0;
        let rounds = 40;
        for _ in 0..rounds {
            let n = rng.gen_range(2..=6usize);
            let queries: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let len = rng.gen_range(1..=k);
                    (0..len).map(|_| rng.gen_range(0..10u32)).collect()
                })
                .collect();
            let instance = Instance::new(queries, mc3_core::Weights::seeded(rng.gen(), 1, 40))?;
            let report = Mc3Solver::new()
                .algorithm(Algorithm::General)
                .solve_report(&instance)?;
            let exact = Mc3Solver::new()
                .algorithm(Algorithm::Exact)
                .solve(&instance)?;
            let ratio = report.solution.cost().raw() as f64 / exact.cost().raw().max(1) as f64;
            max_ratio = max_ratio.max(ratio);
            sum_ratio += ratio;
            max_bound = max_bound.max(report.instance_stats.approximation_guarantee());
        }
        t.row(vec![
            k.to_string(),
            rounds.to_string(),
            format!("{max_ratio:.3}"),
            format!("{:.3}", sum_ratio / rounds as f64),
            format!("{max_bound:.2}"),
        ]);
    }
    Ok(format!(
        "{t}MC3[G] sits far below its worst-case bound in practice (§6's qualitative finding).\n"
    ))
}

// --- Property-popularity extension ------------------------------------------

fn ablation_popularity(scale: ExperimentScale) -> mc3_core::Result<String> {
    let n = match scale {
        ExperimentScale::Quick => 5_000,
        ExperimentScale::Full => 20_000,
    };
    let mut t = Table::new(
        format!("Extension: property-popularity skew (synthetic n = {n}, pool n/5)"),
        &[
            "popularity",
            "I (incidence)",
            "MC3[G]",
            "Short-First",
            "Property-Oriented",
            "MC3[G] vs PO",
        ],
    );
    for (label, zipf) in [
        ("uniform (paper)", None),
        ("Zipf s=1.0", Some(1.0)),
        ("Zipf s=1.3", Some(1.3)),
    ] {
        let mut cfg = SyntheticConfig::with_queries(n).seed(0x21F);
        cfg.pool_size = Some(n / 5);
        if let Some(s) = zipf {
            cfg = cfg.zipf(s);
        }
        let ds = cfg.generate();
        let report = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .solve_report(&ds.instance)?;
        let (sf, _) = solve(&ds.instance, Algorithm::ShortFirst)?;
        let (po, _) = solve(&ds.instance, Algorithm::PropertyOriented)?;
        let g = report.solution.cost().raw();
        t.row(vec![
            label.to_owned(),
            report.instance_stats.max_incidence.to_string(),
            g.to_string(),
            sf.to_string(),
            po.to_string(),
            pct(po.saturating_sub(g) as f64, po as f64) + " cheaper",
        ]);
    }
    Ok(format!("{t}Heavier skew raises incidence I and widens MC3[G]'s margin: popular properties\namortize over many queries while the rare tail is covered by cheap conjunctions,\nwhereas Property-Oriented still pays for every distinct property.\n"))
}

// --- Bounded classifiers (§5.3) ----------------------------------------------

fn ablation_bounded(scale: ExperimentScale) -> mc3_core::Result<String> {
    let p = PrivateConfig::with_queries(scale.private_total()).generate();
    let k = p.instance.max_query_len();
    let mut t = Table::new(
        format!("Extension (§5.3): bounded classifier length k' on P (k = {k})"),
        &["k'", "MC3[G] cost", "classifiers", "f bound", "time"],
    );
    for kp in [1usize, 2, 3, k] {
        let report = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .max_classifier_len(kp)
            .solve_report(&p.instance)?;
        let cost = report.solution.cost().raw();
        t.row(vec![
            if kp == k {
                format!("{kp} (= k)")
            } else {
                kp.to_string()
            },
            cost.to_string(),
            report.solution.len().to_string(),
            report.instance_stats.wsc_frequency_bound().to_string(),
            secs(report.timings.total),
        ]);
    }
    Ok(format!("{t}k' = 2 is the prevalent practical choice (§5.3): frequency drops from 2^(k−1) to k\nwhile most of the cost benefit of longer classifiers is already realized.\n"))
}

// --- Budgeted partial cover (§5.3 / §8 future work) --------------------------

fn ablation_partial(scale: ExperimentScale) -> mc3_core::Result<String> {
    use mc3_core::rng::prelude::*;
    use mc3_solver::{solve_partial_cover_with, PartialStrategy};

    let n = match scale {
        ExperimentScale::Quick => 1_000,
        ExperimentScale::Full => 5_000,
    };
    let p = PrivateConfig::with_queries(n).generate();
    // query importances: heavy-tailed "observed frequency" model
    let mut rng = StdRng::seed_from_u64(0x5041);
    let values: Vec<u64> = (0..p.instance.num_queries())
        .map(|_| 1 + (1000.0 / (1.0 + rng.gen_range(0.0..99.0f64))) as u64)
        .collect();
    let total_value: u64 = values.iter().sum();
    let full_cost = Mc3Solver::new().solve(&p.instance)?.cost().raw();

    let mut t = Table::new(
        format!(
            "Extension (§5.3/§8): budgeted partial cover on P (n = {}, full cover costs {full_cost})",
            p.instance.num_queries()
        ),
        &["budget (% of full)", "query-greedy value", "component-knapsack value", "best value", "% of total value"],
    );
    for pct_budget in [10u64, 25, 50, 75, 100] {
        let budget = mc3_core::Weight::new(full_cost * pct_budget / 100);
        let run = |strategy| -> mc3_core::Result<u64> {
            Ok(solve_partial_cover_with(&p.instance, &values, budget, strategy)?.covered_value)
        };
        let g = run(PartialStrategy::QueryGreedy)?;
        let k = run(PartialStrategy::ComponentKnapsack)?;
        let b = run(PartialStrategy::Best)?;
        t.row(vec![
            format!("{pct_budget}%"),
            g.to_string(),
            k.to_string(),
            b.to_string(),
            pct(b as f64, total_value as f64),
        ]);
    }
    Ok(format!("{t}Diminishing returns: most of the query-load value is covered well below the full budget\n(the paper's motivation for the budgeted variant it leaves as future work).\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example11_reports_optimum_seven() {
        let out = example11().expect("example 1.1 is coverable");
        assert!(out.contains("Exact"), "{out}");
        // the Exact and MC3[G] rows must both report cost 7
        let lines: Vec<&str> = out.lines().filter(|l| l.contains('|')).collect();
        let exact = lines.iter().find(|l| l.contains("Exact")).unwrap();
        assert!(exact.contains("| 7"), "exact row: {exact}");
        let general = lines.iter().find(|l| l.contains("MC3[G]")).unwrap();
        assert!(general.contains("| 7"), "general row: {general}");
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(run_experiment("nope", ExperimentScale::Quick).is_err());
    }

    #[test]
    fn table1_lists_three_datasets() {
        let out = table1(ExperimentScale::Quick).expect("table1 runs");
        assert!(out.contains("BestBuy"));
        assert!(out.contains("Private"));
        assert!(out.contains("Synthetic"));
    }

    #[test]
    fn fig3a_small_scale_shape_holds() {
        // run on the real experiment (BB is small) and verify the ordering
        let out = fig3a().expect("fig3a runs");
        for line in out
            .lines()
            .filter(|l| l.starts_with("| ") && !l.contains("MC3"))
        {
            let cells: Vec<&str> = line
                .split('|')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if cells.len() == 5 {
                let mc3s: u64 = cells[1].parse().unwrap();
                let mixed: u64 = cells[2].parse().unwrap();
                let qo: u64 = cells[3].parse().unwrap();
                assert_eq!(mc3s, mixed, "both exact under uniform costs: {line}");
                assert!(mc3s <= qo, "{line}");
            }
        }
    }
}
