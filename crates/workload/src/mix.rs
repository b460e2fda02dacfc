//! Named dataset generation and the serving-mode request mix.
//!
//! Two consumers share the `kind/queries/seed` vocabulary: `mc3 generate`
//! / `mc3 bench-gate` (one pinned workload per invocation) and the
//! serving plane (`mc3 loadgen` drives `POST /solve` with a *mix* of
//! workloads). [`GeneratorKind`] and [`generate_dataset`] are the single
//! source of truth for turning a named spec into an [`Dataset`];
//! [`RequestMix`] layers a deterministic weighted rotation on top so a
//! load run is reproducible request-for-request — no RNG, request `i`
//! always maps to the same entry.

use crate::{BestBuyConfig, Dataset, PrivateConfig, SyntheticConfig};

/// Which dataset generator a named workload spec uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// The paper's §6.1 synthetic recipe.
    Synthetic,
    /// Synthetic restricted to length-2 queries.
    SyntheticShort,
    /// BestBuy-alike (uniform costs, 95 % short).
    BestBuy,
    /// Private-alike (three categories, costs 1–63).
    Private,
    /// Only the Fashion category of the private-alike dataset.
    PrivateFashion,
    /// Components drawn from a small pool of repeated shapes on disjoint
    /// property ranges — the serving pattern the cross-request solve
    /// cache targets (isomorphic components recur across bodies).
    DuplicateHeavy,
}

impl GeneratorKind {
    /// The wire spelling of this generator (inverse of
    /// [`GeneratorKind::parse`]); shared by the CLI, bench-gate baselines
    /// and `--mix` specs.
    pub fn name(self) -> &'static str {
        match self {
            GeneratorKind::Synthetic => "synthetic",
            GeneratorKind::SyntheticShort => "synthetic-short",
            GeneratorKind::BestBuy => "bestbuy",
            GeneratorKind::Private => "private",
            GeneratorKind::PrivateFashion => "private-fashion",
            GeneratorKind::DuplicateHeavy => "duplicate-heavy",
        }
    }

    /// Parses a wire spelling.
    pub fn parse(s: &str) -> Result<GeneratorKind, String> {
        match s {
            "synthetic" => Ok(GeneratorKind::Synthetic),
            "synthetic-short" => Ok(GeneratorKind::SyntheticShort),
            "bestbuy" => Ok(GeneratorKind::BestBuy),
            "private" => Ok(GeneratorKind::Private),
            "private-fashion" => Ok(GeneratorKind::PrivateFashion),
            "duplicate-heavy" => Ok(GeneratorKind::DuplicateHeavy),
            other => Err(format!(
                "unknown generator '{other}' (expected synthetic, synthetic-short, bestbuy, private, private-fashion, duplicate-heavy)"
            )),
        }
    }
}

/// Generates the dataset a named spec describes. Deterministic for a
/// pinned `(kind, queries, seed)` triple — the property the bench-gate
/// and the load generator both lean on.
pub fn generate_dataset(kind: GeneratorKind, queries: usize, seed: u64) -> Dataset {
    match kind {
        GeneratorKind::Synthetic => SyntheticConfig::with_queries(queries).seed(seed).generate(),
        GeneratorKind::SyntheticShort => SyntheticConfig::short(queries).seed(seed).generate(),
        GeneratorKind::BestBuy => {
            let mut cfg = BestBuyConfig::with_queries(queries);
            cfg.seed = seed.max(1);
            cfg.generate()
        }
        GeneratorKind::Private => {
            let mut cfg = PrivateConfig::with_queries(queries);
            cfg.seed = seed.max(1);
            cfg.generate()
        }
        GeneratorKind::PrivateFashion => {
            // the fashion share is queries/10 of the configured total
            let mut cfg = PrivateConfig::with_queries(queries * 10);
            cfg.seed = seed.max(1);
            cfg.generate_fashion()
        }
        GeneratorKind::DuplicateHeavy => generate_duplicate_heavy(queries, seed),
    }
}

/// Fixed pool of connected component shapes (local property ids). Every
/// duplicate-heavy instance is a seed-shuffled concatenation of these on
/// disjoint property ranges, so any two instances — whatever their seeds
/// — share component fingerprints pairwise.
const DUPLICATE_SHAPES: &[&[&[u32]]] = &[
    &[&[0, 1], &[1, 2]],
    &[&[0, 1, 2], &[1, 2, 3]],
    &[&[0], &[0, 1], &[1, 2]],
    &[&[0, 1], &[0, 2], &[1, 2]],
    &[&[0, 1, 2], &[2, 3], &[3, 4]],
    &[&[0, 2], &[1, 2, 3], &[0, 3]],
    &[&[0, 1, 2, 3], &[2, 3, 4]],
    &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]],
];

/// The duplicate-heavy serving workload: `queries` queries assembled from
/// [`DUPLICATE_SHAPES`], uniform costs (cost is a property of the shape,
/// so isomorphism is exact). The seed only permutes which shapes recur
/// and how often — it never invents a new component structure.
fn generate_duplicate_heavy(queries: usize, seed: u64) -> Dataset {
    use mc3_core::rng::prelude::*;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xD0_9E));
    let mut qs: Vec<Vec<u32>> = Vec::with_capacity(queries);
    let mut base = 0u32;
    while qs.len() < queries {
        let shape = DUPLICATE_SHAPES[rng.gen_range(0..DUPLICATE_SHAPES.len())];
        let width = shape
            .iter()
            .flat_map(|q| q.iter().copied())
            .max()
            .unwrap_or(0)
            + 1;
        for q in shape {
            if qs.len() == queries {
                break;
            }
            qs.push(q.iter().map(|p| base + p).collect());
        }
        base += width;
    }
    let instance = mc3_core::Instance::new(qs, mc3_core::Weights::uniform(2u64))
        // audit:allow(no-unwrap-in-lib) generator invariant: shape-pool queries are non-empty with len <= 4
        .expect("generator produces valid queries");
    Dataset::new(format!("duplicate-heavy-{queries}-{seed}"), instance)
}

/// One weighted workload in a request mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixEntry {
    /// Generator kind.
    pub kind: GeneratorKind,
    /// Query count for the generated instance.
    pub queries: usize,
    /// Generator seed.
    pub seed: u64,
    /// Solver algorithm requested for this workload (wire name).
    pub algorithm: String,
    /// Relative weight in the rotation (≥ 1).
    pub weight: u32,
}

impl MixEntry {
    /// The `kind:queries:seed:algorithm[xW]` spelling of this entry.
    pub fn spec(&self) -> String {
        format!(
            "{}:{}:{}:{}x{}",
            self.kind.name(),
            self.queries,
            self.seed,
            self.algorithm,
            self.weight
        )
    }
}

/// A deterministic weighted rotation of workloads for the load generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMix {
    entries: Vec<MixEntry>,
}

impl RequestMix {
    /// The default serving mix, anchored on the bench-gate pin: the first
    /// entry is **exactly** the checked-in `BENCH_baseline.json` workload
    /// (synthetic, 400 queries, seed 7, algorithm `general`), so a load
    /// run exercises the same solve CI gates on, plus two lighter
    /// variants for per-request diversity.
    pub fn pinned() -> RequestMix {
        RequestMix {
            entries: vec![
                MixEntry {
                    kind: GeneratorKind::Synthetic,
                    queries: 400,
                    seed: 7,
                    algorithm: "general".to_owned(),
                    weight: 1,
                },
                MixEntry {
                    kind: GeneratorKind::SyntheticShort,
                    queries: 200,
                    seed: 7,
                    algorithm: "auto".to_owned(),
                    weight: 2,
                },
                MixEntry {
                    kind: GeneratorKind::Synthetic,
                    queries: 100,
                    seed: 11,
                    algorithm: "auto".to_owned(),
                    weight: 1,
                },
            ],
        }
    }

    /// Parses a `--mix` spec: comma-separated
    /// `kind:queries:seed[:algorithm][xWEIGHT]` entries (algorithm
    /// defaults to `auto`, weight to 1).
    pub fn parse(spec: &str) -> Result<RequestMix, String> {
        let mut entries = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (body, weight) = match part.rsplit_once('x') {
                Some((b, w)) if w.chars().all(|c| c.is_ascii_digit()) && !w.is_empty() => {
                    let weight: u32 = w
                        .parse()
                        .map_err(|_| format!("mix entry '{part}': bad weight '{w}'"))?;
                    if weight == 0 {
                        return Err(format!("mix entry '{part}': weight must be >= 1"));
                    }
                    (b, weight)
                }
                _ => (part, 1),
            };
            let fields: Vec<&str> = body.split(':').collect();
            if fields.len() < 3 || fields.len() > 4 {
                return Err(format!(
                    "mix entry '{part}': expected kind:queries:seed[:algorithm][xWEIGHT]"
                ));
            }
            let kind = GeneratorKind::parse(fields[0])?;
            let queries: usize = fields[1]
                .parse()
                .map_err(|_| format!("mix entry '{part}': bad query count '{}'", fields[1]))?;
            let seed: u64 = fields[2]
                .parse()
                .map_err(|_| format!("mix entry '{part}': bad seed '{}'", fields[2]))?;
            let algorithm = fields.get(3).copied().unwrap_or("auto").to_owned();
            entries.push(MixEntry {
                kind,
                queries,
                seed,
                algorithm,
                weight,
            });
        }
        if entries.is_empty() {
            return Err("mix spec has no entries".to_owned());
        }
        Ok(RequestMix { entries })
    }

    /// The entries, in rotation order.
    pub fn entries(&self) -> &[MixEntry] {
        &self.entries
    }

    /// Sum of entry weights (the rotation period).
    pub fn total_weight(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.weight)).sum()
    }

    /// The index into [`entries`](RequestMix::entries) that request
    /// number `i` maps to: a weighted round-robin over the rotation
    /// period. Pure arithmetic on `i`, so concurrent load workers can pick
    /// entries independently and the whole run is reproducible. `None`
    /// only for an empty mix (unreachable through
    /// [`parse`](RequestMix::parse) / [`pinned`](RequestMix::pinned)).
    pub fn entry_index(&self, i: u64) -> Option<usize> {
        let period = self.total_weight();
        if period == 0 {
            return None;
        }
        let mut slot = i % period;
        for (idx, entry) in self.entries.iter().enumerate() {
            let w = u64::from(entry.weight);
            if slot < w {
                return Some(idx);
            }
            slot -= w;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_mix_leads_with_the_bench_gate_workload() {
        let mix = RequestMix::pinned();
        let first = &mix.entries()[0];
        // Must match BENCH_baseline.json's workload block exactly.
        assert_eq!(first.kind, GeneratorKind::Synthetic);
        assert_eq!(first.queries, 400);
        assert_eq!(first.seed, 7);
        assert_eq!(first.algorithm, "general");
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            GeneratorKind::Synthetic,
            GeneratorKind::SyntheticShort,
            GeneratorKind::BestBuy,
            GeneratorKind::Private,
            GeneratorKind::PrivateFashion,
            GeneratorKind::DuplicateHeavy,
        ] {
            assert_eq!(GeneratorKind::parse(kind.name()), Ok(kind));
        }
        assert!(GeneratorKind::parse("nope").is_err());
    }

    #[test]
    fn duplicate_heavy_recycles_shapes_across_seeds() {
        let a = generate_dataset(GeneratorKind::DuplicateHeavy, 60, 1);
        let b = generate_dataset(GeneratorKind::DuplicateHeavy, 60, 2);
        assert_eq!(a.instance.num_queries(), 60);
        assert_eq!(b.instance.num_queries(), 60);
        // Deterministic per spec.
        let a2 = generate_dataset(GeneratorKind::DuplicateHeavy, 60, 1);
        assert_eq!(a.instance.queries(), a2.instance.queries());
        // Different seeds produce different query loads built from the
        // same shape pool: normalize each query to its local (rebased)
        // spelling and the vocabularies coincide.
        assert_ne!(a.instance.queries(), b.instance.queries());
        let local_shapes = |ds: &crate::Dataset| {
            ds.instance
                .queries()
                .iter()
                .map(|q| {
                    let ids = q.ids();
                    let lo = ids.first().copied().map_or(0, |p| p.0);
                    ids.iter().map(|p| p.0 - lo).collect::<Vec<u32>>()
                })
                .collect::<std::collections::BTreeSet<Vec<u32>>>()
        };
        let pool: std::collections::BTreeSet<Vec<u32>> = DUPLICATE_SHAPES
            .iter()
            .flat_map(|shape| {
                shape.iter().map(|q| {
                    let lo = q.iter().copied().min().unwrap_or(0);
                    q.iter().map(|p| p - lo).collect::<Vec<u32>>()
                })
            })
            .collect();
        assert!(local_shapes(&a).is_subset(&pool));
        assert!(local_shapes(&b).is_subset(&pool));
    }

    #[test]
    fn mix_spec_round_trips() {
        let mix = RequestMix::parse("synthetic:400:7:generalx2,synthetic-short:100:3").unwrap();
        assert_eq!(mix.entries().len(), 2);
        assert_eq!(mix.entries()[0].weight, 2);
        assert_eq!(mix.entries()[0].algorithm, "general");
        assert_eq!(mix.entries()[1].weight, 1);
        assert_eq!(mix.entries()[1].algorithm, "auto");
        let rejoined: Vec<String> = mix.entries().iter().map(MixEntry::spec).collect();
        let back = RequestMix::parse(&rejoined.join(",")).unwrap();
        assert_eq!(back, mix);
    }

    #[test]
    fn mix_parse_rejects_malformed_entries() {
        assert!(RequestMix::parse("").is_err());
        assert!(RequestMix::parse("synthetic:400").is_err());
        assert!(RequestMix::parse("synthetic:x:7").is_err());
        assert!(RequestMix::parse("synthetic:400:7x0").is_err());
        assert!(RequestMix::parse("wat:400:7").is_err());
    }

    #[test]
    fn entry_rotation_honors_weights_deterministically() {
        let mix = RequestMix::parse("synthetic:10:1x2,synthetic-short:20:2").unwrap();
        let picks: Vec<usize> = (0..6u64)
            .map(|i| mix.entry_index(i).expect("non-empty mix"))
            .collect();
        // Period 3: two heavy picks (entry 0) then one light (entry 1),
        // repeating.
        assert_eq!(picks, vec![0, 0, 1, 0, 0, 1]);
        // Same index, same entry — always.
        assert_eq!(mix.entry_index(4), mix.entry_index(1));
    }

    #[test]
    fn generated_datasets_are_deterministic_per_spec() {
        let a = generate_dataset(GeneratorKind::Synthetic, 50, 7);
        let b = generate_dataset(GeneratorKind::Synthetic, 50, 7);
        assert_eq!(a.instance.num_queries(), b.instance.num_queries());
        assert_eq!(a.instance.num_properties(), b.instance.num_properties());
        let c = generate_dataset(GeneratorKind::SyntheticShort, 50, 7);
        assert!(c.instance.max_query_len() <= 2);
    }
}
