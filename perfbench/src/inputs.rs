//! Seed-determined workload inputs.
//!
//! The program sees only the generated datasets (as JSON bodies); the
//! seed stays with the benchmark. Input counts scale with `--seconds` and
//! nothing else, so cache occupancy, peak memory and `cost_total` depend
//! on the seed and the run length, never on how fast the build is.

use mc3_workload::{generate_dataset, write_dataset_json, Dataset, GeneratorKind, SyntheticConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `Mc3Solver` solves of synthetic §6.1 instances.
    SolveGeneral,
    /// `mc3 serve`, distinct private-like bodies (the cache-miss path).
    ServeCold,
    /// `mc3 serve`, BestBuy-like bodies each sent three times.
    ServeRepeat,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "solve-general" => Some(Workload::SolveGeneral),
            "serve-cold" => Some(Workload::ServeCold),
            "serve-repeat" => Some(Workload::ServeRepeat),
            _ => None,
        }
    }
}

/// Regular synthetic instances one solve-general run rotates through.
const ROTATION: usize = 24;
/// Queries and fixed property pool of a regular instance (the generator
/// otherwise draws the pool size per seed): every instance is one
/// component of similar size.
const SYNTHETIC: (usize, usize) = (2000, 500);
/// Large instances, and their queries and pool: about 3.5× a regular
/// solve.
const LARGE: usize = 3;
const LARGE_SYNTHETIC: (usize, usize) = (6000, 1500);
/// Every `LARGE_EVERY`-th solve is a large instance. At 10% of the solves,
/// p95 falls in the middle of the large solves, so a few slow seconds of
/// the machine cannot move it the way they move the edge of a thin tail.
const LARGE_EVERY: usize = 10;
/// Longest query. §6.1 uses 10; at 2000 queries the few length-10
/// queries (2^10 classifiers each) make instance sizes swing by ±30%
/// between seeds, at 8 by about ±8%.
const SYNTHETIC_MAX_LEN: usize = 8;
/// Timed solves per second of `--seconds`.
const SOLVES_PER_SECOND: usize = 24;

/// Queries per serve-cold body (private-like, ~43 KB of JSON).
const COLD_QUERIES: usize = 1000;
/// Distinct serve-cold bodies per second of `--seconds`. Two connections
/// get through about 5 bodies a second on a 2-vCPU machine, so a run takes
/// about 2.5 times `--seconds`. p95 needs 200 samples for ten to lie
/// beyond it; the 40 more steady the median, which moves with the seed.
const COLD_BODIES_PER_SECOND: usize = 12;

/// Queries per serve-repeat body (BestBuy-like, ~65 KB of JSON).
const REPEAT_QUERIES: usize = 2000;
/// Distinct serve-repeat bodies per second of `--seconds`.
const REPEAT_BODIES_PER_SECOND: usize = 24;
/// How often each serve-repeat body is sent.
const REPEAT_SENDS: usize = 3;
/// Positions between consecutive sends of one serve-repeat body.
const REPEAT_LAG: usize = 4;

/// Warm-up bodies sent before the timed window (not in the sequence).
/// They do not depend on the seed, so every run sets up the same way.
const WARMUP_BODIES: usize = 2;
/// Seed of the warm-up inputs.
const WARMUP_SEED: u64 = 0;

/// One workload's inputs.
pub struct Inputs {
    /// The fixed input set: every distinct dataset the run solves.
    pub datasets: Vec<Dataset>,
    /// `datasets[i]` as a JSON document (the "file" or request body).
    pub bodies: Vec<Vec<u8>>,
    /// Operation `k` solves `datasets[sequence[k]]`.
    pub sequence: Vec<usize>,
    /// Warm-up datasets as JSON, disjoint from `datasets`.
    pub warmup: Vec<Vec<u8>>,
}

/// SplitMix64 step: decorrelates derived seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn derive(seed: u64, stream: u64, i: usize) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ i as u64)
}

fn json(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_dataset_json(ds, &mut out).expect("writing JSON into a Vec cannot fail");
    out
}

fn synthetic(seed: u64, (queries, pool): (usize, usize)) -> Dataset {
    let mut cfg = SyntheticConfig::with_queries(queries).seed(seed);
    cfg.pool_size = Some(pool);
    cfg.max_len = SYNTHETIC_MAX_LEN;
    cfg.generate()
}

/// Repeat schedule: each body is sent `REPEAT_SENDS` times,
/// `REPEAT_LAG` positions apart, interleaved with later bodies' sends.
fn repeat_sequence(n: usize) -> Vec<usize> {
    let mut seq = Vec::with_capacity(n * REPEAT_SENDS);
    for pos in 0..n + (REPEAT_SENDS - 1) * REPEAT_LAG {
        for send in 0..REPEAT_SENDS {
            if let Some(b) = pos.checked_sub(send * REPEAT_LAG).filter(|&b| b < n) {
                seq.push(b);
            }
        }
    }
    seq
}

/// Generates the inputs of `workload` for `seed` and a `seconds`-long run.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let secs = seconds.max(1) as usize;
    let (datasets, sequence, warmup): (Vec<Dataset>, Vec<usize>, Vec<Dataset>) = match workload {
        Workload::SolveGeneral => (
            (0..ROTATION)
                .map(|i| synthetic(derive(seed, 1, i), SYNTHETIC))
                .chain((0..LARGE).map(|i| synthetic(derive(seed, 7, i), LARGE_SYNTHETIC)))
                .collect(),
            (0..secs * SOLVES_PER_SECOND)
                .map(|k| {
                    let j = k / LARGE_EVERY;
                    if k % LARGE_EVERY == LARGE_EVERY - 1 {
                        ROTATION + j % LARGE
                    } else {
                        (k - j) % ROTATION
                    }
                })
                .collect(),
            vec![synthetic(derive(WARMUP_SEED, 2, 0), SYNTHETIC)],
        ),
        Workload::ServeCold => {
            let n = secs * COLD_BODIES_PER_SECOND;
            let gen = |seed, stream, i| {
                generate_dataset(
                    GeneratorKind::Private,
                    COLD_QUERIES,
                    derive(seed, stream, i),
                )
            };
            (
                (0..n).map(|i| gen(seed, 3, i)).collect(),
                (0..n).collect(),
                (0..WARMUP_BODIES).map(|i| gen(WARMUP_SEED, 4, i)).collect(),
            )
        }
        Workload::ServeRepeat => {
            let n = secs * REPEAT_BODIES_PER_SECOND;
            let gen = |seed, stream, i| {
                generate_dataset(
                    GeneratorKind::BestBuy,
                    REPEAT_QUERIES,
                    derive(seed, stream, i),
                )
            };
            (
                (0..n).map(|i| gen(seed, 5, i)).collect(),
                repeat_sequence(n),
                (0..WARMUP_BODIES).map(|i| gen(WARMUP_SEED, 6, i)).collect(),
            )
        }
    };
    Inputs {
        bodies: datasets.iter().map(json).collect(),
        warmup: warmup.iter().map(json).collect(),
        datasets,
        sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_sequence_sends_each_body_three_times_in_order() {
        let seq = repeat_sequence(10);
        assert_eq!(seq.len(), 30);
        for b in 0..10 {
            let pos: Vec<usize> = (0..seq.len()).filter(|&i| seq[i] == b).collect();
            assert_eq!(pos.len(), REPEAT_SENDS);
            assert!(pos.windows(2).all(|w| w[1] - w[0] >= REPEAT_LAG));
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(derive(7, 3, 1), derive(7, 3, 1));
        let all: std::collections::BTreeSet<u64> = (0..1000).map(|i| derive(7, 3, i)).collect();
        assert_eq!(all.len(), 1000);
        assert_ne!(derive(7, 3, 0), derive(8, 3, 0));
        assert_ne!(derive(7, 3, 0), derive(7, 4, 0));
    }
}
