//! Instance generators shared by the solver's integration tests.

use mc3_core::rng::prelude::*;
use mc3_core::{Instance, Weight, Weights};

/// Properties per replicated copy.
const STRIDE: u32 = 6;

/// One seeded component shape replicated `copies` times on disjoint
/// property ranges (`p`, `p + 6`, `p + 12`, …), with weights that depend
/// only on each property's offset within its range. Every copy is
/// therefore isomorphic to the first, so a cached solve answers the
/// later copies from the entry the first one inserted. Queries have
/// length 1–4, so Short-First has both short and long queries to work
/// on.
pub fn replicated_instance(seed: u64, copies: u32) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491).wrapping_add(11));
    let shape: Vec<Vec<u32>> = (0..rng.gen_range(2..=5usize))
        .map(|_| {
            let mut q: Vec<u32> = (0..STRIDE).collect();
            q.shuffle(&mut rng);
            q.truncate(rng.gen_range(1..=4usize));
            q.sort_unstable();
            q
        })
        .collect();
    let queries: Vec<Vec<u32>> = (0..copies)
        .flat_map(|c| {
            shape
                .iter()
                .map(move |q| q.iter().map(|&p| c * STRIDE + p).collect())
        })
        .collect();
    let weights = Weights::custom(move |classifier| {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for p in classifier.iter() {
            h = (h ^ u64::from(p.0 % STRIDE)).wrapping_mul(0x0100_0000_01B3);
        }
        Weight::new(1 + (h >> 33) % 25)
    });
    Instance::new(queries, weights).expect("valid instance")
}
