//! FIFO push–relabel max-flow with the gap heuristic.
//!
//! The paper's experimental study evaluated several max-flow algorithms on
//! the bipartite WVC networks (citing the bipartite-optimized variants of
//! Ahuja–Orlin–Stein–Tarjan \[1\]) before settling on Dinic \[10\]. This
//! second implementation reproduces that comparison (`ablation-flow`
//! benchmarks) and doubles as a correctness cross-check: both algorithms
//! must agree on every instance.

use crate::graph::{FlowNetwork, NodeId};
use mc3_core::u32_of;
use std::collections::VecDeque;

/// FIFO push–relabel solver over a [`FlowNetwork`].
pub struct PushRelabel<'a> {
    g: &'a mut FlowNetwork,
    excess: Vec<u64>,
    height: Vec<u32>,
    /// number of nodes at each height (gap heuristic)
    height_count: Vec<u32>,
    active: VecDeque<u32>,
    in_queue: Vec<bool>,
    pushes: u64,
    relabels: u64,
    gap_firings: u64,
}

impl<'a> PushRelabel<'a> {
    /// Prepares solver state for `g`.
    pub fn new(g: &'a mut FlowNetwork) -> PushRelabel<'a> {
        let n = g.num_nodes();
        PushRelabel {
            g,
            excess: vec![0; n],
            height: vec![0; n],
            height_count: vec![0; 2 * n + 1],
            active: VecDeque::new(),
            in_queue: vec![false; n],
            pushes: 0,
            relabels: 0,
            gap_firings: 0,
        }
    }

    /// Computes the maximum `s → t` flow, leaving the network in a residual
    /// state consistent with it (min-cut extraction works as usual).
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        let span = mc3_telemetry::span("push_relabel.max_flow");
        let n = self.g.num_nodes();
        self.height[s] = u32_of(n);
        for h in self.height.iter() {
            self.height_count[*h as usize] += 1;
        }

        // saturate all source arcs
        for i in 0..self.g.adj[s].len() {
            let ei = self.g.adj[s][i] as usize;
            let cap = self.g.edges[ei].cap;
            if cap > 0 {
                let to = self.g.edges[ei].to as usize;
                self.g.edges[ei].cap = 0;
                self.g.edges[ei ^ 1].cap += cap;
                self.excess[to] += cap;
                if to != t && to != s && !self.in_queue[to] {
                    self.in_queue[to] = true;
                    self.active.push_back(u32_of(to));
                }
            }
        }

        while let Some(v) = self.active.pop_front() {
            let v = v as usize;
            self.in_queue[v] = false;
            self.discharge(v, s, t);
        }
        mc3_telemetry::span_add(mc3_telemetry::Counter::PrPushes, self.pushes);
        mc3_telemetry::span_add(mc3_telemetry::Counter::PrRelabels, self.relabels);
        mc3_telemetry::span_add(mc3_telemetry::Counter::PrGapFirings, self.gap_firings);
        // Closed before the certificate check, so `verify.max_flow` sits
        // beside the kernel span and the kernel's tallies stay its own.
        drop(span);
        #[cfg(feature = "verify")]
        {
            let _vspan = mc3_telemetry::span("verify.max_flow");
            crate::verify::assert_max_flow(self.g, s, t, self.excess[t]);
            mc3_telemetry::span_add(mc3_telemetry::Counter::VerifyFlowChecks, 1);
        }
        self.excess[t]
    }

    fn discharge(&mut self, v: usize, s: NodeId, t: NodeId) {
        while self.excess[v] > 0 {
            let mut pushed = false;
            for i in 0..self.g.adj[v].len() {
                if self.excess[v] == 0 {
                    break;
                }
                let ei = self.g.adj[v][i] as usize;
                let cap = self.g.edges[ei].cap;
                let to = self.g.edges[ei].to as usize;
                if cap > 0 && self.height[v] == self.height[to] + 1 {
                    let delta = cap.min(self.excess[v]);
                    self.g.edges[ei].cap -= delta;
                    self.g.edges[ei ^ 1].cap += delta;
                    self.excess[v] -= delta;
                    self.excess[to] += delta;
                    if to != s && to != t && !self.in_queue[to] {
                        self.in_queue[to] = true;
                        self.active.push_back(u32_of(to));
                    }
                    self.pushes += 1;
                    pushed = true;
                }
            }
            if self.excess[v] == 0 {
                break;
            }
            if !pushed {
                // relabel v to 1 + min reachable height
                let old = self.height[v];
                let mut min_h = u32::MAX;
                for &ei in &self.g.adj[v] {
                    let e = &self.g.edges[ei as usize];
                    if e.cap > 0 {
                        min_h = min_h.min(self.height[e.to as usize]);
                    }
                }
                if min_h == u32::MAX {
                    // no residual arcs: excess is stuck (can only happen for
                    // disconnected nodes); drop it
                    break;
                }
                let new = min_h + 1;
                // gap heuristic: if v was the last node at height `old`,
                // everything strictly above `old` (below n) is unreachable
                // from t and can jump past n
                self.relabels += 1;
                self.height_count[old as usize] -= 1;
                if self.height_count[old as usize] == 0 && (old as usize) < self.g.num_nodes() {
                    self.gap_firings += 1;
                    let n = u32_of(self.g.num_nodes());
                    for h in self.height.iter_mut() {
                        if *h > old && *h < n {
                            self.height_count[*h as usize] -= 1;
                            *h = n + 1;
                            self.height_count[(n + 1) as usize] += 1;
                        }
                    }
                }
                self.height[v] = new;
                self.height_count[new as usize] += 1;
                if new as usize >= 2 * self.g.num_nodes() {
                    break; // cannot push further; excess stays at v
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;
    use mc3_core::rng::prelude::*;

    #[test]
    fn classic_network_matches_dinic() {
        let build = || {
            let mut g = FlowNetwork::new(6);
            g.add_edge(0, 1, 16);
            g.add_edge(0, 2, 13);
            g.add_edge(1, 2, 10);
            g.add_edge(2, 1, 4);
            g.add_edge(1, 3, 12);
            g.add_edge(3, 2, 9);
            g.add_edge(2, 4, 14);
            g.add_edge(4, 3, 7);
            g.add_edge(3, 5, 20);
            g.add_edge(4, 5, 4);
            g
        };
        let mut g1 = build();
        let mut g2 = build();
        assert_eq!(PushRelabel::new(&mut g1).max_flow(0, 5), 23);
        assert_eq!(Dinic::new(&mut g2).max_flow(0, 5), 23);
    }

    #[test]
    fn single_edge_and_disconnected() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 9);
        assert_eq!(PushRelabel::new(&mut g).max_flow(0, 1), 9);
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 9);
        assert_eq!(PushRelabel::new(&mut g).max_flow(0, 2), 0);
    }

    #[test]
    fn agrees_with_dinic_on_random_networks() {
        let mut rng = StdRng::seed_from_u64(0xF10);
        for round in 0..100 {
            let n = rng.gen_range(2..=12usize);
            let m = rng.gen_range(1..=30usize);
            let edges: Vec<(usize, usize, u64)> = (0..m)
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(0..20u64),
                    )
                })
                .filter(|&(u, v, _)| u != v)
                .collect();
            let s = 0;
            let t = n - 1;
            let mut g1 = FlowNetwork::new(n);
            let mut g2 = FlowNetwork::new(n);
            for &(u, v, c) in &edges {
                g1.add_edge(u, v, c);
                g2.add_edge(u, v, c);
            }
            let f1 = PushRelabel::new(&mut g1).max_flow(s, t);
            let f2 = Dinic::new(&mut g2).max_flow(s, t);
            assert_eq!(f1, f2, "round {round}: {edges:?}");
            // the residual state must support min-cut extraction: the
            // capacity crossing the source side equals the flow value
            let z = crate::mincut::source_side_of_min_cut(&g1, s);
            assert!(!z[t], "sink reachable after max flow");
            let cut: u64 = edges
                .iter()
                .filter(|&&(u, v, _)| z[u] && !z[v])
                .map(|&(_, _, c)| c)
                .sum();
            assert_eq!(cut, f1, "round {round}: cut/flow mismatch");
        }
    }

    #[test]
    fn residual_supports_min_cut_extraction() {
        use crate::mincut::source_side_of_min_cut;
        let mut g = FlowNetwork::new(4);
        let ids = [
            (g.add_edge(0, 1, 3), 0usize, 1usize, 3u64),
            (g.add_edge(0, 2, 2), 0, 2, 2),
            (g.add_edge(1, 3, 2), 1, 3, 2),
            (g.add_edge(2, 3, 3), 2, 3, 3),
        ];
        let f = PushRelabel::new(&mut g).max_flow(0, 3);
        assert_eq!(f, 4);
        let z = source_side_of_min_cut(&g, 0);
        let cut: u64 = ids
            .iter()
            .filter(|&&(_, u, v, _)| z[u] && !z[v])
            .map(|&(_, _, _, c)| c)
            .sum();
        assert_eq!(cut, f);
        assert!(z[0] && !z[3]);
    }

    #[test]
    fn bipartite_wvc_shaped_network() {
        // the exact network shape Algorithm 2 builds
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let nl = rng.gen_range(1..=6usize);
            let nr = rng.gen_range(1..=6usize);
            let mut g1 = FlowNetwork::new(nl + nr + 2);
            let mut g2 = FlowNetwork::new(nl + nr + 2);
            let (s, t) = (0, nl + nr + 1);
            for l in 0..nl {
                let c = rng.gen_range(1..30u64);
                g1.add_edge(s, 1 + l, c);
                g2.add_edge(s, 1 + l, c);
            }
            for r in 0..nr {
                let c = rng.gen_range(1..30u64);
                g1.add_edge(1 + nl + r, t, c);
                g2.add_edge(1 + nl + r, t, c);
            }
            for l in 0..nl {
                for r in 0..nr {
                    if rng.gen_bool(0.4) {
                        g1.add_edge(1 + l, 1 + nl + r, 1_000_000);
                        g2.add_edge(1 + l, 1 + nl + r, 1_000_000);
                    }
                }
            }
            assert_eq!(
                PushRelabel::new(&mut g1).max_flow(s, t),
                Dinic::new(&mut g2).max_flow(s, t)
            );
        }
    }
}
