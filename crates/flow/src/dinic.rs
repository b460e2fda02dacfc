//! Dinic's max-flow algorithm (Dinic 1970, the paper's reference \[10\]).
//!
//! Level-graph BFS phases plus DFS blocking flows with per-node arc
//! pointers. On the bipartite unit-ish networks produced by the WVC
//! reduction this is the algorithm the paper found fastest (§6.1); its
//! general bound is `O(V²E)`, improving to `O(E√V)` on unit networks.

use crate::graph::{FlowNetwork, NodeId};
use mc3_core::u32_of;

/// Dinic max-flow solver state over a [`FlowNetwork`].
///
/// # Example
///
/// ```
/// use mc3_flow::{Dinic, FlowNetwork};
///
/// let mut g = FlowNetwork::new(4);
/// g.add_edge(0, 1, 3);
/// g.add_edge(0, 2, 2);
/// g.add_edge(1, 3, 2);
/// g.add_edge(2, 3, 3);
/// g.add_edge(1, 2, 1);
/// let flow = Dinic::new(&mut g).max_flow(0, 3);
/// assert_eq!(flow, 5);
/// ```
pub struct Dinic<'a> {
    g: &'a mut FlowNetwork,
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: Vec<u32>,
    path: Vec<usize>,
}

impl<'a> Dinic<'a> {
    /// Prepares solver state for `g`.
    pub fn new(g: &'a mut FlowNetwork) -> Dinic<'a> {
        let n = g.num_nodes();
        Dinic {
            g,
            level: vec![-1; n],
            iter: vec![0; n],
            queue: Vec::with_capacity(n),
            // DFS path stack: a simple path visits each node at most once
            path: Vec::with_capacity(n),
        }
    }

    /// Computes the maximum `s → t` flow, leaving the network in its final
    /// residual state (for min-cut extraction).
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        let span = mc3_telemetry::span("dinic.max_flow");
        let mut flow: u64 = 0;
        let mut phases = 0u64;
        let mut paths = 0u64;
        let mut visits = 0u64;
        while self.bfs(s, t) {
            phases += 1;
            visits += self.queue.len() as u64;
            self.iter.iter_mut().for_each(|i| *i = 0);
            let (f, p) = self.blocking_flow(s, t);
            flow += f;
            paths += p;
        }
        mc3_telemetry::span_add(mc3_telemetry::Counter::DinicPhases, phases);
        mc3_telemetry::span_add(mc3_telemetry::Counter::DinicAugmentingPaths, paths);
        mc3_telemetry::span_add(mc3_telemetry::Counter::DinicBfsVisits, visits);
        // Closed before the certificate check, so `verify.max_flow` sits
        // beside the kernel span and the kernel's tallies stay its own.
        drop(span);
        #[cfg(feature = "verify")]
        {
            let _vspan = mc3_telemetry::span("verify.max_flow");
            crate::verify::assert_max_flow(self.g, s, t, flow);
            mc3_telemetry::span_add(mc3_telemetry::Counter::VerifyFlowChecks, 1);
        }
        flow
    }

    /// Sends a blocking flow through the current level graph with an
    /// explicit path stack (no recursion — safe on arbitrarily deep
    /// networks). Returns `(flow, augmenting paths)`.
    fn blocking_flow(&mut self, s: NodeId, t: NodeId) -> (u64, u64) {
        let mut total = 0u64;
        let mut paths = 0u64;
        self.path.clear(); // edge ids along the path; buffer reused across phases
        let mut v = s;
        loop {
            if v == t {
                // augment by the bottleneck, then retreat to the tail of
                // the first saturated edge and keep searching from there
                let delta = self
                    .path
                    .iter()
                    .map(|&ei| self.g.edges[ei].cap)
                    .min()
                    // audit:allow(no-unwrap-in-lib) v == t and s != t, so the DFS path is non-empty
                    .expect("path to t is non-empty");
                for &ei in &self.path {
                    self.g.edges[ei].cap -= delta;
                    self.g.edges[ei ^ 1].cap += delta;
                }
                total += delta;
                paths += 1;
                let first_sat = self
                    .path
                    .iter()
                    .position(|&ei| self.g.edges[ei].cap == 0)
                    // audit:allow(no-unwrap-in-lib) delta is the path minimum, so some edge hit zero
                    .expect("the bottleneck edge is saturated");
                v = if first_sat == 0 {
                    s
                } else {
                    self.g.edges[self.path[first_sat - 1]].to as usize
                };
                self.path.truncate(first_sat);
                continue;
            }
            if self.iter[v] < self.g.adj[v].len() {
                let ei = self.g.adj[v][self.iter[v]] as usize;
                let (to, cap) = {
                    let e = &self.g.edges[ei];
                    (e.to as usize, e.cap)
                };
                if cap > 0 && self.level[v] < self.level[to] {
                    // audit:allow(no-alloc-in-hot-loops) reviewed: push into the preallocated DFS path stack (capacity = node count, a simple path never exceeds it)
                    self.path.push(ei);
                    v = to;
                } else {
                    self.iter[v] += 1;
                }
            } else {
                // dead end: retreat
                if v == s {
                    return (total, paths);
                }
                // audit:allow(no-unwrap-in-lib) v != s here, so the path stack is non-empty
                let ei = self.path.pop().expect("dead end has a parent edge");
                let parent = self.g.edges[ei ^ 1].to as usize;
                self.iter[parent] += 1;
                v = parent;
            }
        }
    }

    /// Builds the level graph; returns whether `t` is reachable.
    fn bfs(&mut self, s: NodeId, t: NodeId) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(u32_of(s));
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            for &ei in &self.g.adj[v] {
                let e = &self.g.edges[ei as usize];
                if e.cap > 0 && self.level[e.to as usize] < 0 {
                    self.level[e.to as usize] = self.level[v] + 1;
                    // audit:allow(no-alloc-in-hot-loops) reviewed: reused BFS queue member buffer, cleared not freed per phase
                    self.queue.push(e.to);
                }
            }
        }
        self.level[t] >= 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 7);
        assert_eq!(Dinic::new(&mut g).max_flow(0, 1), 7);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 5);
        assert_eq!(Dinic::new(&mut g).max_flow(0, 2), 0);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS figure: max flow 23
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
        assert_eq!(Dinic::new(&mut g).max_flow(0, 5), 23);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 3);
        g.add_edge(0, 1, 4);
        assert_eq!(Dinic::new(&mut g).max_flow(0, 1), 7);
    }

    #[test]
    fn bipartite_unit_network_equals_matching() {
        // L = {1,2,3}, R = {4,5,6}; perfect matching exists
        let mut g = FlowNetwork::new(8);
        let (s, t) = (0, 7);
        for l in 1..=3 {
            g.add_edge(s, l, 1);
        }
        for r in 4..=6 {
            g.add_edge(r, t, 1);
        }
        g.add_edge(1, 4, 1);
        g.add_edge(1, 5, 1);
        g.add_edge(2, 4, 1);
        g.add_edge(3, 6, 1);
        assert_eq!(Dinic::new(&mut g).max_flow(s, t), 3);
    }

    #[test]
    fn flow_conservation_holds() {
        let mut g = FlowNetwork::new(5);
        let edges = [
            (0usize, 1usize, 10u64),
            (0, 2, 10),
            (1, 3, 4),
            (1, 2, 2),
            (2, 3, 9),
            (3, 4, 10),
            (2, 4, 2),
        ];
        let ids: Vec<_> = edges
            .iter()
            .map(|&(u, v, c)| (g.add_edge(u, v, c), u, v))
            .collect();
        let total = Dinic::new(&mut g).max_flow(0, 4);
        assert_eq!(total, 12);
        // net flow at internal nodes is zero
        for node in 1..=3usize {
            let mut net: i128 = 0;
            for &(e, u, v) in &ids {
                let f = g.flow(e) as i128;
                if v == node {
                    net += f;
                }
                if u == node {
                    net -= f;
                }
            }
            assert_eq!(net, 0, "conservation violated at node {node}");
        }
    }

    #[test]
    fn very_deep_chain_does_not_overflow_the_stack() {
        // 200k-node path — the old recursive DFS would blow the stack here
        let n = 200_000;
        let mut g = FlowNetwork::new(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1, 3);
        }
        assert_eq!(Dinic::new(&mut g).max_flow(0, n - 1), 3);
    }

    #[test]
    fn multiple_augmenting_paths_in_one_phase() {
        // two disjoint 2-hop paths; blocking flow must find both in phase 1
        let mut g = FlowNetwork::new(6);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 5, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 5, 1);
        assert_eq!(Dinic::new(&mut g).max_flow(0, 5), 2);
    }

    #[test]
    fn large_capacities_do_not_overflow() {
        let big = u64::MAX / 4;
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, big);
        g.add_edge(1, 2, big);
        assert_eq!(Dinic::new(&mut g).max_flow(0, 2), big);
    }
}
