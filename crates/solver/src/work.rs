//! Mutable working state shared by the preprocessing pipeline (Algorithm 1)
//! and the solvers built on top of it.
//!
//! Tracks, per classifier: the *current* weight (selection zeroes it), the
//! *effective* weight (Step 3 replaces removed classifiers by their cheapest
//! decomposition cost), removal and selection flags; and per query: liveness
//! and the bitmask of properties already covered by selected classifiers.
//!
//! A CSR occurrence index maps every classifier to the `(query, local mask)`
//! pairs it appears in, so selections propagate coverage in time linear in
//! the classifier's total incidence.

use mc3_core::u32_of;
use mc3_core::{ClassifierId, ClassifierUniverse, Instance, Weight};

/// Mutable solver state over an instance and its classifier universe.
#[derive(Debug, Clone)]
pub struct WorkState<'a> {
    /// The underlying instance.
    pub instance: &'a Instance,
    /// Its (possibly length-bounded) classifier universe.
    pub universe: ClassifierUniverse,
    // CSR: occurrences of classifier c are occ_q/occ_mask[occ_off[c] .. occ_off[c+1]]
    occ_off: Vec<u32>,
    occ_q: Vec<u32>,
    occ_mask: Vec<u32>,
    /// Current weight per classifier (0 once selected).
    pub weight: Vec<Weight>,
    /// Effective weight per classifier: current weight if available, else
    /// the cost of its cheapest decomposition (Step 3 bookkeeping).
    pub eff: Vec<Weight>,
    /// Classifiers removed by pruning (never selectable afterwards).
    pub removed: Vec<bool>,
    /// Classifiers committed to the solution.
    pub selected: Vec<bool>,
    selected_list: Vec<ClassifierId>,
    /// Total weight of selected classifiers, accumulated at selection time.
    pub base_cost: Weight,
    /// Query liveness (false once fully covered).
    pub alive: Vec<bool>,
    /// Per query: bitmask of properties covered by selected classifiers.
    pub covered: Vec<u32>,
    /// Number of alive queries a classifier still appears in.
    pub relevant_count: Vec<u32>,
    alive_queries: usize,
}

impl<'a> WorkState<'a> {
    /// Builds the working state, including the occurrence index.
    pub fn new(instance: &'a Instance, universe: ClassifierUniverse) -> WorkState<'a> {
        let m = universe.len();
        let nq = instance.num_queries();

        // Count occurrences per classifier, then fill CSR.
        let mut counts = vec![0u32; m];
        for &id in universe.mask_tables() {
            if !id.is_none() {
                counts[id.index()] += 1;
            }
        }
        let mut occ_off = vec![0u32; m + 1];
        for c in 0..m {
            occ_off[c + 1] = occ_off[c] + counts[c];
        }
        let total = occ_off[m] as usize;
        let mut occ_q = vec![0u32; total];
        let mut occ_mask = vec![0u32; total];
        let mut cursor = occ_off.clone();
        for qi in 0..nq {
            let local = universe.query_local(qi);
            for (mask, &id) in local.table.iter().enumerate() {
                if !id.is_none() {
                    let slot = cursor[id.index()] as usize;
                    occ_q[slot] = u32_of(qi);
                    occ_mask[slot] = u32_of(mask);
                    cursor[id.index()] += 1;
                }
            }
        }

        let weight = universe.weights().to_vec();
        let eff = weight.clone();
        WorkState {
            instance,
            universe,
            occ_off,
            occ_q,
            occ_mask,
            weight,
            eff,
            removed: vec![false; m],
            selected: vec![false; m],
            selected_list: Vec::new(),
            base_cost: Weight::ZERO,
            alive: vec![true; nq],
            covered: vec![0; nq],
            relevant_count: counts,
            alive_queries: nq,
        }
    }

    /// The `(query, local mask)` occurrences of classifier `c`.
    #[inline]
    pub fn occurrences(&self, c: ClassifierId) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.occ_off[c.index()] as usize;
        let hi = self.occ_off[c.index() + 1] as usize;
        self.occ_q[lo..hi]
            .iter()
            .copied()
            .zip(self.occ_mask[lo..hi].iter().copied())
    }

    /// Whether `c` may still participate in covers (not pruned) — selected
    /// classifiers stay available at weight 0.
    #[inline]
    pub fn is_available(&self, c: ClassifierId) -> bool {
        !self.removed[c.index()]
    }

    /// Whether `c` is available *and* selectable at finite cost.
    #[inline]
    pub fn is_usable(&self, c: ClassifierId) -> bool {
        !self.removed[c.index()] && self.weight[c.index()].is_finite()
    }

    /// The still-needed property mask of query `q` (0 for covered queries).
    #[inline]
    pub fn need(&self, q: usize) -> u32 {
        self.universe.query_local(q).full_mask() & !self.covered[q]
    }

    /// Number of alive (not yet covered) queries.
    #[inline]
    pub fn alive_queries(&self) -> usize {
        self.alive_queries
    }

    /// Classifiers selected so far, in selection order.
    #[inline]
    pub fn selected_ids(&self) -> &[ClassifierId] {
        &self.selected_list
    }

    /// Selects classifier `c`: accumulates its current weight into the base
    /// cost, zeroes the weight, and propagates coverage, killing queries
    /// that become fully covered. Returns the list of queries killed.
    ///
    /// Panics (debug) if `c` was removed or has infinite weight.
    pub fn select(&mut self, c: ClassifierId) -> Vec<u32> {
        debug_assert!(!self.removed[c.index()], "selecting a removed classifier");
        debug_assert!(
            self.weight[c.index()].is_finite(),
            "selecting an infinite-weight classifier"
        );
        if self.selected[c.index()] {
            return Vec::new();
        }
        self.selected[c.index()] = true;
        self.selected_list.push(c);
        self.base_cost = self.base_cost.saturating_add(self.weight[c.index()]);
        self.weight[c.index()] = Weight::ZERO;
        self.eff[c.index()] = Weight::ZERO;

        let lo = self.occ_off[c.index()] as usize;
        let hi = self.occ_off[c.index() + 1] as usize;
        let mut killed = Vec::new();
        for i in lo..hi {
            let q = self.occ_q[i] as usize;
            if !self.alive[q] {
                continue;
            }
            self.covered[q] |= self.occ_mask[i];
            if self.need(q) == 0 {
                killed.push(u32_of(q));
            }
        }
        for &q in &killed {
            self.kill_query(q as usize);
        }
        killed
    }

    /// Marks query `q` dead and decrements the relevance counts of all its
    /// classifiers; classifiers that become irrelevant (appear in no alive
    /// query) are removed unless selected.
    pub fn kill_query(&mut self, q: usize) {
        if !self.alive[q] {
            return;
        }
        self.alive[q] = false;
        self.alive_queries -= 1;
        let local = self.universe.query_local(q);
        for &id in &local.table[1..] {
            if id.is_none() {
                continue;
            }
            let idx = id.index();
            self.relevant_count[idx] -= 1;
            if self.relevant_count[idx] == 0 && !self.selected[idx] {
                self.removed[idx] = true;
            }
        }
    }

    /// Removes classifier `c` from consideration (Step 3 / Step 4 pruning),
    /// recording `replacement_cost` as its effective weight.
    pub fn remove(&mut self, c: ClassifierId, replacement_cost: Weight) {
        debug_assert!(!self.selected[c.index()], "removing a selected classifier");
        self.removed[c.index()] = true;
        self.eff[c.index()] = replacement_cost;
    }

    /// Indices of alive queries.
    pub fn alive_query_indices(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&q| self.alive[q]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::{PropSet, Weights};

    fn state(queries: Vec<Vec<u32>>) -> (Instance, ()) {
        let inst = Instance::new(queries, Weights::uniform(2u64)).unwrap();
        (inst, ())
    }

    #[test]
    fn occurrence_index_matches_tables() {
        let (inst, _) = state(vec![vec![0, 1], vec![1, 2]]);
        let u = ClassifierUniverse::build(&inst);
        let ws = WorkState::new(&inst, u);
        let y = ws.universe.id_of(&PropSet::from_ids([1u32])).unwrap();
        let occ: Vec<_> = ws.occurrences(y).collect();
        assert_eq!(occ.len(), 2); // y appears in both queries
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        let occ: Vec<_> = ws.occurrences(xy).collect();
        assert_eq!(occ.len(), 1);
        assert_eq!(ws.relevant_count[xy.index()], 1);
    }

    #[test]
    fn select_covers_and_kills() {
        let (inst, _) = state(vec![vec![0, 1], vec![1, 2]]);
        let u = ClassifierUniverse::build(&inst);
        let mut ws = WorkState::new(&inst, u);
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        let killed = ws.select(xy);
        assert_eq!(killed, vec![0]);
        assert_eq!(ws.alive_queries(), 1);
        assert_eq!(ws.base_cost, Weight::new(2));
        assert!(ws.weight[xy.index()].is_zero());
        // second query partially covered via Y? no: XY is not a subset of {1,2}
        assert_eq!(ws.need(1), 0b11);
    }

    #[test]
    fn selecting_shared_singleton_partially_covers() {
        let (inst, _) = state(vec![vec![0, 1], vec![1, 2]]);
        let u = ClassifierUniverse::build(&inst);
        let mut ws = WorkState::new(&inst, u);
        let y = ws.universe.id_of(&PropSet::from_ids([1u32])).unwrap();
        let killed = ws.select(y);
        assert!(killed.is_empty());
        assert_eq!(ws.alive_queries(), 2);
        // y is the smaller property in query 0 ({0,1} → bit of 1 is index 1)
        assert_eq!(ws.need(0).count_ones(), 1);
        assert_eq!(ws.need(1).count_ones(), 1);
    }

    #[test]
    fn kill_query_removes_private_classifiers() {
        let (inst, _) = state(vec![vec![0, 1], vec![1, 2]]);
        let u = ClassifierUniverse::build(&inst);
        let mut ws = WorkState::new(&inst, u);
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        let x = ws.universe.id_of(&PropSet::from_ids([0u32])).unwrap();
        let y = ws.universe.id_of(&PropSet::from_ids([1u32])).unwrap();
        ws.kill_query(0);
        assert!(ws.removed[xy.index()], "XY only relevant to query 0");
        assert!(ws.removed[x.index()], "X only relevant to query 0");
        assert!(!ws.removed[y.index()], "Y still relevant to query 1");
    }

    #[test]
    fn double_select_is_idempotent() {
        let (inst, _) = state(vec![vec![0, 1]]);
        let u = ClassifierUniverse::build(&inst);
        let mut ws = WorkState::new(&inst, u);
        let x = ws.universe.id_of(&PropSet::from_ids([0u32])).unwrap();
        ws.select(x);
        ws.select(x);
        assert_eq!(ws.base_cost, Weight::new(2));
        assert_eq!(ws.selected_ids().len(), 1);
    }

    #[test]
    fn remove_records_replacement_cost() {
        let (inst, _) = state(vec![vec![0, 1]]);
        let u = ClassifierUniverse::build(&inst);
        let mut ws = WorkState::new(&inst, u);
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        ws.remove(xy, Weight::new(4));
        assert!(!ws.is_available(xy));
        assert_eq!(ws.eff[xy.index()], Weight::new(4));
        assert_eq!(ws.weight[xy.index()], Weight::new(2)); // original untouched
    }
}
