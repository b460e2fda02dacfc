//! Runtime certificate checks for the WSC algorithms (`verify` feature).
//!
//! The greedy algorithm's `H(Δ)` guarantee has a *dual-fitting* proof
//! (Chvátal \[6\]): charge each element the selection-time price
//! `cost(S) / newly_covered(S)` of the set that first covered it. Greedy
//! maximality implies that for every set `S`, the prices of its elements
//! sum to at most `H(|S|) · w(S)` — so the prices, scaled down by
//! `H(Δ)`, are a feasible dual and lower-bound the optimum. Re-checking
//! that inequality per set after a run certifies both the implementation
//! (a heap bug that selects a non-maximal set breaks it) and the
//! approximation factor, without knowing the optimum.

use crate::instance::SetCoverInstance;

/// `H(d) = 1 + 1/2 + … + 1/d`, with `H(0) = 0`.
pub fn harmonic(d: usize) -> f64 {
    (1..=d).map(|i| 1.0 / i as f64).sum()
}

/// Slack for accumulated floating-point error in the price sums. Prices
/// are exact rationals `cost/cov`; summing a few thousand of them in
/// `f64` loses at most a relative `~1e-12`, so a relative `1e-6` margin
/// can only mask errors far below any genuine violation (which is at
/// least one misplaced price, i.e. a term of the sum).
fn tolerance(scale: f64) -> f64 {
    1e-6 * scale.max(1.0)
}

/// Checks the greedy dual-fitting certificate.
///
/// `price[e]` must hold `cost(S_e) / newly_covered(S_e)` for the set
/// `S_e` that first covered element `e`, recorded at selection time.
/// Asserts:
///
/// 1. **Accounting** — the prices sum back to the solution's total cost
///    (every unit of cost was distributed over covered elements);
/// 2. **Dual feasibility** — for every set `S`,
///    `Σ_{e ∈ S} price[e] ≤ H(|S|) · w(S)`,
///    which implies `greedy cost ≤ H(Δ) · OPT`.
///
/// Infinite-cost sets are skipped in (2): their bound is vacuous and
/// greedy never selects them while finite cover exists.
pub fn assert_greedy_dual_feasible(instance: &SetCoverInstance, price: &[f64], selected: &[usize]) {
    // raw() matches the u64 the greedy heap priced with (INFINITE is its
    // u64::MAX sentinel, so even a forced infinite pick balances out).
    let total_cost: f64 = selected
        .iter()
        .map(|&s| instance.cost(s).raw() as f64)
        .sum();
    let total_price: f64 = price.iter().sum();
    assert!(
        (total_price - total_cost).abs() <= tolerance(total_cost),
        "greedy prices sum to {total_price}, but the solution costs {total_cost}"
    );

    for s in 0..instance.num_sets() {
        let Some(cost) = instance.cost(s).finite() else {
            continue;
        };
        let bound = harmonic(instance.set(s).len()) * cost as f64;
        let charged: f64 = instance.set(s).iter().map(|&e| price[e as usize]).sum();
        assert!(
            charged <= bound + tolerance(bound),
            "dual infeasible at set {s}: its elements were charged {charged} \
             > H(|S|)·w(S) = {bound}; greedy did not pick maximal-ratio sets"
        );
    }
}

/// Checks a strong-duality certificate for an optimal solution of the
/// covering LP `min c·x, Ax ≥ 1, x ≥ 0` of `instance` (`c = costs`), with
/// `y` the packing dual `max Σy, Aᵀy ≤ c, y ≥ 0`. Asserts:
///
/// 1. **Primal feasibility** — `x ≥ 0` and `Σ_{s ∋ e} x_s ≥ 1` for every
///    element `e`;
/// 2. **Dual feasibility** — `y ≥ 0` and `Σ_{e ∈ s} y_e ≤ c_s` for every
///    set `s`;
/// 3. **Equal objectives** — `c·x = Σy`.
///
/// By weak duality every feasible `x'` costs at least `Σy`, so (1)–(3)
/// prove `x` optimal without trusting the simplex that produced it.
pub fn assert_lp_strong_duality(instance: &SetCoverInstance, costs: &[f64], x: &[f64], y: &[f64]) {
    const TOL: f64 = 1e-7;
    let _vspan = mc3_telemetry::span("verify.lp_duality");
    assert_eq!(x.len(), instance.num_sets(), "one primal value per set");
    assert_eq!(
        y.len(),
        instance.num_elements(),
        "one dual value per element"
    );
    assert!(x.iter().all(|&v| v >= 0.0), "primal value below zero");
    assert!(y.iter().all(|&v| v >= 0.0), "dual value below zero");
    for e in 0..mc3_core::u32_of(y.len()) {
        let covered: f64 = instance.containing(e).iter().map(|&s| x[s as usize]).sum();
        assert!(
            covered >= 1.0 - TOL,
            "primal infeasible at element {e}: coverage {covered} < 1"
        );
    }
    for (s, &c) in costs.iter().enumerate() {
        let packed: f64 = instance.set(s).iter().map(|&e| y[e as usize]).sum();
        assert!(
            packed <= c + TOL * c.max(1.0),
            "dual infeasible at set {s}: its elements pack {packed} > cost {c}"
        );
    }
    let primal: f64 = x.iter().zip(costs).map(|(v, c)| v * c).sum();
    let dual: f64 = y.iter().sum();
    assert!(
        (primal - dual).abs() <= TOL * primal.max(1.0),
        "duality gap: c·x = {primal} but Σy = {dual}; the LP solution is not optimal"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::Weight;

    #[test]
    fn harmonic_matches_hand_values() {
        assert!(harmonic(0).abs() < 1e-12);
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(3) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn accepts_a_genuine_greedy_run() {
        let inst = SetCoverInstance::new(
            3,
            vec![
                (vec![0, 1, 2], Weight::new(3)),
                (vec![2], Weight::new(1)),
                (vec![0, 1], Weight::new(1)),
            ],
        );
        // greedy picks set 2 (ratio 2) then set 1; prices: 0,1 → 1/2; 2 → 1
        let price = [0.5, 0.5, 1.0];
        assert_greedy_dual_feasible(&inst, &price, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "dual infeasible")]
    fn rejects_a_non_maximal_selection() {
        // A broken greedy that selects the expensive triple first would
        // charge each element 1.0 — but the cheap pair {0,1} (cost 1) only
        // tolerates H(2)·1 = 1.5 < 2.0.
        let inst = SetCoverInstance::new(
            3,
            vec![
                (vec![0, 1, 2], Weight::new(3)),
                (vec![0, 1], Weight::new(1)),
            ],
        );
        let price = [1.0, 1.0, 1.0];
        assert_greedy_dual_feasible(&inst, &price, &[0]);
    }

    #[test]
    #[should_panic(expected = "prices sum")]
    fn rejects_lost_cost_accounting() {
        let inst = SetCoverInstance::new(1, vec![(vec![0], Weight::new(5))]);
        assert_greedy_dual_feasible(&inst, &[1.0], &[0]);
    }
}
