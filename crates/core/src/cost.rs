//! Analytical cost model for the join.
//!
//! The paper summarises the algorithm's cost (Table 3) in terms of the
//! comparison counts of its sorting-network invocations and the hop counts
//! of its routing passes, all closed-form functions of `(n₁, n₂, m)`.  The
//! model here produces the *exact* counts of this implementation (not just
//! the asymptotic estimates), which lets tests assert that the executed
//! operation counters match the prediction bit-for-bit — a strong form of
//! the "counters are a function of public parameters" obliviousness check.
//!
//! This implementation runs two sorting networks where the paper's runs
//! five (see [`crate::augment`] and `obliv_primitives::oblivious_expand`):
//! [`predict`] prices what the code does — one sort over `T_C`, two
//! compactions over `T_C`, two forward routes over `m`, one alignment sort
//! — while [`paper_estimate`] stays the paper's Table 3 as published.

use obliv_trace::network::gate_count;
use obliv_trace::BlockOp;

/// Exact predicted operation counts for one join execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostPrediction {
    /// Comparisons made by the one sort over `T_C` in Algorithm 2.
    pub augment_sort_comparisons: u64,
    /// Hops made by the two order-preserving compactions over `T_C` that
    /// stand in for the sorts of `Ext-Oblivious-Distribute`.  Included in
    /// [`routing_hops`](CostPrediction::routing_hops).
    pub compaction_hops: u64,
    /// Every routing-network hop of the join: `compaction_hops` plus the
    /// two forward routing passes over `m` slots.
    pub routing_hops: u64,
    /// Comparisons made by the alignment sort over `m` elements.
    pub align_sort_comparisons: u64,
}

impl CostPrediction {
    /// Total comparisons across every sorting-network invocation.
    pub fn total_comparisons(&self) -> u64 {
        self.augment_sort_comparisons + self.align_sort_comparisons
    }

    /// Total counted operations (comparisons plus routing hops).
    pub fn total_ops(&self) -> u64 {
        self.total_comparisons() + self.routing_hops
    }
}

/// Exact number of hops performed by one routing pass over `m` slots
/// (the `O(m log m)` loop of Algorithm 3): `Σ_{j = 2^⌈log₂ m⌉−1 … 1} (m − j)`.
/// An order-preserving compaction of `m` elements runs the same stages in
/// the opposite order — `m − j` hops for every power of two `j < m` — so
/// this is its hop count as well.
pub fn routing_hop_count(m: usize) -> u64 {
    if m < 2 {
        return 0;
    }
    let m = m as u64;
    let mut j = m.next_power_of_two();
    if j >= m {
        j /= 2;
    }
    let mut hops = 0;
    while j >= 1 {
        hops += m - j;
        j /= 2;
    }
    hops
}

/// Predict the exact operation counts of a join with input sizes `n₁`, `n₂`
/// and output size `m`.
pub fn predict(n1: usize, n2: usize, m: usize) -> CostPrediction {
    let n = n1 + n2;
    let compaction_hops = 2 * routing_hop_count(n);
    CostPrediction {
        augment_sort_comparisons: gate_count(n as u64, BlockOp::Sort),
        compaction_hops,
        routing_hops: compaction_hops + 2 * routing_hop_count(m),
        align_sort_comparisons: gate_count(m as u64, BlockOp::Sort),
    }
}

/// The paper's own approximate Table 3 formulas for the balanced case
/// `m ≈ n₁ = n₂ = n/2`, returned as (label, approximate count) rows — the
/// cost of Algorithms 2–5 *as published* (two sorts on `T_C`, a sort inside
/// each distribution), not of this implementation, which [`predict`] prices.
/// Reports print the two side by side.
pub fn paper_estimate(n: usize) -> Vec<(&'static str, f64)> {
    let n1 = n / 2;
    let m = n1;
    let lg = |x: usize| (x.max(2) as f64).log2();
    vec![
        ("initial sorts on TC", n as f64 * lg(n) * lg(n) / 2.0),
        (
            "o.d. on T1, T2 (sort)",
            n1 as f64 * lg(n1) * lg(n1) / 2.0 * 2.0 / 2.0,
        ),
        ("o.d. on T1, T2 (route)", 2.0 * m as f64 * lg(m)),
        ("align sort on S2", m as f64 * lg(m) * lg(m) / 4.0),
    ]
}

/// Asymptotic comparison estimate for the whole join on balanced inputs
/// (`n log² n + n log n`, the total row of Table 3).
pub fn paper_total_estimate(n: usize) -> f64 {
    let lg = (n.max(2) as f64).log2();
    n as f64 * lg * lg + n as f64 * lg
}

/// The asymptotic estimate the paper uses for a bitonic sort on `n` keys:
/// roughly `n·(log₂ n)²/4` comparisons (§6.2).
pub fn bitonic_estimate(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    let lg = n.log2();
    n * lg * lg / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_hops_closed_form_matches_loop() {
        assert_eq!(routing_hop_count(0), 0);
        assert_eq!(routing_hop_count(1), 0);
        assert_eq!(routing_hop_count(2), 1);
        // m = 8: j = 4, 2, 1 → 4 + 6 + 7 = 17.
        assert_eq!(routing_hop_count(8), 17);
        // m = 5: j = 4, 2, 1 → 1 + 3 + 4 = 8.
        assert_eq!(routing_hop_count(5), 8);
    }

    #[test]
    fn prediction_is_monotone_in_input_size() {
        let small = predict(100, 100, 100);
        let large = predict(1000, 1000, 1000);
        assert!(large.total_comparisons() > small.total_comparisons());
        assert!(large.routing_hops > small.routing_hops);
        assert!(large.total_ops() > small.total_ops());
    }

    #[test]
    fn paper_estimate_has_four_rows_and_reasonable_magnitudes() {
        let rows = paper_estimate(1 << 10);
        assert_eq!(rows.len(), 4);
        // The initial sorts dominate, as in Table 3 (60% of runtime).
        assert!(rows[0].1 > rows[1].1);
        assert!(rows[0].1 > rows[2].1);
        assert!(rows[0].1 > rows[3].1);
        assert!(paper_total_estimate(1 << 10) > rows[0].1);
    }

    #[test]
    fn exact_prediction_tracks_paper_estimate_within_small_factor() {
        // For a balanced workload the exact bitonic counts should be within
        // a factor ~2 of the paper's n(log n)²-style estimates.
        let n = 1 << 12;
        let p = predict(n / 2, n / 2, n / 2);
        let est: f64 = paper_estimate(n).iter().map(|r| r.1).sum();
        let ratio = p.total_ops() as f64 / est;
        assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn estimate_tracks_exact_count_within_factor() {
        for n in [64u64, 256, 1024, 4096] {
            let exact = gate_count(n, BlockOp::Sort) as f64;
            let ratio = exact / bitonic_estimate(n as usize);
            assert!(ratio > 0.5 && ratio < 2.5, "n={n} ratio={ratio}");
        }
    }

    #[test]
    fn bitonic_estimate_positive() {
        assert!(bitonic_estimate(1024) > 0.0);
        assert_eq!(bitonic_estimate(1), 0.0);
    }
}
