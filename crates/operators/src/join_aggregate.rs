//! Grouping aggregation over a join — the paper's future-work operator (§7).
//!
//! The paper observes that `SELECT j, agg(…) FROM T₁ ⋈ T₂ GROUP BY j` does
//! not need the full `O(m log m)` expansion machinery: the per-group
//! dimensions α₁, α₂ and per-group sums already determine the aggregate, so
//! the whole query costs only the `O(n log² n)` of `Augment-Tables` — and,
//! crucially, its cost and access pattern are independent of the join output
//! size `m`, which is never materialised (only the number of joined groups
//! is revealed).
//!
//! Supported aggregates over the joined pairs `(d₁, d₂)` of each join value:
//!
//! * `CountPairs`  — `α₁·α₂`,
//! * `SumLeft`     — `Σ d₁·α₂` (each left row matches α₂ right rows),
//! * `SumRight`    — `Σ d₂·α₁`,
//! * `SumProducts` — `(Σ d₁)·(Σ d₂)`, the sum of `d₁·d₂` over the group's
//!   Cartesian product.

use obliv_join::Table;
use obliv_primitives::sort::bitonic;
use obliv_primitives::{oblivious_compact, Choice, CtSelect, Routable};
use obliv_trace::{TraceSink, Tracer};

use crate::acc::AccRecord;

/// Four running values per record: `α₁`, `α₂`, `Σ d₁`, `Σ d₂`.
type Rec = AccRecord<4>;

/// Table ids inside the combined table, as in Algorithm 2.
const LEFT: u32 = 1;
const RIGHT: u32 = 2;

/// Aggregate functions over the joined pairs of each join value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAggregate {
    /// Number of joined pairs: `α₁·α₂`.
    CountPairs,
    /// Sum of the left data values over all joined pairs: `(Σ d₁)·α₂`.
    SumLeft,
    /// Sum of the right data values over all joined pairs: `(Σ d₂)·α₁`.
    SumRight,
    /// Sum of `d₁·d₂` over all joined pairs: `(Σ d₁)·(Σ d₂)`.
    SumProducts,
}

impl JoinAggregate {
    /// Combine a group's `(α₁, α₂, Σ d₁, Σ d₂)` into the aggregate value.
    fn finish(self, alpha1: u64, alpha2: u64, sum_left: u64, sum_right: u64) -> u64 {
        match self {
            JoinAggregate::CountPairs => alpha1.wrapping_mul(alpha2),
            JoinAggregate::SumLeft => sum_left.wrapping_mul(alpha2),
            JoinAggregate::SumRight => sum_right.wrapping_mul(alpha1),
            JoinAggregate::SumProducts => sum_left.wrapping_mul(sum_right),
        }
    }
}

/// Oblivious `SELECT j, agg(d₁, d₂) FROM T₁ ⋈ T₂ GROUP BY j`.
///
/// Returns one row per join value present in **both** tables, ordered by
/// key, with the aggregate in the value column.  Cost `O(n log² n)` with
/// `n = n₁ + n₂`, independent of the (never materialised) join output size;
/// the result length reveals the number of joined groups.
pub fn oblivious_join_aggregate<S: TraceSink>(
    tracer: &Tracer<S>,
    t1: &Table,
    t2: &Table,
    aggregate: JoinAggregate,
) -> Table {
    // Combined table, as in Augment-Tables (Algorithm 2, line 2).
    let records: Vec<Rec> = t1
        .iter()
        .map(|e| Rec::new(e.key, e.value, LEFT))
        .chain(t2.iter().map(|e| Rec::new(e.key, e.value, RIGHT)))
        .collect();
    let mut buf = tracer.alloc_from(records);
    let n = buf.len();
    bitonic::sort_by_key(&mut buf, |r: &Rec| (r.key, r.tid));

    // Forward pass: running (α₁, α₂, Σ d₁, Σ d₂) per group, stored in every
    // record's accumulators so the group's last record ends up holding the
    // totals.  This is Fill-Dimensions extended with the two sums.
    let mut prev_key = 0u64;
    let mut have_prev = Choice::FALSE;
    let (mut c1, mut c2, mut s1, mut s2) = (0u64, 0u64, 0u64, 0u64);
    tracer.bump_linear_steps(n as u64);
    for r in buf.rw_run_mut(0, n) {
        let same_group = have_prev.and(Choice::eq_u64(r.key, prev_key));
        c1 = u64::ct_select(same_group, c1, 0);
        c2 = u64::ct_select(same_group, c2, 0);
        s1 = u64::ct_select(same_group, s1, 0);
        s2 = u64::ct_select(same_group, s2, 0);

        let from_left = Choice::eq_u64(r.tid.into(), LEFT.into());
        c1 += from_left.mask() & 1;
        c2 += from_left.not().mask() & 1;
        s1 = s1.wrapping_add(from_left.mask() & r.value);
        s2 = s2.wrapping_add(from_left.not().mask() & r.value);

        r.acc = [c1, c2, s1, s2];
        prev_key = r.key;
        have_prev = Choice::TRUE;
    }

    // Backward pass: each group's boundary record becomes the output row
    // (when both sides are non-empty); everything else is discarded.
    let mut next_key = 0u64;
    let mut have_next = Choice::FALSE;
    for i in (0..n).rev() {
        let r = buf.read(i);
        tracer.bump_linear_steps(1);
        let boundary = have_next.and(Choice::eq_u64(r.key, next_key)).not();
        let [alpha1, alpha2, sum_left, sum_right] = r.acc;
        let joined = Choice::ge_u64(alpha1, 1).and(Choice::ge_u64(alpha2, 1));
        let emit = boundary.and(joined);

        let mut kept = r;
        kept.value = aggregate.finish(alpha1, alpha2, sum_left, sum_right);
        let mut dropped = r;
        dropped.set_null();
        buf.write(i, Rec::ct_select(emit, kept, dropped));
        next_key = r.key;
        have_next = Choice::TRUE;
    }

    let compacted = oblivious_compact(buf);
    let live = compacted.live as usize;
    compacted.table.as_slice()[..live]
        .iter()
        .map(|r| (r.key, r.value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_join::reference_join;
    use obliv_trace::{CollectingSink, CountingSink};
    use std::collections::BTreeMap;

    fn t1() -> Table {
        Table::from_pairs(vec![(1, 3), (1, 4), (2, 10), (3, 7), (3, 8), (3, 9)])
    }

    fn t2() -> Table {
        Table::from_pairs(vec![(1, 100), (1, 200), (1, 300), (3, 50), (4, 1)])
    }

    /// Reference: materialise the join (per key) and aggregate it.
    fn reference(t1: &Table, t2: &Table, aggregate: JoinAggregate) -> Vec<(u64, u64)> {
        let mut per_key: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for a in t1.iter() {
            for b in t2.iter() {
                if a.key == b.key {
                    per_key.entry(a.key).or_default().push((a.value, b.value));
                }
            }
        }
        per_key
            .into_iter()
            .map(|(k, pairs)| {
                let agg = match aggregate {
                    JoinAggregate::CountPairs => pairs.len() as u64,
                    JoinAggregate::SumLeft => pairs.iter().map(|p| p.0).sum(),
                    JoinAggregate::SumRight => pairs.iter().map(|p| p.1).sum(),
                    JoinAggregate::SumProducts => pairs.iter().map(|p| p.0 * p.1).sum(),
                };
                (k, agg)
            })
            .collect()
    }

    fn run(t1: &Table, t2: &Table, aggregate: JoinAggregate) -> Vec<(u64, u64)> {
        let tracer = Tracer::new(CountingSink::new());
        oblivious_join_aggregate(&tracer, t1, t2, aggregate)
            .rows()
            .iter()
            .map(|e| (e.key, e.value))
            .collect()
    }

    #[test]
    fn all_aggregates_match_the_materialised_join() {
        for agg in [
            JoinAggregate::CountPairs,
            JoinAggregate::SumLeft,
            JoinAggregate::SumRight,
            JoinAggregate::SumProducts,
        ] {
            assert_eq!(
                run(&t1(), &t2(), agg),
                reference(&t1(), &t2(), agg),
                "{agg:?}"
            );
        }
    }

    #[test]
    fn matches_on_larger_random_like_tables() {
        let a: Table = (0..150u64).map(|i| (i % 11, (i * 7) % 23 + 1)).collect();
        let b: Table = (0..180u64).map(|i| (i % 17, (i * 5) % 19 + 1)).collect();
        for agg in [
            JoinAggregate::CountPairs,
            JoinAggregate::SumLeft,
            JoinAggregate::SumProducts,
        ] {
            assert_eq!(run(&a, &b, agg), reference(&a, &b, agg), "{agg:?}");
        }
    }

    #[test]
    fn disjoint_tables_produce_no_groups() {
        let a = Table::from_pairs(vec![(1, 1), (2, 2)]);
        let b = Table::from_pairs(vec![(3, 3)]);
        assert!(run(&a, &b, JoinAggregate::CountPairs).is_empty());
    }

    #[test]
    fn count_pairs_sums_to_the_join_output_size() {
        let total: u64 = run(&t1(), &t2(), JoinAggregate::CountPairs)
            .iter()
            .map(|&(_, c)| c)
            .sum();
        assert_eq!(total as usize, reference_join(&t1(), &t2()).len());
    }

    #[test]
    fn cost_is_independent_of_output_size() {
        // Two inputs with identical (n₁, n₂) but wildly different join
        // output sizes must produce identical traces — the operator never
        // materialises the join.
        let run_trace = |t1: Table, t2: Table| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = oblivious_join_aggregate(&tracer, &t1, &t2, JoinAggregate::CountPairs);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        let small_output = run_trace(
            (0..40u64).map(|i| (i, i)).collect(),
            (0..40u64).map(|i| (i + 1000, i)).collect(),
        ); // m = 0
        let huge_output = run_trace(
            (0..40u64).map(|_| (7, 1)).collect(),
            (0..40u64).map(|_| (7, 2)).collect(),
        ); // m = 1600
        assert_eq!(small_output, huge_output);
    }

    #[test]
    fn finish_formulas() {
        assert_eq!(JoinAggregate::CountPairs.finish(3, 4, 0, 0), 12);
        assert_eq!(JoinAggregate::SumLeft.finish(3, 4, 10, 99), 40);
        assert_eq!(JoinAggregate::SumRight.finish(3, 4, 99, 10), 30);
        assert_eq!(JoinAggregate::SumProducts.finish(3, 4, 10, 20), 200);
    }
}
