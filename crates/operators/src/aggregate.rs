//! Oblivious group-by aggregation over a single table.

use obliv_join::Table;
use obliv_primitives::sort::bitonic;
use obliv_primitives::{ct_max_u64, ct_min_u64, oblivious_compact, Choice, CtSelect, Routable};
use obliv_trace::{TraceSink, Tracer};

use crate::acc::AccRecord;

/// One running aggregate per record.
type Rec = AccRecord<1>;

/// The aggregate function applied to every key group's data values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of rows in the group.
    Count,
    /// Sum of the group's data values, wrapping on `u64` overflow.  Only
    /// `u64` columns can be summed: a plan that sums an `i64` (or any other)
    /// column is rejected at plan time with `WideError::NotAggregatable`,
    /// so no signed value ever reaches this wrapping add.
    Sum,
    /// Minimum data value in the group.
    Min,
    /// Maximum data value in the group.
    Max,
}

impl Aggregate {
    /// The neutral element the running value starts from at a group
    /// boundary.
    fn identity(self) -> u64 {
        match self {
            Aggregate::Count | Aggregate::Sum | Aggregate::Max => 0,
            Aggregate::Min => u64::MAX,
        }
    }

    /// Fold one row's data value into the running aggregate, branch-free.
    fn fold(self, acc: u64, value: u64) -> u64 {
        match self {
            Aggregate::Count => acc.wrapping_add(1),
            Aggregate::Sum => acc.wrapping_add(value),
            Aggregate::Min => ct_min_u64(acc, value),
            Aggregate::Max => ct_max_u64(acc, value),
        }
    }
}

/// Oblivious `SELECT key, agg(value) … GROUP BY key`.
///
/// Sorts by key, folds the aggregate in one fixed forward scan (the running
/// value is reset at group boundaries, exactly like the counters of the
/// paper's `Fill-Dimensions`), keeps only each group's final row, and
/// compacts.  Cost `O(n log² n)`; the result length reveals the number of
/// distinct keys and nothing else.
///
/// The returned table has one row per distinct key, ordered by key, with the
/// aggregate stored in the value column.
pub fn oblivious_group_aggregate<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &Table,
    aggregate: Aggregate,
) -> Table {
    let records: Vec<Rec> = table.iter().map(|e| Rec::new(e.key, e.value, 0)).collect();
    let mut buf = tracer.alloc_from(records);
    let n = buf.len();
    bitonic::sort_by_key(&mut buf, |r: &Rec| (r.key, r.value));

    // Forward pass: fold the running aggregate into every row (each row
    // stores the aggregate of its group's prefix; the last row of a group
    // stores the group total).
    let mut prev_key = 0u64;
    let mut have_prev = Choice::FALSE;
    let mut acc = aggregate.identity();
    tracer.bump_linear_steps(n as u64);
    for r in buf.rw_run_mut(0, n) {
        let same_group = have_prev.and(Choice::eq_u64(r.key, prev_key));
        acc = u64::ct_select(same_group, acc, aggregate.identity());
        acc = aggregate.fold(acc, r.value);
        r.acc[0] = acc;
        prev_key = r.key;
        have_prev = Choice::TRUE;
    }

    // Backward pass: only each group's boundary row (the last one) survives,
    // carrying the group total in its value column.
    let mut next_key = 0u64;
    let mut have_next = Choice::FALSE;
    for i in (0..n).rev() {
        let r = buf.read(i);
        tracer.bump_linear_steps(1);
        let boundary = have_next.and(Choice::eq_u64(r.key, next_key)).not();
        let mut kept = r;
        kept.value = r.acc[0];
        let mut dropped = r;
        dropped.set_null();
        buf.write(i, Rec::ct_select(boundary, kept, dropped));
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
    use obliv_trace::{CollectingSink, CountingSink};
    use std::collections::BTreeMap;

    fn table() -> Table {
        Table::from_pairs(vec![(2, 7), (1, 3), (2, 5), (3, 10), (1, 4), (2, 1)])
    }

    fn reference(table: &Table, aggregate: Aggregate) -> Vec<(u64, u64)> {
        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for e in table.iter() {
            groups.entry(e.key).or_default().push(e.value);
        }
        groups
            .into_iter()
            .map(|(k, vs)| {
                let agg = match aggregate {
                    Aggregate::Count => vs.len() as u64,
                    Aggregate::Sum => vs.iter().sum(),
                    Aggregate::Min => *vs.iter().min().unwrap(),
                    Aggregate::Max => *vs.iter().max().unwrap(),
                };
                (k, agg)
            })
            .collect()
    }

    fn run(table: &Table, aggregate: Aggregate) -> Vec<(u64, u64)> {
        let tracer = Tracer::new(CountingSink::new());
        oblivious_group_aggregate(&tracer, table, aggregate)
            .rows()
            .iter()
            .map(|e| (e.key, e.value))
            .collect()
    }

    #[test]
    fn all_aggregates_match_reference_on_small_table() {
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            assert_eq!(run(&table(), agg), reference(&table(), agg), "{agg:?}");
        }
    }

    #[test]
    fn aggregates_match_reference_on_larger_skewed_table() {
        let t: Table = (0..300u64).map(|i| (i % 13, (i * 37) % 101)).collect();
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            assert_eq!(run(&t, agg), reference(&t, agg), "{agg:?}");
        }
    }

    #[test]
    fn single_group_and_empty_table() {
        let t = Table::from_pairs(vec![(5, 1), (5, 2), (5, 3)]);
        assert_eq!(run(&t, Aggregate::Sum), vec![(5, 6)]);
        assert_eq!(run(&t, Aggregate::Count), vec![(5, 3)]);
        assert_eq!(run(&Table::new(), Aggregate::Sum), vec![]);
    }

    #[test]
    fn identity_elements() {
        assert_eq!(Aggregate::Sum.identity(), 0);
        assert_eq!(Aggregate::Min.identity(), u64::MAX);
        assert_eq!(Aggregate::Count.fold(4, 999), 5);
        assert_eq!(Aggregate::Min.fold(7, 3), 3);
        assert_eq!(Aggregate::Max.fold(7, 3), 7);
    }

    #[test]
    fn trace_depends_only_on_input_size() {
        let run_trace = |t: Table| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = oblivious_group_aggregate(&tracer, &t, Aggregate::Sum);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Same n = 6, one group vs six groups.
        let a = run_trace(Table::from_pairs(vec![(1, 1); 6]));
        let b = run_trace((0..6u64).map(|i| (i, i)).collect());
        assert_eq!(a, b);
    }
}
