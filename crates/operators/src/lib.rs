//! # obliv-operators — oblivious relational operators
//!
//! The paper closes by noting that its primitives — oblivious sorting,
//! distribution and expansion — "could also potentially be useful in
//! providing a general framework for oblivious algorithm design" and that
//! "grouping aggregations over joins could be computed using fewer sorting
//! steps than a full join would require" (§7).  This crate follows both
//! threads: it builds the standard relational operators obliviously from the
//! same primitives, and it implements the grouping-aggregation-over-join
//! operator the future-work section sketches.
//!
//! There is one operator family, [`wide`]: every operator works on typed
//! multi-column tables ([`obliv_join::schema`]), selects key and payload
//! columns by name, and treats a row's remaining columns as the opaque
//! payload the paper carries beside the join attribute.  The paper's own
//! `(key, value)` shape is the degenerate schema
//! [`Schema::pair`](obliv_join::Schema::pair) and takes the same code path.
//!
//! Every operator has the same leakage profile as the join itself: its
//! memory-access sequence depends only on the input sizes, the (public)
//! schema row widths and, where an output table is produced, on the
//! revealed output size.
//!
//! | operator | cost | reveals |
//! |----------|------|---------|
//! | [`wide_filter`] | `O(n log n)` | output size |
//! | [`wide_project`] | `O(n)` | nothing |
//! | [`wide_union_all`] | `O(n)` | nothing |
//! | [`wide_distinct`] | `O(n log² n)` | output size |
//! | [`wide_sort`] | `O(n log² n)` | nothing |
//! | [`wide_join`] | `O(n log² n + m log m)` | output size |
//! | [`wide_semi_join`] / [`wide_anti_join`] | `O(n log² n)` | output size |
//! | [`wide_group_aggregate`] | `O(n log² n)` | number of groups |
//! | [`wide_join_aggregate`] | `O(n log² n)` — no `m`-sized expansion | number of groups |
//!
//! The two aggregations run on pair-shaped kernels
//! ([`oblivious_group_aggregate`], [`oblivious_join_aggregate`]) that take
//! the join kernel's own input type, [`obliv_join::Table`]; the wide
//! operators project `(group key word, value word)` pairs into them.
//!
//! ```
//! use obliv_join::Table;
//! use obliv_operators::{oblivious_group_aggregate, Aggregate};
//! use obliv_trace::{NullSink, Tracer};
//!
//! // Per-department salary totals, without revealing department sizes.
//! let salaries = Table::from_pairs(vec![(10, 1000), (20, 800), (10, 1200), (30, 500)]);
//! let tracer = Tracer::new(NullSink);
//! let totals = oblivious_group_aggregate(&tracer, &salaries, Aggregate::Sum);
//! assert_eq!(totals.rows(), &[(10, 2200).into(), (20, 800).into(), (30, 500).into()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
mod aggregate;
mod join_aggregate;
pub mod wide;

pub use aggregate::{oblivious_group_aggregate, Aggregate};
pub use join_aggregate::{oblivious_join_aggregate, JoinAggregate};
pub use wide::{
    group_aggregate_output_schema, join_aggregate_output_schema, join_output_name,
    join_output_schema, project_output_schema, union_output_schema, validate_membership_keys,
    validate_row_width, wide_anti_join, wide_distinct, wide_filter, wide_group_aggregate,
    wide_join, wide_join_aggregate, wide_project, wide_semi_join, wide_sort, wide_union_all,
    WideCmp, WideError, WidePredicate, MAX_CARRY_WORDS, MAX_ROW_WORDS,
};

/// Fixtures of the `filter` and `set_ops` test modules below, which keep
/// the cases of the former pair operators — one per old test, under its old
/// path — on the wide operators at `Schema::pair()`.
#[cfg(test)]
mod pair_fixtures {
    pub use obliv_join::{Table, Value, WideTable};
    pub use obliv_trace::{CollectingSink, NullSink, Tracer};

    pub fn table(rows: Vec<(u64, u64)>) -> WideTable {
        WideTable::from_pair(&Table::from_pairs(rows))
    }

    /// A two-`u64`-column operator output, read back as pairs.
    pub fn pairs(t: &WideTable) -> Vec<(u64, u64)> {
        (0..t.len())
            .map(|i| match t.row_values(i)[..] {
                [Value::U64(k), Value::U64(v)] => (k, v),
                ref other => panic!("not a two-u64 row: {other:?}"),
            })
            .collect()
    }

    pub fn sorted(mut rows: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        rows.sort_unstable();
        rows
    }

    pub fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    pub fn null() -> Tracer<NullSink> {
        Tracer::new(NullSink)
    }
}

#[cfg(test)]
mod filter {
    mod tests {
        use crate::pair_fixtures::*;
        use crate::{wide_filter, wide_project, WidePredicate};

        fn input() -> WideTable {
            table(vec![(1, 10), (2, 25), (1, 30), (3, 5), (2, 60)])
        }

        fn key_is(k: u64) -> WidePredicate {
            WidePredicate::equals("key", Value::U64(k))
        }

        fn filtered(t: &WideTable, p: &WidePredicate) -> Vec<(u64, u64)> {
            pairs(&wide_filter(&null(), t, p).unwrap())
        }

        #[test]
        fn predicates_evaluate_correctly() {
            // One row (5, 40); each predicate keeps it or drops it.
            let keeps = |p: WidePredicate| filtered(&table(vec![(5, 40)]), &p).len() == 1;
            let range = |lo, hi| WidePredicate::in_range("key", Value::U64(lo), Value::U64(hi));
            assert!(keeps(WidePredicate::True));
            assert!(keeps(key_is(5)) && !keeps(key_is(6)));
            assert!(keeps(range(3, 5)) && keeps(range(5, 9)) && !keeps(range(6, 9)));
            assert!(keeps(WidePredicate::at_least("value", Value::U64(40))));
            assert!(!keeps(WidePredicate::at_least("value", Value::U64(41))));
            assert!(keeps(WidePredicate::below("value", Value::U64(41))));
            assert!(!keeps(WidePredicate::below("value", Value::U64(40))));
        }

        #[test]
        fn filter_keeps_matching_rows_in_order() {
            assert_eq!(filtered(&input(), &key_is(1)), [(1, 10), (1, 30)]);
            let at_least_25 = WidePredicate::at_least("value", Value::U64(25));
            assert_eq!(
                filtered(&input(), &at_least_25),
                [(2, 25), (1, 30), (2, 60)]
            );
            assert_eq!(filtered(&input(), &WidePredicate::True), pairs(&input()));
            assert!(filtered(&input(), &key_is(99)).is_empty());
        }

        #[test]
        fn filter_of_empty_table_is_empty() {
            assert!(filtered(&table(vec![]), &WidePredicate::True).is_empty());
        }

        #[test]
        fn filter_trace_depends_only_on_input_size() {
            // ... and on the revealed output size: n = 5 in, 2 out, whatever
            // the predicate and the data.
            let run = |t: WideTable, p: WidePredicate| {
                let tracer = Tracer::new(CollectingSink::new());
                assert_eq!(wide_filter(&tracer, &t, &p).unwrap().len(), 2);
                tracer.with_sink(|s| s.accesses().to_vec())
            };
            let a = run(input(), key_is(1));
            let other = table(vec![(9, 9), (9, 9), (0, 1), (0, 2), (0, 3)]);
            assert_eq!(
                a,
                run(input(), WidePredicate::below("value", Value::U64(25)))
            );
            assert_eq!(a, run(other, key_is(9)));
        }

        #[test]
        fn project_applies_mapping_without_reordering() {
            // The structural remap of the degenerate schema: swap columns.
            let out = wide_project(&null(), &input(), &cols(&["value", "key"])).unwrap();
            assert_eq!(out.schema().column_names(), ["value", "key"]);
            assert_eq!(pairs(&out), [(10, 1), (25, 2), (30, 1), (5, 3), (60, 2)]);
        }
    }
}

#[cfg(test)]
mod set_ops {
    mod tests {
        use crate::pair_fixtures::*;
        use crate::{wide_anti_join, wide_distinct, wide_semi_join, wide_union_all};

        fn probe() -> WideTable {
            table(vec![(1, 10), (2, 20), (3, 30), (1, 11), (4, 40)])
        }

        fn witnesses() -> WideTable {
            table(vec![(1, 100), (3, 300), (3, 301), (9, 900)])
        }

        fn semi(l: &WideTable, r: &WideTable) -> Vec<(u64, u64)> {
            sorted(pairs(&wide_semi_join(&null(), l, r, "key", "key").unwrap()))
        }

        fn anti(l: &WideTable, r: &WideTable) -> Vec<(u64, u64)> {
            sorted(pairs(&wide_anti_join(&null(), l, r, "key", "key").unwrap()))
        }

        #[test]
        fn union_all_concatenates() {
            let out = pairs(&wide_union_all(&null(), &probe(), &witnesses()).unwrap());
            assert_eq!(out.len(), 9);
            assert_eq!((out[0], out[5]), ((1, 10), (1, 100)));
        }

        #[test]
        fn distinct_removes_exact_duplicates_only() {
            let t = table(vec![(1, 5), (2, 5), (1, 5), (1, 6), (2, 5), (1, 5)]);
            let out = wide_distinct(&null(), &t).unwrap();
            assert_eq!(pairs(&out), [(1, 5), (1, 6), (2, 5)]);
            assert!(wide_distinct(&null(), &table(vec![])).unwrap().is_empty());
        }

        #[test]
        fn semi_join_keeps_rows_with_matching_keys() {
            // Keys 1 and 3 exist in the witness table.
            assert_eq!(semi(&probe(), &witnesses()), [(1, 10), (1, 11), (3, 30)]);
        }

        #[test]
        fn anti_join_keeps_rows_without_matching_keys() {
            assert_eq!(anti(&probe(), &witnesses()), [(2, 20), (4, 40)]);
        }

        #[test]
        fn semi_and_anti_join_partition_the_probe_table() {
            let mut all = semi(&probe(), &witnesses());
            all.extend(anti(&probe(), &witnesses()));
            assert_eq!(sorted(all), sorted(pairs(&probe())));
        }

        #[test]
        fn semi_join_against_empty_witnesses_is_empty() {
            assert!(semi(&probe(), &table(vec![])).is_empty());
            assert_eq!(anti(&probe(), &table(vec![])), sorted(pairs(&probe())));
        }

        #[test]
        fn distinct_agrees_with_a_reference_set() {
            let rows: Vec<(u64, u64)> = (0..200u64).map(|i| (i % 7, i % 13)).collect();
            let reference: std::collections::BTreeSet<(u64, u64)> = rows.iter().copied().collect();
            let out = wide_distinct(&null(), &table(rows)).unwrap();
            assert_eq!(pairs(&out), reference.into_iter().collect::<Vec<_>>());
        }

        #[test]
        fn traces_depend_only_on_sizes() {
            // Sizes 5 and 4 in, 3 out, whatever the data.
            let run = |t1: WideTable, t2: WideTable| {
                let tracer = Tracer::new(CollectingSink::new());
                let out = wide_semi_join(&tracer, &t1, &t2, "key", "key").unwrap();
                assert_eq!(out.len(), 3);
                tracer.with_sink(|s| s.accesses().to_vec())
            };
            let other_probe = table(vec![(7, 1), (7, 2), (7, 3), (6, 4), (5, 5)]);
            let other_witnesses = table(vec![(7, 9), (7, 8), (8, 7), (8, 6)]);
            assert_eq!(run(probe(), witnesses()), run(other_probe, other_witnesses));
        }
    }
}

/// The composition cases of the former `QueryPlan` tree, composed by hand.
#[cfg(test)]
mod plan {
    mod tests {
        use crate::pair_fixtures::*;
        use crate::*;
        use std::collections::BTreeMap;

        /// (customer id, order value)
        fn orders() -> WideTable {
            table(vec![
                (1, 100),
                (1, 250),
                (2, 50),
                (3, 300),
                (3, 20),
                (3, 80),
            ])
        }

        /// (customer id, region)
        fn customers() -> WideTable {
            table(vec![(1, 7), (2, 7), (3, 9), (4, 9)])
        }

        fn orders_at_least_80() -> WideTable {
            let p = WidePredicate::at_least("value", Value::U64(80));
            wide_filter(&null(), &orders(), &p).unwrap()
        }

        /// `left ⋈ customers` on the customer id, projected to two columns.
        fn join_customers(left: &WideTable, project: &[&str]) -> WideTable {
            let v = cols(&["value"]);
            let joined = wide_join(&null(), left, &customers(), "key", "key", &v, &v).unwrap();
            wide_project(&null(), &joined, &cols(project)).unwrap()
        }

        #[test]
        fn filter_group_plan_matches_manual_composition() {
            let kept = orders_at_least_80();
            let out = wide_group_aggregate(&null(), &kept, "key", Aggregate::Sum, Some("value"));
            assert_eq!(pairs(&out.unwrap()), [(1, 350), (3, 380)]);
        }

        #[test]
        fn join_plan_projects_requested_columns() {
            // Region per order: keep (customer, region).
            let out = pairs(&join_customers(&orders(), &["key", "right_value"]));
            assert_eq!(out.len(), orders().len());
            assert!(out.iter().all(|&(_, region)| region == 7 || region == 9));
            // Re-keyed by order value, carrying the region.
            let rekeyed = join_customers(&orders(), &["left_value", "right_value"]);
            assert!(pairs(&rekeyed).contains(&(300, 9)));
        }

        #[test]
        fn multi_stage_plan_matches_plaintext_sql() {
            // SELECT region, COUNT(*) over orders joined to customers, orders >= 80 only.
            let by_region = join_customers(&orders_at_least_80(), &["right_value", "left_value"]);
            let out =
                wide_group_aggregate(&null(), &by_region, "right_value", Aggregate::Count, None);

            let mut expected = BTreeMap::new();
            for (customer, _) in pairs(&orders()).into_iter().filter(|o| o.1 >= 80) {
                for (_, region) in pairs(&customers()).into_iter().filter(|c| c.0 == customer) {
                    *expected.entry(region).or_insert(0u64) += 1;
                }
            }
            let got: BTreeMap<u64, u64> = pairs(&out.unwrap()).into_iter().collect();
            assert_eq!(got, expected);
        }

        #[test]
        fn semi_anti_union_compose() {
            let with = wide_semi_join(&null(), &customers(), &orders(), "key", "key").unwrap();
            let without = wide_anti_join(&null(), &customers(), &orders(), "key", "key").unwrap();
            let all_again = wide_union_all(&null(), &with, &without).unwrap();
            assert_eq!((with.len(), without.len()), (3, 1));
            assert_eq!(sorted(pairs(&all_again)), pairs(&customers()));
        }

        #[test]
        fn join_aggregate_plan_never_materialises_the_join() {
            // The trace length must not grow with the join output size
            // (one group either way: 1 pair against 900).
            let run = |left: Vec<(u64, u64)>, right: Vec<(u64, u64)>| {
                let tracer = Tracer::new(CollectingSink::new());
                let (l, r) = (table(left), table(right));
                let agg = JoinAggregate::CountPairs;
                wide_join_aggregate(&tracer, &l, &r, "key", "key", None, None, agg).unwrap();
                tracer.with_sink(|s| s.accesses().len())
            };
            let tiny_output = run(
                (0..30).map(|i| (i, i)).collect(),
                (0..30).map(|i| (i * 500, i)).collect(),
            );
            let huge_output = run(vec![(1, 1); 30], vec![(1, 2); 30]);
            assert_eq!(tiny_output, huge_output);
        }

        #[test]
        fn swap_columns_and_distinct() {
            let swapped = wide_project(&null(), &orders(), &cols(&["value", "key"])).unwrap();
            let out = pairs(&wide_distinct(&null(), &swapped).unwrap());
            // Keys are now the order values (all distinct in this fixture).
            assert_eq!(out.len(), orders().len());
            assert!(out.contains(&(250, 1)));
        }
    }
}
