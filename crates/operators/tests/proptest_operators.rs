//! Property-based tests for the oblivious operator library at the
//! degenerate `{key, value}` schema: every wide operator is compared
//! against a plaintext reference on randomly generated tables, and the
//! leakage-profile properties are spot-checked.

use std::collections::{BTreeMap, BTreeSet};

use obliv_join::{Table, Value, WideTable};
use obliv_operators::{
    wide_anti_join, wide_distinct, wide_filter, wide_group_aggregate, wide_join_aggregate,
    wide_semi_join, wide_union_all, Aggregate, JoinAggregate, WidePredicate,
};
use obliv_trace::{CountingSink, Tracer};
use proptest::prelude::*;

fn tracer() -> Tracer<CountingSink> {
    Tracer::new(CountingSink::new())
}

/// Strategy: a table with keys in a small domain (to force collisions) and
/// bounded values, with the plaintext pairs it was built from.
fn small_table(max_rows: usize) -> impl Strategy<Value = (Vec<(u64, u64)>, WideTable)> {
    prop::collection::vec((0u64..12, 0u64..100), 0..max_rows).prop_map(|rows| {
        let table = WideTable::from_pair(&Table::from_pairs(rows.clone()));
        (rows, table)
    })
}

/// Read a two-`u64`-column operator output back as pairs.
fn pairs(t: &WideTable) -> Vec<(u64, u64)> {
    (0..t.len())
        .map(|i| match t.row_values(i)[..] {
            [Value::U64(k), Value::U64(v)] => (k, v),
            ref other => panic!("not a two-u64 row: {other:?}"),
        })
        .collect()
}

fn value_at_least(n: u64) -> WidePredicate {
    WidePredicate::at_least("value", Value::U64(n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_matches_retain((rows, table) in small_table(60), threshold in 0u64..100) {
        let out = wide_filter(&tracer(), &table, &value_at_least(threshold)).unwrap();
        let expected: Vec<(u64, u64)> =
            rows.into_iter().filter(|&(_, v)| v >= threshold).collect();
        prop_assert_eq!(pairs(&out), expected);
    }

    #[test]
    fn distinct_matches_set_semantics((rows, table) in small_table(80)) {
        let out = wide_distinct(&tracer(), &table).unwrap();
        let expected: BTreeSet<(u64, u64)> = rows.into_iter().collect();
        let got = pairs(&out);
        prop_assert_eq!(got.len(), expected.len());
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        prop_assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), expected);
    }

    #[test]
    fn union_preserves_multiset((a_rows, a) in small_table(40), (b_rows, b) in small_table(40)) {
        let out = wide_union_all(&tracer(), &a, &b).unwrap();
        prop_assert_eq!(out.len(), a.len() + b.len());
        let mut expected: Vec<(u64, u64)> = a_rows.into_iter().chain(b_rows).collect();
        let mut got = pairs(&out);
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn semi_and_anti_join_partition(
        (_, probe) in small_table(50),
        (witness_rows, witnesses) in small_table(50),
    ) {
        let semi = wide_semi_join(&tracer(), &probe, &witnesses, "key", "key").unwrap();
        let anti = wide_anti_join(&tracer(), &probe, &witnesses, "key", "key").unwrap();
        prop_assert_eq!(semi.len() + anti.len(), probe.len());

        let witness_keys: BTreeSet<u64> = witness_rows.iter().map(|&(k, _)| k).collect();
        prop_assert!(pairs(&semi).iter().all(|(k, _)| witness_keys.contains(k)));
        prop_assert!(pairs(&anti).iter().all(|(k, _)| !witness_keys.contains(k)));
    }

    #[test]
    fn group_aggregates_match_reference((rows, table) in small_table(70)) {
        for agg in [Aggregate::Count, Aggregate::Sum, Aggregate::Min, Aggregate::Max] {
            let column = (agg != Aggregate::Count).then_some("value");
            let out = wide_group_aggregate(&tracer(), &table, "key", agg, column).unwrap();
            let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for &(k, v) in &rows {
                groups.entry(k).or_default().push(v);
            }
            let expected: Vec<(u64, u64)> = groups
                .iter()
                .map(|(k, vs)| {
                    let v = match agg {
                        Aggregate::Count => vs.len() as u64,
                        Aggregate::Sum => vs.iter().sum(),
                        Aggregate::Min => *vs.iter().min().unwrap(),
                        Aggregate::Max => *vs.iter().max().unwrap(),
                    };
                    (*k, v)
                })
                .collect();
            prop_assert_eq!(pairs(&out), expected, "{:?}", agg);
        }
    }

    #[test]
    fn join_aggregate_matches_materialised_join(
        (a_rows, a) in small_table(40),
        (b_rows, b) in small_table(40),
    ) {
        for agg in [JoinAggregate::CountPairs, JoinAggregate::SumLeft, JoinAggregate::SumRight] {
            let left_value = (agg == JoinAggregate::SumLeft).then_some("value");
            let right_value = (agg == JoinAggregate::SumRight).then_some("value");
            let out = wide_join_aggregate(
                &tracer(), &a, &b, "key", "key", left_value, right_value, agg,
            )
            .unwrap();
            let mut per_key: BTreeMap<u64, u64> = BTreeMap::new();
            for &(xk, xv) in &a_rows {
                for &(_, yv) in b_rows.iter().filter(|&&(yk, _)| yk == xk) {
                    let add = match agg {
                        JoinAggregate::CountPairs => 1,
                        JoinAggregate::SumLeft => xv,
                        JoinAggregate::SumRight => yv,
                        JoinAggregate::SumProducts => xv * yv,
                    };
                    *per_key.entry(xk).or_insert(0) += add;
                }
            }
            let got: BTreeMap<u64, u64> = pairs(&out).into_iter().collect();
            prop_assert_eq!(got, per_key, "{:?}", agg);
        }
    }

    #[test]
    fn filter_access_count_is_a_function_of_input_size(
        (rows, table) in small_table(60),
        threshold in 0u64..100,
    ) {
        // Two runs over tables of the same length and the same revealed
        // output size (the real one, and an all-identical one filtered down
        // to as many rows by key) must make the same number of accesses.
        let tracer_a = tracer();
        let kept = wide_filter(&tracer_a, &table, &value_at_least(threshold)).unwrap().len();
        let a = tracer_a.with_sink(|s| s.overall());

        let uniform = WideTable::from_pair(
            &(0..rows.len()).map(|i| (u64::from(i < kept), 1u64)).collect(),
        );
        let tracer_b = tracer();
        let kept_b = wide_filter(
            &tracer_b,
            &uniform,
            &WidePredicate::equals("key", Value::U64(1)),
        )
        .unwrap()
        .len();
        let b = tracer_b.with_sink(|s| s.overall());
        prop_assert_eq!(kept_b, kept);
        prop_assert_eq!(a, b);
    }
}
