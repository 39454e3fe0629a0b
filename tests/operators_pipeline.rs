//! Cross-crate integration tests for the oblivious operator library at the
//! degenerate `{key, value}` schema: operator pipelines agree with plaintext
//! SQL-style references and keep the join's leakage profile.

use std::collections::BTreeMap;

use obliv_join_suite::prelude::*;
use obliv_trace::Tracer;

fn tracer() -> Tracer<CountingSink> {
    Tracer::new(CountingSink::new())
}

/// Read a two-`u64`-column operator output back as pairs.
fn pairs(t: &WideTable) -> Vec<(u64, u64)> {
    Rows::from_wide(t.clone()).pairs().expect("two u64 columns")
}

fn value_at_least(n: u64) -> WidePredicate {
    WidePredicate::at_least("value", Value::U64(n))
}

/// `wide_join_aggregate` on `key = key`, reading `value` on the sides the
/// aggregate needs.
fn join_aggregate(
    tracer: &Tracer<impl obliv_trace::TraceSink>,
    t1: &WideTable,
    t2: &WideTable,
    aggregate: JoinAggregate,
) -> WideTable {
    use JoinAggregate::{SumLeft, SumProducts, SumRight};
    let left = matches!(aggregate, SumLeft | SumProducts).then_some("value");
    let right = matches!(aggregate, SumRight | SumProducts).then_some("value");
    wide_join_aggregate(tracer, t1, t2, "key", "key", left, right, aggregate).unwrap()
}

#[test]
fn filter_join_aggregate_pipeline_matches_plaintext_sql() {
    // SELECT key, SUM(d1 * d2) FROM T1 JOIN T2 USING (key) WHERE T2.d >= 50 GROUP BY key
    let workload = power_law(300, 300, 1.9, 31);
    let (t1, t2) = (&workload.left, &workload.right);
    let tracer = tracer();

    let filtered = wide_filter(&tracer, &WideTable::from_pair(t2), &value_at_least(50)).unwrap();
    let result = join_aggregate(
        &tracer,
        &WideTable::from_pair(t1),
        &filtered,
        JoinAggregate::SumProducts,
    );

    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    for a in t1.iter() {
        for b in t2.iter().filter(|b| b.value >= 50 && b.key == a.key) {
            *reference.entry(a.key).or_insert(0) = reference
                .get(&a.key)
                .copied()
                .unwrap_or(0)
                .wrapping_add(a.value * b.value);
        }
    }
    let got: BTreeMap<u64, u64> = pairs(&result).into_iter().collect();
    assert_eq!(got, reference);
}

#[test]
fn join_aggregate_count_matches_full_join_cardinalities() {
    let workload = power_law(200, 250, 2.1, 8);
    let tracer = tracer();
    let counts = join_aggregate(
        &tracer,
        &WideTable::from_pair(&workload.left),
        &WideTable::from_pair(&workload.right),
        JoinAggregate::CountPairs,
    );
    let total: u64 = pairs(&counts).iter().map(|&(_, count)| count).sum();
    assert_eq!(total, workload.output_size);

    // And the per-key counts equal what the materialised oblivious join produces.
    let full = oblivious_join(&workload.left, &workload.right);
    assert_eq!(full.len() as u64, total);
}

#[test]
fn group_aggregate_over_join_output_agrees_with_join_aggregate() {
    // Computing SUM(d2) per key by (a) materialising the join and grouping
    // its output and (b) using the never-materialise operator must agree —
    // with each other and with a plaintext pass.
    let workload = power_law(150, 150, 2.0, 91);
    let (t1, t2) = (&workload.left, &workload.right);
    let (w1, w2) = (WideTable::from_pair(t1), WideTable::from_pair(t2));
    let tracer = tracer();

    let direct = join_aggregate(&tracer, &w1, &w2, JoinAggregate::SumRight);

    let carry = ["value".to_string()];
    let joined = wide_join(&tracer, &w1, &w2, "key", "key", &[], &carry).unwrap();
    let grouped =
        wide_group_aggregate(&tracer, &joined, "key", Aggregate::Sum, Some("right_value")).unwrap();
    assert_eq!(pairs(&grouped), pairs(&direct));

    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    for a in t1.iter() {
        for b in t2.iter().filter(|b| b.key == a.key) {
            *reference.entry(a.key).or_insert(0) += b.value;
        }
    }
    let got: BTreeMap<u64, u64> = pairs(&direct).into_iter().collect();
    assert_eq!(got, reference);
}

#[test]
fn semi_join_plus_anti_join_cover_the_probe_side() {
    let workload = pk_fk(60, 240, 5);
    let (primary, foreign) = (
        WideTable::from_pair(&workload.left),
        WideTable::from_pair(&workload.right),
    );
    let tracer = tracer();
    let semi = wide_semi_join(&tracer, &foreign, &primary, "key", "key").unwrap();
    let anti = wide_anti_join(&tracer, &foreign, &primary, "key", "key").unwrap();
    assert_eq!(semi.len() + anti.len(), foreign.len());
    // Every foreign row references an existing key in this generator.
    assert_eq!(anti.len(), 0);
}

#[test]
fn distinct_then_group_count_equals_histogram() {
    let t: Table = (0..500u64).map(|i| (i % 23, i % 7)).collect();
    let wide = WideTable::from_pair(&t);
    let tracer = tracer();
    let counts = wide_group_aggregate(&tracer, &wide, "key", Aggregate::Count, None).unwrap();
    let histogram = t.key_histogram();
    assert_eq!(counts.len(), histogram.len());
    for (key, count) in pairs(&counts) {
        assert_eq!(count, histogram[&key], "key {key}");
    }

    let distinct = wide_distinct(&tracer, &wide).unwrap();
    // 23 keys × 7 values, but only pairs (i % 23, i % 7) that actually occur.
    let expected: std::collections::BTreeSet<(u64, u64)> =
        t.rows().iter().map(|e| (e.key, e.value)).collect();
    assert_eq!(distinct.len(), expected.len());
}

#[test]
fn operator_traces_depend_only_on_sizes() {
    let digest = |t1: &Table, t2: &Table| {
        let tracer = Tracer::new(HashingSink::new());
        let filtered =
            wide_filter(&tracer, &WideTable::from_pair(t2), &value_at_least(10)).unwrap();
        let groups = join_aggregate(
            &tracer,
            &WideTable::from_pair(t1),
            &filtered,
            JoinAggregate::CountPairs,
        );
        // The revealed intermediate sizes are part of the public shape; the
        // workloads below are constructed so they coincide.
        (
            filtered.len(),
            groups.len(),
            tracer.with_sink(|s| s.digest_hex()),
        )
    };

    // Both pairs: n1 = 50, n2 = 50, every right value >= 10 so the filter
    // keeps all 50 rows, and three join keys are present on both sides.
    let a1: Table = (0..50u64).map(|i| (i.min(2) + 40, i)).collect();
    let a2: Table = (0..50u64).map(|i| (i, 10 + i)).collect();
    let b1: Table = (0..50u64).map(|i| (i % 3, 1)).collect();
    let b2: Table = (0..50u64).map(|i| (i % 3, 10 + i)).collect();

    let a = digest(&a1, &a2);
    let b = digest(&b1, &b2);
    assert_eq!((a.0, a.1), (50, 3));
    assert_eq!(a, b);
}
