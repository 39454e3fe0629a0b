//! Shard-count equivalence: every operator the engine serves, executed by
//! coordinators at 1, 2 and 4 shards, must be equivalent to a single-engine
//! oracle over the same catalog.
//!
//! "Equivalent" is decided by the coordinator's own routing analysis
//! ([`Coordinator::classify`]): order-preserving merges (`Concat`) and
//! non-scattered routes must be *bit-identical* to the oracle — same rows in
//! the same order — while order-restoring merges (`SortedConcat`,
//! `MergeDistinct`, `Reaggregate`) must agree as canonicalised row multisets
//! (the merge re-sorts by key, the serial engine preserves input order, and
//! both orders are valid under the operator's contract).  Schemas, row
//! counts and row widths must always match exactly.
//!
//! Content accounting is covered too: digests and Content metrics are a pure
//! function of (plan, public sizes, shard count), so two identical
//! coordinators must reproduce them bit for bit; warm-cache re-runs and
//! intra-batch duplicates must serve the original payload unchanged.

use std::sync::Arc;

use obliv_engine::{
    Engine, EngineConfig, MergeOp, Plan, QueryExecutor, QueryRequest, QueryResponse, Shardability,
};
use obliv_join::{Table, Value, WideTable};
use obliv_operators::{Aggregate, JoinAggregate, WidePredicate};
use obliv_server::{Client, Server, ServerConfig};
use obliv_shard::{Coordinator, ShardConfig};
use obliv_workloads::wide_orders_lineitem;

/// Pair-shaped fact table: 7 rows so 4-shard chunks are uneven (1/2/2/2),
/// with duplicate keys crossing chunk boundaries.
fn facts() -> Table {
    Table::from_pairs(vec![
        (1, 10),
        (2, 20),
        (1, 30),
        (3, 40),
        (2, 50),
        (4, 60),
        (3, 70),
    ])
}

/// Pair-shaped dimension table: replicated; key 5 matches nothing.
fn dims() -> Table {
    Table::from_pairs(vec![(1, 7), (2, 9), (5, 11)])
}

/// Wide fixtures: `orders` (replicated) and `lineitem` (partitioned, the
/// bigger side — 1–7 rows per order).
fn wide_fixtures() -> (WideTable, WideTable) {
    let spec = wide_orders_lineitem(24, 9);
    (spec.orders, spec.lineitem)
}

fn register_all(c: &Coordinator) {
    c.register_table("facts", facts()).unwrap();
    c.register_table("dims", dims()).unwrap();
    let (orders, lineitem) = wide_fixtures();
    c.register_wide_table("orders", orders).unwrap();
    c.register_wide_table("lineitem", lineitem).unwrap();
}

/// Re-register every fixture with different contents of the same public
/// shape: row `i` keeps its key (so partitions, join sizes and group
/// counts are unchanged) and stays on its side of every filter threshold
/// in [`plan_matrix`], while every other column value changes.
fn register_twisted(c: &Coordinator) {
    let pairs = |t: Table| Table::from_pairs(t.iter().map(|e| (e.key, e.value ^ 1)));
    c.register_table("facts", pairs(facts())).unwrap();
    c.register_table("dims", pairs(dims())).unwrap();
    let (orders, lineitem) = wide_fixtures();
    let rewrite = |t: &WideTable, twist: &dyn Fn(&mut Vec<Value>)| {
        let rows = (0..t.len()).map(|i| {
            let mut row = t.row_values(i);
            twist(&mut row);
            row
        });
        WideTable::from_rows(t.schema().clone(), rows).unwrap()
    };
    // orders: {o_key, price, priority, urgent, region} — new prices.
    let orders = rewrite(&orders, &|row| row[1] = Value::U64(7));
    // lineitem: {o_key, qty, tax, part} — `qty` is filtered on, keep it.
    let lineitem = rewrite(&lineitem, &|row| row[2] = Value::I64(-1));
    c.register_wide_table("orders", orders).unwrap();
    c.register_wide_table("lineitem", lineitem).unwrap();
}

fn coordinator(shards: usize) -> Coordinator {
    coordinator_with(shards, true)
}

fn coordinator_with(shards: usize, result_cache: bool) -> Coordinator {
    let c = Coordinator::new(ShardConfig {
        shards,
        partitioned: vec!["facts".into(), "lineitem".into()],
        engine: EngineConfig {
            workers: 1,
            result_cache,
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    });
    register_all(&c);
    c
}

/// The single-engine oracle over the identical (whole-table) catalog.
fn oracle() -> Engine {
    let e = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    e.register_table("facts", facts()).unwrap();
    e.register_table("dims", dims()).unwrap();
    let (orders, lineitem) = wide_fixtures();
    e.register_wide_table("orders", orders).unwrap();
    e.register_wide_table("lineitem", lineitem).unwrap();
    e
}

/// The full operator matrix.  Covers every `Plan` constructor and every
/// routing class: Concat, SortedConcat, MergeDistinct, Reaggregate, Local
/// (replicated-only) and Gather (non-decomposable).
fn plan_matrix() -> Vec<Plan> {
    vec![
        // Order-preserving scatters (Concat).
        Plan::scan("facts"),
        Plan::scan("facts").filter(WidePredicate::at_least("value", Value::U64(25))),
        Plan::scan("facts").project(["value", "key"]),
        // Key-ordered scatters (SortedConcat).
        Plan::scan("facts").join(Plan::scan("dims"), "key", "key"),
        Plan::scan("facts").semi_join(Plan::scan("dims"), "key", "key"),
        Plan::scan("facts").anti_join(Plan::scan("dims"), "key", "key"),
        Plan::scan("facts").union_all(Plan::scan("facts")),
        // Merge-distinct.
        Plan::scan("facts").project(["key"]).distinct(),
        // Re-aggregation, one per combine rule.
        Plan::scan("facts").group_aggregate(
            Aggregate::Sum,
            Some("value".into()),
            Some("key".into()),
        ),
        Plan::scan("facts").group_aggregate(Aggregate::Count, None, Some("key".into())),
        Plan::scan("facts").group_aggregate(
            Aggregate::Min,
            Some("value".into()),
            Some("key".into()),
        ),
        Plan::scan("facts").group_aggregate(
            Aggregate::Max,
            Some("value".into()),
            Some("key".into()),
        ),
        Plan::scan("facts").join_aggregate(
            Plan::scan("dims"),
            "key",
            "key",
            None,
            None,
            JoinAggregate::CountPairs,
        ),
        // Replicated-only: runs locally on shard 0.
        Plan::scan("dims"),
        Plan::scan("dims").filter(WidePredicate::below("value", Value::U64(10))),
        // Not decomposable: gathered to the full-copy engine.
        Plan::scan("facts").union_all(Plan::scan("dims")),
        Plan::scan("facts").distinct().project(["key"]),
        // Wide-schema plans over the partitioned lineitem table.
        Plan::scan("lineitem").filter(WidePredicate::at_least("qty", Value::U64(3))),
        Plan::scan("lineitem").join(Plan::scan("orders"), "o_key", "o_key"),
        Plan::scan("lineitem").group_aggregate(
            Aggregate::Sum,
            Some("qty".into()),
            Some("o_key".into()),
        ),
        Plan::scan("lineitem").project(["o_key"]).distinct(),
    ]
}

fn canonical_rows(table: &WideTable) -> Vec<Vec<u8>> {
    let mut rows: Vec<Vec<u8>> = (0..table.len())
        .map(|i| table.row_bytes(i).to_vec())
        .collect();
    rows.sort();
    rows
}

/// Post-merge equivalence of one response against the oracle's, with the
/// comparison mode chosen by the coordinator's own routing decision.
fn assert_equivalent(c: &Coordinator, plan: &Plan, got: &QueryResponse, want: &QueryResponse) {
    let context = format!("plan {} at {} shards", plan.canonical(), c.shards());
    assert_eq!(
        got.rows.schema(),
        want.rows.schema(),
        "schema mismatch: {context}"
    );
    assert_eq!(got.rows.len(), want.rows.len(), "row count: {context}");
    assert_eq!(
        got.summary.output_rows, want.summary.output_rows,
        "summary rows: {context}"
    );
    assert_eq!(
        got.summary.output_row_width, want.summary.output_row_width,
        "row width: {context}"
    );
    // Merges that end in a key sort restore *an* operator-valid order, not
    // necessarily the serial engine's input order; everything else must be
    // bit-identical.
    let order_free = matches!(
        c.classify(plan),
        Shardability::Partitioned(
            MergeOp::SortedConcat | MergeOp::MergeDistinct | MergeOp::Reaggregate { .. }
        )
    );
    if order_free {
        assert_eq!(
            canonical_rows(got.rows.table()),
            canonical_rows(want.rows.table()),
            "row multiset: {context}"
        );
    } else {
        assert_eq!(got.rows, want.rows, "rows (bit-identical): {context}");
    }
}

#[test]
fn every_operator_matches_the_oracle_at_1_2_and_4_shards() {
    let oracle = oracle();
    let plans = plan_matrix();
    let requests: Vec<QueryRequest> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| QueryRequest::new(format!("q{i}"), p.clone()))
        .collect();
    let want = oracle.execute_batch(&requests).unwrap();

    for shards in [1, 2, 4] {
        let c = coordinator(shards);
        let got = c.execute_batch(&requests).unwrap();
        assert_eq!(got.len(), want.len());
        for ((plan, got), want) in plans.iter().zip(&got).zip(&want) {
            assert_equivalent(&c, plan, got, want);
        }
    }
}

#[test]
fn digest_memo_serves_exactly_what_tracing_would_at_1_2_and_4_shards() {
    let requests: Vec<QueryRequest> = plan_matrix()
        .iter()
        .enumerate()
        .map(|(i, p)| QueryRequest::new(format!("q{i}"), p.clone()))
        .collect();
    /// `(hits, misses)` of the merge memo and of shard 0's engine memo.
    fn memo_counts(c: &Coordinator) -> [(u64, u64); 2] {
        let merge = c.metrics().snapshot();
        let shard0 = c.shard_engine(0).metrics().snapshot();
        [
            (
                merge.counter("shard_merge_digest_memo_hits_total", &[]),
                merge.counter("shard_merge_digest_memo_misses_total", &[]),
            ),
            (
                shard0.counter("engine_digest_memo_hits_total", &[]),
                shard0.counter("engine_digest_memo_misses_total", &[]),
            ),
        ]
    }
    for shards in [1, 2, 4] {
        // Result caches off, so the second round re-executes everywhere.
        let memo = coordinator_with(shards, false);
        memo.execute_batch(&requests).unwrap();
        let [cold_merge, cold_shard0] = memo_counts(&memo);
        // Same public shapes, contents no memo has traced: shard engines
        // and the merge all serve from their memos (no new miss anywhere) …
        register_twisted(&memo);
        let served = memo.execute_batch(&requests).unwrap();
        let [merge, shard0] = memo_counts(&memo);
        assert_eq!((merge.1, shard0.1), (cold_merge.1, cold_shard0.1));
        assert!(merge.0 > cold_merge.0 && shard0.0 > cold_shard0.0);
        let scattered = memo.metrics().snapshot().counter("shard_merges_total", &[]);
        assert_eq!(merge.0 + merge.1, scattered, "every merge used the memo");
        // … and what they serve is what a cold coordinator, really tracing
        // those contents, reports.
        let reference = coordinator_with(shards, false);
        register_twisted(&reference);
        let real = reference.execute_batch(&requests).unwrap();
        for (s, r) in served.iter().zip(&real) {
            let context = format!("{} at {shards} shards", s.label);
            assert_eq!(s.rows, r.rows, "{context}");
            assert_eq!(s.summary.trace_digest, r.summary.trace_digest, "{context}");
            assert_eq!(s.summary.trace_events, r.summary.trace_events, "{context}");
            assert_eq!(s.summary.counters, r.summary.counters, "{context}");
            assert_eq!(s.summary.shard_partitions, r.summary.shard_partitions);
        }
        let snap = memo.metrics().snapshot();
        assert_eq!(snap.counter("shard_merge_digest_mismatch_total", &[]), 0);
        let shard0 = memo.shard_engine(0).metrics().snapshot();
        assert_eq!(shard0.counter("engine_digest_mismatch_total", &[]), 0);
    }
}

#[test]
fn matrix_exercises_every_route_and_merge() {
    // Guard against the matrix silently degenerating: it must keep at
    // least one plan in every routing class at two shards.
    let c = coordinator(2);
    let classes: Vec<Shardability> = plan_matrix().iter().map(|p| c.classify(p)).collect();
    for wanted in [
        Shardability::Partitioned(MergeOp::Concat),
        Shardability::Partitioned(MergeOp::SortedConcat),
        Shardability::Partitioned(MergeOp::MergeDistinct),
        Shardability::Replicated,
        Shardability::Gather,
    ] {
        assert!(classes.contains(&wanted), "matrix lost class {wanted:?}");
    }
    assert!(
        classes
            .iter()
            .any(|s| matches!(s, Shardability::Partitioned(MergeOp::Reaggregate { .. }))),
        "matrix lost the re-aggregation class"
    );
}

#[test]
fn content_accounting_is_deterministic_across_identical_coordinators() {
    // Digest, trace-event count, op counters, revealed partition sizes and
    // every Content metric are functions of public parameters only, so two
    // fresh same-shape coordinators must agree bit for bit.
    let requests: Vec<QueryRequest> = plan_matrix()
        .iter()
        .enumerate()
        .map(|(i, p)| QueryRequest::new(format!("q{i}"), p.clone()))
        .collect();
    for shards in [2, 4] {
        let (a, b) = (coordinator(shards), coordinator(shards));
        let ra = a.execute_batch(&requests).unwrap();
        let rb = b.execute_batch(&requests).unwrap();
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.summary.trace_digest, y.summary.trace_digest);
            assert_eq!(x.summary.trace_events, y.summary.trace_events);
            assert_eq!(x.summary.counters, y.summary.counters);
            assert_eq!(x.summary.shard_partitions, y.summary.shard_partitions);
            assert_eq!(x.rows, y.rows);
        }
        let (sa, sb) = (a.metrics().snapshot(), b.metrics().snapshot());
        assert_eq!(
            sa.without_timing().to_prometheus_text(),
            sb.without_timing().to_prometheus_text(),
            "Content metric divergence at {shards} shards"
        );
        // Audit rings carry the same records (timestamps are not part of
        // the record; digests and revealed inputs are).
        let (aa, ab) = (a.audit().records(), b.audit().records());
        assert_eq!(aa.len(), ab.len());
        for (x, y) in aa.iter().zip(&ab) {
            assert_eq!(x.digest, y.digest);
            assert_eq!(x.inputs, y.inputs);
            assert_eq!(x.counters, y.counters);
        }
    }
}

#[test]
fn scattered_queries_reveal_partition_sizes_and_nothing_else_new() {
    let c = coordinator(2);
    let join = Plan::scan("facts").join(Plan::scan("dims"), "key", "key");
    let r = &c
        .execute_batch(&[QueryRequest::new("audited", join)])
        .unwrap()[0];
    // 7 facts rows split 3/4 across 2 shards.
    assert_eq!(
        r.summary.shard_partitions,
        vec![
            ("facts@shard0".to_string(), 3),
            ("facts@shard1".to_string(), 4)
        ]
    );
    let records = c.audit().records();
    assert_eq!(records.len(), 1);
    let inputs = &records[0].inputs;
    // Revealed inputs: whole-table sizes plus the per-shard chunks, and
    // nothing about the replicated side beyond its public size.
    assert!(inputs.contains(&("facts".to_string(), 7)));
    assert!(inputs.contains(&("dims".to_string(), 3)));
    assert!(inputs.contains(&("facts@shard0".to_string(), 3)));
    assert!(inputs.contains(&("facts@shard1".to_string(), 4)));
    assert!(!inputs.iter().any(|(name, _)| name.starts_with("dims@")));
    // Local and gathered plans reveal no partition sizes at all.
    let local = &c
        .execute_batch(&[QueryRequest::new("local", Plan::scan("dims"))])
        .unwrap()[0];
    assert!(local.summary.shard_partitions.is_empty());
}

#[test]
fn warm_cache_reruns_are_bit_identical() {
    let requests: Vec<QueryRequest> = plan_matrix()
        .iter()
        .enumerate()
        .map(|(i, p)| QueryRequest::new(format!("q{i}"), p.clone()))
        .collect();
    let c = coordinator(2);
    let cold = c.execute_batch(&requests).unwrap();
    assert!(cold.iter().all(|r| !r.cached));
    let warm = c.execute_batch(&requests).unwrap();
    for (cold, warm) in cold.iter().zip(&warm) {
        assert!(warm.cached, "warm rerun of {} not cached", warm.label);
        assert_eq!(cold.rows, warm.rows);
        assert_eq!(cold.summary.trace_digest, warm.summary.trace_digest);
        assert_eq!(cold.summary.shard_partitions, warm.summary.shard_partitions);
    }
    // Cache hits accrue on the shard engines, visible per shard.
    assert!(QueryExecutor::shard_cache_hits(&c).iter().all(|&h| h > 0));
}

#[test]
fn intra_batch_duplicates_serve_the_representative_payload() {
    let c = coordinator(4);
    let plan = Plan::scan("facts").group_aggregate(
        Aggregate::Sum,
        Some("value".into()),
        Some("key".into()),
    );
    let batch = [
        QueryRequest::new("first", plan.clone()),
        QueryRequest::new("dup", plan.clone()),
        QueryRequest::new("other", Plan::scan("dims")),
        QueryRequest::new("dup2", plan),
    ];
    let r = c.execute_batch(&batch).unwrap();
    assert!(!r[0].cached);
    assert!(r[1].cached && r[3].cached);
    assert!(!r[2].cached);
    assert_eq!(r[0].rows, r[1].rows);
    assert_eq!(r[0].rows, r[3].rows);
    assert_eq!(r[0].summary.trace_digest, r[1].summary.trace_digest);
    assert_eq!(r[1].label, "dup");
}

#[test]
fn mixed_workload_in_one_batch_matches_the_oracle() {
    // The acceptance shape: the whole matrix as ONE batch against the
    // 2-shard coordinator, with duplicates sprinkled in, versus the oracle.
    let plans = plan_matrix();
    let mut batch: Vec<QueryRequest> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| QueryRequest::new(format!("q{i}"), p.clone()))
        .collect();
    batch.push(QueryRequest::new("q0-again", plans[0].clone()));
    batch.push(QueryRequest::new("q3-again", plans[3].clone()));

    let want = oracle().execute_batch(&batch).unwrap();
    let c = coordinator(2);
    let got = c.execute_batch(&batch).unwrap();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        let plan = if i < plans.len() {
            &plans[i]
        } else if i == plans.len() {
            &plans[0]
        } else {
            &plans[3]
        };
        assert_equivalent(&c, plan, got, want);
    }
    // The trailing duplicates deduplicate on both sides.
    assert!(got[plans.len()].cached && got[plans.len() + 1].cached);
}

#[test]
fn coordinator_serves_the_wire_protocol_end_to_end() {
    // The coordinator slots in behind the server exactly where an Engine
    // would: sessions report the shard count, stats report per-shard cache
    // hits, and scattered replies carry the revealed partition sizes.
    let server = Server::without_listener(Arc::new(coordinator(2)), ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "acme");

    let join = Plan::scan("facts").join(Plan::scan("dims"), "key", "key");
    let reply = client.query_plan(&join).unwrap();
    assert_eq!(
        reply.summary.shard_partitions,
        vec![
            ("facts@shard0".to_string(), 3),
            ("facts@shard1".to_string(), 4)
        ]
    );
    let local = client.query_plan(&Plan::scan("dims")).unwrap();
    assert!(local.summary.shard_partitions.is_empty());

    let stats = client.stats().unwrap();
    assert_eq!(stats.session.shards, 2);
    assert_eq!(stats.session.queries, 2);
    assert_eq!(stats.shard_cache_hits.len(), 2);

    // And the same queries through an Engine-backed server agree on rows.
    let single = Server::without_listener(Arc::new(oracle()), ServerConfig::default());
    let mut oracle_client = Client::over(single.connect_loopback().unwrap(), "acme");
    let oracle_reply = oracle_client.query_plan(&join).unwrap();
    assert_eq!(
        canonical_rows(reply.rows.table()),
        canonical_rows(oracle_reply.rows.table())
    );
    assert!(oracle_reply.summary.shard_partitions.is_empty());
    assert_eq!(oracle_client.stats().unwrap().session.shards, 1);
}
