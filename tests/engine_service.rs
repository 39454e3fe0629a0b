//! Integration tests for the `obliv-engine` query service: concurrent
//! batches must be bit-identical to direct [`ResolvedPlan`] execution, a
//! query's trace digest must not depend on what else the pool is running,
//! and every degenerate (pair-shaped) unified plan must lower onto the
//! legacy pair kernel — bit-identical rows *and* trace digests to a
//! hand-built [`QueryPlan`].

use obliv_join_suite::prelude::*;

/// An engine loaded with the paper-style workloads under catalog names.
fn loaded_engine(workers: usize) -> Engine {
    loaded_engine_with(EngineConfig {
        workers,
        ..Default::default()
    })
}

/// Like [`loaded_engine`], with the result cache off — used by the tests
/// whose point is that *re-execution* is bit-identical (a cache hit would
/// trivially compare a payload with itself).  For the same reason those
/// tests build one engine per compared run: a repeated shape on one engine
/// is served its digest from the memo, a fresh engine really traces it.
fn loaded_engine_uncached(workers: usize) -> Engine {
    loaded_engine_with(EngineConfig {
        workers,
        result_cache: false,
        ..Default::default()
    })
}

fn loaded_engine_with(config: EngineConfig) -> Engine {
    let engine = Engine::new(config);
    let ol = orders_lineitem(24, 42);
    engine.register_table("orders", ol.left).unwrap();
    engine.register_table("lineitem", ol.right).unwrap();
    let pl = power_law(60, 60, 1.5, 7);
    engine.register_table("events", pl.left).unwrap();
    engine.register_table("users", pl.right).unwrap();
    engine
}

/// The reference catalog the engines above are loaded from.
fn reference_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let ol = orders_lineitem(24, 42);
    catalog.register("orders", ol.left).unwrap();
    catalog.register("lineitem", ol.right).unwrap();
    let pl = power_law(60, 60, 1.5, 7);
    catalog.register("events", pl.left).unwrap();
    catalog.register("users", pl.right).unwrap();
    catalog
}

/// A mixed batch across both surface forms: legacy pair queries (joins,
/// filter+aggregate, semi/anti joins, join-aggregates) and column-syntax
/// queries with projections.
const MIXED_QUERIES: [&str; 9] = [
    "JOIN orders lineitem",
    "SCAN orders | FILTER v>=1000 | AGG sum",
    "SEMIJOIN orders lineitem",
    "ANTIJOIN users events",
    "JOINAGG orders lineitem count",
    "JOIN events users left-right | DISTINCT",
    "SCAN events | FILTER k in 1..20 | AGG count",
    "SCAN lineitem | SWAP | DISTINCT",
    "JOINAGG events users sumright",
];

/// Every concurrently executed query returns exactly the rows its resolved
/// plan produces under a direct serial execution, and the engine's serial
/// path agrees too.
#[test]
fn concurrent_batch_matches_direct_resolved_execution() {
    // One cold engine per run: the batch and the serial run must both
    // genuinely execute and trace for the bit-for-bit comparison to mean
    // anything.
    let requests: Vec<QueryRequest> = MIXED_QUERIES
        .iter()
        .map(|q| QueryRequest::new(*q, parse_query(q).unwrap()))
        .collect();

    let concurrent = loaded_engine_uncached(4).execute_batch(&requests).unwrap();
    let serial = loaded_engine_uncached(4).execute_serial(&requests).unwrap();
    assert_eq!(concurrent.len(), MIXED_QUERIES.len());

    // Reference: resolve each plan by hand against an identical catalog and
    // execute the resolved plan directly, outside the engine.
    let catalog = reference_catalog();
    for ((request, conc), ser) in requests.iter().zip(&concurrent).zip(&serial) {
        let resolved = request.plan().resolve(&catalog).unwrap();
        let tracer = Tracer::new(HashingSink::new());
        let reference = resolved.execute(&tracer);
        let reference_digest = tracer.with_sink(|s| s.digest_hex());
        assert_eq!(
            conc.rows, reference,
            "concurrent result for `{}`",
            request.label
        );
        assert_eq!(ser.rows, reference, "serial result for `{}`", request.label);
        assert_eq!(
            conc.summary.trace_digest, reference_digest,
            "engine digest vs direct execution for `{}`",
            request.label
        );
        assert_eq!(conc.summary.trace_digest, ser.summary.trace_digest);
        assert_eq!(conc.summary.counters, ser.summary.counters);
        assert_eq!(conc.summary.output_rows, reference.len());
        assert_eq!(
            conc.summary.output_row_width,
            reference.schema().row_width()
        );
    }
}

/// The pair/unified equivalence contract: every legacy pair query lowers
/// onto the pair kernel and produces bit-identical rows and trace digests
/// to a hand-built legacy [`QueryPlan`] over the same tables.
#[test]
fn degenerate_plans_match_legacy_query_plans_bit_for_bit() {
    let catalog = reference_catalog();
    let orders = catalog.get("orders").unwrap().clone();
    let lineitem = catalog.get("lineitem").unwrap().clone();
    let events = catalog.get("events").unwrap().clone();
    let users = catalog.get("users").unwrap().clone();

    // (unified text form, equivalent legacy pair-kernel plan)
    let cases: Vec<(&str, QueryPlan)> = vec![
        (
            "JOIN orders lineitem",
            QueryPlan::scan(orders.clone())
                .join(QueryPlan::scan(lineitem.clone()), JoinColumns::KeyAndRight),
        ),
        (
            "SCAN orders | FILTER v>=1000 | AGG sum",
            QueryPlan::scan(orders.clone())
                .filter(Predicate::ValueAtLeast(1000))
                .group_aggregate(Aggregate::Sum),
        ),
        (
            "SEMIJOIN orders lineitem",
            QueryPlan::scan(orders.clone()).semi_join(QueryPlan::scan(lineitem.clone())),
        ),
        (
            "ANTIJOIN users events",
            QueryPlan::scan(users.clone()).anti_join(QueryPlan::scan(events.clone())),
        ),
        (
            "JOINAGG orders lineitem count",
            QueryPlan::scan(orders.clone())
                .join_aggregate(QueryPlan::scan(lineitem.clone()), JoinAggregate::CountPairs),
        ),
        (
            "SCAN events | FILTER k in 1..20 | AGG count",
            QueryPlan::scan(events.clone())
                .filter(Predicate::KeyInRange(1, 20))
                .group_aggregate(Aggregate::Count),
        ),
        (
            "SCAN lineitem | SWAP | DISTINCT",
            QueryPlan::scan(lineitem.clone()).swap_columns().distinct(),
        ),
        (
            "JOINAGG events users sumright",
            QueryPlan::scan(events.clone())
                .join_aggregate(QueryPlan::scan(users.clone()), JoinAggregate::SumRight),
        ),
        (
            "JOIN events users key-left | UNION orders",
            QueryPlan::scan(events.clone())
                .join(QueryPlan::scan(users.clone()), JoinColumns::KeyAndLeft)
                .union_all(QueryPlan::scan(orders.clone())),
        ),
        (
            "JOIN events users left-right | DISTINCT",
            QueryPlan::scan(events.clone())
                .join(QueryPlan::scan(users.clone()), JoinColumns::LeftAndRight)
                .distinct(),
        ),
        (
            "JOIN orders lineitem right-left | AGG max",
            QueryPlan::scan(orders.clone())
                .join(QueryPlan::scan(lineitem.clone()), JoinColumns::RightAndLeft)
                .group_aggregate(Aggregate::Max),
        ),
    ];

    for (text, legacy) in cases {
        let resolved = parse_query(text).unwrap().resolve(&catalog).unwrap();
        assert!(
            resolved.is_pair_lowered(),
            "`{text}` must lower onto the pair kernel"
        );

        let tracer = Tracer::new(HashingSink::new());
        let unified = resolved.execute(&tracer);
        let unified_digest = tracer.with_sink(|s| s.digest_hex());

        let tracer = Tracer::new(HashingSink::new());
        let reference = legacy.execute(&tracer);
        let legacy_digest = tracer.with_sink(|s| s.digest_hex());

        assert_eq!(
            unified.pairs().unwrap(),
            reference
                .rows()
                .iter()
                .map(|e| (e.key, e.value))
                .collect::<Vec<_>>(),
            "rows for `{text}`"
        );
        assert_eq!(
            unified_digest, legacy_digest,
            "trace digest for `{text}` must be bit-identical to the legacy kernel"
        );
    }
}

/// Column-syntax forms of degenerate queries resolve to the *wide* backend
/// only when they genuinely leave the pair shape.
#[test]
fn pair_lowering_is_exactly_the_degenerate_fragment() {
    let catalog = reference_catalog();
    let lowered = [
        "JOIN orders lineitem",
        "SCAN orders | FILTER v>=10",
        "SCAN orders | DISTINCT | AGG count",
    ];
    for text in lowered {
        assert!(
            parse_query(text)
                .unwrap()
                .resolve(&catalog)
                .unwrap()
                .is_pair_lowered(),
            "`{text}`"
        );
    }
    let wide = [
        // A one-column projection has no pair shape.
        "SCAN orders | PROJECT value",
        // A filter between the join and its projection breaks the
        // both-sides-carried lowering pattern (legacy never emits this).
        "JOIN orders lineitem ON key | FILTER left_value>=1 | PROJECT left_value,right_value",
        // Carrying both sides' values is a three-column join.
        "JOIN orders lineitem ON key | PROJECT key,left_value,right_value",
        // key >= N has no legacy predicate form.
        "SCAN orders | FILTER key>=3",
    ];
    for text in wide {
        assert!(
            !parse_query(text)
                .unwrap()
                .resolve(&catalog)
                .unwrap()
                .is_pair_lowered(),
            "`{text}`"
        );
    }
}

/// The same batch produces the same results whatever the pool width.
#[test]
fn results_are_independent_of_worker_count() {
    let baseline: Vec<_> = {
        let engine = loaded_engine(1);
        engine.execute_text_batch(&MIXED_QUERIES).unwrap()
    };
    for workers in [2, 4, 8] {
        let engine = loaded_engine(workers);
        let responses = engine.execute_text_batch(&MIXED_QUERIES).unwrap();
        for (b, r) in baseline.iter().zip(&responses) {
            assert_eq!(b.rows, r.rows, "workers={workers}, query `{}`", b.label);
            assert_eq!(b.summary.trace_digest, r.summary.trace_digest);
        }
    }
}

/// Obliviousness under concurrency: a query's `HashingSink` digest is the
/// same whether it runs alone or co-scheduled with seven other queries.
#[test]
fn trace_digest_is_independent_of_coscheduled_queries() {
    // One cold engine per run: the co-scheduled run must re-execute and
    // re-trace the probe, not replay the alone run's cached payload or
    // memoised digest.
    let probe = "JOIN orders lineitem | FILTER v>=500 | AGG sum";

    let alone = loaded_engine_uncached(4)
        .execute_text_batch(&[probe])
        .unwrap();
    let alone_digest = &alone[0].summary.trace_digest;

    let mut crowded_queries = vec![probe];
    crowded_queries.extend(&MIXED_QUERIES[..7]);
    let crowded = loaded_engine_uncached(4)
        .execute_text_batch(&crowded_queries)
        .unwrap();

    assert_eq!(
        &crowded[0].summary.trace_digest, alone_digest,
        "co-scheduled queries perturbed the probe's access-pattern digest"
    );
    assert_eq!(
        crowded[0].summary.trace_events,
        alone[0].summary.trace_events
    );
    assert_eq!(crowded[0].rows, alone[0].rows);
}

/// Trace-class check at the engine level: two tables with the same public
/// parameters but different contents produce the same digest for the same
/// query text, even when executed concurrently in one batch.
#[test]
fn engine_digests_depend_only_on_public_parameters() {
    // Same sizes and same join output size, different values: one-to-one
    // matching on shifted key sets.
    let engine = Engine::new(EngineConfig {
        workers: 4,
        ..Default::default()
    });
    engine
        .register_table("a1", Table::from_pairs((0..64u64).map(|k| (k, k * 3))))
        .unwrap();
    engine
        .register_table("b1", Table::from_pairs((0..64u64).map(|k| (k, k + 9000))))
        .unwrap();
    engine
        .register_table("a2", Table::from_pairs((0..64u64).map(|k| (k, 7777 - k))))
        .unwrap();
    engine
        .register_table("b2", Table::from_pairs((0..64u64).map(|k| (k, k ^ 0x5a5a))))
        .unwrap();

    let responses = engine
        .execute_text_batch(&["JOIN a1 b1", "JOIN a2 b2"])
        .unwrap();
    assert_eq!(
        responses[0].summary.trace_digest, responses[1].summary.trace_digest,
        "digest should be a function of (n1, n2, m) only"
    );
    assert_ne!(responses[0].rows, responses[1].rows);
    // The plans name different tables, so neither was served the other's
    // memoised digest: both are real traces.
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("engine_digest_memo_misses_total", &[]), 2);
}

/// The observability contract at the engine level: every content-classed
/// metric and every leakage-audit record is a function of public
/// parameters only.  Two engines loaded with tables of identical shape
/// (sizes, key sets, join output sizes) but different *contents* must
/// produce identical non-timing metric snapshots and identical audit
/// exports for the same workload.
#[test]
fn metric_snapshots_depend_only_on_public_parameters() {
    // Keys 0..64 and 0..48 in both runs (so the revealed join size m = 48
    // matches); values completely different.
    let run = |twist: u64| {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..Default::default()
        });
        engine
            .register_table(
                "a",
                Table::from_pairs((0..64u64).map(|k| (k, k.wrapping_mul(twist) ^ twist))),
            )
            .unwrap();
        engine
            .register_table("b", Table::from_pairs((0..48u64).map(|k| (k, k + twist))))
            .unwrap();
        let queries = ["JOIN a b", "JOINAGG a b count", "JOIN a b"];
        engine.execute_text_batch(&queries).unwrap();
        engine.execute_text_batch(&queries).unwrap(); // warm repeat: cache hits
        (
            engine.metrics().snapshot().without_timing(),
            engine.audit().export_json(),
        )
    };
    let (snapshot_a, audit_a) = run(3);
    let (snapshot_b, audit_b) = run(0x5a5a);
    assert!(
        !snapshot_a.samples.is_empty(),
        "the content view must not be empty"
    );
    assert_eq!(
        snapshot_a, snapshot_b,
        "content-classed metrics leaked data dependence"
    );
    assert_eq!(
        audit_a, audit_b,
        "leakage audit records must carry public parameters only"
    );
    // Sanity: the snapshots actually cover the run.  (Batch and
    // cache-hit counts are timing-classed — re-runs and retries perturb
    // them — so the content view is checked through the
    // fresh-execution and audit counters instead.)
    assert_eq!(
        snapshot_a.counter("engine_queries_total", &[("result", "executed")]),
        2
    );
    assert_eq!(snapshot_a.counter("engine_audit_records_total", &[]), 2);
}

/// A result-cache hit returns a bit-identical `QueryResponse` to the
/// original miss, through the full service path (text frontend, batch
/// executor, fan-out).
#[test]
fn cache_hit_is_bit_identical_to_original_miss_end_to_end() {
    let engine = loaded_engine(4);
    let query = "JOIN orders lineitem | FILTER v>=500 | AGG sum";

    let miss = engine.execute_text_batch(&[query]).unwrap().pop().unwrap();
    assert!(!miss.cached);
    let hit = engine.execute_text_batch(&[query]).unwrap().pop().unwrap();
    assert!(hit.cached);

    assert_eq!(hit.label, miss.label);
    assert_eq!(hit.rows, miss.rows);
    assert_eq!(hit.summary, miss.summary, "digest, counters, events, wall");
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
    assert_eq!(stats.entries, 1);
    assert_eq!(
        stats.bytes,
        (miss.rows.len() * miss.rows.schema().row_width()) as u64,
        "retained bytes are the cached result's public shape"
    );

    // Mutating the catalog invalidates: the same text re-executes and (with
    // unchanged tables elsewhere irrelevant) reports a fresh miss.
    engine
        .register_table("unrelated", Table::from_pairs(vec![(1, 1)]))
        .unwrap();
    let after_epoch_bump = engine.execute_text_batch(&[query]).unwrap().pop().unwrap();
    assert!(
        !after_epoch_bump.cached,
        "any catalog mutation bumps the epoch and invalidates"
    );
    assert_eq!(
        after_epoch_bump.rows, miss.rows,
        "the tables the plan reads did not change, so the result did not"
    );
    assert_eq!(
        after_epoch_bump.summary.trace_digest,
        miss.summary.trace_digest
    );
}

/// Duplicate plans inside one concurrent batch execute once; every
/// duplicate's payload is bit-identical and correctly labelled.
#[test]
fn intra_batch_duplicates_are_deduplicated_concurrently() {
    let engine = loaded_engine(4);
    let mut queries = vec!["JOIN orders lineitem"; 5];
    queries.push("SCAN orders | AGG count");
    let responses = engine.execute_text_batch(&queries).unwrap();
    assert_eq!(responses.len(), 6);
    assert!(!responses[0].cached);
    for dup in &responses[1..5] {
        assert!(dup.cached);
        assert_eq!(dup.rows, responses[0].rows);
        assert_eq!(dup.summary, responses[0].summary);
    }
    assert!(!responses[5].cached);
    let stats = engine.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions, stats.entries),
        (4, 2, 0, 2)
    );
}

/// Sessions accumulate accounting across concurrent batches without
/// affecting results, and the new shape accounting (output bytes, carry
/// width) reflects what actually ran.
#[test]
fn sessions_run_concurrent_batches() {
    let engine = loaded_engine(4);
    let mut session = engine.session("tenant-7");
    for q in MIXED_QUERIES {
        session.queue_text(q).unwrap();
    }
    let responses = session.run().unwrap();
    assert_eq!(responses.len(), MIXED_QUERIES.len());
    let stats = session.stats();
    assert_eq!(stats.queries, MIXED_QUERIES.len() as u64);
    assert_eq!(
        stats.output_bytes,
        responses
            .iter()
            .map(|r| (r.rows.len() * r.rows.schema().row_width()) as u64)
            .sum::<u64>(),
        "per-query row widths roll up into the session's byte accounting"
    );
    assert_eq!(
        stats.max_carry_words, 1,
        "the pair-lowered joins carry one kernel word"
    );

    let direct = engine.execute_text_batch(&MIXED_QUERIES).unwrap();
    for (s, d) in responses.iter().zip(&direct) {
        assert_eq!(s.rows, d.rows);
        assert_eq!(s.summary.trace_digest, d.summary.trace_digest);
    }
}
