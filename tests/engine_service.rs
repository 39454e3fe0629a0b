//! Integration tests for the `obliv-engine` query service: concurrent
//! batches must be bit-identical to direct [`ResolvedPlan`] execution, a
//! query's trace digest must not depend on what else the pool is running,
//! and a table registered as pairs must be indistinguishable — rows,
//! digests, span trees, Content metrics — from the same table registered
//! under the degenerate `{key, value}` wide schema.

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
    for (name, table) in dataset() {
        engine.register_table(name, table).unwrap();
    }
    engine
}

/// The reference catalog the engines above are loaded from.
fn reference_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for (name, table) in dataset() {
        catalog.register(name, table).unwrap();
    }
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

/// Every legacy text form: each source, each stage, each join projection
/// and each (join-)aggregate at least once.  No two compile to the same
/// plan, so one engine really traces every one of them (a repeated shape
/// would be served its digest from the memo).  Value filters all compare
/// against 100 — see [`same_shape_dataset`].
const LEGACY_FORMS: [&str; 24] = [
    "SCAN orders",
    "JOIN orders lineitem",
    "JOIN orders lineitem key-left",
    "JOIN users events key-right | FILTER true",
    "JOIN events users left-right | DISTINCT",
    "JOIN orders lineitem right-left | AGG max",
    "SEMIJOIN orders lineitem",
    "ANTIJOIN users events",
    "JOINAGG orders lineitem count",
    "JOINAGG events users sumleft",
    "JOINAGG events users sumright",
    "JOINAGG orders lineitem sumproducts",
    "SCAN lineitem | FILTER v>=100 | AGG sum",
    "SCAN lineitem | FILTER v<100 | AGG min",
    "SCAN orders | FILTER k=5",
    "SCAN events | FILTER k in 1..20 | AGG count",
    "SCAN lineitem | SWAP | DISTINCT",
    "SCAN orders | UNION lineitem",
    "SCAN events | JOIN users",
    "SCAN events | JOIN users key-left | UNION orders",
    "SCAN lineitem | SEMIJOIN orders",
    "SCAN events | ANTIJOIN users",
    "SCAN events | JOINAGG users count",
    "SCAN orders | FILTER v>=100 | JOINAGG lineitem sumleft",
];

/// The four workload tables, by catalog name.
fn dataset() -> [(&'static str, Table); 4] {
    let ol = orders_lineitem(24, 42);
    let pl = power_law(60, 60, 1.5, 7);
    [
        ("orders", ol.left),
        ("lineitem", ol.right),
        ("events", pl.left),
        ("users", pl.right),
    ]
}

/// [`dataset`] with different contents and the same public shape under
/// every query of [`LEGACY_FORMS`]: rows in reverse order, and every value
/// moved by a strictly increasing map that fixes which side of 100 it is
/// on — so each filter keeps as many rows, each distinct as many, each
/// group-by as many groups, and the (untouched) keys join as before.
fn same_shape_dataset() -> [(&'static str, Table); 4] {
    dataset().map(|(name, table)| {
        let twisted = table
            .rows()
            .iter()
            .rev()
            .map(|e| (e.key, e.value + if e.value >= 100 { 1 << 40 } else { 0 }))
            .collect();
        (name, twisted)
    })
}

/// One cold two-worker engine per call, answering every legacy form: the
/// responses and the engine's Content metric snapshot.
fn run_legacy_forms(
    register: impl Fn(&Engine, &str, Table),
    tables: [(&'static str, Table); 4],
) -> (
    Vec<QueryResponse>,
    obliv_join_suite::telemetry::MetricsSnapshot,
) {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..Default::default()
    });
    for (name, table) in tables {
        register(&engine, name, table);
    }
    let responses = engine.execute_text_batch(&LEGACY_FORMS).unwrap();
    let snapshot = engine.metrics().snapshot();
    assert_eq!(
        snapshot.counter("engine_digest_memo_misses_total", &[]),
        LEGACY_FORMS.len() as u64,
        "every form is a shape of its own, so every digest is a real trace"
    );
    (responses, snapshot.without_timing())
}

/// The one-backend contract: `register_table(t)` is nothing but
/// `register_wide_table(WideTable::from_pair(&t))`.  For every legacy text
/// form the two registrations give equal rows, equal really-traced digests,
/// equal span trees and equal Content metrics — and a second dataset of the
/// same public shape gives the same digests over different rows.
#[test]
fn pair_registered_tables_are_indistinguishable_from_their_wide_encoding() {
    let as_pairs = |engine: &Engine, name: &str, table: Table| {
        engine.register_table(name, table).unwrap();
    };
    let as_wide = |engine: &Engine, name: &str, table: Table| {
        engine
            .register_wide_table(name, WideTable::from_pair(&table))
            .unwrap();
    };
    let (pair, pair_metrics) = run_legacy_forms(as_pairs, dataset());
    let (wide, wide_metrics) = run_legacy_forms(as_wide, dataset());
    let (other, _) = run_legacy_forms(as_pairs, same_shape_dataset());

    assert_eq!(pair_metrics, wide_metrics, "Content metric snapshots");
    let mut rows_differ = false;
    for (((text, p), w), o) in LEGACY_FORMS.iter().zip(&pair).zip(&wide).zip(&other) {
        assert_eq!(p.rows, w.rows, "rows for `{text}`");
        assert!(
            p.rows.pairs().is_some(),
            "`{text}` answers in two u64 columns"
        );
        assert_eq!(
            (&p.summary.trace_digest, p.summary.trace_events),
            (&w.summary.trace_digest, w.summary.trace_events),
            "trace digest for `{text}`"
        );
        assert_eq!(
            p.trace.render_text(false),
            w.trace.render_text(false),
            "span tree for `{text}`"
        );

        assert_eq!(
            p.trace.render_text(false),
            o.trace.render_text(false),
            "`{text}`: the second dataset has the same public shape"
        );
        assert_eq!(
            p.summary.trace_digest, o.summary.trace_digest,
            "`{text}`: equal public shapes must give equal digests"
        );
        rows_differ |= p.rows != o.rows;
    }
    assert!(rows_differ, "the second dataset really has other contents");
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
        "the legacy joins carry one kernel word"
    );

    let direct = engine.execute_text_batch(&MIXED_QUERIES).unwrap();
    for (s, d) in responses.iter().zip(&direct) {
        assert_eq!(s.rows, d.rows);
        assert_eq!(s.summary.trace_digest, d.summary.trace_digest);
    }
}
