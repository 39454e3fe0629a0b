//! Differential suite: intra-query parallel execution is bit-identical to
//! serial execution for every operator, at every thread count.
//!
//! A forked sort runs its gates on several threads and records its trace
//! by the same walk of the network as a serial sort, so the trace digest —
//! the engine's obliviousness witness — must be *exactly* the serial digest
//! however many threads the sorts forked across.  These tests pin that
//! equivalence end to end through the engine (results, digests, event
//! counts, op counters), plus its interactions with the result cache,
//! intra-batch deduplication, and injected faults in forked branches.

use std::sync::Arc;
use std::time::{Duration, Instant};

use obliv_chaos::{points, Fault, FaultPlan};
use obliv_engine::{Engine, EngineConfig, EngineError, Plan, QueryRequest, QueryResponse};
use obliv_join::schema::Value;
use obliv_join::Table;
use obliv_operators::{Aggregate, JoinAggregate, WidePredicate};
use obliv_primitives::sort::bitonic::FORK_CELLS;

/// Deterministic pair tables: every sort over `orders` (two rows on each of
/// 4 099 keys) is large enough to fork, `customers` is small, and the two
/// share 16 keys, each on two orders and four customers, so the joins'
/// outputs stay small.
fn orders() -> Table {
    const {
        assert!(
            2 * 4099 >= FORK_CELLS,
            "orders must be large enough to fork"
        )
    };
    (0..2 * 4099u64)
        .map(|i| (i % 4099, (i * 37) % 101))
        .collect()
}

fn customers() -> Table {
    (0..64u64).map(|i| (i % 16, (i * 13) % 51)).collect()
}

/// A fresh engine over the fixtures.  Its digest memo is cold, so the
/// first execution of each plan is a real trace; the differential tests
/// below build one engine per compared run for exactly that reason.
fn engine(workers: usize, intra: usize, cache: bool) -> Engine {
    let engine = Engine::new(EngineConfig {
        workers,
        intra_query_threads: intra,
        result_cache: cache,
        ..Default::default()
    });
    engine.register_table("orders", orders()).unwrap();
    engine.register_table("customers", customers()).unwrap();
    engine
}

/// Re-register both fixtures in reverse row order: different contents at
/// every position, the same public shape (sizes, key multiplicities,
/// filter survivors) for every plan.
fn reverse_tables(engine: &Engine) {
    let reversed = |t: Table| -> Table {
        let mut pairs: Vec<(u64, u64)> = t.iter().map(|e| (e.key, e.value)).collect();
        pairs.reverse();
        Table::from_pairs(pairs)
    };
    engine.register_table("orders", reversed(orders())).unwrap();
    engine
        .register_table("customers", reversed(customers()))
        .unwrap();
}

/// One plan per operator family: filter/project mark passes, join
/// (augment + expand + align sorts), distinct, semi/anti membership,
/// grouped aggregation, and the sort-only join aggregate.
fn operator_requests() -> Vec<QueryRequest> {
    vec![
        QueryRequest::new(
            "filter",
            Plan::scan("orders").filter(WidePredicate::at_least("value", Value::U64(40))),
        ),
        QueryRequest::new(
            "join",
            Plan::scan("orders")
                .join(Plan::scan("customers"), "key", "key")
                .project(["key", "right_value"]),
        ),
        // The join expands both sides out of one sorted T_C, the other
        // side's rows riding along with a count of 0: a lopsided input (4
        // customers against 8 198 orders) and an empty output (no order has
        // a value of 200) are the shapes where those rows dominate.
        QueryRequest::new(
            "join-lopsided",
            Plan::scan("orders").join(
                Plan::scan("customers").filter(WidePredicate::below("key", Value::U64(1))),
                "key",
                "key",
            ),
        ),
        QueryRequest::new(
            "join-empty",
            Plan::scan("orders")
                .filter(WidePredicate::at_least("value", Value::U64(200)))
                .join(Plan::scan("customers"), "key", "key"),
        ),
        QueryRequest::new("distinct", Plan::scan("orders").distinct()),
        QueryRequest::new(
            "semi",
            Plan::scan("orders").semi_join(Plan::scan("customers"), "key", "key"),
        ),
        QueryRequest::new(
            "anti",
            Plan::scan("customers").anti_join(Plan::scan("orders"), "key", "key"),
        ),
        QueryRequest::new(
            "agg",
            Plan::scan("orders").group_aggregate(
                Aggregate::Sum,
                Some("value".into()),
                Some("key".into()),
            ),
        ),
        QueryRequest::new(
            "join-agg",
            Plan::scan("orders").join_aggregate(
                Plan::scan("customers"),
                "key",
                "key",
                Some("value".into()),
                None,
                JoinAggregate::SumLeft,
            ),
        ),
        QueryRequest::new(
            "union-distinct",
            Plan::scan("orders")
                .union_all(Plan::scan("customers"))
                .distinct(),
        ),
    ]
}

fn assert_bit_identical(serial: &[QueryResponse], parallel: &[QueryResponse], what: &str) {
    assert_eq!(serial.len(), parallel.len(), "{what}");
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.label, p.label, "{what}");
        assert_eq!(s.rows, p.rows, "{what}: rows for {}", s.label);
        assert_eq!(
            s.summary.trace_digest, p.summary.trace_digest,
            "{what}: digest for {}",
            s.label
        );
        assert_eq!(
            s.summary.trace_events, p.summary.trace_events,
            "{what}: events for {}",
            s.label
        );
        assert_eq!(
            s.summary.counters, p.summary.counters,
            "{what}: op counters for {}",
            s.label
        );
        assert_eq!(
            s.summary.output_rows, p.summary.output_rows,
            "{what}: output rows for {}",
            s.label
        );
    }
}

#[test]
fn every_operator_is_bit_identical_at_every_chunk_count() {
    let baseline = engine(1, 1, false);
    let serial = baseline.execute_serial(&operator_requests()).unwrap();
    for intra in [1usize, 2, 4, 8] {
        let par = engine(2, intra, false);
        let batch = par.execute_batch(&operator_requests()).unwrap();
        assert_bit_identical(&serial, &batch, &format!("intra={intra} batch"));
        // The inline (serial-scheduling) path of the same configuration
        // must agree too: forking is orthogonal to job scheduling.
        let inline = engine(2, intra, false)
            .execute_serial(&operator_requests())
            .unwrap();
        assert_bit_identical(&serial, &inline, &format!("intra={intra} inline"));
    }
}

#[test]
fn digest_memo_serves_exactly_what_tracing_would_at_every_chunk_count() {
    let plans = operator_requests().len() as u64;
    let memo_counts = |engine: &Engine| {
        let snap = engine.metrics().snapshot();
        [
            snap.counter("engine_digest_memo_hits_total", &[]),
            snap.counter("engine_digest_memo_misses_total", &[]),
            snap.counter("engine_digest_mismatch_total", &[]),
        ]
    };
    // The reference for the memo-hit round: a cold serial engine really
    // tracing every plan over the reversed tables.
    let reference = engine(1, 1, false);
    reverse_tables(&reference);
    let real = reference.execute_serial(&operator_requests()).unwrap();
    assert_eq!(memo_counts(&reference), [0, plans, 0]);

    for intra in [1usize, 2, 4] {
        let memo = engine(2, intra, false);
        let cold = memo.execute_batch(&operator_requests()).unwrap();
        assert_eq!(memo_counts(&memo), [0, plans, 0], "cold: all traced");
        // Same public shapes, contents the memo has never traced: every
        // plan is served from the memo, and what it serves is exactly what
        // tracing these contents yields.
        reverse_tables(&memo);
        let served = memo.execute_batch(&operator_requests()).unwrap();
        assert_eq!(memo_counts(&memo), [plans, plans, 0], "all served");
        assert_bit_identical(&real, &served, &format!("intra={intra} memo hit"));
        assert!(cold.iter().zip(&served).any(|(c, s)| c.rows != s.rows));
    }
}

#[test]
fn parallel_engine_actually_forks_partitions() {
    let par = engine(2, 4, false);
    par.execute_batch(&operator_requests()).unwrap();
    let snap = par.metrics().snapshot();
    assert!(
        snap.counter("engine_parallel_chunks_total", &[]) > 0,
        "with intra_query_threads=4 the sorts over orders must fork"
    );
    // A serial engine never forks.
    let serial = engine(2, 1, false);
    serial.execute_batch(&operator_requests()).unwrap();
    assert_eq!(
        serial
            .metrics()
            .snapshot()
            .counter("engine_parallel_chunks_total", &[]),
        0
    );
}

#[test]
fn warm_cache_replays_are_bit_identical_under_parallelism() {
    let par = engine(2, 4, true);
    let miss = par.execute_batch(&operator_requests()).unwrap();
    let hit = par.execute_batch(&operator_requests()).unwrap();
    for (m, h) in miss.iter().zip(&hit) {
        assert!(!m.cached);
        assert!(h.cached, "second round must be served from cache");
        assert_eq!(m.rows, h.rows);
        assert_eq!(m.summary, h.summary, "cached payloads replay bit-for-bit");
    }
    // And the cached payloads equal a serial engine's fresh ones.
    let baseline = engine(1, 1, false);
    let serial = baseline.execute_serial(&operator_requests()).unwrap();
    assert_bit_identical(&serial, &hit, "warm cache vs serial");
}

#[test]
fn intra_batch_dedup_is_bit_identical_under_parallelism() {
    let par = engine(2, 4, false);
    let plan = Plan::scan("orders")
        .join(Plan::scan("customers"), "key", "key")
        .project(["key", "right_value"]);
    let batch = vec![
        QueryRequest::new("a", plan.clone()),
        QueryRequest::new("b", plan.clone()),
        QueryRequest::new("c", plan),
    ];
    let responses = par.execute_batch(&batch).unwrap();
    assert_eq!(
        responses.iter().map(|r| r.cached).collect::<Vec<_>>(),
        vec![false, true, true]
    );
    assert_eq!(responses[0].rows, responses[1].rows);
    assert_eq!(responses[0].summary, responses[2].summary);
    // The deduplicated parallel payload equals the serial baseline's.
    let baseline = engine(1, 1, false);
    let serial = baseline.execute_serial(&batch[..1]).unwrap();
    assert_eq!(serial[0].rows, responses[0].rows);
    assert_eq!(
        serial[0].summary.trace_digest,
        responses[0].summary.trace_digest
    );
}

#[test]
fn partition_panic_fails_one_batch_and_leaves_the_pool_at_capacity() {
    let faults = FaultPlan::new()
        .seed(11)
        .once(points::ENGINE_PARALLEL_WORKER, Fault::Panic)
        .build();
    let faulted = Engine::new(EngineConfig {
        workers: 2,
        intra_query_threads: 4,
        result_cache: false,
        faults,
        ..Default::default()
    });
    faulted.register_table("orders", orders()).unwrap();
    faulted.register_table("customers", customers()).unwrap();

    // The injected branch panic surfaces as the batch's single failure
    // (re-raised through the joins and on the submitting thread with its
    // original payload).
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        faulted.execute_batch(&operator_requests())
    }));
    let payload = attempt.expect_err("the partition panic must surface exactly once");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"injected: engine parallel worker panic")
    );

    // Nothing was finalised by the aborted batch.
    let snap = faulted.metrics().snapshot();
    assert_eq!(snap.counter("engine_audit_records_total", &[]), 0);
    assert_eq!(
        snap.counter("engine_queries_total", &[("result", "executed")]),
        0
    );

    // The pool is at full capacity: the same batch now runs cleanly, in
    // parallel, and its payloads are bit-identical to a fault-free
    // parallel engine's.
    let clean = faulted.execute_batch(&operator_requests()).unwrap();
    let reference_engine = engine(2, 4, false);
    let reference = reference_engine
        .execute_batch(&operator_requests())
        .unwrap();
    assert_bit_identical(&reference, &clean, "after partition panic");

    // Content metrics and audit exports are bit-identical with faults on
    // vs off: the aborted attempt perturbed only Timing series.
    assert_eq!(
        faulted.metrics().snapshot().without_timing(),
        reference_engine.metrics().snapshot().without_timing(),
        "content metrics must not see the fault"
    );
    assert_eq!(
        faulted.audit().export_json(),
        reference_engine.audit().export_json(),
        "audit exports must not see the fault"
    );
}

#[test]
fn delayed_partition_surfaces_as_a_typed_deadline_error() {
    // Inline engine (workers=1) with forking sorts: the injected straggler
    // delay burns the batch's deadline inside one branch of the first
    // job's sort, and the next job's pre-execution check converts it into
    // the typed error — not a panic, not a hang.
    let faults = FaultPlan::new()
        .seed(3)
        .once(
            points::ENGINE_PARALLEL_WORKER,
            Fault::Delay(Duration::from_millis(50)),
        )
        .build();
    let engine = Engine::new(EngineConfig {
        workers: 1,
        intra_query_threads: 4,
        result_cache: false,
        faults,
        ..Default::default()
    });
    engine.register_table("orders", orders()).unwrap();
    engine.register_table("customers", customers()).unwrap();

    let deadline = Instant::now() + Duration::from_millis(10);
    let batch = vec![
        QueryRequest::new("first", Plan::scan("orders").distinct()).with_deadline(deadline),
        QueryRequest::new("second", Plan::scan("customers").distinct()).with_deadline(deadline),
    ];
    let err = engine.execute_batch(&batch).unwrap_err();
    assert!(
        matches!(err, EngineError::DeadlineExceeded { .. }),
        "expected a typed deadline error, got {err}"
    );
    // The engine stays fully usable afterwards (the fault fired once).
    let ok = engine.execute_batch(&operator_requests()).unwrap();
    assert_eq!(ok.len(), operator_requests().len());
}

#[test]
fn worker_and_partition_counts_do_not_change_digests() {
    // Cross product: worker counts × thread counts all agree on one plan.
    let reference = engine(1, 1, false)
        .execute_serial(&operator_requests()[1..2])
        .unwrap();
    for workers in [1usize, 2, 4] {
        for intra in [2usize, 8] {
            let e = engine(workers, intra, false);
            let r = e.execute_batch(&operator_requests()[1..2]).unwrap();
            assert_eq!(
                r[0].summary.trace_digest, reference[0].summary.trace_digest,
                "workers={workers} intra={intra}"
            );
            assert_eq!(r[0].rows, reference[0].rows);
        }
    }
    // Arc'd sanity: the reference digest is a real digest.
    assert_eq!(reference[0].summary.trace_digest.len(), 64);
    let _ = Arc::new(reference);
}
