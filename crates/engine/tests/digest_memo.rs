//! The digest memo, end to end through the engine: what is a hit, what is
//! a miss, that a served digest always equals the real trace's, and how
//! the re-trace shows up in the span tree and the metrics.
//!
//! The reference for "the real trace" is always a *fresh* engine: its memo
//! is cold, so whatever it reports was hashed by that very execution.
//!
//! (The memo's own unit tests cover the re-audit period, overlapping
//! executions, the planted data-dependent operator and the capacity bound;
//! the parallel and shard equivalence suites compare memo-served digests
//! against cold engines plan by plan.)

use obliv_engine::{Engine, EngineConfig, QueryResponse};
use obliv_join::Table;

/// 64 rows over keys `0..16`, values a function of `twist` — the public
/// shape (row count, key multiset) is the same for every twist.
fn left(twist: u64) -> Table {
    Table::from_pairs((0..64u64).map(|i| (i % 16, i.wrapping_mul(twist) % 1000)))
}

/// 32 rows whose keys are `0..keys` repeated: the join against [`left`]
/// reveals `m = 128` at `keys = 16` and `m = 64` at `keys = 32`.
fn right(keys: u64, twist: u64) -> Table {
    Table::from_pairs((0..32u64).map(|i| (i % keys, i ^ twist)))
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        // Every execution below is a fresh one; the memo is what's tested.
        result_cache: false,
        ..Default::default()
    })
}

/// `[hits, misses, reaudits, mismatches]`.
fn memo_counts(engine: &Engine) -> [u64; 4] {
    let snap = engine.metrics().snapshot();
    [
        snap.counter("engine_digest_memo_hits_total", &[]),
        snap.counter("engine_digest_memo_misses_total", &[]),
        snap.counter("engine_digest_reaudits_total", &[]),
        snap.counter("engine_digest_mismatch_total", &[]),
    ]
}

fn has_audit_span(response: &QueryResponse) -> bool {
    response
        .trace
        .children
        .iter()
        .any(|child| child.name == "trace_audit")
}

/// Register `(l, r)` on `memo` and on a fresh engine, run `query` on both,
/// and check the long-lived engine — whatever its memo decided — agrees
/// with the cold one's real trace on everything a reply reports.  Returns
/// the long-lived engine's response.
fn run_both(memo: &Engine, l: Table, r: Table, query: &str) -> QueryResponse {
    let cold = engine();
    for engine in [memo, &cold] {
        engine.register_table("l", l.clone()).unwrap();
        engine.register_table("r", r.clone()).unwrap();
    }
    let served = memo.execute_text_batch(&[query]).unwrap().remove(0);
    let real = cold.execute_text_batch(&[query]).unwrap().remove(0);
    assert_eq!(memo_counts(&cold), [0, 1, 0, 0], "the reference traced");
    assert!(has_audit_span(&real));
    assert_eq!(served.rows, real.rows, "{query}");
    assert_eq!(served.summary.trace_digest, real.summary.trace_digest);
    assert_eq!(served.summary.trace_events, real.summary.trace_events);
    assert_eq!(served.summary.counters, real.summary.counters);
    served
}

#[test]
fn same_shape_hits_and_a_changed_revealed_size_misses() {
    let memo = engine();
    let query = "JOIN l r";

    let first = run_both(&memo, left(3), right(16, 0), query);
    assert_eq!(memo_counts(&memo), [0, 1, 0, 0], "unseen shape: traced");
    assert!(has_audit_span(&first), "the trace is its own span");

    // Different contents, same public shape (sizes, join size m = 128).
    let twisted = run_both(&memo, left(0x5a5a), right(16, 77), query);
    assert_eq!(memo_counts(&memo), [1, 1, 0, 0], "re-registered: a hit");
    assert_ne!(twisted.rows, first.rows);
    assert_eq!(twisted.summary.trace_digest, first.summary.trace_digest);
    assert!(!has_audit_span(&twisted), "a hit hashes nothing");

    // Same tables sizes, but the join now reveals m = 64: a different
    // shape under the same plan.
    let smaller = run_both(&memo, left(3), right(32, 0), query);
    assert_eq!(smaller.rows.len(), 64);
    assert_eq!(memo_counts(&memo), [1, 2, 0, 0], "new join size: a miss");
    assert_ne!(smaller.summary.trace_digest, first.summary.trace_digest);
    assert!(has_audit_span(&smaller), "the re-trace is its own span");
    assert!(smaller.trace.timing_is_consistent());

    // Both shapes now live side by side.
    run_both(&memo, left(9), right(16, 5), query);
    run_both(&memo, left(9), right(32, 5), query);
    assert_eq!(memo_counts(&memo), [3, 2, 0, 0]);
}

#[test]
fn a_filter_survivor_count_is_part_of_the_shape() {
    let memo = engine();
    let query = "SCAN l | FILTER v>=500 | AGG count";
    let survivors = |t: &Table| t.iter().filter(|e| e.value >= 500).count();
    let (a, b, c) = (left(11), left(37), left(101));
    assert_ne!(survivors(&a), survivors(&b));

    let on_a = run_both(&memo, a.clone(), right(16, 0), query);
    let on_b = run_both(&memo, b, right(16, 0), query);
    assert_eq!(memo_counts(&memo), [0, 2, 0, 0]);
    assert_ne!(on_a.summary.trace_digest, on_b.summary.trace_digest);
    // Back to the first survivor count: the older entry is still there.
    let again = run_both(&memo, a, right(16, 0), query);
    assert_eq!(memo_counts(&memo), [1, 2, 0, 0]);
    assert_eq!(again.summary.trace_digest, on_a.summary.trace_digest);
    // A third count is a third entry.
    assert!(survivors(&c) != survivors(&left(11)) && survivors(&c) != survivors(&left(37)));
    run_both(&memo, c, right(16, 0), query);
    assert_eq!(memo_counts(&memo)[1], 3);
}

#[test]
fn explain_analyze_shows_hashing_apart_from_the_kernel() {
    let engine = engine();
    engine.register_table("l", left(3)).unwrap();
    engine.register_table("r", right(16, 0)).unwrap();
    // A new shape: the untraced run's operators, then the hashed re-run.
    let miss = engine.explain_analyze("EXPLAIN ANALYZE JOIN l r").unwrap();
    assert!(miss.contains("\n  join "), "{miss}");
    assert!(miss.contains("\n  trace_audit "), "{miss}");
    let hit = engine.explain_analyze("JOIN l r").unwrap();
    assert!(hit.contains("\n  join "), "{hit}");
    assert!(!hit.contains("trace_audit"), "{hit}");
    // A new join size under the same plan is a new shape again.
    engine.register_table("r", right(32, 0)).unwrap();
    let resized = engine.explain_analyze("JOIN l r").unwrap();
    assert!(resized.contains("\n  trace_audit "), "{resized}");
}

#[test]
fn the_schema_of_an_input_is_part_of_the_shape() {
    use obliv_join::schema::{ColumnType, Schema, Value, WideTable};
    // The same name, row count and row width, re-registered under a
    // different column layout: the plan text is unchanged, but the memo
    // must not mistake it for the shape it has seen.
    let engine = engine();
    let table = |columns: [(&str, ColumnType); 2]| {
        let schema = Schema::new(columns).unwrap();
        let rows = (0..8u64).map(|i| vec![Value::U64(i % 4), Value::U64(i)]);
        WideTable::from_rows(schema, rows).unwrap()
    };
    engine
        .register_wide_table("t", table([("k", ColumnType::U64), ("v", ColumnType::U64)]))
        .unwrap();
    engine.execute_text_batch(&["SCAN t | DISTINCT"]).unwrap();
    engine
        .register_wide_table("t", table([("v", ColumnType::U64), ("k", ColumnType::U64)]))
        .unwrap();
    engine.execute_text_batch(&["SCAN t | DISTINCT"]).unwrap();
    assert_eq!(memo_counts(&engine), [0, 2, 0, 0]);
}
