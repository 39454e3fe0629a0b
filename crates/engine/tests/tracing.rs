//! Operator-level query tracing, end to end through the engine: span-tree
//! structure invariants, timing consistency, content-independence of the
//! Content fields, cache-replay semantics, `EXPLAIN ANALYZE`, the
//! slow-query ring and the Chrome-trace export shape.

use std::time::Duration;

use obliv_engine::{chrome_trace_json, Engine, EngineConfig, SpanNode};
use obliv_join::Table;
use obliv_workloads::generators::wide_orders_lineitem;

fn pair_engine(workers: usize) -> Engine {
    let engine = Engine::new(EngineConfig {
        workers,
        ..Default::default()
    });
    engine
        .register_table(
            "orders",
            Table::from_pairs((0..32u64).map(|i| (i % 8, (i * 37) % 101))),
        )
        .unwrap();
    engine
        .register_table(
            "customers",
            Table::from_pairs((0..16u64).map(|i| (i % 8, i + 1))),
        )
        .unwrap();
    engine
}

fn wide_engine() -> Engine {
    let spec = wide_orders_lineitem(24, 11);
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..Default::default()
    });
    engine.register_wide_table("orders", spec.orders).unwrap();
    engine
        .register_wide_table("lineitem", spec.lineitem)
        .unwrap();
    engine
}

/// Walk the tree and collect `(depth, name)` pairs in pre-order.
fn shape(node: &SpanNode) -> Vec<(usize, String)> {
    fn walk(node: &SpanNode, depth: usize, out: &mut Vec<(usize, String)>) {
        out.push((depth, node.name.clone()));
        for child in &node.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(node, 0, &mut out);
    out
}

#[test]
fn span_tree_mirrors_the_plan() {
    let engine = pair_engine(2);
    let response = engine
        .execute_text_batch(&["SCAN orders | FILTER v>=40 | AGG sum"])
        .unwrap()
        .pop()
        .unwrap();
    let trace = &response.trace;
    // Root `query` span, synthetic `queue_wait` first, then one span per
    // plan operator, nested exactly like the plan; a shape this engine has
    // not traced before ends with the synthetic `trace_audit` (the hashed
    // re-run that fills the digest memo).
    assert_eq!(
        shape(trace),
        vec![
            (0, "query".into()),
            (1, "queue_wait".into()),
            (1, "group_aggregate".into()),
            (2, "filter".into()),
            (3, "scan".into()),
            (1, "trace_audit".into()),
        ]
    );
    // The scan reveals the public table size; the root reveals the output.
    let scan = &trace.children[1].children[0].children[0];
    assert_eq!(scan.output_rows, 32);
    assert_eq!(trace.output_rows, response.rows.len() as u64);
    assert_eq!(
        trace.output_row_width,
        response.rows.schema().row_width() as u64
    );
    // Parent spans report their children's revealed output sizes as
    // inputs (the oblivious filter's compacted output size is itself a
    // revealed public parameter, so the chain stays consistent).
    let agg = &trace.children[1];
    let filter = &agg.children[0];
    assert_eq!(filter.input_rows, vec![scan.output_rows]);
    assert_eq!(agg.input_rows, vec![filter.output_rows]);
    // The root's counter delta covers the whole query.
    assert_eq!(trace.counters, response.summary.counters);
    assert!(trace.counters.comparisons > 0);
}

#[test]
fn span_timing_is_consistent_and_bounded_by_phases() {
    let engine = pair_engine(4);
    let queries = [
        "JOIN orders customers",
        "SCAN orders | FILTER v>=40 | AGG sum",
        "ANTIJOIN customers orders",
    ];
    for response in engine.execute_text_batch(&queries).unwrap() {
        let trace = &response.trace;
        // Children nest within parents: totals sum to at most the parent's
        // total and `self` is the exact remainder, recursively.
        assert!(trace.timing_is_consistent(), "{}", response.label);
        // The root span covers execution plus the queue wait it embeds, and
        // both fit inside the response's wall clock.
        let phases = response.summary.phases;
        let budget = phases.queue_wait + phases.execute;
        assert!(
            trace.total_ns <= response.summary.wall.as_nanos() as u64,
            "{}: root total {} must fit in wall {:?}",
            response.label,
            trace.total_ns,
            response.summary.wall
        );
        // Operator spans and the digest-memo re-trace (everything but the
        // synthetic queue_wait child) ran inside the execute phase.
        let operators: u64 = trace
            .children
            .iter()
            .filter(|c| c.name != "queue_wait")
            .map(|c| c.total_ns)
            .sum();
        assert!(
            operators <= budget.as_nanos() as u64,
            "{}: operator spans {operators}ns exceed queue+execute {budget:?}",
            response.label
        );
    }
}

#[test]
fn wide_plans_record_operator_details() {
    let engine = wide_engine();
    let response = engine
        .execute_text_batch(&["JOIN orders lineitem ON o_key | PROJECT o_key,price,qty | DISTINCT"])
        .unwrap()
        .pop()
        .unwrap();
    let trace = &response.trace;
    // The span tree reflects the *executed* plan: the planner fuses the
    // PROJECT into the join's carry selection, so no project node runs.
    assert_eq!(
        shape(trace),
        vec![
            (0, "query".into()),
            (1, "queue_wait".into()),
            (1, "distinct".into()),
            (2, "join".into()),
            (3, "scan".into()),
            (3, "scan".into()),
            (1, "trace_audit".into()),
        ]
    );
    let join = &trace.children[1].children[0];
    assert_eq!(join.detail, "o_key=o_key");
    assert_eq!(join.input_rows.len(), 2);
    assert_eq!(join.children[0].detail, "orders");
    assert_eq!(join.children[1].detail, "lineitem");
    // The fused projection shows up at the join: its output rows already
    // carry only the three projected u64 columns (widths are in bytes).
    assert_eq!(join.output_row_width, 24);
    assert_eq!(response.rows.schema().row_width(), 24);
}

#[test]
fn trace_content_fields_are_content_independent() {
    // Same public parameters (table sizes, key multiplicities, plans),
    // different tuple contents: the span trees must differ only in their
    // Timing fields.
    let run = |twist: u64| -> Vec<SpanNode> {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..Default::default()
        });
        engine
            .register_table(
                "a",
                Table::from_pairs((0..64u64).map(|k| (k % 16, k.wrapping_mul(twist) ^ twist))),
            )
            .unwrap();
        engine
            .register_table(
                "b",
                Table::from_pairs((0..48u64).map(|k| (k % 16, k + twist))),
            )
            .unwrap();
        engine
            .execute_text_batch(&["JOIN a b", "JOINAGG a b count", "SCAN a | DISTINCT"])
            .unwrap()
            .into_iter()
            .map(|r| r.trace.without_timing())
            .collect()
    };
    let a = run(3);
    let b = run(0x5a5a);
    assert_eq!(
        a, b,
        "span-tree structure or a Content field differs between runs that differ only in data"
    );
    // The content rendering (the timing-free EXPLAIN ANALYZE body) is
    // therefore bit-identical too.
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.render_text(false), y.render_text(false));
    }
}

#[test]
fn cache_hits_replay_the_original_trace() {
    let engine = pair_engine(2);
    let query = ["JOIN orders customers"];
    let miss = engine.execute_text_batch(&query).unwrap().pop().unwrap();
    assert!(!miss.cached);
    let hit = engine.execute_text_batch(&query).unwrap().pop().unwrap();
    assert!(hit.cached);
    // Bit-identical replay, Timing fields included — the hit reports the
    // run that produced the payload, mirroring the summary semantics.
    assert_eq!(hit.trace, miss.trace);
}

#[test]
fn explain_analyze_renders_the_annotated_tree() {
    let engine = pair_engine(2);
    let text = engine
        .explain_analyze("EXPLAIN ANALYZE SCAN orders | FILTER v>=40 | AGG sum")
        .unwrap();
    assert!(text.starts_with("-- SCAN orders | FILTER v>=40 | AGG sum\n"));
    assert!(text.contains("-- cached: false"));
    for needle in [
        "query",
        "queue_wait",
        "group_aggregate",
        "filter",
        "scan",
        "total=",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // The verb is optional on this entry point, and a repeat run reports
    // the cache hit.
    let again = engine
        .explain_analyze("SCAN orders | FILTER v>=40 | AGG sum")
        .unwrap();
    assert!(again.contains("-- cached: true"));
    // A parse error in the inner query surfaces as usual.
    assert!(engine.explain_analyze("EXPLAIN ANALYZE FROB t").is_err());
}

#[test]
fn slow_query_ring_captures_plan_sizes_and_trace() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        // Zero threshold: every fresh execution is "slow".
        slow_query_threshold: Some(Duration::ZERO),
        slow_query_capacity: 8,
        ..Default::default()
    });
    engine
        .register_table("orders", Table::from_pairs(vec![(1, 10), (2, 20), (3, 30)]))
        .unwrap();
    let response = engine
        .execute_text_batch(&["SCAN orders | AGG count"])
        .unwrap()
        .pop()
        .unwrap();
    let records = engine.slow_queries().records();
    assert_eq!(records.len(), 1);
    let record = &records[0];
    assert_eq!(record.label, "SCAN orders | AGG count");
    assert_eq!(record.inputs, vec![("orders".to_string(), 3)]);
    assert_eq!(record.output_rows, response.rows.len() as u64);
    assert_eq!(*record.trace, *response.trace);
    assert!(record.wall_ns > 0);
    assert!(record.plan.contains("Scan"));
    // Cache hits never re-record: the ring logs executions, not servings.
    engine
        .execute_text_batch(&["SCAN orders | AGG count"])
        .unwrap();
    assert_eq!(engine.slow_queries().total_recorded(), 1);
}

#[test]
fn slow_query_ring_is_off_by_default_and_threshold_filters() {
    let engine = pair_engine(1);
    engine.execute_text_batch(&["SCAN orders"]).unwrap();
    assert_eq!(engine.slow_queries().total_recorded(), 0);

    // An unreachable threshold records nothing either.
    let strict = Engine::new(EngineConfig {
        workers: 1,
        slow_query_threshold: Some(Duration::from_secs(3600)),
        ..Default::default()
    });
    strict
        .register_table("t", Table::from_pairs(vec![(1, 1)]))
        .unwrap();
    strict.execute_text_batch(&["SCAN t"]).unwrap();
    assert_eq!(strict.slow_queries().total_recorded(), 0);
}

/// A minimal JSON scanner for the Chrome-trace golden-shape check: finds
/// top-level objects of the exported array and the `"key":value` pairs of
/// each (no nesting beyond the `args` object, which it skips structurally).
fn chrome_events(json: &str) -> Vec<String> {
    let body = json
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .expect("export is one JSON array");
    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_string = false;
    let mut prev_escape = false;
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                '\\' if !prev_escape => prev_escape = true,
                '"' if !prev_escape => in_string = false,
                _ => prev_escape = false,
            }
            if c != '\\' {
                prev_escape = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    events.push(body[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in export");
    events
}

#[test]
fn chrome_trace_export_matches_golden_shape() {
    // A three-operator plan, as the acceptance criteria require.
    let engine = pair_engine(1);
    let response = engine
        .execute_text_batch(&["SCAN orders | FILTER v>=40 | AGG sum"])
        .unwrap()
        .pop()
        .unwrap();
    let json = chrome_trace_json(&response.trace);

    let events = chrome_events(&json);
    // One complete event per span: root + queue_wait + 3 operators + the
    // first execution's trace_audit.
    assert_eq!(events.len(), response.trace.span_count());
    assert_eq!(events.len(), 6);
    for event in &events {
        for field in [
            "\"name\":",
            "\"cat\":\"operator\"",
            "\"ph\":\"X\"",
            "\"ts\":",
            "\"dur\":",
            "\"args\":",
        ] {
            assert!(event.contains(field), "event missing {field}: {event}");
        }
        // Stable ids: one process, tid = tree depth.
        assert!(event.contains("\"pid\":1"), "{event}");
    }
    assert!(events[0].contains("\"name\":\"query\""));
    assert!(events[0].contains("\"tid\":0"));
    assert!(events[0].contains("\"ts\":0.000"));
    assert!(events[1].contains("\"name\":\"queue_wait\""));
    assert!(events.iter().any(|e| e.contains("\"tid\":3")));

    // The layout is deterministic: re-exporting the same tree is
    // byte-identical.
    assert_eq!(json, chrome_trace_json(&response.trace));
}
