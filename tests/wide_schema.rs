//! End-to-end coverage of the typed row/schema layer (PR 3 acceptance):
//!
//! * a wide-schema query — ≥4 columns, join on a named key column, filter
//!   and aggregate on *distinct* payload columns — runs through the text
//!   frontend end to end,
//! * its trace digest is content-independent (a pure function of the
//!   public shape: row counts, schema widths, revealed output sizes),
//! * schemas with different widths produce different (but still
//!   content-independent) digests,
//! * frontend/validation failures are typed errors, never panics,
//! * and tables registered from `(key, value)` pairs coexist with wider
//!   ones in one catalog, answering both surface forms of the text language.

use obliv_join_suite::prelude::*;

/// Orders with 5 typed columns.
fn orders_schema() -> Schema {
    Schema::new([
        ("o_key", ColumnType::U64),
        ("price", ColumnType::U64),
        ("priority", ColumnType::I64),
        ("urgent", ColumnType::Bool),
        ("region", ColumnType::Bytes(4)),
    ])
    .unwrap()
}

/// Line items with 4 typed columns.
fn lineitem_schema() -> Schema {
    Schema::new([
        ("l_key", ColumnType::U64),
        ("qty", ColumnType::U64),
        ("tax", ColumnType::I64),
        ("part", ColumnType::Bytes(8)),
    ])
    .unwrap()
}

fn orders_row(key: u64, price: u64, priority: i64, urgent: bool, region: &[u8; 4]) -> Vec<Value> {
    vec![
        Value::U64(key),
        Value::U64(price),
        Value::I64(priority),
        Value::Bool(urgent),
        Value::Bytes(region.to_vec()),
    ]
}

fn lineitem_row(key: u64, qty: u64, tax: i64, part: &[u8; 8]) -> Vec<Value> {
    vec![
        Value::U64(key),
        Value::U64(qty),
        Value::I64(tax),
        Value::Bytes(part.to_vec()),
    ]
}

fn engine_with(orders: WideTable, lineitem: WideTable) -> Engine {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        result_cache: false,
        ..Default::default()
    });
    engine.register_wide_table("orders", orders).unwrap();
    engine.register_wide_table("lineitem", lineitem).unwrap();
    engine
}

/// The acceptance query: join on a named key column, filter on a payload
/// column of one table, aggregate a payload column of the other.
const ACCEPTANCE_QUERY: &str =
    "JOIN orders lineitem ON o_key=l_key | FILTER price>=100 | AGG sum(qty)";

fn acceptance_tables() -> (WideTable, WideTable) {
    let orders = WideTable::from_rows(
        orders_schema(),
        [
            orders_row(1, 120, -1, true, b"east"),
            orders_row(2, 80, 2, false, b"west"),
            orders_row(3, 250, 0, false, b"east"),
            orders_row(4, 99, -5, true, b"sth "),
        ],
    )
    .unwrap();
    let lineitem = WideTable::from_rows(
        lineitem_schema(),
        [
            lineitem_row(1, 5, 1, b"pt001-00"),
            lineitem_row(1, 7, -1, b"pt001-01"),
            lineitem_row(2, 3, 0, b"pt002-00"),
            lineitem_row(3, 8, 4, b"pt003-00"),
        ],
    )
    .unwrap();
    (orders, lineitem)
}

#[test]
fn wide_query_runs_end_to_end_through_the_text_frontend() {
    let (orders, lineitem) = acceptance_tables();
    let engine = engine_with(orders, lineitem);
    let responses = engine.execute_text_batch(&[ACCEPTANCE_QUERY]).unwrap();
    assert_eq!(responses.len(), 1);
    let response = &responses[0];

    // The one row representation carries the typed output schema.
    let wide = &response.rows;
    assert_eq!(wide.schema().column_names(), vec!["o_key", "sum_qty"]);

    // Plaintext reference: orders with price >= 100 are keys 1 (price 120)
    // and 3 (price 250); key 1 has line items qty 5 + 7, key 3 has qty 8.
    assert_eq!(wide.len(), 2);
    assert_eq!(wide.value(0, "o_key").unwrap(), Value::U64(1));
    assert_eq!(wide.value(0, "sum_qty").unwrap(), Value::U64(12));
    assert_eq!(wide.value(1, "o_key").unwrap(), Value::U64(3));
    assert_eq!(wide.value(1, "sum_qty").unwrap(), Value::U64(8));

    // The summary counts wide output rows and carries a real digest.
    assert_eq!(response.summary.output_rows, 2);
    assert_eq!(response.summary.trace_digest.len(), 64);
}

#[test]
fn bytes_literal_filters_run_end_to_end() {
    let (orders, lineitem) = acceptance_tables();
    let engine = engine_with(orders, lineitem);

    // Equality on a bytes[4] column through the text frontend: east orders
    // are keys 1 and 3.
    let responses = engine
        .execute_text_batch(&["SCAN orders | FILTER region=\"east\" | AGG count BY o_key"])
        .unwrap();
    let wide = &responses[0].rows;
    assert_eq!(wide.len(), 2);
    assert_eq!(wide.value(0, "o_key").unwrap(), Value::U64(1));
    assert_eq!(wide.value(1, "o_key").unwrap(), Value::U64(3));

    // Lexicographic range comparison on a bytes[8] column: parts >=
    // "pt002-00" are the items of orders 2 and 3.
    let responses = engine
        .execute_text_batch(&["SCAN lineitem | FILTER part>=\"pt002-00\" | AGG sum(qty) BY l_key"])
        .unwrap();
    let wide = &responses[0].rows;
    assert_eq!(wide.len(), 2);
    assert_eq!(wide.value(0, "sum_qty").unwrap(), Value::U64(3));
    assert_eq!(wide.value(1, "sum_qty").unwrap(), Value::U64(8));

    // A literal whose length does not match the column's declared width is
    // a typed schema error at validation, before any execution.
    let err = engine
        .execute_text_batch(&["SCAN orders | FILTER region=\"northwest\""])
        .unwrap_err();
    match err {
        EngineError::Wide(WideError::Schema(SchemaError::TypeMismatch {
            column,
            expected,
            found,
        })) => {
            assert_eq!(column, "region");
            assert_eq!(expected, ColumnType::Bytes(4));
            assert_eq!(found, ColumnType::Bytes(9));
        }
        other => panic!("expected a bytes-width mismatch, got {other:?}"),
    }
}

/// Run the acceptance query against given tables and return the digest.
fn digest_of(orders: WideTable, lineitem: WideTable, query: &str) -> String {
    let engine = engine_with(orders, lineitem);
    let responses = engine.execute_text_batch(&[query]).unwrap();
    responses[0].summary.trace_digest.clone()
}

#[test]
fn wide_digest_is_content_independent() {
    // Same public shape: 4 orders, 4 line items, join size m = 4, two
    // filter survivors, two output groups — with completely different
    // contents (keys, payloads, strings, signs).
    let (orders_a, lineitem_a) = acceptance_tables();
    let orders_b = WideTable::from_rows(
        orders_schema(),
        [
            orders_row(11, 500, 3, false, b"nrth"),
            orders_row(12, 10, -2, true, b"east"),
            orders_row(13, 101, 5, true, b"west"),
            orders_row(14, 20, 0, false, b"east"),
        ],
    )
    .unwrap();
    let lineitem_b = WideTable::from_rows(
        lineitem_schema(),
        [
            lineitem_row(11, 1, 9, b"xx900-00"),
            lineitem_row(11, 2, -3, b"xx900-01"),
            lineitem_row(12, 30, 0, b"yy100-00"),
            lineitem_row(13, 40, 2, b"zz200-00"),
        ],
    )
    .unwrap();
    let a = digest_of(orders_a, lineitem_a, ACCEPTANCE_QUERY);
    let b = digest_of(orders_b, lineitem_b, ACCEPTANCE_QUERY);
    assert_eq!(
        a, b,
        "tables with identical schemas, row counts and revealed sizes must \
         produce identical trace digests"
    );

    // A different revealed shape legitimately changes the digest: a fifth
    // line item for key 1 grows both n₂ (4 → 5) and m (4 → 5).
    let (orders_c, mut lineitem_c) = acceptance_tables();
    let mut rows: Vec<Vec<Value>> = (0..lineitem_c.len())
        .map(|i| lineitem_c.row_values(i))
        .collect();
    rows.push(lineitem_row(1, 9, 0, b"pt001-02"));
    lineitem_c = WideTable::from_rows(lineitem_schema(), rows).unwrap();
    let c = digest_of(orders_c, lineitem_c, ACCEPTANCE_QUERY);
    assert_ne!(a, c, "a different public shape must change the digest");
}

#[test]
fn wide_digest_reflects_schema_width_not_contents() {
    // Two single-table pipelines over schemas that differ only in an extra
    // payload column: same row count, same revealed output sizes.  The row
    // width is public, and the trace must reflect it.
    let narrow = Schema::new([("k", ColumnType::U64), ("v", ColumnType::U64)]).unwrap();
    let wide = Schema::new([
        ("k", ColumnType::U64),
        ("v", ColumnType::U64),
        ("note", ColumnType::Bytes(24)),
    ])
    .unwrap();
    let query = "SCAN t | FILTER v>=50 | AGG count BY k";
    let digest = |table: WideTable| {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            result_cache: false,
            ..Default::default()
        });
        engine.register_wide_table("t", table).unwrap();
        engine.execute_text_batch(&[query]).unwrap()[0]
            .summary
            .trace_digest
            .clone()
    };

    let narrow_rows = |a: u64, b: u64| {
        vec![
            vec![Value::U64(1), Value::U64(a)],
            vec![Value::U64(2), Value::U64(b)],
        ]
    };
    let wide_rows = |a: u64, b: u64, note: u8| {
        vec![
            vec![Value::U64(1), Value::U64(a), Value::Bytes(vec![note; 24])],
            vec![
                Value::U64(2),
                Value::U64(b),
                Value::Bytes(vec![note ^ 0xff; 24]),
            ],
        ]
    };

    let narrow_1 = digest(WideTable::from_rows(narrow.clone(), narrow_rows(60, 70)).unwrap());
    let narrow_2 = digest(WideTable::from_rows(narrow, narrow_rows(90, 55)).unwrap());
    let wide_1 = digest(WideTable::from_rows(wide.clone(), wide_rows(60, 70, 0x11)).unwrap());
    let wide_2 = digest(WideTable::from_rows(wide, wide_rows(90, 55, 0x42)).unwrap());

    assert_eq!(narrow_1, narrow_2, "narrow digest is content-independent");
    assert_eq!(wide_1, wide_2, "wide digest is content-independent");
    assert_ne!(
        narrow_1, wide_1,
        "different row widths are public and must be visible in the trace"
    );
}

#[test]
fn frontend_negative_cases_are_typed_errors_not_panics() {
    let (orders, lineitem) = acceptance_tables();
    let engine = engine_with(orders, lineitem);

    // Unknown column.
    match engine
        .execute_text_batch(&["JOIN orders lineitem ON o_key=l_key | FILTER ghost>=1"])
        .unwrap_err()
    {
        EngineError::Wide(WideError::Schema(SchemaError::UnknownColumn { name, .. })) => {
            assert_eq!(name, "ghost")
        }
        other => panic!("expected a typed unknown-column error, got {other:?}"),
    }

    // Type mismatch in FILTER: comparing a bytes column with an integer.
    match engine
        .execute_text_batch(&["SCAN orders | FILTER region>=10 | AGG count BY o_key"])
        .unwrap_err()
    {
        EngineError::Wide(WideError::Schema(SchemaError::TypeMismatch {
            column,
            expected,
            found,
        })) => {
            assert_eq!(column, "region");
            assert_eq!(expected, ColumnType::Bytes(4));
            assert_eq!(found, ColumnType::U64);
        }
        other => panic!("expected a typed type-mismatch error, got {other:?}"),
    }

    // Aggregating a non-numeric column.
    match engine
        .execute_text_batch(&["JOIN orders lineitem ON o_key=l_key | AGG sum(region)"])
        .unwrap_err()
    {
        EngineError::Wide(WideError::NotAggregatable { column, ty, .. }) => {
            assert_eq!(column, "region");
            assert_eq!(ty, ColumnType::Bytes(4));
        }
        other => panic!("expected a typed non-aggregatable error, got {other:?}"),
    }

    // A signed column cannot be summed either (its word code is not
    // addition-compatible) — still a typed error.
    assert!(matches!(
        engine
            .execute_text_batch(&["JOIN orders lineitem ON o_key=l_key | AGG sum(priority)"])
            .unwrap_err(),
        EngineError::Wide(WideError::NotAggregatable { .. })
    ));

    // Ambiguity: a column both join sides own must be disambiguated.
    match engine
        .execute_text_batch(&["JOIN orders orders ON o_key | PROJECT o_key,price | AGG sum(price)"])
        .unwrap_err()
    {
        EngineError::AmbiguousColumn { name, .. } => assert_eq!(name, "price"),
        other => panic!("expected a typed ambiguity error, got {other:?}"),
    }
}

#[test]
fn projecting_above_a_union_of_joins_resolves() {
    // Regression: a wanted-column set is spelled in the union's output
    // (left-side) namespace and must not leak into the right branch,
    // whose join uses different column names.
    let (orders, lineitem) = acceptance_tables();
    let engine = engine_with(orders, lineitem);
    engine
        .register_table("pairs_a", Table::from_pairs(vec![(1, 10), (2, 20)]))
        .unwrap();
    engine
        .register_table("pairs_b", Table::from_pairs(vec![(1, 7), (3, 9)]))
        .unwrap();
    // Left branch: wide join (o_key, price, qty). Right branch: pair join
    // projected to matching positional types under different names.
    let left = Plan::scan("orders")
        .join(Plan::scan("lineitem"), "o_key", "l_key")
        .project(["o_key", "price", "qty"]);
    let right = Plan::scan("pairs_a")
        .join(Plan::scan("pairs_b"), "key", "key")
        .project(["key", "left_value", "right_value"]);
    let plan = left.union_all(right).project(["o_key", "price"]);
    let responses = engine
        .execute_batch(&[QueryRequest::new("u", plan)])
        .unwrap();
    assert_eq!(
        responses[0].rows.schema().column_names(),
        vec!["o_key", "price"]
    );
    // 4 wide join rows + 1 pair join row survive the union.
    assert_eq!(responses[0].rows.len(), 5);
}

#[test]
fn multi_column_carries_flow_through_one_join() {
    // Two payload columns from the same side — the query PR 3 had to
    // reject — now runs through the generalised kernel record.
    let (orders, lineitem) = acceptance_tables();
    let engine = engine_with(orders, lineitem);
    let responses = engine
        .execute_text_batch(&["JOIN orders lineitem ON o_key=l_key | FILTER qty>=1 | AGG min(tax)"])
        .unwrap();
    let rows = &responses[0].rows;
    assert_eq!(rows.schema().column_names(), vec!["o_key", "min_tax"]);
    assert_eq!(rows.len(), 3);
    assert_eq!(rows.value(0, "min_tax").unwrap(), Value::I64(-1));
    assert_eq!(responses[0].summary.carry_words, 2, "qty and tax both ride");

    // An explicit PROJECT keeps a five-column join output in one piece.
    let responses = engine
        .execute_text_batch(&[
            "JOIN orders lineitem ON o_key=l_key | PROJECT o_key,price,region,qty,tax \
             | FILTER price>=100",
        ])
        .unwrap();
    let rows = &responses[0].rows;
    assert_eq!(
        rows.schema().column_names(),
        vec!["o_key", "price", "region", "qty", "tax"]
    );
    assert_eq!(rows.len(), 3, "orders 1 (two items) and 3 (one) pass");
    assert_eq!(
        rows.value(0, "region").unwrap(),
        Value::Bytes(b"east".to_vec())
    );

    // The carry limit is still enforced, with a typed error.
    let many: Vec<(String, ColumnType)> = std::iter::once(("k".to_string(), ColumnType::U64))
        .chain((0..9).map(|i| (format!("c{i}"), ColumnType::U64)))
        .collect();
    engine
        .register_wide_table("manycols", WideTable::new(Schema::new(many).unwrap()))
        .unwrap();
    match engine
        .execute_text_batch(&["JOIN manycols lineitem ON k=l_key"])
        .unwrap_err()
    {
        EngineError::Wide(WideError::CarryTooWide { side, columns }) => {
            assert_eq!(side, "left");
            assert_eq!(columns.len(), 9);
        }
        other => panic!("expected a typed carry-overflow error, got {other:?}"),
    }
}

#[test]
fn typed_columns_filter_in_natural_order_through_the_frontend() {
    let (orders, lineitem) = acceptance_tables();
    let engine = engine_with(orders, lineitem);
    let responses = engine
        .execute_text_batch(&[
            // Signed order: priority < 0 keeps keys 1 (-1) and 4 (-5).
            "SCAN orders | FILTER priority<0 | AGG count BY o_key",
            // Boolean equality keeps the two urgent orders.
            "SCAN orders | FILTER urgent=true | AGG count BY o_key",
        ])
        .unwrap();
    let negatives = &responses[0].rows;
    assert_eq!(negatives.len(), 2);
    assert_eq!(negatives.value(0, "o_key").unwrap(), Value::U64(1));
    assert_eq!(negatives.value(1, "o_key").unwrap(), Value::U64(4));
    let urgent = &responses[1].rows;
    assert_eq!(urgent.len(), 2);
}

#[test]
fn pair_and_wide_tables_coexist_in_one_catalog() {
    let (orders, lineitem) = acceptance_tables();
    let engine = engine_with(orders, lineitem);
    engine
        .register_table("pairs", Table::from_pairs(vec![(1, 10), (2, 200)]))
        .unwrap();

    let responses = engine
        .execute_text_batch(&[
            // Legacy pipeline over the pair-registered table.
            "SCAN pairs | FILTER v>=100",
            // Column pipeline over the same table, by its {key, value}
            // column names.
            "SCAN pairs | FILTER value>=100 | AGG count BY key",
            // Wide pipeline over a wide table, same batch.
            "SCAN orders | FILTER price>=100 | AGG count BY region",
        ])
        .unwrap();
    assert_eq!(responses[0].rows.pairs().unwrap(), vec![(2, 200)]);
    assert_eq!(
        responses[0].rows.schema().column_names(),
        vec!["key", "value"],
        "the legacy shape is the degenerate two-column schema"
    );
    let wide_over_pairs = &responses[1].rows;
    assert_eq!(wide_over_pairs.len(), 1);
    assert_eq!(wide_over_pairs.value(0, "key").unwrap(), Value::U64(2));
    let by_region = &responses[2].rows;
    // Orders ≥ 100: keys 1 and 3, both in region "east".
    assert_eq!(by_region.len(), 1);
    assert_eq!(
        by_region.value(0, "region").unwrap(),
        Value::Bytes(b"east".to_vec())
    );

    // Metadata reports both schemas.
    let meta = engine.table_meta("orders").unwrap();
    assert_eq!(meta.rows, 4);
    assert_eq!(meta.schema.len(), 5);
    assert_eq!(
        *engine.table_meta("pairs").unwrap().schema,
        Schema::pair(),
        "a pair-registered table is the degenerate two-column schema"
    );
}

#[test]
fn wide_responses_are_cacheable_and_dedupable() {
    let (orders, lineitem) = acceptance_tables();
    let engine = Engine::new(EngineConfig {
        workers: 2,
        result_cache: true,
        ..Default::default()
    });
    engine.register_wide_table("orders", orders).unwrap();
    engine.register_wide_table("lineitem", lineitem).unwrap();

    let miss = engine.execute_text_batch(&[ACCEPTANCE_QUERY]).unwrap();
    assert!(!miss[0].cached);
    let hit = engine.execute_text_batch(&[ACCEPTANCE_QUERY]).unwrap();
    assert!(hit[0].cached);
    assert_eq!(hit[0].rows, miss[0].rows);
    assert_eq!(hit[0].summary, miss[0].summary);

    // Deregistering returns the table and must invalidate: after
    // re-registering identical contents the same query re-executes instead
    // of replaying a stale entry.
    let (orders_again, _) = acceptance_tables();
    assert_eq!(
        engine.deregister_table("orders").as_ref(),
        Some(&orders_again)
    );
    assert!(engine.table_meta("orders").is_none(), "table was removed");
    engine.register_wide_table("orders", orders_again).unwrap();
    let fresh = engine.execute_text_batch(&[ACCEPTANCE_QUERY]).unwrap();
    assert!(!fresh[0].cached, "deregistration must invalidate the cache");
    assert_eq!(fresh[0].rows, miss[0].rows);
}
