//! A small oblivious query pipeline built from the operator library:
//!
//! ```sql
//! SELECT o.region, SUM(l.price * o.weight)          -- SumProducts per key
//! FROM   orders o JOIN lineitem l ON o.order_id = l.order_id
//! WHERE  l.price >= 20
//! GROUP BY o.order_id
//! ```
//!
//! plus a couple of supporting statistics (distinct keys, semi-join sizes),
//! all computed with access patterns that depend only on table sizes and the
//! revealed result sizes — the direction the paper's conclusion points at
//! ("grouping aggregations over joins could be computed using fewer sorting
//! steps than a full join would require").
//!
//! The tables are the paper's `(key, value)` shape, run through the wide
//! operators as the degenerate `{key, value}` schema.
//!
//! Run with:
//! ```text
//! cargo run --release --example oblivious_query
//! ```

use obliv_join_suite::prelude::*;
use obliv_trace::Tracer;

/// Read a two-`u64`-column operator output back as pairs.
fn pairs(t: &WideTable) -> Vec<(u64, u64)> {
    Rows::from_wide(t.clone()).pairs().expect("two u64 columns")
}

fn main() {
    // orders(order_id, weight), lineitem(order_id, price).
    let workload = orders_lineitem(1_000, 11);
    let orders = WideTable::from_pair(&workload.left);
    let lineitem = WideTable::from_pair(&workload.right);
    let tracer = Tracer::new(CountingSink::new());

    println!(
        "orders: {} rows, lineitem: {} rows, full join would have {} rows",
        orders.len(),
        lineitem.len(),
        workload.output_size
    );

    // WHERE l.price >= 20 — oblivious selection.
    let expensive = wide_filter(
        &tracer,
        &lineitem,
        &WidePredicate::at_least("value", Value::U64(20)),
    )
    .unwrap();
    println!("lineitem rows with price >= 20: {}", expensive.len());

    // GROUP BY order_id, SUM(price * weight) over the join — computed
    // without materialising the join at all.
    let revenue = pairs(
        &wide_join_aggregate(
            &tracer,
            &orders,
            &expensive,
            "key",
            "key",
            Some("value"),
            Some("value"),
            JoinAggregate::SumProducts,
        )
        .unwrap(),
    );
    println!(
        "orders with at least one expensive line item: {}",
        revenue.len()
    );
    let (top_order, top_revenue) = revenue
        .iter()
        .max_by_key(|&&(_, revenue)| revenue)
        .expect("non-empty");
    println!("largest weighted revenue: order {top_order} -> {top_revenue}");

    // Cross-check against a plaintext materialisation of the same query.
    let mut reference: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (order, weight) in pairs(&orders) {
        for (_, price) in pairs(&expensive).into_iter().filter(|&(k, _)| k == order) {
            *reference.entry(order).or_insert(0) += weight * price;
        }
    }
    let aggregate_as_map: std::collections::BTreeMap<u64, u64> = revenue.into_iter().collect();
    assert_eq!(
        aggregate_as_map, reference,
        "join-aggregate must equal the materialised reference"
    );
    println!("join-aggregate result verified against a materialised reference ✓");

    // A few more operators from the library, for flavour.
    let orders_with_items = wide_semi_join(&tracer, &orders, &lineitem, "key", "key").unwrap();
    let orders_without_items = wide_anti_join(&tracer, &orders, &lineitem, "key", "key").unwrap();
    let distinct_prices = wide_distinct(
        &tracer,
        &wide_project(&tracer, &lineitem, &["value".to_string()]).unwrap(),
    )
    .unwrap();
    println!(
        "orders with line items: {}, without: {}, distinct prices: {}",
        orders_with_items.len(),
        orders_without_items.len(),
        distinct_prices.len()
    );

    let totals = tracer.with_sink(|s| s.overall());
    println!(
        "\nwhole pipeline: {} public-memory reads, {} writes — all at data-independent addresses",
        totals.reads, totals.writes
    );
}
