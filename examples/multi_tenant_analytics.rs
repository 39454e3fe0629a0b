//! A multi-tenant analytics service on the oblivious query engine.
//!
//! Three tenants share one engine: a catalog of named tables and a batch
//! executor that spreads each batch's queries over the calling thread and
//! scoped helpers.  Each tenant opens a session, submits its analytics in
//! the text query language, and gets back result tables plus per-query
//! leakage accounting — the chained-SHA-256 digest of each query's
//! public-memory access pattern and its operation counts.  The engine
//! runs everything concurrently; the digests prove that co-tenancy changed
//! nothing about what each query reveals.
//!
//! Run with:
//! ```text
//! cargo run --release --example multi_tenant_analytics
//! ```

use obliv_join_suite::prelude::*;

fn main() {
    let engine = Engine::new(EngineConfig::default());
    println!("engine: {} workers\n", engine.workers());

    // -- The shared catalog -------------------------------------------------
    // An order/line-item pair plus a skewed clickstream; sizes are public
    // (the paper's n1/n2), contents are not.
    let ol = orders_lineitem(200, 0xA11CE);
    engine.register_table("orders", ol.left).unwrap();
    engine.register_table("lineitem", ol.right).unwrap();
    let clicks = power_law(800, 800, 1.6, 0xB0B);
    engine.register_table("clicks", clicks.left).unwrap();
    engine.register_table("users", clicks.right).unwrap();

    println!("catalog (public metadata only):");
    for meta in engine.list_tables() {
        println!("  {:<10} {:>6} rows", meta.name, meta.rows);
    }
    println!();

    // -- Three tenants, one concurrent engine -------------------------------
    let tenant_queries: [(&str, &[&str]); 3] = [
        (
            "billing",
            &[
                "JOIN orders lineitem | AGG sum",
                "SCAN orders | FILTER v>=550 | AGG count",
                "JOINAGG orders lineitem count",
            ],
        ),
        (
            "growth",
            &[
                "JOIN clicks users key-right | DISTINCT | AGG count",
                "SEMIJOIN users clicks",
                "ANTIJOIN users clicks",
            ],
        ),
        (
            "audit",
            &[
                "SCAN lineitem | SWAP | DISTINCT",
                "SCAN clicks | FILTER k in 1..10 | AGG count",
                "JOINAGG clicks users sumright",
            ],
        ),
    ];

    for (tenant, queries) in tenant_queries {
        let mut session = engine.session(tenant);
        for q in queries {
            session.queue_text(q).expect("query parses");
        }
        let responses = session.run().expect("all tables are registered");

        println!("tenant `{tenant}`:");
        for r in &responses {
            println!(
                "  {:<52} -> {:>6} rows  trace {}…  {:>9} cmps  {:?}",
                r.label,
                r.summary.output_rows,
                &r.summary.trace_digest[..12],
                r.summary.counters.comparisons,
                r.summary.wall,
            );
        }
        let stats = session.stats();
        println!(
            "  session totals: {} queries, {} trace events, {} output rows\n",
            stats.queries, stats.trace_events, stats.output_rows
        );
    }

    // -- Co-tenancy leaks nothing -------------------------------------------
    // Run one billing query alone and verify its access-pattern digest is
    // identical to the digest it had while racing eight other queries.
    let probe = "JOIN orders lineitem | AGG sum";
    let alone = engine.execute_text_batch(&[probe]).unwrap();
    let mut crowded: Vec<&str> = vec![probe];
    crowded.extend(tenant_queries.iter().flat_map(|(_, qs)| qs.iter().copied()));
    let busy = engine.execute_text_batch(&crowded).unwrap();
    assert_eq!(alone[0].summary.trace_digest, busy[0].summary.trace_digest);
    println!(
        "obliviousness under concurrency: probe digest {}… identical alone and co-scheduled",
        &alone[0].summary.trace_digest[..12]
    );
}
