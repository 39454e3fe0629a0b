//! End-to-end demo of the network front door: serve an oblivious query
//! engine over TCP and query it from concurrent clients.
//!
//! One process plays both roles.  The server side registers a typed wide
//! catalog and binds an ephemeral loopback port; three client connections
//! then speak the length-prefixed wire protocol concurrently — text
//! queries, a binary-encoded plan, a warm-cache repeat, per-session stats
//! — and print what each answer revealed (its trace digest) and cost.
//!
//! Run with:
//! ```text
//! cargo run --release --example serve_and_query
//! ```

use std::sync::Arc;
use std::thread;

use obliv_join_suite::prelude::*;

fn main() {
    // -- Server side --------------------------------------------------------
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let workload = wide_orders_lineitem(96, 0x5EED);
    engine
        .register_wide_table("orders", workload.orders)
        .unwrap();
    engine
        .register_wide_table("lineitem", workload.lineitem)
        .unwrap();

    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
        .expect("bind an ephemeral loopback port");
    let addr = server.local_addr().unwrap();
    println!("serving {} tables on {addr}", engine.list_tables().len());
    println!("  each connection's handler thread executes its own queries\n");

    // -- Two tenants, concurrently over TCP ---------------------------------
    let tenants: [(&str, &[&str]); 2] = [
        (
            "billing",
            &[
                "JOIN orders lineitem ON o_key | FILTER price>=500 | AGG sum(qty)",
                "SCAN orders | FILTER urgent=true | AGG count BY region",
            ],
        ),
        (
            "logistics",
            &[
                "SCAN orders | FILTER region=\"east\" | AGG count BY o_key",
                "SCAN lineitem | FILTER qty>=25 | AGG max(qty) BY o_key",
            ],
        ),
    ];
    let handles: Vec<_> = tenants
        .map(|(tenant, queries)| {
            thread::spawn(move || {
                let mut client = Client::connect(addr, tenant).expect("connect");
                let mut lines = Vec::new();
                for query in queries {
                    let reply = client.query(*query).expect("query");
                    let rows = reply.rows.len();
                    lines.push(format!(
                        "  [{}] {:<62} rows={:<3} cached={:<5} digest={}…",
                        reply.label,
                        query,
                        rows,
                        reply.cached,
                        &reply.summary.trace_digest[..16],
                    ));
                }
                let stats = client.stats().expect("stats");
                lines.push(format!(
                    "  [{tenant}] session: {} queries, {} trace events, {} cache hits \
                     (engine cache: {} entries, {} bytes)",
                    stats.session.queries,
                    stats.session.trace_events,
                    stats.session.cache_hits,
                    stats.cache.entries,
                    stats.cache.bytes,
                ));
                lines
            })
        })
        .into_iter()
        .collect();
    for handle in handles {
        for line in handle.join().expect("client thread") {
            println!("{line}");
        }
    }

    // -- A plan client and the warm cache ------------------------------------
    // The same acceptance query, shipped as a binary-encoded plan this
    // time; the engine already answered it, so it comes back from the
    // result cache with the identical digest.
    let plan = parse_query("JOIN orders lineitem ON o_key | FILTER price>=500 | AGG sum(qty)")
        .expect("valid query");
    let mut client = Client::connect(addr, "auditor").expect("connect");
    let reply = client.query_plan(&plan).expect("plan query");
    println!(
        "\n  [auditor] binary plan request: cached={} digest={}…",
        reply.cached,
        &reply.summary.trace_digest[..16]
    );

    // Typed errors cross the wire too.
    match client.query("SCAN ghost") {
        Err(ClientError::Server(e)) => println!("  [auditor] typed server error: {e}"),
        other => println!("  [auditor] unexpected: {other:?}"),
    }

    drop(client);
    server.shutdown();
    println!("\nserver drained and shut down; engine still usable in-process:");
    let stats = engine.cache_stats();
    println!(
        "  engine cache: {} hits / {} misses",
        stats.hits, stats.misses
    );
}
