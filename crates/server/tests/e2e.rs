//! End-to-end integration tests for the network front door (PR 4
//! acceptance):
//!
//! * the wide acceptance query over real TCP from two concurrent clients
//!   is bit-identical (rows and trace digest) to in-process
//!   `Engine::execute_batch`, and a warm repeat is served from the cache
//!   with the same digest,
//! * per-connection sessions account independently under concurrent
//!   clients over the loopback transport,
//! * malformed, mis-versioned and oversized frames produce typed protocol
//!   errors without killing the server,
//! * the connection limit back-pressures accepts instead of failing them,
//! * a result-cache hit executes nothing and carries the reply and the
//!   accounting an in-process session gets; a miss, a stale epoch and a
//!   disabled cache execute,
//! * concurrent cold queries from several connections, each executed on
//!   its own handler, are bit-identical to in-process execution,
//! * traces are opt-in, cache hits replay them, `EXPLAIN ANALYZE` works
//!   over the wire, and span-tree Content fields are content-independent.

use std::io::Write;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use obliv_engine::{parse_query, Engine, EngineConfig, MetricsSnapshot, QueryRequest, SpanNode};
use obliv_join::Table;
use obliv_server::proto::{read_frame, write_frame, Request, Response};
use obliv_server::{Client, ClientError, ErrorKind, Server, ServerConfig, MAX_RESPONSE_FRAME};
use obliv_workloads::wide_orders_lineitem;

/// The wide acceptance query from the issue.
const ACCEPTANCE_QUERY: &str = "JOIN orders lineitem ON o_key | FILTER price>=100 | AGG sum(qty)";

/// An engine loaded with the wide orders/lineitem workload.
fn wide_engine(workers: usize) -> Arc<Engine> {
    let workload = wide_orders_lineitem(32, 8);
    let engine = Arc::new(Engine::new(EngineConfig {
        workers,
        result_cache: true,
        ..Default::default()
    }));
    engine
        .register_wide_table("orders", workload.orders.clone())
        .unwrap();
    engine
        .register_wide_table("lineitem", workload.lineitem)
        .unwrap();
    engine
}

#[test]
fn tcp_acceptance_query_is_bit_identical_to_in_process_execution() {
    // In-process reference: a separate engine with identical tables, so
    // nothing the server does can retroactively influence it.
    let reference = wide_engine(2);
    let request = QueryRequest::new("ref", parse_query(ACCEPTANCE_QUERY).unwrap());
    let expected = reference
        .execute_batch(std::slice::from_ref(&request))
        .unwrap()
        .pop()
        .unwrap();
    let expected_rows = expected.rows.clone();

    let engine = wide_engine(2);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    // Two concurrent clients run the acceptance query over TCP.
    let replies: Vec<_> = ["tenant-a", "tenant-b"]
        .map(|tenant| {
            thread::spawn(move || {
                let mut client = Client::connect(addr, tenant).unwrap();
                client.query(ACCEPTANCE_QUERY).unwrap()
            })
        })
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();

    for reply in &replies {
        assert_eq!(reply.summary.trace_digest, expected.summary.trace_digest);
        assert_eq!(reply.summary.trace_events, expected.summary.trace_events);
        assert_eq!(reply.summary.counters, expected.summary.counters);
        assert_eq!(reply.summary.output_rows, expected.summary.output_rows);
        assert_eq!(reply.rows, expected_rows);
    }
    assert_eq!(replies[0].label, "tenant-a/q0");
    assert_eq!(replies[1].label, "tenant-b/q0");

    // Warm repeat: served from the result cache, digest unchanged.
    let mut client = Client::connect(addr, "tenant-c").unwrap();
    let warm = client.query(ACCEPTANCE_QUERY).unwrap();
    assert!(warm.cached, "second round must hit the result cache");
    assert_eq!(warm.summary.trace_digest, expected.summary.trace_digest);
    assert_eq!(warm.rows, expected_rows);

    drop(client);
    server.shutdown();
}

#[test]
fn plan_requests_match_text_requests_over_the_wire() {
    let engine = wide_engine(1);
    let server = Server::without_listener(engine, ServerConfig::default());

    let mut text_client = Client::over(server.connect_loopback().unwrap(), "t");
    let mut plan_client = Client::over(server.connect_loopback().unwrap(), "t");

    let by_text = text_client.query(ACCEPTANCE_QUERY).unwrap();
    let by_plan = plan_client
        .query_plan(&parse_query(ACCEPTANCE_QUERY).unwrap())
        .unwrap();
    assert_eq!(by_text.summary.trace_digest, by_plan.summary.trace_digest);
    assert_eq!(by_text.rows, by_plan.rows);

    drop((text_client, plan_client));
    server.shutdown();
}

/// Two clients over the loopback transport issuing interleaved queries
/// get independent, correct per-session accounting.
#[test]
fn sessions_account_independently_across_interleaved_connections() {
    let workload = obliv_workloads::orders_lineitem(32, 8);
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        result_cache: true,
        ..Default::default()
    }));
    engine
        .register_table("left", workload.left.clone())
        .unwrap();
    engine
        .register_table("right", workload.right.clone())
        .unwrap();
    let server = Server::without_listener(engine, ServerConfig::default());

    let mut alice = Client::over(server.connect_loopback().unwrap(), "alice");
    let mut bob = Client::over(server.connect_loopback().unwrap(), "bob");

    // Interleave: alice repeats her query (second answer is a cache hit),
    // bob runs two distinct ones.
    let a0 = alice.query("SCAN left | FILTER v>=500 | AGG sum").unwrap();
    let b0 = bob.query("JOIN left right").unwrap();
    let a1 = alice.query("SCAN left | FILTER v>=500 | AGG sum").unwrap();
    let b1 = bob.query("SCAN right | AGG count").unwrap();

    // Labels count per session, not globally.
    assert_eq!(a0.label, "alice/q0");
    assert_eq!(a1.label, "alice/q1");
    assert_eq!(b0.label, "bob/q0");
    assert_eq!(b1.label, "bob/q1");
    assert!(!a0.cached);
    assert!(a1.cached, "identical repeat is served from the cache");
    assert_eq!(a0.summary.trace_digest, a1.summary.trace_digest);

    let alice_stats = alice.stats().unwrap().session;
    let bob_stats = bob.stats().unwrap().session;
    assert_eq!(alice_stats.queries, 2);
    assert_eq!(alice_stats.cache_hits, 1);
    assert_eq!(
        alice_stats.trace_events,
        a0.summary.trace_events + a1.summary.trace_events
    );
    assert_eq!(
        alice_stats.output_rows,
        (a0.summary.output_rows + a1.summary.output_rows) as u64
    );
    assert_eq!(
        alice_stats.comparisons,
        a0.summary.counters.comparisons + a1.summary.counters.comparisons
    );
    // The session reports result shape, not just row counts: bytes roll up
    // per-query `rows × row width`, and the widest join carry is recorded
    // (alice never joined; bob's pair join carries one kernel word).
    assert_eq!(
        alice_stats.output_bytes,
        ((a0.summary.output_rows * a0.summary.output_row_width)
            + (a1.summary.output_rows * a1.summary.output_row_width)) as u64
    );
    assert_eq!(alice_stats.max_carry_words, 0);
    assert_eq!(bob_stats.max_carry_words, 1);
    assert_eq!(
        bob_stats.output_bytes,
        ((b0.summary.output_rows * b0.summary.output_row_width)
            + (b1.summary.output_rows * b1.summary.output_row_width)) as u64
    );
    assert_eq!(bob_stats.queries, 2);
    assert_eq!(
        bob_stats.trace_events,
        b0.summary.trace_events + b1.summary.trace_events
    );
    assert_ne!(
        alice_stats, bob_stats,
        "sessions must not bleed into each other"
    );

    drop((alice, bob));
    server.shutdown();
}

/// Truly concurrent clients: every session's totals equal the sum of what
/// that client was told, however the handlers' executions interleaved.
#[test]
fn sessions_stay_correct_under_concurrent_clients() {
    let engine = wide_engine(2);
    let server = Server::without_listener(engine, ServerConfig::default());

    const ROUNDS: usize = 5;
    let queries = [
        ACCEPTANCE_QUERY,
        "SCAN orders | FILTER price>=500 | AGG count BY region",
    ];
    let handles: Vec<_> = (0..2)
        .map(|who| {
            let conn = server.connect_loopback().unwrap();
            let query = queries[who];
            thread::spawn(move || {
                let mut client = Client::over(conn, format!("tenant-{who}"));
                let mut events = 0u64;
                let mut rows = 0u64;
                for _ in 0..ROUNDS {
                    let reply = client.query(query).unwrap();
                    events += reply.summary.trace_events;
                    rows += reply.summary.output_rows as u64;
                }
                let stats = client.stats().unwrap().session;
                (stats, events, rows)
            })
        })
        .collect();
    for handle in handles {
        let (stats, events, rows) = handle.join().unwrap();
        assert_eq!(stats.queries, ROUNDS as u64);
        assert_eq!(stats.trace_events, events);
        assert_eq!(stats.output_rows, rows);
        assert!(
            stats.cache_hits >= ROUNDS as u64 - 1,
            "at most the first round misses; got {} hits",
            stats.cache_hits
        );
    }
    server.shutdown();
}

/// The wire metrics probe round-trips a registry snapshot spanning both
/// the engine's and the server's series, the client renders it as
/// Prometheus-style text, and the stats probe carries the engine-wide
/// cache block next to the session block.
#[test]
fn metrics_probe_roundtrips_with_prometheus_text() {
    let engine = wide_engine(2);
    let server = Server::without_listener(engine, ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");

    let cold = client.query(ACCEPTANCE_QUERY).unwrap();
    assert!(!cold.cached);
    let warm = client.query(ACCEPTANCE_QUERY).unwrap();
    assert!(warm.cached);
    // The summary's phase breakdown crossed the wire: the run really
    // executed, and the partition invariant survives the codec.
    assert!(cold.summary.phases.execute.as_nanos() > 0);
    assert!(cold.summary.phases.queue_wait + cold.summary.phases.execute <= cold.summary.wall);

    let stats = client.stats().unwrap();
    assert_eq!(stats.session.queries, 2);
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
    assert_eq!(stats.cache.entries, 1);
    assert!(stats.cache.bytes > 0);

    let snapshot = client.metrics().unwrap();
    // Engine-side series…
    assert_eq!(
        snapshot.counter("engine_queries_total", &[("result", "executed")]),
        1
    );
    assert_eq!(
        snapshot.counter("engine_queries_total", &[("result", "cached")]),
        1
    );
    // …and server-side series in the same snapshot.  At snapshot time the
    // connection had read two query frames, one stats frame and the
    // metrics frame itself, and written three responses.
    assert_eq!(snapshot.counter("server_frames_read_total", &[]), 4);
    assert_eq!(snapshot.counter("server_frames_written_total", &[]), 3);
    assert_eq!(snapshot.gauge("server_connections_active", &[]), 1);
    assert_eq!(snapshot.gauge("server_requests_in_flight", &[]), 0);
    assert_eq!(snapshot.counter("server_shed_total", &[]), 0);

    let text = client.metrics_text().unwrap();
    assert!(text.contains("# TYPE engine_queries_total counter"));
    assert!(text.contains("# CLASS engine_phase_ns_total timing"));
    assert!(text.contains("engine_queries_total{result=\"cached\"} 1"));
    assert!(text.contains("server_connections_active 1"));
    assert!(
        text.contains("_bucket{le="),
        "histograms render as cumulative buckets"
    );

    drop(client);
    server.shutdown();
}

/// The observability contract end to end: two servers fronting engines
/// loaded with same-shaped tables of *different contents*, driven through
/// the identical serial request sequence over the wire, must report
/// identical non-timing metric snapshots.
#[test]
fn server_metric_snapshots_depend_only_on_public_parameters() {
    let run = |twist: u64| -> MetricsSnapshot {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            ..Default::default()
        }));
        engine
            .register_table(
                "a",
                Table::from_pairs((0..64u64).map(|k| (k, k.wrapping_mul(twist) ^ twist))),
            )
            .unwrap();
        engine
            .register_table("b", Table::from_pairs((0..48u64).map(|k| (k, k + twist))))
            .unwrap();
        let server = Server::without_listener(engine, ServerConfig::default());
        let mut client = Client::over(server.connect_loopback().unwrap(), "tenant");
        for query in ["JOIN a b", "JOINAGG a b count", "JOIN a b"] {
            client.query(query).unwrap();
        }
        client.stats().unwrap();
        let snapshot = client.metrics().unwrap().without_timing();
        drop(client);
        server.shutdown();
        snapshot
    };
    let a = run(3);
    let b = run(0x5a5a);
    assert!(!a.samples.is_empty());
    assert_eq!(
        a, b,
        "a content-classed series differs between runs that differ only in data"
    );
}

/// Plan executions the server's engine has run so far (cache hits and
/// intra-batch duplicates execute nothing).
fn executions(server: &Server) -> u64 {
    server
        .engine()
        .metrics()
        .snapshot()
        .counter("engine_queries_total", &[("result", "executed")])
}

/// A primed query's repeats execute nothing, and replies, session totals
/// and cache totals are what the same sequence gets from an in-process
/// session.  A warm `EXPLAIN ANALYZE` still carries the span tree.
#[test]
fn cache_hits_keep_their_reply_and_accounting() {
    const REPEATS: u64 = 6;
    let server = Server::without_listener(wide_engine(2), ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");
    let prime = client.query(ACCEPTANCE_QUERY).unwrap();
    assert!(!prime.cached);
    let primed = executions(&server);
    for i in 1..=REPEATS {
        let warm = client.query(ACCEPTANCE_QUERY).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.label, format!("t/q{i}"));
        assert_eq!(warm.rows, prime.rows);
        assert_eq!(warm.summary, prime.summary);
        assert!(warm.trace.is_none());
    }
    let explained = client
        .query(format!("EXPLAIN ANALYZE {ACCEPTANCE_QUERY}"))
        .unwrap();
    assert!(explained.cached);
    let tree = explained.trace.expect("EXPLAIN ANALYZE forces the trace");
    assert_eq!(tree.output_rows, prime.summary.output_rows as u64);
    let stats = client.stats().unwrap();
    drop(client);
    assert_eq!(executions(&server), primed, "a hit must not execute");

    assert_eq!(stats.session.queries, REPEATS + 2);
    assert_eq!(stats.session.cache_hits, REPEATS + 1);
    let rows = prime.summary.output_rows as u64;
    assert_eq!(stats.session.output_rows, (REPEATS + 2) * rows);
    assert_eq!(
        stats.session.output_bytes,
        (REPEATS + 2) * rows * prime.summary.output_row_width as u64
    );
    assert_eq!((stats.cache.hits, stats.cache.misses), (REPEATS + 1, 1));
    let metrics = server.engine().metrics().snapshot();
    assert_eq!(
        metrics.counter("engine_queries_total", &[("result", "cached")]),
        REPEATS + 1
    );
    assert_eq!(
        metrics.counter("engine_rows_returned_total", &[]),
        (REPEATS + 2) * rows
    );
    assert_eq!(metrics.gauge("server_requests_in_flight", &[]), 0);

    // The same sequence in process, one request per batch.
    let reference = wide_engine(2);
    let mut session = reference.session("t");
    let mut last = None;
    for _ in 0..REPEATS + 2 {
        session.queue_text(ACCEPTANCE_QUERY).unwrap();
        last = session.run().unwrap().pop();
    }
    let last = last.unwrap();
    assert_eq!(last.rows, prime.rows);
    assert_eq!(last.summary.trace_digest, prime.summary.trace_digest);
    assert_eq!(last.trace.without_timing(), tree.without_timing());
    // Same totals either way, up to the timing-classed uptime.
    assert_eq!(session.stats(), stats.session);
    assert_eq!(reference.cache_stats(), stats.cache);
    server.shutdown();
}

/// A catalog mutation between two identical queries bumps the epoch: the
/// second is a miss, executes again and returns the new rows, never the
/// stale entry.
#[test]
fn a_stale_epoch_is_a_miss_that_executes_again() {
    let engine = wide_engine(2);
    let server = Server::without_listener(Arc::clone(&engine), ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");

    let before = client.query("SCAN orders").unwrap();
    assert!(client.query("SCAN orders").unwrap().cached);
    let executed = executions(&server);

    let replacement = wide_orders_lineitem(32, 9).orders;
    engine
        .register_wide_table("orders", replacement.clone())
        .unwrap();
    let after = client.query("SCAN orders").unwrap();
    assert!(!after.cached, "the epoch moved: the old entry is dead");
    assert_eq!(executions(&server), executed + 1);
    assert_eq!(after.rows.table(), &replacement);
    assert_ne!(after.rows, before.rows);
    assert_eq!(engine.cache_stats().misses, 2);

    drop(client);
    server.shutdown();
}

/// Four connections, released at once, each send a distinct cold plan and
/// one plan they all share.  Each handler executes its own connection's
/// queries concurrently with the others; every reply's rows and trace
/// accounting are bit-identical to in-process `execute_batch` on a
/// separate engine, and the in-flight gauge drains to zero.
#[test]
fn concurrent_cold_queries_match_in_process_execution() {
    const SHARED: &str = ACCEPTANCE_QUERY;
    let distinct: Vec<String> = (1..=4)
        .map(|i| {
            format!(
                "SCAN orders | FILTER price>={} | AGG count BY region",
                150 * i
            )
        })
        .collect();
    let reference = wide_engine(2);
    let expected = |query: &str| {
        reference
            .execute_batch(&[QueryRequest::new("ref", parse_query(query).unwrap())])
            .unwrap()
            .pop()
            .unwrap()
    };

    let engine = wide_engine(2);
    let server = Server::without_listener(Arc::clone(&engine), ServerConfig::default());
    let start = Arc::new(Barrier::new(distinct.len()));
    let handles: Vec<_> = distinct
        .iter()
        .enumerate()
        .map(|(i, own)| {
            let conn = server.connect_loopback().unwrap();
            let start = Arc::clone(&start);
            // Half the connections race on the shared plan first, half on
            // their own, so cold executions of both kinds overlap.
            let order = if i % 2 == 0 {
                [SHARED.to_string(), own.clone()]
            } else {
                [own.clone(), SHARED.to_string()]
            };
            thread::spawn(move || {
                let mut client = Client::over(conn, format!("tenant-{i}"));
                start.wait();
                order.map(|query| {
                    let reply = client.query(&query).unwrap();
                    (query, reply)
                })
            })
        })
        .collect();
    for handle in handles {
        for (query, reply) in handle.join().unwrap() {
            let want = expected(&query);
            assert_eq!(reply.rows, want.rows, "{query}");
            assert_eq!(reply.summary.trace_digest, want.summary.trace_digest);
            assert_eq!(reply.summary.trace_events, want.summary.trace_events);
            assert_eq!(reply.summary.counters, want.summary.counters);
        }
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.gauge("server_requests_in_flight", &[]), 0);
    // Every distinct plan executed; the shared one at least once and at
    // most once per connection.
    let executed = snap.counter("engine_queries_total", &[("result", "executed")]);
    assert!((5..=8).contains(&executed), "executed {executed}");
    server.shutdown();
}

/// With the result cache off there is nothing to answer without
/// executing: every query, repeats included, executes.
#[test]
fn a_disabled_result_cache_executes_every_query() {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        result_cache: false,
        ..Default::default()
    }));
    engine
        .register_table("t", Table::from_pairs((0..16u64).map(|k| (k, k * 3))))
        .unwrap();
    let server = Server::without_listener(engine, ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");
    let first = client.query("SCAN t | FILTER v>=9").unwrap();
    for _ in 0..3 {
        let repeat = client.query("SCAN t | FILTER v>=9").unwrap();
        assert!(!repeat.cached);
        assert_eq!(repeat.rows, first.rows);
    }
    assert_eq!(executions(&server), 4);
    assert_eq!(client.stats().unwrap().cache.misses, 4);
    drop(client);
    server.shutdown();
}

/// The tracing surface end to end: traces are opt-in per request, the
/// correlation id is echoed, cache hits replay the original execution's
/// tree, and `EXPLAIN ANALYZE` forces a trace onto the reply and renders
/// it client-side.
#[test]
fn traces_are_opt_in_and_replayed_from_cache() {
    let engine = wide_engine(2);
    let server = Server::without_listener(engine, ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");

    let plain = client.query(ACCEPTANCE_QUERY).unwrap();
    assert!(plain.trace.is_none(), "traces must be opt-in");
    assert_eq!(plain.trace_id, 0);

    let traced = client.query_traced(ACCEPTANCE_QUERY, 0xabad_1dea).unwrap();
    assert!(traced.cached, "second identical query hits the cache");
    assert_eq!(traced.trace_id, 0xabad_1dea);
    let tree = traced.trace.expect("requested trace must be attached");
    assert_eq!(tree.name, "query");
    assert!(tree.timing_is_consistent());
    assert!(
        tree.span_count() >= 5,
        "join + filter + agg plan has at least root, queue_wait and 3 operators; got:\n{}",
        tree.render_text(true)
    );
    assert_eq!(tree.output_rows, traced.summary.output_rows as u64);

    // The cache hit replayed the *original* execution's tree: a second
    // traced hit returns it bit-identically, timing fields included.
    let again = client.query_traced(ACCEPTANCE_QUERY, 1).unwrap();
    assert_eq!(again.trace.unwrap(), tree);

    // The plan-shipping path carries the same trace surface.
    let by_plan = client
        .query_plan_traced(&parse_query(ACCEPTANCE_QUERY).unwrap(), 2)
        .unwrap();
    assert_eq!(by_plan.trace.unwrap(), tree);

    // `EXPLAIN ANALYZE` forces the trace even when the request flag is
    // off (a plain `query` call)...
    let forced = client
        .query(format!("EXPLAIN ANALYZE {ACCEPTANCE_QUERY}"))
        .unwrap();
    assert_eq!(forced.trace.unwrap(), tree);
    // ...and the client convenience renders the annotated tree.
    let text = client.explain_analyze(ACCEPTANCE_QUERY).unwrap();
    assert!(text.contains("-- cached: true"), "got:\n{text}");
    for needle in [
        "query (",
        "queue_wait (",
        "join o_key=o_key",
        "scan orders",
        "total=",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    drop(client);
    server.shutdown();
}

/// The tracing leakage contract end to end: two servers fronting engines
/// loaded with same-shaped tables of *different contents* (identical
/// sizes and key multiplicities), asked for `EXPLAIN ANALYZE` over the
/// wire, must return span trees whose structure and Content fields are
/// bit-identical — only the Timing (`*_ns`) fields may differ.
#[test]
fn wire_traces_depend_only_on_public_parameters() {
    let run = |twist: u64| -> Vec<(SpanNode, String)> {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            ..Default::default()
        }));
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
        let server = Server::without_listener(engine, ServerConfig::default());
        let mut client = Client::over(server.connect_loopback().unwrap(), "tenant");
        let mut trees = Vec::new();
        for query in [
            "EXPLAIN ANALYZE JOIN a b",
            "EXPLAIN ANALYZE JOINAGG a b count",
            "EXPLAIN ANALYZE SCAN a | DISTINCT",
        ] {
            let reply = client.query(query).unwrap();
            let tree = reply.trace.expect("EXPLAIN ANALYZE forces a trace");
            trees.push((tree.without_timing(), tree.render_text(false)));
        }
        drop(client);
        server.shutdown();
        trees
    };
    let a = run(3);
    let b = run(0x5a5a);
    assert_eq!(
        a, b,
        "span-tree Content fields differ between runs that differ only in data"
    );
}

/// `OK_STATS` carries the server's build version and uptime next to the
/// session and cache blocks.
#[test]
fn stats_report_build_and_uptime() {
    let engine = wide_engine(1);
    let server = Server::without_listener(engine, ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");

    let stats = client.stats().unwrap();
    assert_eq!(stats.build, env!("CARGO_PKG_VERSION"));
    assert!(
        stats.uptime_secs < 600,
        "a freshly started server reports a small uptime, got {}",
        stats.uptime_secs
    );

    drop(client);
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_without_killing_the_server() {
    let engine = wide_engine(1);
    let server = Server::without_listener(engine, ServerConfig::default());

    let mut conn = server.connect_loopback().unwrap();

    // A well-framed but meaningless body: typed protocol error, and the
    // connection stays serviceable.
    write_frame(&mut conn, &[0xde, 0xad, 0xbe, 0xef], 1024).unwrap();
    let body = read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnsupportedVersion),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // A mis-versioned request (version byte 9) is distinguished from
    // garbage...
    let mut request = Request::Stats { token: "t".into() }.encode().unwrap();
    request[0] = 9;
    write_frame(&mut conn, &request, 1024).unwrap();
    let body = read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnsupportedVersion),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // ...as is a bad opcode.
    let mut request = Request::Stats { token: "t".into() }.encode().unwrap();
    request[1] = 0x7f;
    write_frame(&mut conn, &request, 1024).unwrap();
    let body = read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Protocol),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Same connection, valid request: still served.
    write_frame(
        &mut conn,
        &Request::QueryText {
            token: "t".into(),
            deadline_ms: 0,
            trace_id: 0,
            collect_trace: false,
            query: "SCAN orders | AGG count BY region".into(),
        }
        .encode()
        .unwrap(),
        1024,
    )
    .unwrap();
    let body = read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Reply(_)
    ));

    // An engine-level error (unknown table) is a typed Query error, and
    // still does not kill the connection.
    let mut client = Client::over(server.connect_loopback().unwrap(), "t2");
    match client.query("SCAN ghost") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ErrorKind::Query);
            assert!(e.message.contains("ghost"));
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    assert!(
        client
            .query("SCAN orders | AGG count BY region")
            .unwrap()
            .cached,
        "the earlier raw-frame query warmed the cache for this plan"
    );

    drop((conn, client));
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_and_close_only_that_connection() {
    let engine = wide_engine(1);
    let server = Server::without_listener(engine, ServerConfig::default());

    let mut conn = server.connect_loopback().unwrap();
    // Declare a body far over MAX_REQUEST_FRAME; the server answers with
    // a typed error *before* reading any of it, then closes (framing is
    // unrecoverable with an untrusted length).
    conn.write_all(&(64 * 1024 * 1024u32).to_be_bytes())
        .unwrap();
    conn.flush().unwrap();
    let body = read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::FrameTooLarge);
            assert!(e.message.contains("exceeds"));
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(
        read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().is_none(),
        "connection must be closed after a framing violation"
    );

    // The server itself is unharmed: a new connection works.
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");
    assert_eq!(
        client
            .query("SCAN orders | AGG count BY region")
            .unwrap()
            .label,
        "t/q0"
    );

    drop((conn, client));
    server.shutdown();
}

#[test]
fn token_binding_is_per_connection() {
    let engine = wide_engine(1);
    let server = Server::without_listener(engine, ServerConfig::default());

    let mut conn = server.connect_loopback().unwrap();
    let send = |conn: &mut obliv_server::PipeStream, request: &Request| {
        write_frame(conn, &request.encode().unwrap(), 4096).unwrap();
        let body = read_frame(conn, MAX_RESPONSE_FRAME).unwrap().unwrap();
        Response::decode(&body).unwrap()
    };

    // First token binds the session...
    let first = send(
        &mut conn,
        &Request::Stats {
            token: "alice".into(),
        },
    );
    assert!(matches!(first, Response::Stats(_)));
    // ...a different token on the same connection is refused...
    match send(
        &mut conn,
        &Request::Stats {
            token: "mallory".into(),
        },
    ) {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::AuthMismatch),
        other => panic!("expected auth mismatch, got {other:?}"),
    }
    // ...and an empty token is rejected outright.
    match send(&mut conn, &Request::Stats { token: "".into() }) {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // The bound session is still alive and unperturbed.
    match send(
        &mut conn,
        &Request::Stats {
            token: "alice".into(),
        },
    ) {
        Response::Stats(stats) => assert_eq!(stats.session.queries, 0),
        other => panic!("expected stats, got {other:?}"),
    }

    drop(conn);
    server.shutdown();
}

#[test]
fn oversized_client_input_is_an_error_not_a_panic() {
    let engine = wide_engine(1);
    let server = Server::without_listener(engine, ServerConfig::default());
    let mut client = Client::over(server.connect_loopback().unwrap(), "t");

    // A query string over the str16 field bound surfaces as a typed
    // client error from the Result API.
    match client.query("x".repeat(70_000)) {
        Err(ClientError::Protocol(message)) => assert!(message.contains("string field")),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // The connection is untouched (nothing was written) and keeps working.
    assert_eq!(
        client
            .query("SCAN orders | AGG count BY region")
            .unwrap()
            .label,
        "t/q0"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_interrupts_idle_connections() {
    let engine = wide_engine(1);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    // An idle TCP client (connected, never sends a byte) must not hold
    // shutdown hostage; its handler is parked in read_frame until the
    // server closes the socket from its side.
    let mut idle = Client::connect(addr, "idle").unwrap();
    // And a loopback connection idling the same way.
    let lazy = server.connect_loopback().unwrap();
    thread::sleep(Duration::from_millis(50)); // let both handlers park

    let done = thread::spawn(move || server.shutdown());
    done.join().expect("shutdown must complete promptly");

    // The idle client's next request fails cleanly: the server closed it.
    assert!(idle.query("SCAN orders | AGG count BY region").is_err());
    drop(lazy);
}

#[test]
fn connection_limit_backpressures_instead_of_failing() {
    let engine = wide_engine(1);
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            max_connections: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    let mut first = Client::connect(addr, "a").unwrap();
    assert_eq!(
        first
            .query("SCAN orders | AGG count BY region")
            .unwrap()
            .label,
        "a/q0"
    );

    // The second client connects (TCP backlog) but is not *served* until
    // the first disconnects.
    let second = thread::spawn(move || {
        let mut client = Client::connect(addr, "b").unwrap();
        client.query("SCAN orders | AGG count BY region").unwrap()
    });
    thread::sleep(Duration::from_millis(100));
    drop(first); // frees the one slot
    let reply = second.join().unwrap();
    assert_eq!(reply.label, "b/q0");
    assert!(reply.cached, "same query, same epoch: cache hit");

    server.shutdown();
}
