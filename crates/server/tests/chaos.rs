//! Chaos suite: seeded fault injection against the full server stack
//! (PR 7 acceptance).
//!
//! Every scenario drives a deterministic fault schedule (`obliv-chaos`)
//! through a real server — loopback or TCP — and asserts the three
//! resilience invariants:
//!
//! 1. **The server stays available**: each scenario ends with a clean
//!    follow-up query that must succeed.
//! 2. **Every failure surfaces as a typed error**: a transport-level
//!    `ClientError::Io`/`Timeout`, or a typed wire frame
//!    (`DeadlineExceeded`, `Overloaded`, `Shutdown`, …) — never a hang,
//!    a protocol desync on a fresh connection, or a crashed server.
//! 3. **Faults never perturb the leakage surface**: `Content`-class
//!    metric snapshots and audit exports are bit-identical with and
//!    without a fault schedule (retries, aborted executions and delays
//!    land only in `Timing`-class series).
//!
//! Scenarios: torn response frame, mid-session disconnect, engine worker
//! panic, slow job + deadline, accept failure (TCP), overload shedding,
//! slow handler + client read timeout, shutdown under load, unknown
//! table, aborted executions and span trees, and a seeded randomized
//! storm (`CHAOS_SEED=<u64>` reproduces a CI run exactly; the seed is
//! printed).  Scenario numbers are stable; 5 (a batcher-thread panic) went
//! with the batcher.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use obliv_chaos::{points, Fault, FaultPlan, Faults};
use obliv_engine::{Engine, EngineConfig};
use obliv_server::{
    Client, ClientError, ErrorKind, RetryPolicy, RetryingClient, Server, ServerConfig,
};

const JOIN_QUERY: &str = "JOIN left right";
const SCAN_QUERY: &str = "SCAN left | FILTER v>=500 | AGG sum";
const COUNT_QUERY: &str = "SCAN right | AGG count";

/// An engine over the narrow orders/lineitem workload, with `faults`
/// threaded into its worker loop.
fn chaos_engine(workers: usize, faults: Faults) -> Arc<Engine> {
    let workload = obliv_workloads::orders_lineitem(32, 8);
    let engine = Arc::new(Engine::new(EngineConfig {
        workers,
        result_cache: true,
        faults,
        ..Default::default()
    }));
    engine.register_table("left", workload.left).unwrap();
    engine.register_table("right", workload.right).unwrap();
    engine
}

fn config_with(faults: Faults) -> ServerConfig {
    ServerConfig {
        faults,
        ..Default::default()
    }
}

fn client(server: &Server, tenant: &str) -> Client {
    Client::over(server.connect_loopback().unwrap(), tenant)
}

/// A retry policy tight enough for tests but wide enough to outlast every
/// injected delay in this file.
fn fast_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(40),
        seed,
    }
}

/// Scenario 1: a torn response frame (length prefix + half the body, then
/// the connection dies) is a clean transport error for that client only.
#[test]
fn torn_response_frame_fails_one_client_and_spares_the_server() {
    let faults = FaultPlan::new()
        .seed(1)
        .once(points::SERVER_WRITE, Fault::Torn)
        .build();
    let engine = chaos_engine(2, Faults::default());
    let server = Server::without_listener(Arc::clone(&engine), config_with(faults.clone()));

    let mut victim = client(&server, "victim");
    match victim.query(JOIN_QUERY) {
        Err(ClientError::Io(_)) => {}
        other => panic!("a torn frame must surface as a transport error, got {other:?}"),
    }
    assert_eq!(faults.fired(points::SERVER_WRITE), 1);

    // Clean follow-up on a fresh connection.
    let reply = client(&server, "follow").query(JOIN_QUERY).unwrap();
    assert_eq!(reply.label, "follow/q0");
    server.shutdown();
}

/// Scenario 2: the server tears down a connection between two requests;
/// the client sees end-of-stream, other connections are unaffected.
#[test]
fn injected_disconnect_mid_session_is_end_of_stream_and_server_survives() {
    let faults = FaultPlan::new()
        .seed(2)
        .nth(points::SERVER_READ, 1, Fault::Disconnect)
        .build();
    let engine = chaos_engine(2, Faults::default());
    let server = Server::without_listener(Arc::clone(&engine), config_with(faults));

    let mut victim = client(&server, "victim");
    victim.query(JOIN_QUERY).unwrap(); // read consult #0 passes
    match victim.query(SCAN_QUERY) {
        // The handler dropped the connection: the second request fails on
        // write (broken pipe) or on read (end of stream), either way Io.
        Err(ClientError::Io(_)) => {}
        other => panic!("a dropped connection must surface as Io, got {other:?}"),
    }

    let reply = client(&server, "follow").query(SCAN_QUERY).unwrap();
    assert_eq!(reply.label, "follow/q0");
    server.shutdown();
}

/// Scenario 3: an engine worker panic is contained on the connection's
/// handler as a typed `Internal` frame; the in-flight slot is freed and the
/// same connection answers the client's re-run of the query.
#[test]
fn injected_worker_panic_is_contained_and_rerun_answers_the_client() {
    let engine_faults = FaultPlan::new()
        .seed(3)
        .once(points::ENGINE_WORKER, Fault::Panic)
        .build();
    let engine = chaos_engine(1, engine_faults);
    let server = Server::without_listener(
        Arc::clone(&engine),
        ServerConfig {
            max_in_flight: 1,
            ..Default::default()
        },
    );

    let mut c = client(&server, "t");
    match c.query(JOIN_QUERY) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::Internal),
        other => panic!("expected a typed internal frame, got {other:?}"),
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.gauge("server_requests_in_flight", &[]), 0);

    // The one in-flight slot was released (a leak would shed this), and
    // the same connection stays in sync for the re-run.
    let reply = c.query(JOIN_QUERY).unwrap();
    assert_eq!(reply.label, "t/q1");
    assert!(!reply.cached, "the aborted execution published nothing");
    assert_eq!(
        engine
            .metrics()
            .snapshot()
            .counter("server_shed_total", &[]),
        0
    );
    server.shutdown();
}

/// Scenario 4: a slow job blowing through its `deadline_ms` budget comes
/// back as a typed `DeadlineExceeded` frame, with the deadline accounted
/// in engine metrics.
#[test]
fn slow_job_past_its_deadline_gets_a_typed_deadline_frame() {
    let engine_faults = FaultPlan::new()
        .seed(4)
        .once(
            points::ENGINE_WORKER,
            Fault::Delay(Duration::from_millis(80)),
        )
        .build();
    let engine = chaos_engine(1, engine_faults);
    let server = Server::without_listener(Arc::clone(&engine), ServerConfig::default());

    let mut c = client(&server, "t");
    match c.query_with_deadline(JOIN_QUERY, Duration::from_millis(20)) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ErrorKind::DeadlineExceeded);
            assert!(e.message.contains("t/q0"), "message names the request");
        }
        other => panic!("expected a typed deadline frame, got {other:?}"),
    }
    let snap = engine.metrics().snapshot();
    assert!(snap.counter("engine_deadline_exceeded_total", &[]) >= 1);

    // Without a deadline the same connection gets the answer.
    let reply = c.query(JOIN_QUERY).unwrap();
    assert_eq!(reply.label, "t/q1");
    server.shutdown();
}

/// Scenario 6: an injected accept failure over real TCP drops the first
/// connection; the accept loop keeps going and a [`RetryingClient`]
/// reconnects and succeeds, counting the retry.
#[test]
fn injected_accept_failure_is_survived_and_the_client_retries_over_tcp() {
    let faults = FaultPlan::new()
        .seed(6)
        .once(points::SERVER_ACCEPT, Fault::Error)
        .build();
    let engine = chaos_engine(2, Faults::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), config_with(faults)).unwrap();
    let addr = server.local_addr().unwrap();

    let mut retrying = RetryingClient::new(move || Ok(Client::connect(addr, "t")?), fast_policy(6))
        .with_metrics(engine.metrics());
    let reply = retrying.query(JOIN_QUERY).unwrap();
    assert_eq!(reply.label, "t/q0");
    assert!(
        engine
            .metrics()
            .snapshot()
            .counter("client_retries_total", &[("category", "io")])
            >= 1,
        "the dropped first connection must have been retried"
    );
    server.shutdown();
}

/// Scenario 7: past `max_in_flight` the server sheds with a typed
/// `Overloaded` frame carrying the configured back-off hint, and a
/// retrying client waits it out on the same connection.
#[test]
fn overload_is_shed_with_a_typed_retry_hint_and_retry_succeeds() {
    // One slot, and a stalled engine job holds it for 300 ms.
    let engine_faults = FaultPlan::new()
        .seed(7)
        .once(
            points::ENGINE_WORKER,
            Fault::Delay(Duration::from_millis(300)),
        )
        .build();
    let engine = chaos_engine(2, engine_faults);
    let server = Server::without_listener(
        Arc::clone(&engine),
        ServerConfig {
            max_in_flight: 1,
            shed_retry_after_ms: 7,
            ..Default::default()
        },
    );

    let slow_conn = server.connect_loopback().unwrap();
    let slow = thread::spawn(move || Client::over(slow_conn, "slow").query(JOIN_QUERY));
    thread::sleep(Duration::from_millis(60)); // the slow query now holds the slot

    match client(&server, "direct").query(SCAN_QUERY) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ErrorKind::Overloaded);
            assert_eq!(e.retry_after_ms, 7, "the configured hint rides the frame");
        }
        other => panic!("expected a typed overload shed, got {other:?}"),
    }

    let mut retrying = RetryingClient::new(
        || Ok(Client::over(server.connect_loopback()?, "retry")),
        RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
            seed: 7,
        },
    )
    .with_metrics(engine.metrics());
    let reply = retrying.query(SCAN_QUERY).unwrap();
    assert_eq!(reply.label, "retry/q0");

    slow.join().unwrap().unwrap();
    drop(retrying);
    let snap = engine.metrics().snapshot();
    assert!(snap.counter("server_shed_total", &[]) >= 1);
    assert!(
        snap.counter("client_retries_total", &[("category", "overloaded")]) >= 1,
        "the retrying client must have been shed at least once"
    );
    server.shutdown();
}

/// Scenario 8: a slow handler trips the client's configured read timeout
/// as the typed `ClientError::Timeout`; a fresh connection is clean.
#[test]
fn slow_handler_trips_the_client_read_timeout() {
    let faults = FaultPlan::new()
        .seed(8)
        .once(
            points::SERVER_HANDLE,
            Fault::Delay(Duration::from_millis(200)),
        )
        .build();
    let engine = chaos_engine(2, Faults::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), config_with(faults)).unwrap();
    let addr = server.local_addr().unwrap();

    let mut victim = Client::connect(addr, "t").unwrap();
    victim
        .set_read_timeout(Some(Duration::from_millis(30)))
        .unwrap();
    match victim.query(JOIN_QUERY) {
        Err(ClientError::Timeout) => {}
        other => panic!("expected the typed timeout, got {other:?}"),
    }

    // After a timeout the old stream cannot be trusted; a fresh connection
    // (the fault is spent) serves cleanly.
    let reply = Client::connect(addr, "t")
        .unwrap()
        .query(JOIN_QUERY)
        .unwrap();
    assert_eq!(reply.label, "t/q0");
    server.shutdown();
}

/// Scenario 9 (satellite: graceful shutdown under load): shutting down
/// with a request in flight either completes it or answers a typed
/// `Shutdown`, and all handler threads join within a bound.
#[test]
fn shutdown_under_load_completes_in_flight_work_within_a_bound() {
    let engine_faults = FaultPlan::new()
        .seed(9)
        .once(
            points::ENGINE_WORKER,
            Fault::Delay(Duration::from_millis(150)),
        )
        .build();
    let engine = chaos_engine(2, engine_faults);
    let server = Server::without_listener(Arc::clone(&engine), ServerConfig::default());

    let conn = server.connect_loopback().unwrap();
    let in_flight = thread::spawn(move || Client::over(conn, "t").query(JOIN_QUERY));
    thread::sleep(Duration::from_millis(40)); // picked up; engine job delayed

    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "handler threads must join within a bound, took {:?}",
        start.elapsed()
    );
    match in_flight.join().unwrap() {
        Ok(reply) => assert_eq!(reply.label, "t/q0"),
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::Shutdown),
        Err(ClientError::Io(_)) => {} // reader closed before the reply frame
        Err(other) => panic!("shutdown must surface cleanly, got {other:?}"),
    }
}

/// Scenario 10: a resolution failure (unknown table) is the offending
/// request's typed `Query` error alone; the connection keeps serving.
#[test]
fn unknown_table_is_isolated_as_a_resolution_rerun() {
    let engine = chaos_engine(1, Faults::default());
    let server = Server::without_listener(Arc::clone(&engine), ServerConfig::default());

    let mut c = client(&server, "t");
    match c.query("SCAN nosuch") {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::Query),
        other => panic!("expected a typed query error, got {other:?}"),
    }
    c.query(JOIN_QUERY).unwrap();
    server.shutdown();
}

/// Scenario 12 (tracing): an aborted execution — a contained worker
/// panic or an expired deadline — never deposits a partial span tree
/// anywhere an observer could read one.  The slow-query ring only ever
/// holds complete trees (it is fed at batch finalisation, which aborted
/// batches never reach), and the traced reply to the next query after a
/// panic carries a complete tree, not debris from the aborted attempt.
#[test]
fn aborted_executions_never_leak_partial_span_trees() {
    // Part 1: a worker panic aborts the first execution (a typed
    // `Internal` frame, nothing recorded); the client's next query is
    // answered, and its reply's tree and the single slow-query record
    // must both be the complete tree of that execution.
    let engine_faults = FaultPlan::new()
        .seed(12)
        .once(points::ENGINE_WORKER, Fault::Panic)
        .build();
    let workload = obliv_workloads::orders_lineitem(32, 8);
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        result_cache: true,
        faults: engine_faults,
        slow_query_threshold: Some(Duration::ZERO),
        ..Default::default()
    }));
    engine
        .register_table("left", workload.left.clone())
        .unwrap();
    engine
        .register_table("right", workload.right.clone())
        .unwrap();
    let server = Server::without_listener(Arc::clone(&engine), ServerConfig::default());

    let mut c = client(&server, "t");
    match c.query_traced(JOIN_QUERY, 12) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::Internal),
        other => panic!("expected a typed internal frame, got {other:?}"),
    }
    assert_eq!(
        engine.slow_queries().total_recorded(),
        0,
        "an aborted execution must record nothing, partial or otherwise"
    );
    let reply = c.query_traced(JOIN_QUERY, 12).unwrap();
    let tree = reply.trace.expect("traced reply");
    assert_eq!(tree.name, "query");
    assert!(tree.timing_is_consistent());
    let records = engine.slow_queries().records();
    assert_eq!(
        records.len(),
        1,
        "only the completed execution may be recorded"
    );
    assert_eq!(*records[0].trace, tree, "the ring holds the complete tree");
    server.shutdown();

    // Part 2: a stalled worker blows through the request's deadline; the
    // aborted execution must leave the slow-query ring empty even with a
    // zero threshold — there is no partial record to leak.
    let engine_faults = FaultPlan::new()
        .seed(12)
        .once(
            points::ENGINE_WORKER,
            Fault::Delay(Duration::from_millis(80)),
        )
        .build();
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        result_cache: true,
        faults: engine_faults,
        slow_query_threshold: Some(Duration::ZERO),
        ..Default::default()
    }));
    engine.register_table("left", workload.left).unwrap();
    engine.register_table("right", workload.right).unwrap();
    let server = Server::without_listener(Arc::clone(&engine), ServerConfig::default());

    let mut c = client(&server, "t");
    match c.query_with_deadline(JOIN_QUERY, Duration::from_millis(20)) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::DeadlineExceeded),
        other => panic!("expected a typed deadline frame, got {other:?}"),
    }
    assert_eq!(
        engine.slow_queries().total_recorded(),
        0,
        "an aborted execution must record nothing, partial or otherwise"
    );

    // A clean follow-up is recorded whole.
    c.query(COUNT_QUERY).unwrap();
    let records = engine.slow_queries().records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].trace.name, "query");
    assert!(records[0].trace.timing_is_consistent());
    server.shutdown();
}

/// The leakage invariant: an identical workload produces bit-identical
/// `Content`-class metrics and audit exports whether or not a fault
/// schedule (torn frame → client retry, worker panic → typed `Internal`
/// frame and the caller's re-send, read delay) was active.  Failures land
/// exclusively in `Timing` series.
#[test]
fn faults_do_not_perturb_content_metrics_or_audit_exports() {
    fn run(faults: Faults) -> (obliv_engine::MetricsSnapshot, String) {
        let workload = obliv_workloads::orders_lineitem(32, 8);
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 1,
            result_cache: true,
            faults: faults.clone(),
            ..Default::default()
        }));
        engine.register_table("left", workload.left).unwrap();
        engine.register_table("right", workload.right).unwrap();
        let server = Server::without_listener(Arc::clone(&engine), config_with(faults));
        // One tenant per query so a retried request re-issues the *same*
        // label (`tenant/q0`) on its fresh connection.  `Internal` (a
        // contained execution panic) is not a transient category, so the
        // caller re-sends it itself, on a fresh connection for the same
        // label.
        for (tenant, query) in [("t1", SCAN_QUERY), ("t2", JOIN_QUERY), ("t3", COUNT_QUERY)] {
            let attempt = || {
                RetryingClient::new(
                    || Ok(Client::over(server.connect_loopback()?, tenant)),
                    fast_policy(11),
                )
                .query(query)
            };
            match attempt() {
                Err(ClientError::Server(e)) if e.kind == ErrorKind::Internal => {
                    attempt().unwrap();
                }
                reply => {
                    reply.unwrap();
                }
            }
        }
        let content = engine.metrics().snapshot().without_timing();
        let audit = engine.audit().export_json();
        server.shutdown();
        (content, audit)
    }

    let (clean_metrics, clean_audit) = run(Faults::default());
    let (faulted_metrics, faulted_audit) = run(FaultPlan::new()
        .seed(23)
        // t1's response is torn → its client retries (cache hit).
        .nth(points::SERVER_WRITE, 0, Fault::Torn)
        // t2's execution panics → a typed `Internal` frame, re-sent.
        .nth(points::ENGINE_WORKER, 1, Fault::Panic)
        // And a read stalls for good measure.
        .nth(
            points::SERVER_READ,
            2,
            Fault::Delay(Duration::from_millis(5)),
        )
        .build());
    assert!(
        !clean_metrics.samples.is_empty(),
        "the Content view must not be vacuously empty"
    );
    assert_eq!(
        clean_metrics, faulted_metrics,
        "Content-class metrics must be fault-invariant"
    );
    assert_eq!(
        clean_audit, faulted_audit,
        "audit exports must be fault-invariant"
    );
    assert_eq!(clean_audit.lines().count(), 3, "one record per fresh query");
}

/// Scenario 11: a seeded randomized storm over TCP — probabilistic torn
/// writes, disconnects, handler stalls, worker panics — under
/// a retrying client.  Every outcome must be an answer or a typed error,
/// and the server must survive the whole storm.  `CHAOS_SEED=<u64>`
/// reproduces a run bit-for-bit; the seed in force is printed.
#[test]
fn randomized_storm_yields_only_typed_outcomes_and_server_survives() {
    let (seed, from_env) = match std::env::var("CHAOS_SEED") {
        Ok(s) => (
            s.trim().parse::<u64>().expect("CHAOS_SEED must be a u64"),
            true,
        ),
        Err(_) => (0x00C0_FFEE, false),
    };
    println!("chaos storm seed = {seed} (set CHAOS_SEED to reproduce)");

    let faults = FaultPlan::new()
        .seed(seed)
        .with_probability(points::SERVER_WRITE, 120, Fault::Torn)
        .with_probability(points::SERVER_READ, 60, Fault::Disconnect)
        .with_probability(
            points::SERVER_HANDLE,
            80,
            Fault::Delay(Duration::from_millis(2)),
        )
        .with_probability(points::ENGINE_WORKER, 60, Fault::Panic)
        .build();
    let engine = chaos_engine(2, faults.clone());
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        config_with(faults.clone()),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    let mut retrying = RetryingClient::new(
        move || Ok(Client::connect(addr, "storm")?),
        RetryPolicy {
            max_attempts: 12,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            seed,
        },
    )
    .with_metrics(engine.metrics());

    let queries = [JOIN_QUERY, SCAN_QUERY, COUNT_QUERY];
    let mut answered = 0usize;
    for round in 0..12 {
        match retrying.query(queries[round % queries.len()]) {
            Ok(_) => answered += 1,
            // A contained execution panic surfaces as `Internal`: typed,
            // so acceptable under a storm.
            Err(ClientError::Server(_)) => {}
            // Retries exhausted on transport faults: typed at our layer.
            Err(ClientError::Io(_) | ClientError::Timeout) => {}
            Err(other) => panic!("storm produced an untyped outcome: {other:?}"),
        }
    }
    assert!(answered >= 1, "the storm must not take the server down");
    if !from_env {
        // The default seed is fixed, so its schedule is deterministic and
        // known to actually fire faults.
        assert!(faults.fired_total() >= 1, "the fixed schedule fires");
    }

    // The storm is over only for new work when the plan stops matching;
    // probabilistic rules never exhaust, so "survives" here means the
    // server still answers under the same storm with a fresh client.
    let reply = retrying.query(JOIN_QUERY);
    assert!(
        matches!(
            reply,
            Ok(_) | Err(ClientError::Server(_) | ClientError::Io(_))
        ),
        "post-storm probe must stay typed, got {reply:?}"
    );
    server.shutdown();
}
