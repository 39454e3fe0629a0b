//! The connection server: accept loop and per-connection handlers, each
//! executing its own connection's queries.
//!
//! ## Threading model
//!
//! ```text
//! accept thread ──spawns──▶ handler thread (one per connection)
//!                               │  parse/decode, session accounting,
//!                               ▼  admission gate, deadline stamp
//!                           QueryExecutor::execute_batch(&[request])
//!                               │  (result-cache hit or execution,
//!                               ▼   on this thread)
//!                           reply
//! ```
//!
//! Each connection gets a handler thread and an engine
//! [`Session`] bound to the connection's auth token, so
//! per-tenant accounting ([`SessionStats`](obliv_engine::SessionStats))
//! works exactly as it does in-process.  A handler executes its own
//! connection's queries: past the admission gate it submits the one
//! request as a one-element
//! [`execute_batch`](obliv_engine::QueryExecutor::execute_batch) and frames
//! the answer.  A one-request batch runs inline on the calling thread, so
//! a result-cache hit and a cold execution take the same path with no
//! thread hand-off.  Every query already runs on its own tracer, whose
//! trace is a function of public sizes only, so co-scheduling the queries
//! of different connections would buy nothing for obliviousness; the
//! result cache answers every repeat of an executed plan.
//!
//! The engine's worker pool is resident, so this pipeline adds no thread
//! spawns per request: accept → handler (spawned once per connection) →
//! engine (inline, or its resident pool for intra-query forks).
//!
//! ## Backpressure
//!
//! At most [`ServerConfig::max_connections`] handler threads exist at a
//! time.  The accept thread blocks once the limit is reached — further
//! clients queue in the OS accept backlog and are admitted as slots free
//! up — so a connection flood cannot spawn unbounded threads or sessions.
//! A connection has at most one request in flight, so at most
//! `min(max_connections, max_in_flight)` queries execute at once.
//!
//! ## Failure containment
//!
//! A query that fails fails alone: the engine's typed error becomes that
//! request's typed error frame, and a panicking execution is caught on
//! the handler and answered with a typed [`ErrorKind::Internal`] frame —
//! the in-flight slot is released and the connection keeps serving.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use obliv_chaos::{points, Fault, Faults};
use obliv_engine::{parse_statement, EngineError, Plan, QueryExecutor, Session, Statement};
use obliv_telemetry::{Counter, Gauge, MetricClass, MetricsRegistry};

use crate::proto::{
    is_version_error, read_frame, write_frame, ErrorKind, FrameError, QueryReply, Request,
    Response, StatsReply, WireError, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME,
};
use crate::transport::{loopback, Connection, PipeStream};

/// Server construction options.
///
/// Each connection has at most one request in flight and its handler
/// executes that request itself, so at most
/// `min(max_connections, max_in_flight)` queries execute at once.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections (one handler thread each);
    /// further accepts wait in the OS backlog until a slot frees up.
    pub max_connections: usize,
    /// Maximum queries simultaneously executing across all connections.
    /// A query arriving past the bound is *shed*: answered immediately
    /// with a typed [`ErrorKind::Overloaded`] frame carrying
    /// [`shed_retry_after_ms`](ServerConfig::shed_retry_after_ms).
    ///
    /// Only binds below [`max_connections`](ServerConfig::max_connections):
    /// a connection has at most one request in flight, so with the
    /// defaults (256 against 64 connections) shedding never fires and the
    /// connection gate is the one that holds.
    pub max_in_flight: usize,
    /// The `retry_after_ms` backoff hint stamped on shed-load
    /// [`ErrorKind::Overloaded`] frames.  A configured public constant —
    /// it reveals nothing about current load beyond the shed itself.
    pub shed_retry_after_ms: u32,
    /// Fault-injection handle consulted at the server's injection points
    /// (`server/accept`, `server/read`, `server/handle`, `server/write`).
    /// Defaults to disabled; a zero-sized no-op in builds without the
    /// chaos `inject` feature.
    pub faults: Faults,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_in_flight: 256,
            shed_retry_after_ms: 25,
            faults: Faults::default(),
        }
    }
}

/// Acquire `mutex`, recovering from poisoning.
///
/// Every mutex in this module guards state whose invariants hold at every
/// await-free step (a connection count, a handler list), so a panic while
/// holding one cannot leave it logically torn.  Poison therefore only means "some handler panicked" — already a
/// contained event (the slot guard released its slot) — and propagating it
/// would escalate one crashed connection into a wedged server.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One error category's counter plus a one-shot logging latch.  Failures
/// that used to be dropped silently (`let _ =` sends, swallowed accept
/// errors) are counted in the registry, and the *first* occurrence per
/// category is logged so an operator sees the onset without the log being
/// flooded by a persistent condition.
struct ErrorMeter {
    category: &'static str,
    count: Counter,
    logged: AtomicBool,
}

impl ErrorMeter {
    fn new(registry: &MetricsRegistry, category: &'static str) -> ErrorMeter {
        ErrorMeter {
            category,
            count: registry.counter(
                "server_errors_total",
                MetricClass::Timing,
                &[("category", category)],
            ),
            logged: AtomicBool::new(false),
        }
    }

    fn note(&self, detail: impl std::fmt::Display) {
        self.count.inc();
        if !self.logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "obliv-server: {} error (counted in server_errors_total{{category=\"{}\"}}; \
                 further occurrences are counted but not logged): {detail}",
                self.category, self.category
            );
        }
    }
}

/// The server's own series, registered into the fronted engine's registry
/// so one [`MetricsRegistry::snapshot`] spans both layers.  Every series
/// is a function of the request stream and of public result shapes (row
/// counts × widths), never of table contents — and every one is classed
/// `Timing`: connection counts, frame counts and batch formation all
/// depend on arrival timing, faults and client retries, so none of them
/// participates in the fault-invariant `Content` sub-snapshot (that
/// invariant is carried by the engine's execution-side series).
struct ServerMetrics {
    /// Connections ever admitted (TCP accepts and loopback attaches).
    connections_opened: Counter,
    /// Connections currently holding a slot.
    connections_active: Gauge,
    /// Request frames read across all connections.
    frames_read: Counter,
    /// Request bytes read (frame headers included).
    bytes_read: Counter,
    /// Response frames written across all connections.
    frames_written: Counter,
    /// Response bytes written (frame headers included).
    bytes_written: Counter,
    /// Queries currently between admission and reply.
    requests_in_flight: Gauge,
    /// Queries answered with `Overloaded` at the admission bound.
    shed: Counter,
    accept_errors: ErrorMeter,
}

impl ServerMetrics {
    fn new(registry: &MetricsRegistry) -> ServerMetrics {
        use MetricClass::Timing;
        ServerMetrics {
            connections_opened: registry.counter("server_connections_opened_total", Timing, &[]),
            connections_active: registry.gauge("server_connections_active", Timing, &[]),
            frames_read: registry.counter("server_frames_read_total", Timing, &[]),
            bytes_read: registry.counter("server_bytes_read_total", Timing, &[]),
            frames_written: registry.counter("server_frames_written_total", Timing, &[]),
            bytes_written: registry.counter("server_bytes_written_total", Timing, &[]),
            requests_in_flight: registry.gauge("server_requests_in_flight", Timing, &[]),
            shed: registry.counter("server_shed_total", Timing, &[]),
            accept_errors: ErrorMeter::new(registry, "accept"),
        }
    }
}

/// State shared by the accept loop, handlers and the front object.
struct Inner {
    engine: Arc<dyn QueryExecutor>,
    config: ServerConfig,
    metrics: ServerMetrics,
    /// Currently served connections (the backpressure gate).
    active: Mutex<usize>,
    slot_freed: Condvar,
    shutdown: AtomicBool,
    /// Queries currently executing (the load-shedding gate; unlike the
    /// connection gate this one never blocks — it answers `Overloaded`
    /// instead).
    in_flight: AtomicUsize,
    /// When the server was constructed; `OK_STATS` reports whole seconds
    /// since then.
    started: Instant,
}

impl Inner {
    /// Block until a connection slot is free and claim it.  Returns
    /// `false` if the server shut down while waiting.
    fn claim_slot(&self) -> bool {
        let mut active = lock_recover(&self.active);
        while *active >= self.config.max_connections {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            active = self
                .slot_freed
                .wait(active)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        *active += 1;
        self.metrics.connections_active.inc();
        true
    }

    fn release_slot(&self) {
        *lock_recover(&self.active) -= 1;
        self.metrics.connections_active.dec();
        self.slot_freed.notify_all();
    }
}

/// Releases the owning connection's slot when dropped — on normal handler
/// exit *and* on a handler panic, so a crashing connection can never leak
/// a slot and slowly wedge the accept gate.
struct SlotGuard(Arc<Inner>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.release_slot();
    }
}

/// One served connection's handler thread plus the closer that can
/// interrupt its blocked reads from another thread.
type HandlerSlot = (thread::JoinHandle<()>, Box<dyn FnOnce() + Send>);

/// A running network front door over one shared backend: a process-local
/// [`Engine`](obliv_engine::Engine), or any other
/// [`QueryExecutor`] — e.g. a sharded coordinator that scatters each
/// plan over several engines and merges the partials.
///
/// Construct with [`Server::bind`] (TCP) and/or attach in-memory clients
/// with [`Server::connect_loopback`]; stop with [`Server::shutdown`].
/// Dropping the server also shuts it down.  Shutdown is graceful but not
/// patient: in-flight requests finish and their responses are written,
/// then every still-open connection is closed from the server side so
/// idle peers cannot hold the process hostage.
pub struct Server {
    inner: Arc<Inner>,
    addr: Option<SocketAddr>,
    accept: Option<thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<HandlerSlot>>>,
}

impl Server {
    /// Start a server listening on `addr` (pass port 0 for an ephemeral
    /// port; read it back with [`local_addr`](Server::local_addr)).
    /// `engine` is any [`QueryExecutor`] — an
    /// `Arc<Engine>` or a sharded coordinator alike.
    pub fn bind<B: QueryExecutor + 'static>(
        addr: impl ToSocketAddrs,
        engine: Arc<B>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut server = Server::without_listener(engine, config);
        server.addr = Some(local);

        let inner = Arc::clone(&server.inner);
        let handlers = Arc::clone(&server.handlers);
        server.accept = Some(
            thread::Builder::new()
                .name("obliv-server-accept".into())
                .spawn(move || accept_loop(listener, inner, handlers))
                .expect("spawning the accept thread failed"),
        );
        Ok(server)
    }

    /// A server with no TCP listener; clients attach through
    /// [`connect_loopback`](Server::connect_loopback).  Useful in tests
    /// and embedded setups where no port should be opened.  Spawns no
    /// thread until a client attaches.
    pub fn without_listener<B: QueryExecutor + 'static>(
        engine: Arc<B>,
        config: ServerConfig,
    ) -> Server {
        let engine: Arc<dyn QueryExecutor> = engine;
        let metrics = ServerMetrics::new(engine.metrics());
        Server {
            inner: Arc::new(Inner {
                engine,
                config,
                metrics,
                active: Mutex::new(0),
                slot_freed: Condvar::new(),
                shutdown: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                started: Instant::now(),
            }),
            addr: None,
            accept: None,
            handlers: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The bound TCP address, if the server is listening.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The backend this server fronts.
    pub fn engine(&self) -> &Arc<dyn QueryExecutor> {
        &self.inner.engine
    }

    /// Open an in-memory connection to this server and return the client
    /// endpoint (wrap it in [`Client::over`](crate::Client::over)).  The
    /// connection counts against
    /// [`max_connections`](ServerConfig::max_connections) exactly like a
    /// TCP accept, and this call blocks while the server is at the limit.
    pub fn connect_loopback(&self) -> io::Result<PipeStream> {
        if !self.inner.claim_slot() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "server is shutting down",
            ));
        }
        let (client_end, server_end) = loopback();
        self.inner.metrics.connections_opened.inc();
        let closer = server_end.closer();
        let inner = Arc::clone(&self.inner);
        let handle = thread::Builder::new()
            .name("obliv-server-conn".into())
            .spawn(move || {
                let guard = SlotGuard(inner);
                handle_connection(&guard.0, server_end);
            })
            .expect("spawning a connection handler failed");
        let mut handlers = lock_recover(&self.handlers);
        handlers.retain(|(h, _)| !h.is_finished());
        handlers.push((handle, closer));
        Ok(client_end)
    }

    /// Stop the server: stop accepting, close every still-open connection
    /// (handlers blocked on idle peers are woken with end-of-stream and
    /// exit; requests already executing finish and answer first).  The
    /// engine is untouched and stays usable.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake an accept thread parked on the connection gate…
        self.inner.slot_freed.notify_all();
        // …or parked in `accept()` (the dummy connection is dropped
        // unserved once the flag is seen).  An unspecified bind address
        // (0.0.0.0 / ::) is not self-connectable on every platform, so
        // wake through loopback in that case.
        if let Some(mut addr) = self.addr {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(addr);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Close every served connection from our side, so handlers parked
        // in `read_frame` on idle peers wake up (end-of-stream) instead
        // of holding shutdown hostage, then join them.
        let handlers = std::mem::take(&mut *lock_recover(&self.handlers));
        let (handles, closers): (Vec<_>, Vec<_>) = handlers.into_iter().unzip();
        for close in closers {
            close();
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("active_connections", &*lock_recover(&self.inner.active))
            .field("max_connections", &self.inner.config.max_connections)
            .finish()
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>, handlers: Arc<Mutex<Vec<HandlerSlot>>>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                inner.metrics.accept_errors.note(&e);
                // Transient accept errors (fd exhaustion, aborted
                // handshakes) would otherwise busy-spin this thread at
                // 100% CPU exactly when the machine is under pressure.
                thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return; // `stream` is the shutdown wake-up (or a late client).
        }
        // Injected accept failures exercise the error path above without
        // needing real fd exhaustion: the connection is dropped unserved
        // and the accept loop keeps running.
        match inner.config.faults.hit(points::SERVER_ACCEPT) {
            Some(Fault::Error | Fault::Disconnect) => {
                inner
                    .metrics
                    .accept_errors
                    .note("injected accept failure (chaos)");
                drop(stream);
                continue;
            }
            Some(Fault::Delay(delay)) => thread::sleep(delay),
            _ => {}
        }
        inner.metrics.connections_opened.inc();
        // Request/response latency beats throughput for µs-scale cached
        // queries; disable Nagle coalescing.
        let _ = stream.set_nodelay(true);
        if !inner.claim_slot() {
            return;
        }
        let closer = stream.closer();
        let handler_inner = Arc::clone(&inner);
        let handle = thread::Builder::new()
            .name("obliv-server-conn".into())
            .spawn(move || {
                let guard = SlotGuard(handler_inner);
                handle_connection(&guard.0, stream);
            })
            .expect("spawning a connection handler failed");
        let mut handlers = lock_recover(&handlers);
        handlers.retain(|(h, _)| !h.is_finished());
        handlers.push((handle, closer));
    }
}

/// `true` iff `token` is usable as a tenant label: non-empty, at most 128
/// bytes, no control characters.
fn token_is_valid(token: &str) -> bool {
    !token.is_empty() && token.len() <= 128 && !token.chars().any(char::is_control)
}

/// Shuts the wrapped stream down when the handler stops serving it — on
/// every return path *and* on a handler panic.  Without this, a server-
/// initiated close over TCP would not reach the peer until the shutdown
/// `closer` clone (a duplicated fd) is swept on some later accept, leaving
/// a client with no read timeout blocked forever.
struct StreamGuard<C: Connection>(C);

impl<C: Connection> Drop for StreamGuard<C> {
    fn drop(&mut self) {
        self.0.shutdown_stream();
    }
}

/// Serve one connection until the peer closes, the transport fails, or
/// framing is lost.
fn handle_connection<C: Connection>(inner: &Inner, conn: C) {
    let mut guard = StreamGuard(conn);
    let conn = &mut guard.0;
    let engine: &dyn QueryExecutor = inner.engine.as_ref();
    let metrics: &ServerMetrics = &inner.metrics;
    let faults = &inner.config.faults;
    let mut session: Option<Session<'_>> = None;
    loop {
        // `server/read`: `Delay` stalls the handler before the read (the
        // client sees a slow server); `Disconnect` closes the connection
        // before the next frame is read (the client's request vanishes —
        // a mid-exchange connection reset).
        match faults.hit(points::SERVER_READ) {
            Some(Fault::Delay(delay)) => thread::sleep(delay),
            Some(Fault::Disconnect) => return,
            _ => {}
        }
        let body = match read_frame(conn, MAX_REQUEST_FRAME) {
            Ok(Some(body)) => {
                metrics.frames_read.inc();
                metrics.bytes_read.add(body.len() as u64 + 4);
                body
            }
            Ok(None) => return, // clean close
            Err(FrameError::TooLarge { declared, max }) => {
                // The declared length cannot be trusted, so the stream can
                // no longer be re-synchronised: answer and close.
                let error = WireError::new(
                    ErrorKind::FrameTooLarge,
                    format!("request frame of {declared} bytes exceeds the {max}-byte bound"),
                );
                let _ = send(conn, &Response::Error(error), metrics);
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let request = match Request::decode(&body) {
            Ok(request) => request,
            Err(e) => {
                // The frame itself was well-delimited, so the stream is
                // still in sync: report and keep serving.
                let kind = if is_version_error(&e) {
                    ErrorKind::UnsupportedVersion
                } else {
                    ErrorKind::Protocol
                };
                if send(
                    conn,
                    &Response::Error(WireError::new(kind, e.message())),
                    metrics,
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };

        // Bind the session to the first valid token; later requests must
        // present the same one.
        let token = request.token();
        if !token_is_valid(token) {
            let error = WireError::new(ErrorKind::Protocol, "invalid auth token");
            if send(conn, &Response::Error(error), metrics).is_err() {
                return;
            }
            continue;
        }
        match &session {
            Some(bound) if bound.tenant() != token => {
                let error = WireError::new(
                    ErrorKind::AuthMismatch,
                    "connection is bound to a different token",
                );
                if send(conn, &Response::Error(error), metrics).is_err() {
                    return;
                }
                continue;
            }
            Some(_) => {}
            None => session = Some(Session::attach(engine, token.to_string())),
        }
        let session = session.as_mut().expect("session bound above");

        // `server/handle`: a slow (or crashing) handler between decode and
        // dispatch.  A panic here is contained exactly like a real handler
        // bug: the thread dies, `SlotGuard` frees the connection slot.
        match faults.hit(points::SERVER_HANDLE) {
            Some(Fault::Delay(delay)) => thread::sleep(delay),
            Some(Fault::Panic) => panic!("injected: connection handler panic"),
            _ => {}
        }
        let response = match request {
            Request::Stats { .. } => Response::Stats(StatsReply {
                session: session.stats(),
                cache: engine.cache_stats(),
                build: env!("CARGO_PKG_VERSION").to_string(),
                uptime_secs: inner.started.elapsed().as_secs(),
                shard_cache_hits: engine.shard_cache_hits(),
            }),
            Request::Metrics { .. } => Response::Metrics(engine.metrics().snapshot()),
            Request::QueryText {
                query,
                deadline_ms,
                trace_id,
                collect_trace,
                ..
            } => match parse_statement(&query) {
                // `EXPLAIN ANALYZE <query>` executes the inner query
                // normally and forces the span tree onto the reply,
                // whatever the request's `collect_trace` flag said.
                Ok(Statement::ExplainAnalyze(plan)) => {
                    run_query(inner, session, plan, deadline_ms, trace_id, true)
                }
                Ok(Statement::Query(plan)) => {
                    run_query(inner, session, plan, deadline_ms, trace_id, collect_trace)
                }
                Err(e) => Response::Error(WireError::new(ErrorKind::Query, e.to_string())),
            },
            Request::QueryPlan {
                plan,
                deadline_ms,
                trace_id,
                collect_trace,
                ..
            } => run_query(inner, session, plan, deadline_ms, trace_id, collect_trace),
        };
        // `server/write`: `Torn` ships a partial frame and drops the
        // connection (the client sees a mid-frame EOF); `Disconnect`
        // drops it before any response byte.
        match faults.hit(points::SERVER_WRITE) {
            Some(Fault::Torn) => {
                torn_write(conn, &response);
                return;
            }
            Some(Fault::Disconnect) => return,
            Some(Fault::Delay(delay)) => thread::sleep(delay),
            _ => {}
        }
        if send(conn, &response, metrics).is_err() {
            return;
        }
    }
}

/// Write the frame header and the first half of the response body, then
/// abandon the connection — the `server/write` `Torn` fault, exercising
/// the client's handling of a response cut off mid-frame.
fn torn_write<C: Connection>(conn: &mut C, response: &Response) {
    let Ok(body) = response.encode() else { return };
    let mut partial = (body.len() as u32).to_be_bytes().to_vec();
    partial.extend_from_slice(&body[..body.len() / 2]);
    let _ = conn.write_all(&partial);
    let _ = conn.flush();
}

/// Label the plan through the connection's session, attach its deadline,
/// pass the load-shedding gate, execute it as a one-request batch on this
/// thread, account it.
fn run_query(
    inner: &Inner,
    session: &mut Session<'_>,
    plan: Plan,
    deadline_ms: u32,
    trace_id: u64,
    collect_trace: bool,
) -> Response {
    let metrics = &inner.metrics;
    // Admission control: reserve an in-flight slot or shed.  Released
    // after the execution below, on its panic path too.
    let occupied = inner.in_flight.fetch_add(1, Ordering::SeqCst);
    if occupied >= inner.config.max_in_flight {
        inner.in_flight.fetch_sub(1, Ordering::SeqCst);
        metrics.shed.inc();
        return Response::Error(
            WireError::new(
                ErrorKind::Overloaded,
                format!(
                    "server is at its in-flight bound of {}; back off and retry",
                    inner.config.max_in_flight
                ),
            )
            .with_retry_after_ms(inner.config.shed_retry_after_ms),
        );
    }
    metrics.requests_in_flight.inc();

    let mut request = session.issue(plan);
    if deadline_ms > 0 {
        // Stamped at admission, so the budget covers the whole execution —
        // exactly what a client timing out on its read wants the server to
        // agree with.
        request = request.with_deadline(Instant::now() + Duration::from_millis(deadline_ms.into()));
    }
    // A panicking execution must not take the connection down with it:
    // `catch_unwind` turns it into this request's typed `Internal` frame.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        inner.engine.execute_batch(std::slice::from_ref(&request))
    }));
    inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    metrics.requests_in_flight.dec();
    match outcome {
        Ok(Ok(mut responses)) => {
            let response = responses.pop().expect("one response per request");
            session.record(&response);
            Response::Reply(Box::new(QueryReply::from_response(
                response,
                trace_id,
                collect_trace,
            )))
        }
        Ok(Err(e @ EngineError::DeadlineExceeded { .. })) => {
            Response::Error(WireError::new(ErrorKind::DeadlineExceeded, e.to_string()))
        }
        Ok(Err(e)) => Response::Error(WireError::new(ErrorKind::Query, e.to_string())),
        Err(_) => Response::Error(WireError::new(
            ErrorKind::Internal,
            "query execution failed on the server (internal error)",
        )),
    }
}

/// A lower bound on a response's encoded size, from public row counts and
/// widths alone — so an over-bound result is rejected *before* its whole
/// body is materialised in memory.
fn payload_size_floor(response: &Response) -> usize {
    match response {
        Response::Reply(reply) => reply.rows.len() * reply.rows.schema().row_width(),
        Response::Stats(_) | Response::Metrics(_) | Response::Error(_) => 0,
    }
}

/// Encode and frame one response, downgrading an over-bound payload (too
/// big for one frame, or a field over its wire width) to a small, typed
/// error frame.
fn send<C: Connection>(
    conn: &mut C,
    response: &Response,
    metrics: &ServerMetrics,
) -> io::Result<()> {
    let too_large = |bytes: usize| {
        Response::Error(WireError::new(
            ErrorKind::FrameTooLarge,
            format!(
                "result of at least {bytes} bytes exceeds the {MAX_RESPONSE_FRAME}-byte \
                 response bound; aggregate or filter server-side"
            ),
        ))
        .encode()
        .expect("error frames are bounded")
    };
    let floor = payload_size_floor(response);
    let body = if floor > MAX_RESPONSE_FRAME {
        too_large(floor)
    } else {
        match response.encode() {
            Ok(body) if body.len() <= MAX_RESPONSE_FRAME => body,
            Ok(body) => too_large(body.len()),
            Err(e) => Response::Error(e)
                .encode()
                .expect("error frames are bounded"),
        }
    };
    metrics.frames_written.inc();
    metrics.bytes_written.add(body.len() as u64 + 4);
    write_frame(conn, &body, MAX_RESPONSE_FRAME)
}
