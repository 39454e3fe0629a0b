//! The connection server: accept loop, per-connection sessions, and the
//! cross-connection request batcher.
//!
//! ## Threading model
//!
//! ```text
//! accept thread ──spawns──▶ handler thread (one per connection)
//!                               │  parse/decode, session accounting,
//!                               │  result-cache hit ──▶ reply, right here
//!                               ▼  everything that must execute
//!                           batcher thread ──▶ Engine::execute_batch
//! ```
//!
//! Each connection gets a handler thread and an engine
//! [`Session`] bound to the connection's auth token, so
//! per-tenant accounting ([`SessionStats`](obliv_engine::SessionStats))
//! works exactly as it does in-process.  The rule: **a handler answers
//! only what needs no execution.**  Past the admission gate it asks the
//! backend's [`cached`](obliv_engine::QueryExecutor::cached) probe; a
//! result-cache hit for the current catalog epoch comes back as the same
//! response, with the same accounting, a batch would have produced, and
//! is framed on the spot — two thread wake-ups (handler → batcher →
//! handler) are too much to pay for a map lookup.  Everything else — a
//! miss, a stale epoch, a disabled cache, a backend without a probe (the
//! shard coordinator) — is never executed on a handler: it is forwarded
//! as a `(request, reply-channel)` pair to a small pool of
//! *batcher* threads ([`ServerConfig::batch_runners`]); whichever runner
//! is idle drains everything currently queued — across all connections —
//! and submits it as a single
//! [`execute_batch`](obliv_engine::QueryExecutor::execute_batch) call.  Concurrent
//! clients therefore share one engine batch and get the executor's
//! intra-batch deduplication: two tenants asking the same cold question
//! at the same time cost one oblivious
//! execution.  With more than one runner, a new batch forms and executes
//! while a long cold batch is still running, so requests that must
//! execute are not head-of-line-blocked behind it.  Of the injection
//! points, `server/handle` sits in front of both paths and
//! `server/batcher` is reached by the executing one only.
//!
//! The engine's own worker pool is resident, so this pipeline adds no
//! thread spawns per request anywhere: accept → handler (spawned once per
//! connection) → batchers (spawned once) → engine workers (spawned once).
//!
//! ## Backpressure
//!
//! At most [`ServerConfig::max_connections`] handler threads exist at a
//! time.  The accept thread blocks once the limit is reached — further
//! clients queue in the OS accept backlog and are admitted as slots free
//! up — so a connection flood cannot spawn unbounded threads or sessions.
//!
//! ## Failure containment
//!
//! The backend fails a whole batch up front if *any* request
//! in it cannot be resolved.  That contract is right for one caller's
//! batch, but the batcher's batches mix tenants, so on a batch error it
//! falls back to executing each request alone: the offending request gets
//! its typed error frame and every innocent peer still gets its answer.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use obliv_chaos::{points, Fault, Faults};
use obliv_engine::{
    parse_statement, EngineError, Plan, QueryExecutor, QueryRequest, QueryResponse, Session,
    Statement,
};
use obliv_telemetry::{Counter, Gauge, Histogram, MetricClass, MetricsRegistry};

use crate::proto::{
    is_version_error, read_frame, write_frame, ErrorKind, FrameError, QueryReply, Request,
    Response, StatsReply, WireError, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME,
};
use crate::transport::{loopback, Connection, PipeStream};

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further accepts wait in
    /// the OS backlog until a slot frees up.
    pub max_connections: usize,
    /// Maximum requests the batcher folds into one engine batch.
    pub max_batch: usize,
    /// Number of batcher threads.  With one, a long cold batch
    /// head-of-line-blocks requests that arrive mid-execution; with two
    /// or more, the next batch forms and executes while the previous one
    /// is still running (per-connection ordering is unaffected: each
    /// connection has at most one request in flight).
    pub batch_runners: usize,
    /// Maximum queries simultaneously queued or executing across all
    /// connections.  A query arriving past the bound is *shed*: answered
    /// immediately with a typed [`ErrorKind::Overloaded`] frame carrying
    /// [`shed_retry_after_ms`](ServerConfig::shed_retry_after_ms), instead
    /// of queueing without bound (the pre-overload failure mode: every
    /// handler blocked, memory growing, no client told why).
    pub max_in_flight: usize,
    /// The `retry_after_ms` backoff hint stamped on shed-load
    /// [`ErrorKind::Overloaded`] frames.  A configured public constant —
    /// it reveals nothing about current load beyond the shed itself.
    pub shed_retry_after_ms: u32,
    /// Fault-injection handle consulted at the server's injection points
    /// (`server/accept`, `server/read`, `server/handle`, `server/write`,
    /// `server/batcher`).  Defaults to disabled; a zero-sized no-op in
    /// builds without the chaos `inject` feature.
    pub faults: Faults,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_batch: 64,
            batch_runners: 2,
            max_in_flight: 256,
            shed_retry_after_ms: 25,
            faults: Faults::default(),
        }
    }
}

/// Acquire `mutex`, recovering from poisoning.
///
/// Every mutex in this module guards state whose invariants hold at every
/// await-free step (a connection count, a handler list, a channel
/// receiver), so a panic while holding one cannot leave it logically torn.
/// Poison therefore only means "some handler panicked" — already a
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
    /// Requests folded into each engine batch (cache hits form none).
    batch_occupancy: Histogram,
    /// Batches that failed as a whole and were split for re-run (validated
    /// per request, innocent peers re-batched), one counter per cause:
    /// `resolution` (a typed submission error poisoned the mixed-tenant
    /// batch), `panic` (an execution or injected panic was contained),
    /// `deadline` (a request's budget expired and aborted the batch).
    rerun_resolution: Counter,
    rerun_panic: Counter,
    rerun_deadline: Counter,
    /// Queries answered with `Overloaded` at the admission bound.
    shed: Counter,
    accept_errors: ErrorMeter,
    reply_errors: ErrorMeter,
}

impl ServerMetrics {
    fn new(registry: &MetricsRegistry) -> ServerMetrics {
        use MetricClass::Timing;
        let rerun = |cause: &'static str| {
            registry.counter("server_batch_reruns_total", Timing, &[("cause", cause)])
        };
        ServerMetrics {
            connections_opened: registry.counter("server_connections_opened_total", Timing, &[]),
            connections_active: registry.gauge("server_connections_active", Timing, &[]),
            frames_read: registry.counter("server_frames_read_total", Timing, &[]),
            bytes_read: registry.counter("server_bytes_read_total", Timing, &[]),
            frames_written: registry.counter("server_frames_written_total", Timing, &[]),
            bytes_written: registry.counter("server_bytes_written_total", Timing, &[]),
            requests_in_flight: registry.gauge("server_requests_in_flight", Timing, &[]),
            batch_occupancy: registry.histogram("server_batch_occupancy", Timing, &[]),
            rerun_resolution: rerun("resolution"),
            rerun_panic: rerun("panic"),
            rerun_deadline: rerun("deadline"),
            shed: registry.counter("server_shed_total", Timing, &[]),
            accept_errors: ErrorMeter::new(registry, "accept"),
            reply_errors: ErrorMeter::new(registry, "reply_drop"),
        }
    }
}

/// Why the batcher could not answer one request.
enum BatchError {
    /// The engine rejected it (typed submission error).
    Engine(EngineError),
    /// Its execution panicked; the panic was contained on the batcher.
    Execution,
}

/// One queued query: the labelled request plus the channel its handler is
/// blocked on.
struct BatchItem {
    request: QueryRequest,
    reply: mpsc::Sender<Result<QueryResponse, BatchError>>,
}

/// State shared by the accept loop, handlers and the front object.
struct Inner {
    engine: Arc<dyn QueryExecutor>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    /// Currently served connections (the backpressure gate).
    active: Mutex<usize>,
    slot_freed: Condvar,
    shutdown: AtomicBool,
    /// Queries currently queued or executing (the load-shedding gate;
    /// unlike the connection gate this one never blocks — it answers
    /// `Overloaded` instead).
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
    /// The server's own injector handle; `None` once shut down.
    batch_tx: Option<mpsc::Sender<BatchItem>>,
    accept: Option<thread::JoinHandle<()>>,
    batchers: Vec<thread::JoinHandle<()>>,
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
        let batch_tx = server
            .batch_tx
            .clone()
            .expect("freshly constructed server has a batcher");
        let handlers = Arc::clone(&server.handlers);
        server.accept = Some(
            thread::Builder::new()
                .name("obliv-server-accept".into())
                .spawn(move || accept_loop(listener, inner, batch_tx, handlers))
                .expect("spawning the accept thread failed"),
        );
        Ok(server)
    }

    /// A server with no TCP listener; clients attach through
    /// [`connect_loopback`](Server::connect_loopback).  Useful in tests
    /// and embedded setups where no port should be opened.
    pub fn without_listener<B: QueryExecutor + 'static>(
        engine: Arc<B>,
        config: ServerConfig,
    ) -> Server {
        let engine: Arc<dyn QueryExecutor> = engine;
        let metrics = Arc::new(ServerMetrics::new(engine.metrics()));
        let (batch_tx, batch_rx) = mpsc::channel::<BatchItem>();
        let batch_rx = Arc::new(Mutex::new(batch_rx));
        let max_batch = config.max_batch.max(1);
        let batchers = (0..config.batch_runners.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                let batch_rx = Arc::clone(&batch_rx);
                let metrics = Arc::clone(&metrics);
                let faults = config.faults.clone();
                thread::Builder::new()
                    .name(format!("obliv-server-batcher-{i}"))
                    .spawn(move || run_batcher(engine, batch_rx, max_batch, metrics, faults))
                    .expect("spawning a batcher thread failed")
            })
            .collect();
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
            batch_tx: Some(batch_tx),
            accept: None,
            batchers,
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
        let batch_tx = self
            .batch_tx
            .clone()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "server is shut down"))?;
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
                handle_connection(&guard.0, server_end, batch_tx);
            })
            .expect("spawning a connection handler failed");
        let mut handlers = lock_recover(&self.handlers);
        handlers.retain(|(h, _)| !h.is_finished());
        handlers.push((handle, closer));
        Ok(client_end)
    }

    /// Stop the server: stop accepting, close every still-open connection
    /// (handlers blocked on idle peers are woken with end-of-stream and
    /// exit; requests already executing finish and answer first), then
    /// retire the batcher.  The engine is untouched and stays usable.
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
        // All handler-held injector clones are gone now; dropping ours
        // disconnects the batchers' queue and they exit.
        self.batch_tx.take();
        for batcher in self.batchers.drain(..) {
            let _ = batcher.join();
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

fn accept_loop(
    listener: TcpListener,
    inner: Arc<Inner>,
    batch_tx: mpsc::Sender<BatchItem>,
    handlers: Arc<Mutex<Vec<HandlerSlot>>>,
) {
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
        let tx = batch_tx.clone();
        let handle = thread::Builder::new()
            .name("obliv-server-conn".into())
            .spawn(move || {
                let guard = SlotGuard(handler_inner);
                handle_connection(&guard.0, stream, tx);
            })
            .expect("spawning a connection handler failed");
        let mut handlers = lock_recover(&handlers);
        handlers.retain(|(h, _)| !h.is_finished());
        handlers.push((handle, closer));
    }
}

/// A cross-connection batcher: drain whatever is queued, execute it as
/// one engine batch, fan the responses back to the waiting handlers.
/// Several runners share the queue, so a new batch can form and execute
/// while a long one is still running on another runner.
fn run_batcher(
    engine: Arc<dyn QueryExecutor>,
    rx: Arc<Mutex<mpsc::Receiver<BatchItem>>>,
    max_batch: usize,
    metrics: Arc<ServerMetrics>,
    faults: Faults,
) {
    // A handler that hung up (its connection died mid-query) cannot
    // receive its reply; count the drop instead of ignoring it.
    let deliver = |reply: &mpsc::Sender<Result<QueryResponse, BatchError>>,
                   result: Result<QueryResponse, BatchError>| {
        if reply.send(result).is_err() {
            metrics
                .reply_errors
                .note("a handler hung up before its reply could be delivered");
        }
    };
    loop {
        // Hold the queue lock only while assembling a batch, never while
        // executing one.
        let items = {
            let rx = lock_recover(&rx);
            match rx.recv() {
                Ok(first) => {
                    let mut items = vec![first];
                    while items.len() < max_batch {
                        match rx.try_recv() {
                            Ok(item) => items.push(item),
                            Err(_) => break,
                        }
                    }
                    items
                }
                Err(_) => return, // channel closed: shutdown
            }
        };
        metrics.batch_occupancy.observe(items.len() as u64);
        let (requests, replies): (Vec<_>, Vec<_>) = items
            .into_iter()
            .map(|item| (item.request, item.reply))
            .unzip();
        // The batcher must survive anything a batch does: a panic here
        // would zombify the whole server (connections alive, every query
        // answered "shutting down").  `catch_unwind` contains it.  The
        // `server/batcher` injection point sits inside the barrier so an
        // injected panic exercises exactly the containment a real
        // execution panic would.
        let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match faults.hit(points::SERVER_BATCHER) {
                Some(Fault::Panic) => panic!("injected: batcher panic"),
                Some(Fault::Delay(delay)) => thread::sleep(delay),
                _ => {}
            }
            engine.execute_batch(&requests)
        }));
        match batch {
            Ok(Ok(responses)) => {
                for (reply, response) in replies.iter().zip(responses) {
                    deliver(reply, Ok(response));
                }
            }
            ref failed @ (Ok(Err(_)) | Err(_)) => {
                // Record why the batch is being split before re-running it,
                // per cause: a contained panic, an expired deadline, or a
                // typed submission (resolution) error.
                match failed {
                    Err(_) => metrics.rerun_panic.inc(),
                    Ok(Err(EngineError::DeadlineExceeded { .. })) => {
                        metrics.rerun_deadline.inc();
                    }
                    _ => metrics.rerun_resolution.inc(),
                }
                // The engine fails a whole batch up front on one bad
                // request, and a panicking execution fails it too; the
                // batch mixes tenants, so isolate the failure.  Validation
                // (resolution without execution, cheap) picks out the
                // offending requests — they get their typed errors, and an
                // already-expired deadline gets its typed error here too —
                // and the valid remainder re-runs as *one* batch, keeping
                // the engine pool's parallelism and the intra-batch dedup
                // for the innocent peers.
                let mut valid: Vec<BatchItem> = Vec::with_capacity(requests.len());
                for (request, reply) in requests.into_iter().zip(replies) {
                    match engine.validate(&request) {
                        Ok(()) if request.deadline().is_some_and(|d| Instant::now() >= d) => {
                            let label = request.label.clone();
                            deliver(
                                &reply,
                                Err(BatchError::Engine(EngineError::DeadlineExceeded { label })),
                            );
                        }
                        Ok(()) => valid.push(BatchItem { request, reply }),
                        Err(e) => {
                            deliver(&reply, Err(BatchError::Engine(e)));
                        }
                    }
                }
                if valid.is_empty() {
                    continue;
                }
                let (requests, replies): (Vec<_>, Vec<_>) = valid
                    .into_iter()
                    .map(|item| (item.request, item.reply))
                    .unzip();
                let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.execute_batch(&requests)
                }));
                match retry {
                    Ok(Ok(responses)) => {
                        for (reply, response) in replies.iter().zip(responses) {
                            deliver(reply, Ok(response));
                        }
                    }
                    // Rare: a catalog mutation raced between validation
                    // and re-execution, or an execution panicked.  Last
                    // resort is per-request isolation.
                    Ok(Err(_)) | Err(_) => {
                        for (request, reply) in requests.into_iter().zip(replies) {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    engine
                                        .execute_batch(std::slice::from_ref(&request))
                                        .map(|mut rs| rs.pop().expect("one response per request"))
                                }));
                            deliver(
                                &reply,
                                match result {
                                    Ok(result) => result.map_err(BatchError::Engine),
                                    Err(_) => Err(BatchError::Execution),
                                },
                            );
                        }
                    }
                }
            }
        }
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
fn handle_connection<C: Connection>(inner: &Inner, conn: C, batch_tx: mpsc::Sender<BatchItem>) {
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
                    run_query(inner, session, plan, deadline_ms, trace_id, true, &batch_tx)
                }
                Ok(Statement::Query(plan)) => run_query(
                    inner,
                    session,
                    plan,
                    deadline_ms,
                    trace_id,
                    collect_trace,
                    &batch_tx,
                ),
                Err(e) => Response::Error(WireError::new(ErrorKind::Query, e.to_string())),
            },
            Request::QueryPlan {
                plan,
                deadline_ms,
                trace_id,
                collect_trace,
                ..
            } => run_query(
                inner,
                session,
                plan,
                deadline_ms,
                trace_id,
                collect_trace,
                &batch_tx,
            ),
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
/// pass the load-shedding gate, answer it from the result cache or hand it
/// to the batcher and wait for the engine's answer, account it.
fn run_query(
    inner: &Inner,
    session: &mut Session<'_>,
    plan: Plan,
    deadline_ms: u32,
    trace_id: u64,
    collect_trace: bool,
    batch_tx: &mpsc::Sender<BatchItem>,
) -> Response {
    let metrics = &inner.metrics;
    let shutting_down = || {
        Response::Error(WireError::new(
            ErrorKind::Shutdown,
            "server is shutting down",
        ))
    };
    // Admission control: reserve an in-flight slot or shed.  The counter
    // is reserved *before* the queue send so the bound covers queued and
    // executing queries alike, and released on every exit path below.
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
        // Stamped at admission, so the budget covers queueing *and*
        // execution — exactly what a client timing out on its read wants
        // the server to agree with.
        request = request.with_deadline(Instant::now() + Duration::from_millis(deadline_ms.into()));
    }
    // A handler answers only what needs no execution: a result-cache hit
    // for the current catalog epoch.  Everything else — a miss, a disabled
    // cache, an executor with no probe — is the batcher's to execute.
    let outcome = match inner.engine.cached(&request) {
        Some(response) => Ok(Ok(response)),
        None => {
            let (reply_tx, reply_rx) = mpsc::channel();
            let item = BatchItem {
                request,
                reply: reply_tx,
            };
            match batch_tx.send(item) {
                Ok(()) => reply_rx.recv(),
                Err(_) => Err(mpsc::RecvError),
            }
        }
    };
    inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    metrics.requests_in_flight.dec();
    match outcome {
        Ok(Ok(response)) => {
            session.record(&response);
            Response::Reply(Box::new(QueryReply::from_response(
                response,
                trace_id,
                collect_trace,
            )))
        }
        Ok(Err(BatchError::Engine(e @ EngineError::DeadlineExceeded { .. }))) => {
            Response::Error(WireError::new(ErrorKind::DeadlineExceeded, e.to_string()))
        }
        Ok(Err(BatchError::Engine(e))) => {
            Response::Error(WireError::new(ErrorKind::Query, e.to_string()))
        }
        Ok(Err(BatchError::Execution)) => Response::Error(WireError::new(
            ErrorKind::Internal,
            "query execution failed on the server (internal error)",
        )),
        Err(_) => shutting_down(),
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
