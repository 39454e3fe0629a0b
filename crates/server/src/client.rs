//! A blocking client for the wire protocol.
//!
//! One [`Client`] wraps one connection (TCP or loopback) and speaks the
//! strict request/response protocol: every call writes one frame and
//! blocks for the answering frame.  Concurrency comes from opening more
//! clients — the server executes each connection's requests on that
//! connection's own handler thread, concurrently with the others.
//!
//! For resilience against transient failures (connection resets, server
//! restarts, shed load), wrap connection establishment in a
//! [`RetryingClient`]: it classifies errors, retries only the transient
//! categories with seeded exponential backoff + jitter, and reconnects
//! when the stream can no longer be trusted to be in sync.

use std::io::{self};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use obliv_engine::{MetricsSnapshot, Plan};
use obliv_telemetry::{Counter, MetricClass, MetricsRegistry};

use crate::proto::{
    read_frame, write_frame, DecodeError, ErrorKind, FrameError, QueryReply, Request, Response,
    StatsReply, WireError, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME,
};
use crate::transport::Connection;

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (or the server closed the connection).
    Io(io::Error),
    /// A configured socket timeout elapsed before the operation finished
    /// (see [`Client::set_read_timeout`]).  Split from [`Io`](Self::Io)
    /// because the caller's reaction differs: a timeout means the request
    /// may still be executing server-side, so a retry must go through a
    /// fresh connection to keep framing in sync.
    Timeout,
    /// The server's bytes did not parse as a protocol response.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server(WireError),
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // TCP reports an expired SO_RCVTIMEO/SO_SNDTIMEO as either kind,
        // platform-dependently.
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ClientError::Timeout,
            _ => ClientError::Io(e),
        }
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::from(e),
            FrameError::TooLarge { .. } => ClientError::Protocol(e.to_string()),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout => write!(f, "operation timed out"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking connection to an oblivious query server.
///
/// ```no_run
/// use obliv_server::Client;
///
/// let mut client = Client::connect("127.0.0.1:7787", "tenant-a").unwrap();
/// let reply = client.query("SCAN orders | AGG count").unwrap();
/// println!("digest = {}, cached = {}", reply.summary.trace_digest, reply.cached);
/// ```
pub struct Client {
    conn: Box<dyn Connection>,
    token: String,
}

impl Client {
    /// Connect over TCP; `token` names the tenant this connection's
    /// server-side session accounts to.
    pub fn connect(addr: impl ToSocketAddrs, token: impl Into<String>) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client::over(stream, token))
    }

    /// Wrap an already-connected transport (e.g. one end of
    /// [`loopback`](crate::transport::loopback) attached to a server via
    /// [`Server::connect_loopback`](crate::Server::connect_loopback)).
    pub fn over(conn: impl Connection + 'static, token: impl Into<String>) -> Client {
        Client {
            conn: Box::new(conn),
            token: token.into(),
        }
    }

    /// The tenant token this client presents.
    pub fn token(&self) -> &str {
        &self.token
    }

    /// Bound how long a call may block waiting for the server's response
    /// before failing with [`ClientError::Timeout`]; `None` restores
    /// indefinite blocking.  After a timeout the connection's framing can
    /// no longer be trusted (the response may arrive later) — drop the
    /// client or reconnect; [`RetryingClient`] does this automatically.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(timeout)
    }

    /// Bound how long a call may block writing its request (same contract
    /// as [`set_read_timeout`](Client::set_read_timeout)).
    pub fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.set_write_timeout(timeout)
    }

    /// Run a text query (parsed server-side by the engine's frontend).
    pub fn query(&mut self, query: impl Into<String>) -> Result<QueryReply, ClientError> {
        self.query_text(query.into(), 0, 0, false)
    }

    /// Run a text query and ask the server to attach the query's
    /// per-operator span tree to the reply ([`QueryReply::trace`]).
    /// `trace_id` is an opaque correlation id echoed back on the reply.
    /// Collecting a trace changes nothing about execution — the engine
    /// records spans either way; the flag only controls serialization.
    pub fn query_traced(
        &mut self,
        query: impl Into<String>,
        trace_id: u64,
    ) -> Result<QueryReply, ClientError> {
        self.query_text(query.into(), 0, trace_id, true)
    }

    /// Run `EXPLAIN ANALYZE <query>` and render the annotated operator
    /// tree (revealed sizes, op counters and timings per span) as
    /// indented text.  The inner query is executed normally server-side;
    /// only the presentation differs from [`query_traced`](Client::query_traced).
    pub fn explain_analyze(&mut self, query: impl AsRef<str>) -> Result<String, ClientError> {
        let query = query.as_ref();
        let reply = self.query_text(format!("EXPLAIN ANALYZE {query}"), 0, 0, true)?;
        let trace = reply.trace.as_ref().ok_or_else(|| {
            ClientError::Protocol("EXPLAIN ANALYZE reply carried no span tree".into())
        })?;
        let mut out = format!("-- {}\n-- cached: {}\n", query.trim(), reply.cached);
        out.push_str(&trace.render_text(true));
        Ok(out)
    }

    /// Run a text query with a server-enforced time budget, counted from
    /// the request's arrival at the server.  The engine checks it before
    /// execution — at batch admission and at job start — and answers a
    /// typed [`DeadlineExceeded`](ErrorKind::DeadlineExceeded) frame
    /// instead of executing once it has expired; a running query is never
    /// interrupted.  (Sub-millisecond deadlines round up to 1 ms — zero
    /// encodes "no deadline" on the wire.)
    pub fn query_with_deadline(
        &mut self,
        query: impl Into<String>,
        deadline: Duration,
    ) -> Result<QueryReply, ClientError> {
        self.query_text(query.into(), deadline_to_ms(deadline), 0, false)
    }

    fn query_text(
        &mut self,
        query: String,
        deadline_ms: u32,
        trace_id: u64,
        collect_trace: bool,
    ) -> Result<QueryReply, ClientError> {
        let request = Request::QueryText {
            token: self.token.clone(),
            deadline_ms,
            trace_id,
            collect_trace,
            query,
        };
        match self.roundtrip(&request)? {
            Response::Reply(reply) => Ok(*reply),
            other => Err(unexpected(other)),
        }
    }

    /// Run an already-built plan (shipped in the protocol's binary plan
    /// encoding; no text round-trip).
    pub fn query_plan(&mut self, plan: &Plan) -> Result<QueryReply, ClientError> {
        self.query_plan_inner(plan, 0, 0, false)
    }

    /// Run an already-built plan with the span tree attached to the reply
    /// (the plan-shipping counterpart of [`query_traced`](Client::query_traced)).
    pub fn query_plan_traced(
        &mut self,
        plan: &Plan,
        trace_id: u64,
    ) -> Result<QueryReply, ClientError> {
        self.query_plan_inner(plan, 0, trace_id, true)
    }

    /// Run an already-built plan under a time budget (the plan-shipping
    /// counterpart of [`query_with_deadline`](Client::query_with_deadline)).
    pub fn query_plan_with_deadline(
        &mut self,
        plan: &Plan,
        deadline: Duration,
    ) -> Result<QueryReply, ClientError> {
        self.query_plan_inner(plan, deadline_to_ms(deadline), 0, false)
    }

    fn query_plan_inner(
        &mut self,
        plan: &Plan,
        deadline_ms: u32,
        trace_id: u64,
        collect_trace: bool,
    ) -> Result<QueryReply, ClientError> {
        let request = Request::QueryPlan {
            token: self.token.clone(),
            deadline_ms,
            trace_id,
            collect_trace,
            plan: plan.clone(),
        };
        match self.roundtrip(&request)? {
            Response::Reply(reply) => Ok(*reply),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the cumulative [`SessionStats`](obliv_engine::SessionStats)
    /// of this connection's server-side session, together with the
    /// engine-wide result-cache [`CacheStats`](obliv_engine::CacheStats).
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.roundtrip(&Request::Stats {
            token: self.token.clone(),
        })? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch a point-in-time [`MetricsSnapshot`] of the server's (and its
    /// engine's) metrics registry.  Every series is a function of public
    /// parameters or of wall-clock timing — never of table contents — so
    /// polling this probe leaks nothing the protocol does not already.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.roundtrip(&Request::Metrics {
            token: self.token.clone(),
        })? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the registry snapshot and render it as Prometheus-style text
    /// exposition (`# TYPE`/`# CLASS` headers, one `name{labels} value`
    /// line per series, cumulative `_bucket{le=…}` lines for histograms)
    /// — ready to serve to a scraper or dump to a terminal.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        Ok(self.metrics()?.to_prometheus_text())
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        // Oversized input (a query string or plan that cannot fit the
        // request frame) is the caller's error, reported through the
        // Result — never a panic.
        let body = request
            .encode()
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        if body.len() > MAX_REQUEST_FRAME {
            return Err(ClientError::Protocol(format!(
                "request of {} bytes exceeds the {MAX_REQUEST_FRAME}-byte frame bound",
                body.len()
            )));
        }
        write_frame(&mut self.conn, &body, MAX_REQUEST_FRAME)?;
        let body = read_frame(&mut self.conn, MAX_RESPONSE_FRAME)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        match Response::decode(&body)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            response => Ok(response),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("token", &self.token)
            .finish()
    }
}

fn unexpected(response: Response) -> ClientError {
    ClientError::Protocol(format!(
        "unexpected response variant for this request: {response:?}"
    ))
}

/// `deadline_ms` wire encoding of a [`Duration`]: 0 means "no deadline",
/// so sub-millisecond budgets round up to 1 ms; over-wide budgets clamp to
/// `u32::MAX` ms (~49 days — effectively unbounded).
fn deadline_to_ms(deadline: Duration) -> u32 {
    u32::try_from(deadline.as_millis())
        .unwrap_or(u32::MAX)
        .max(1)
}

/// When (and how fast) a [`RetryingClient`] retries.
///
/// Delays follow decorrelated exponential backoff: retry `n` sleeps a
/// deterministic-jittered duration in `[cap/2, cap)` where
/// `cap = base_delay × 2ⁿ⁻¹` (bounded by `max_delay`), never less than the
/// server's own `retry_after_ms` hint when one was given.  Jitter is
/// derived from `seed` and the attempt number, so a failing schedule
/// replays exactly under the same seed — the same property the chaos
/// harness gives the server side.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries including the first (so `1` disables retrying).
    pub max_attempts: u32,
    /// Backoff cap for the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (1-based), honouring the server's
    /// `retry_after` hint as a floor.
    pub fn backoff(&self, attempt: u32, retry_after: Duration) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let cap = self
            .base_delay
            .saturating_mul(1 << doublings)
            .min(self.max_delay)
            .max(Duration::from_micros(1));
        let cap_ns = cap.as_nanos() as u64;
        let jitter_ns = mix64(self.seed ^ u64::from(attempt)) % cap_ns.div_ceil(2);
        Duration::from_nanos(cap_ns / 2 + jitter_ns).max(retry_after)
    }
}

/// Splitmix64 — deterministic jitter without a rand dependency.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The transient-error categories a [`RetryingClient`] retries, as metric
/// label values.  Everything else — protocol violations, typed query
/// errors, auth mismatches — is the caller's bug or decision and fails
/// fast.
const RETRY_CATEGORIES: [&str; 4] = ["io", "timeout", "overloaded", "shutdown"];

/// The retryable category of `error`, or `None` if it must not be retried.
fn transient_category(error: &ClientError) -> Option<&'static str> {
    match error {
        ClientError::Io(_) => Some("io"),
        ClientError::Timeout => Some("timeout"),
        ClientError::Server(e) => match e.kind {
            ErrorKind::Overloaded => Some("overloaded"),
            ErrorKind::Shutdown => Some("shutdown"),
            _ => None,
        },
        ClientError::Protocol(_) => None,
    }
}

/// A [`Client`] wrapper that survives transient failures: connection
/// resets, torn responses, shed load (`Overloaded`), server restarts
/// (`Shutdown`), and configured socket timeouts.
///
/// Reconnection is delegated to the `connect` closure so the wrapper works
/// over TCP and loopback alike; the connection is re-established whenever
/// the previous error left the stream untrustworthy (any transport error
/// or timeout, and `Shutdown` — the server is going away).  `Overloaded`
/// retries reuse the healthy connection after backing off by at least the
/// server's `retry_after_ms` hint.
///
/// ```no_run
/// use obliv_server::{Client, RetryPolicy, RetryingClient};
///
/// let mut client = RetryingClient::new(
///     || Client::connect("127.0.0.1:7787", "tenant-a").map_err(Into::into),
///     RetryPolicy::default(),
/// );
/// let reply = client.query("SCAN orders | AGG count").unwrap();
/// # let _ = reply;
/// ```
pub struct RetryingClient<'a> {
    client: Option<Client>,
    connect: Box<dyn FnMut() -> Result<Client, ClientError> + Send + 'a>,
    policy: RetryPolicy,
    /// `client_retries_total{category=…}`, when a registry was attached.
    retries: Option<Vec<(&'static str, Counter)>>,
}

impl<'a> RetryingClient<'a> {
    /// Wrap `connect` (called for the first connection and after every
    /// reconnect-worthy failure) with `policy`.  The lifetime follows the
    /// closure's borrows: a TCP connector is typically `'static`, while a
    /// test connector may borrow an in-process loopback server.
    pub fn new(
        connect: impl FnMut() -> Result<Client, ClientError> + Send + 'a,
        policy: RetryPolicy,
    ) -> RetryingClient<'a> {
        RetryingClient {
            client: None,
            connect: Box::new(connect),
            policy,
            retries: None,
        }
    }

    /// Record retries into `registry` as `client_retries_total{category=…}`
    /// (`Timing` class: retry counts reflect faults and scheduling, never
    /// table contents).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> RetryingClient<'a> {
        self.retries = Some(
            RETRY_CATEGORIES
                .map(|category| {
                    (
                        category,
                        registry.counter(
                            "client_retries_total",
                            MetricClass::Timing,
                            &[("category", category)],
                        ),
                    )
                })
                .to_vec(),
        );
        self
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// [`Client::query`] with retries.
    pub fn query(&mut self, query: impl Into<String>) -> Result<QueryReply, ClientError> {
        let query = query.into();
        self.run(|client| client.query(query.clone()))
    }

    /// [`Client::query_with_deadline`] with retries.
    pub fn query_with_deadline(
        &mut self,
        query: impl Into<String>,
        deadline: Duration,
    ) -> Result<QueryReply, ClientError> {
        let query = query.into();
        self.run(|client| client.query_with_deadline(query.clone(), deadline))
    }

    /// [`Client::query_traced`] with retries.
    pub fn query_traced(
        &mut self,
        query: impl Into<String>,
        trace_id: u64,
    ) -> Result<QueryReply, ClientError> {
        let query = query.into();
        self.run(|client| client.query_traced(query.clone(), trace_id))
    }

    /// [`Client::explain_analyze`] with retries.
    pub fn explain_analyze(&mut self, query: impl AsRef<str>) -> Result<String, ClientError> {
        let query = query.as_ref();
        self.run(|client| client.explain_analyze(query))
    }

    /// [`Client::query_plan`] with retries.
    pub fn query_plan(&mut self, plan: &Plan) -> Result<QueryReply, ClientError> {
        self.run(|client| client.query_plan(plan))
    }

    /// [`Client::stats`] with retries.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.run(Client::stats)
    }

    /// [`Client::metrics`] with retries.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        self.run(Client::metrics)
    }

    fn run<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            let result = match self.client.as_mut() {
                Some(client) => op(client),
                None => match (self.connect)() {
                    Ok(client) => op(self.client.insert(client)),
                    // A failed connect is itself retryable (server
                    // restarting); it is classified below like any error.
                    Err(e) => Err(e),
                },
            };
            let error = match result {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            attempt += 1;
            let category = match transient_category(&error) {
                Some(category) if attempt < self.policy.max_attempts => category,
                _ => return Err(error),
            };
            // After a transport failure or timeout the stream may be out
            // of sync (a late response would answer the wrong request),
            // and after `Shutdown` the server side is going away: retry
            // those on a fresh connection.  `Overloaded` keeps the
            // healthy connection and just backs off.
            let retry_after = match &error {
                ClientError::Server(e) => Duration::from_millis(e.retry_after_ms.into()),
                _ => Duration::ZERO,
            };
            if !matches!(&error, ClientError::Server(e) if e.kind == ErrorKind::Overloaded) {
                self.client = None;
            }
            if let Some(retries) = &self.retries {
                if let Some((_, counter)) = retries.iter().find(|(c, _)| *c == category) {
                    counter.inc();
                }
            }
            thread::sleep(self.policy.backoff(attempt, retry_after));
        }
    }
}

impl std::fmt::Debug for RetryingClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryingClient")
            .field("connected", &self.client.is_some())
            .field("policy", &self.policy)
            .finish()
    }
}
