//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Serving systems in this space treat the request *shapes* on the wire as
//! part of the public leakage surface, so the protocol is deliberately
//! rigid: every message is one length-prefixed frame, every frame length is
//! bounded, and every field is either public by the engine's definition
//! (plans, table names, row counts, digests) or the protected row payload
//! the engine already revealed by answering.  Nothing is compressed and no
//! field is optional, so a frame's size is a function of the same public
//! parameters the trace digest covers.
//!
//! ## Framing
//!
//! ```text
//! frame  := len:u32be body
//! ```
//!
//! `len` counts the body bytes only.  Request frames are bounded by
//! [`MAX_REQUEST_FRAME`] and response frames by [`MAX_RESPONSE_FRAME`]
//! (both enforced on read *before* the body is buffered); an oversized
//! frame is answered with a typed [`ErrorKind::FrameTooLarge`] frame and
//! the connection is closed, because framing cannot be resynchronised with
//! a peer whose declared length cannot be trusted.
//!
//! ## Requests (`version:u8 opcode:u8 …`)
//!
//! ```text
//! 0x01 QUERY_TEXT  token:str16 deadline_ms:u32be trace_id:u64be collect_trace:u8 query:str16
//! 0x02 QUERY_PLAN  token:str16 deadline_ms:u32be trace_id:u64be collect_trace:u8 plan
//! 0x03 STATS       token:str16
//! 0x04 METRICS     token:str16
//! ```
//!
//! `str16` is `len:u16be` UTF-8 bytes.  `plan` is the recursive encoding
//! of the unified [`Plan`] IR (one tag byte per node; see the plan codec
//! in this module), depth-limited on decode so a hostile frame cannot
//! recurse the decoder to death.  The `token` names the tenant; the first
//! token on a connection binds its engine session.  `deadline_ms` is the
//! request's time budget in milliseconds from server arrival (`0` = no
//! deadline); the server enforces it at queue admission and between
//! execution phases, answering with a typed
//! [`ErrorKind::DeadlineExceeded`] frame when the budget is exhausted.
//! The deadline is a client-chosen public parameter, so enforcing it
//! reveals nothing about table contents.  `trace_id` is an opaque
//! client-chosen correlation id echoed back on the matching reply, and
//! `collect_trace` (`0`/`1`) asks the server to attach the query's
//! per-operator span tree to the reply — the engine records the tree
//! either way, the flag only controls serialization, so requesting a
//! trace changes nothing about execution.
//!
//! ## Responses (`version:u8 status:u8 …`)
//!
//! ```text
//! 0x00 OK_REPLY    label:str16 cached:u8 trace_id:u64be summary schema
//!                  rows:u32be rowbytes* has_trace:u8 [span]
//! 0x02 OK_STATS    session:u64be×8 cache:u64be×5 build:str16 uptime_secs:u64be
//!                  nshards:u16be (hits:u64be)*
//! 0x03 ERROR       kind:u8 retry_after_ms:u32be message:str16
//! 0x04 OK_METRICS  nseries:u32be series*
//! ```
//!
//! Every reply carries the **single row representation** of the unified
//! API: the plan's output schema followed by its fixed-width encoded rows
//! (pair-shaped results are simply the degenerate two-`u64`-column
//! schema).  `summary` is the full [`QuerySummary`]: digest (`str16`, 64
//! hex chars), trace events, the four operation counters, output rows,
//! output row width, join carry width, the per-shard partition sizes
//! (`nparts:u16be (name:str16 rows:u64be)*` — empty for a single-engine
//! run), the five
//! [`PhaseBreakdown`] durations
//! (parse/resolve/queue-wait/execute/publish) and wall clock, all
//! durations as nanosecond `u64`s.  `retry_after_ms` is the server's
//! back-off hint (`0` = none): meaningful on
//! [`ErrorKind::Overloaded`] frames, where it is a configured public
//! constant, never a function of load or data.  `schema` is
//! `ncols:u16be (name:str16 type)*` with `type` one of `0` (`u64`), `1`
//! (`i64`), `2` (`bool`), `3 width:u16be` (`bytes[width]`).  `OK_STATS`
//! carries the connection session's [`SessionStats`] followed by the
//! engine-wide result-cache [`CacheStats`], the server's build version
//! string, its uptime in whole seconds, and the backend's per-shard
//! result-cache hit counts (one entry for a plain engine, one per shard
//! for a sharded coordinator).  The reply's `trace_id`
//! echoes the request's; `has_trace` is `0` or `1`, and when `1` a
//! recursive `span` follows: `name:str16 detail:str16 ninputs:u16be
//! (rows:u64be)* output_rows:u64be output_row_width:u64be
//! counters:u64be×4 total_ns:u64be self_ns:u64be nchildren:u16be
//! span*`, depth-limited on decode like the plan codec.  Each
//! `OK_METRICS` `series`
//! is `name:str16 class:u8 nlabels:u16be (key:str16 value:str16)* value`
//! with `value` one of `0 v:u64be` (counter), `1 v:u64be` (gauge,
//! two's-complement `i64`), `2 count:u64be sum:u64be nbuckets:u16be
//! (index:u8 count:u64be)*` (sparse log₂ histogram).  Error messages are
//! truncated to [`MAX_ERROR_MESSAGE`] bytes so an error frame's size is
//! bounded by construction.
//!
//! ## Versioning
//!
//! Protocol **6** (this build) is the sharding revision: `summary` grew
//! the per-shard partition-size list, the `OK_STATS` session block grew
//! the backend's shard count, and `OK_STATS` gained the per-shard
//! result-cache hit list — so a client can see when its queries are
//! answered by a sharded coordinator and what that run revealed.
//! Version 5 was the tracing revision: it added the
//! per-request `trace_id` correlation id and `collect_trace` flag, the
//! optional per-operator span tree on `OK_REPLY`, and the build/uptime
//! block on `OK_STATS`.  Version 4 was the resilience revision
//! (per-request `deadline_ms` budget, `retry_after_ms` hint on error
//! frames, the [`ErrorKind::DeadlineExceeded`] /
//! [`ErrorKind::Overloaded`] categories); version 3 was the
//! observability revision (`METRICS` probe, per-phase durations in
//! `summary`, the cache block in `OK_STATS`); version 2 had introduced
//! the unified plan codec and the schema-carrying reply form.  A request
//! with any other version byte is answered with a typed
//! [`ErrorKind::UnsupportedVersion`] frame naming both versions.

use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Duration;

use obliv_engine::{CacheStats, Plan, QueryResponse, QuerySummary, Rows, SessionStats, SpanNode};
use obliv_join::schema::{ColumnType, Schema, Value, WideTable};
use obliv_operators::{Aggregate, JoinAggregate, WideCmp, WidePredicate};
use obliv_telemetry::{
    HistogramSnapshot, MetricClass, MetricSample, MetricValue, MetricsSnapshot, PhaseBreakdown,
};
use obliv_trace::OpCounters;

/// The one protocol version this build speaks.  A request frame with any
/// other version byte is answered with
/// [`ErrorKind::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u8 = 6;

/// Upper bound on a request frame's body, in bytes.  Requests are plans
/// and tokens — kilobytes at most — so the bound is tight to cap what an
/// unauthenticated peer can make the server buffer.
pub const MAX_REQUEST_FRAME: usize = 64 * 1024;

/// Upper bound on a response frame's body, in bytes (responses carry
/// result rows, so the bound is generous).
pub const MAX_RESPONSE_FRAME: usize = 16 * 1024 * 1024;

/// Error messages are truncated to this many bytes before framing, so
/// every error frame has a small, bounded size.
pub const MAX_ERROR_MESSAGE: usize = 300;

/// Maximum plan-tree depth the decoder will follow.
const MAX_PLAN_DEPTH: usize = 64;

/// Maximum span-tree depth the decoder will follow.  A span tree is the
/// executed plan plus the root `query` span, so it is allowed two levels
/// more than the plan codec.
const MAX_TRACE_DEPTH: usize = MAX_PLAN_DEPTH + 2;

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a text query (parsed by the engine's frontend).
    QueryText {
        /// Tenant/auth token; binds the connection's session on first use.
        token: String,
        /// Time budget in milliseconds from server arrival; `0` = none.
        deadline_ms: u32,
        /// Opaque client-chosen correlation id, echoed on the reply.
        trace_id: u64,
        /// Attach the query's span tree to the reply.  Serialization
        /// only — the engine records the tree either way.
        collect_trace: bool,
        /// The pipeline query text.
        query: String,
    },
    /// Run an already-built [`Plan`].
    QueryPlan {
        /// Tenant/auth token.
        token: String,
        /// Time budget in milliseconds from server arrival; `0` = none.
        deadline_ms: u32,
        /// Opaque client-chosen correlation id, echoed on the reply.
        trace_id: u64,
        /// Attach the query's span tree to the reply.  Serialization
        /// only — the engine records the tree either way.
        collect_trace: bool,
        /// The plan to execute.
        plan: Plan,
    },
    /// Fetch the connection session's cumulative [`SessionStats`] plus
    /// the engine-wide result-cache [`CacheStats`].
    Stats {
        /// Tenant/auth token.
        token: String,
    },
    /// Fetch a point-in-time [`MetricsSnapshot`] of the engine's (and
    /// server's) metrics registry.
    Metrics {
        /// Tenant/auth token.
        token: String,
    },
}

impl Request {
    /// The request's auth token.
    pub fn token(&self) -> &str {
        match self {
            Request::QueryText { token, .. }
            | Request::QueryPlan { token, .. }
            | Request::Stats { token }
            | Request::Metrics { token } => token,
        }
    }
}

/// One answered query: the wire rendering of a
/// [`QueryResponse`] (identical fields; the result rows travel as the
/// output schema plus raw fixed-width row bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// The server-assigned label (`tenant/qN`).
    pub label: String,
    /// Served from the engine's result cache (or deduplicated in-batch).
    pub cached: bool,
    /// The request's correlation id, echoed back verbatim.
    pub trace_id: u64,
    /// The query's leakage and cost accounting, digest included.
    pub summary: QuerySummary,
    /// The result rows under the plan's output schema.
    pub rows: Rows,
    /// The query's per-operator span tree, present when the request set
    /// `collect_trace` (cache hits replay the original execution's tree).
    pub trace: Option<SpanNode>,
}

impl QueryReply {
    /// Build the wire reply out of an engine response, attaching (a copy
    /// of) the shared span tree when the request asked for it.
    pub fn from_response(
        response: QueryResponse,
        trace_id: u64,
        collect_trace: bool,
    ) -> QueryReply {
        QueryReply {
            label: response.label,
            cached: response.cached,
            trace_id,
            summary: response.summary,
            rows: response.rows,
            trace: collect_trace.then(|| response.trace.as_ref().clone()),
        }
    }
}

/// Typed error category of an [`Response::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame could not be decoded (bad opcode, truncated body, …).
    Protocol,
    /// A frame exceeded its size bound; the connection is closed after
    /// this error because framing cannot be resynchronised.
    FrameTooLarge,
    /// The request's version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The request's token does not match the token that bound this
    /// connection's session.
    AuthMismatch,
    /// The engine rejected the query (parse error, unknown table, schema
    /// validation, …); the message carries the engine's rendering.
    Query,
    /// The server is shutting down and no longer executes queries.  A
    /// protocol-v6 kind this server no longer emits (its handlers answer
    /// every admitted query, and shutdown closes connections instead);
    /// kept for wire compatibility and for the retry classification of
    /// clients talking to servers that do emit it.
    Shutdown,
    /// The server failed internally while executing the query (a bug, not
    /// a property of the request); the connection stays usable.
    Internal,
    /// The request's `deadline_ms` budget was exhausted before the query
    /// finished.  The work (if any) was discarded; the connection stays
    /// usable.
    DeadlineExceeded,
    /// The server shed the request at admission because too many requests
    /// were already in flight.  Transient by construction: the error
    /// frame's `retry_after_ms` carries the configured back-off hint.
    Overloaded,
}

impl ErrorKind {
    fn to_wire(self) -> u8 {
        match self {
            ErrorKind::Protocol => 0,
            ErrorKind::FrameTooLarge => 1,
            ErrorKind::UnsupportedVersion => 2,
            ErrorKind::AuthMismatch => 3,
            ErrorKind::Query => 4,
            ErrorKind::Shutdown => 5,
            ErrorKind::Internal => 6,
            ErrorKind::DeadlineExceeded => 7,
            ErrorKind::Overloaded => 8,
        }
    }

    fn from_wire(byte: u8) -> Result<ErrorKind, DecodeError> {
        Ok(match byte {
            0 => ErrorKind::Protocol,
            1 => ErrorKind::FrameTooLarge,
            2 => ErrorKind::UnsupportedVersion,
            3 => ErrorKind::AuthMismatch,
            4 => ErrorKind::Query,
            5 => ErrorKind::Shutdown,
            6 => ErrorKind::Internal,
            7 => ErrorKind::DeadlineExceeded,
            8 => ErrorKind::Overloaded,
            other => return Err(DecodeError::new(format!("unknown error kind {other}"))),
        })
    }
}

/// A typed, bounded-size error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error category.
    pub kind: ErrorKind,
    /// The server's back-off hint in milliseconds (`0` = none).  Set on
    /// [`ErrorKind::Overloaded`] frames to the server's configured
    /// constant; clients honour it in their retry delay.
    pub retry_after_ms: u32,
    /// Human-readable detail, truncated to [`MAX_ERROR_MESSAGE`] bytes.
    pub message: String,
}

impl WireError {
    /// An error frame with its message truncated to the protocol bound
    /// and no retry hint.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> WireError {
        let mut message = message.into();
        if message.len() > MAX_ERROR_MESSAGE {
            let mut end = MAX_ERROR_MESSAGE;
            while !message.is_char_boundary(end) {
                end -= 1;
            }
            message.truncate(end);
        }
        WireError {
            kind,
            retry_after_ms: 0,
            message,
        }
    }

    /// The same error with a back-off hint attached.
    #[must_use]
    pub fn with_retry_after_ms(mut self, retry_after_ms: u32) -> WireError {
        self.retry_after_ms = retry_after_ms;
        self
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

impl std::error::Error for WireError {}

/// The answer to a [`Request::Stats`] probe: the connection session's
/// accounting plus the engine-wide result-cache accounting, so one probe
/// shows both "what did *I* cost" and "what is the shared cache doing".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// The connection session's cumulative per-tenant stats.
    pub session: SessionStats,
    /// The engine-wide result-cache stats (shared across tenants; its
    /// fields are functions of public parameters only).
    pub cache: CacheStats,
    /// The server's build version (its crate version string) — a public
    /// constant of the binary.
    pub build: String,
    /// Whole seconds since the server was constructed.  Timing-adjacent
    /// but a function of wall clock only, never of data.
    pub uptime_secs: u64,
    /// Per-shard result-cache hit counts of the backend, indexed by
    /// shard: one entry for a plain engine, one per shard engine for a
    /// sharded coordinator (whose shard count also appears in
    /// [`SessionStats::shards`]).  Functions of the request stream, like
    /// the cache block.
    pub shard_cache_hits: Vec<u64>,
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An answered query.  Boxed: the reply (summary, schema, rows,
    /// optional span tree) dwarfs the other variants.
    Reply(Box<QueryReply>),
    /// The connection session's cumulative stats plus cache stats.
    Stats(StatsReply),
    /// A registry snapshot.
    Metrics(MetricsSnapshot),
    /// A typed error.
    Error(WireError),
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The declared body length exceeds the applicable bound.  The body
    /// was *not* read; the stream is no longer in sync.
    TooLarge {
        /// The declared body length.
        declared: usize,
        /// The enforced bound.
        max: usize,
    },
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one `len:u32be body` frame — header and body in **one** vectored
/// write, so an unbuffered `TCP_NODELAY` socket gets one `send` and one
/// segment per frame instead of two, and the body is never copied.  Only a
/// short write is followed by more.
///
/// # Panics
///
/// Panics if `body` exceeds `max` — response construction is bounded
/// before encoding, so an oversized outgoing frame is a server bug, not a
/// runtime condition.
pub fn write_frame(w: &mut impl Write, body: &[u8], max: usize) -> io::Result<()> {
    assert!(body.len() <= max, "outgoing frame exceeds its bound");
    let header = (body.len() as u32).to_be_bytes();
    let mut sent = 0;
    while sent < header.len() {
        match w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(&body[sent - header.len()..])?;
    w.flush()
}

/// Read one frame, enforcing the length bound *before* buffering the body.
/// Returns `Ok(None)` on clean end-of-stream (the peer closed between
/// frames).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    // A clean close before any header byte is a normal end of session; a
    // close mid-header is an error.
    match r.read(&mut header) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut header[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => r.read_exact(&mut header)?,
        Err(e) => return Err(e.into()),
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut body = vec![0u8; declared];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// ---------------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------------

/// A body failed to decode; carries a human-readable reason that ends up
/// in a [`ErrorKind::Protocol`] error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl DecodeError {
    fn new(message: impl Into<String>) -> DecodeError {
        DecodeError(message.into())
    }

    /// The reason the body was rejected.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame body: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// An append-only body builder.  Field-size violations (a string or
/// count that does not fit its wire width) are *recorded* rather than
/// panicked on, and surface as a typed [`ErrorKind::FrameTooLarge`] error
/// from `encode` — oversized input is a normal runtime condition for the
/// client library, not a bug.
struct Writer {
    buf: Vec<u8>,
    overflow: Option<String>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            buf: vec![PROTOCOL_VERSION],
            overflow: None,
        }
    }

    fn overflowed(&mut self, what: &str, len: usize, max: usize) {
        if self.overflow.is_none() {
            self.overflow = Some(format!("{what} of {len} exceeds the wire bound of {max}"));
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// `len:u16be` + raw bytes.
    fn str16(&mut self, s: &str) {
        if s.len() > u16::MAX as usize {
            self.overflowed("string field", s.len(), u16::MAX as usize);
            return;
        }
        self.u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn finish(self) -> Result<Vec<u8>, WireError> {
        match self.overflow {
            Some(message) => Err(WireError::new(ErrorKind::FrameTooLarge, message)),
            None => Ok(self.buf),
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::new(format!(
                "truncated body: wanted {n} more bytes, {} left",
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("string field is not UTF-8"))
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::new(format!(
                "{} trailing bytes after the message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decode one `0`/`1` flag byte, naming the field in the error.
fn get_bool(r: &mut Reader<'_>, what: &str) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError::new(format!("bad {what} byte {other}"))),
    }
}

/// Check the leading version byte, separating "not this version" (which
/// gets its own typed error) from garbage.
fn check_version(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        // The caller maps this message prefix onto UnsupportedVersion.
        return Err(DecodeError::new(format!(
            "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    Ok(())
}

/// `true` iff a decode failure is the version check (so the server can
/// answer with [`ErrorKind::UnsupportedVersion`] instead of
/// [`ErrorKind::Protocol`]).
pub fn is_version_error(e: &DecodeError) -> bool {
    e.0.starts_with("unsupported protocol version")
}

// ---------------------------------------------------------------------------
// Plan codec
// ---------------------------------------------------------------------------

fn put_aggregate(w: &mut Writer, a: Aggregate) {
    w.u8(match a {
        Aggregate::Count => 0,
        Aggregate::Sum => 1,
        Aggregate::Min => 2,
        Aggregate::Max => 3,
    });
}

fn get_aggregate(r: &mut Reader<'_>) -> Result<Aggregate, DecodeError> {
    Ok(match r.u8()? {
        0 => Aggregate::Count,
        1 => Aggregate::Sum,
        2 => Aggregate::Min,
        3 => Aggregate::Max,
        other => return Err(DecodeError::new(format!("unknown aggregate tag {other}"))),
    })
}

fn put_join_aggregate(w: &mut Writer, a: JoinAggregate) {
    w.u8(match a {
        JoinAggregate::CountPairs => 0,
        JoinAggregate::SumLeft => 1,
        JoinAggregate::SumRight => 2,
        JoinAggregate::SumProducts => 3,
    });
}

fn get_join_aggregate(r: &mut Reader<'_>) -> Result<JoinAggregate, DecodeError> {
    Ok(match r.u8()? {
        0 => JoinAggregate::CountPairs,
        1 => JoinAggregate::SumLeft,
        2 => JoinAggregate::SumRight,
        3 => JoinAggregate::SumProducts,
        other => {
            return Err(DecodeError::new(format!(
                "unknown join-aggregate tag {other}"
            )))
        }
    })
}

fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::U64(n) => {
            w.u8(0);
            w.u64(*n);
        }
        Value::I64(n) => {
            w.u8(1);
            w.u64(*n as u64);
        }
        Value::Bool(b) => {
            w.u8(2);
            w.u8(*b as u8);
        }
        Value::Bytes(b) => {
            w.u8(3);
            if b.len() > u16::MAX as usize {
                w.overflowed("bytes constant", b.len(), u16::MAX as usize);
                return;
            }
            w.u16(b.len() as u16);
            w.bytes(b);
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    Ok(match r.u8()? {
        0 => Value::U64(r.u64()?),
        1 => Value::I64(r.u64()? as i64),
        2 => Value::Bool(match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(DecodeError::new(format!("bad bool byte {other}"))),
        }),
        3 => {
            let len = r.u16()? as usize;
            Value::Bytes(r.take(len)?.to_vec())
        }
        other => return Err(DecodeError::new(format!("unknown value tag {other}"))),
    })
}

fn put_opt_str(w: &mut Writer, s: &Option<String>) {
    match s {
        Some(name) => {
            w.u8(1);
            w.str16(name);
        }
        None => w.u8(0),
    }
}

fn get_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, DecodeError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(r.str16()?),
        other => return Err(DecodeError::new(format!("bad option byte {other}"))),
    })
}

fn put_predicate(w: &mut Writer, p: &WidePredicate) {
    match p {
        WidePredicate::True => w.u8(0),
        WidePredicate::Compare {
            column,
            cmp,
            constant,
        } => {
            w.u8(1);
            w.str16(column);
            w.u8(match cmp {
                WideCmp::AtLeast => 0,
                WideCmp::Below => 1,
                WideCmp::Equals => 2,
            });
            put_value(w, constant);
        }
        WidePredicate::InRange { column, lo, hi } => {
            w.u8(2);
            w.str16(column);
            put_value(w, lo);
            put_value(w, hi);
        }
    }
}

fn get_predicate(r: &mut Reader<'_>) -> Result<WidePredicate, DecodeError> {
    Ok(match r.u8()? {
        0 => WidePredicate::True,
        1 => {
            let column = r.str16()?;
            let cmp = match r.u8()? {
                0 => WideCmp::AtLeast,
                1 => WideCmp::Below,
                2 => WideCmp::Equals,
                other => return Err(DecodeError::new(format!("unknown comparison tag {other}"))),
            };
            let constant = get_value(r)?;
            WidePredicate::Compare {
                column,
                cmp,
                constant,
            }
        }
        2 => WidePredicate::InRange {
            column: r.str16()?,
            lo: get_value(r)?,
            hi: get_value(r)?,
        },
        other => return Err(DecodeError::new(format!("unknown predicate tag {other}"))),
    })
}

fn put_plan(w: &mut Writer, plan: &Plan) {
    match plan {
        Plan::Scan(name) => {
            w.u8(0);
            w.str16(name);
        }
        Plan::Filter { input, predicate } => {
            w.u8(1);
            put_predicate(w, predicate);
            put_plan(w, input);
        }
        Plan::Project { input, columns } => {
            w.u8(2);
            if columns.len() > u16::MAX as usize {
                w.overflowed("projection column count", columns.len(), u16::MAX as usize);
                return;
            }
            w.u16(columns.len() as u16);
            for column in columns {
                w.str16(column);
            }
            put_plan(w, input);
        }
        Plan::Distinct { input } => {
            w.u8(3);
            put_plan(w, input);
        }
        Plan::UnionAll { left, right } => {
            w.u8(4);
            put_plan(w, left);
            put_plan(w, right);
        }
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            w.u8(5);
            w.str16(left_key);
            w.str16(right_key);
            put_plan(w, left);
            put_plan(w, right);
        }
        Plan::SemiJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            w.u8(6);
            w.str16(left_key);
            w.str16(right_key);
            put_plan(w, left);
            put_plan(w, right);
        }
        Plan::AntiJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            w.u8(7);
            w.str16(left_key);
            w.str16(right_key);
            put_plan(w, left);
            put_plan(w, right);
        }
        Plan::GroupAggregate {
            input,
            aggregate,
            column,
            by,
        } => {
            w.u8(8);
            put_aggregate(w, *aggregate);
            put_opt_str(w, column);
            put_opt_str(w, by);
            put_plan(w, input);
        }
        Plan::JoinAggregate {
            left,
            right,
            left_key,
            right_key,
            left_value,
            right_value,
            aggregate,
        } => {
            w.u8(9);
            put_join_aggregate(w, *aggregate);
            w.str16(left_key);
            w.str16(right_key);
            put_opt_str(w, left_value);
            put_opt_str(w, right_value);
            put_plan(w, left);
            put_plan(w, right);
        }
    }
}

fn get_plan(r: &mut Reader<'_>, depth: usize) -> Result<Plan, DecodeError> {
    if depth > MAX_PLAN_DEPTH {
        return Err(DecodeError::new(format!(
            "plan nests deeper than {MAX_PLAN_DEPTH} operators"
        )));
    }
    let input = |r: &mut Reader<'_>| get_plan(r, depth + 1).map(Box::new);
    Ok(match r.u8()? {
        0 => Plan::Scan(r.str16()?),
        1 => Plan::Filter {
            predicate: get_predicate(r)?,
            input: input(r)?,
        },
        2 => {
            let columns = (0..r.u16()?)
                .map(|_| r.str16())
                .collect::<Result<Vec<_>, _>>()?;
            Plan::Project {
                columns,
                input: input(r)?,
            }
        }
        3 => Plan::Distinct { input: input(r)? },
        4 => Plan::UnionAll {
            left: input(r)?,
            right: input(r)?,
        },
        5 => Plan::Join {
            left_key: r.str16()?,
            right_key: r.str16()?,
            left: input(r)?,
            right: input(r)?,
        },
        6 => Plan::SemiJoin {
            left_key: r.str16()?,
            right_key: r.str16()?,
            left: input(r)?,
            right: input(r)?,
        },
        7 => Plan::AntiJoin {
            left_key: r.str16()?,
            right_key: r.str16()?,
            left: input(r)?,
            right: input(r)?,
        },
        8 => Plan::GroupAggregate {
            aggregate: get_aggregate(r)?,
            column: get_opt_str(r)?,
            by: get_opt_str(r)?,
            input: input(r)?,
        },
        9 => {
            let aggregate = get_join_aggregate(r)?;
            Plan::JoinAggregate {
                left_key: r.str16()?,
                right_key: r.str16()?,
                left_value: get_opt_str(r)?,
                right_value: get_opt_str(r)?,
                left: input(r)?,
                right: input(r)?,
                aggregate,
            }
        }
        other => return Err(DecodeError::new(format!("unknown plan tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Summary / schema / stats codec
// ---------------------------------------------------------------------------

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn put_summary(w: &mut Writer, s: &QuerySummary) {
    w.str16(&s.trace_digest);
    w.u64(s.trace_events);
    w.u64(s.counters.comparisons);
    w.u64(s.counters.compare_exchanges);
    w.u64(s.counters.routing_hops);
    w.u64(s.counters.linear_steps);
    w.u64(s.output_rows as u64);
    w.u64(s.output_row_width as u64);
    w.u64(s.carry_words as u64);
    if s.shard_partitions.len() > u16::MAX as usize {
        w.overflowed(
            "shard partition count",
            s.shard_partitions.len(),
            u16::MAX as usize,
        );
        return;
    }
    w.u16(s.shard_partitions.len() as u16);
    for (name, rows) in &s.shard_partitions {
        w.str16(name);
        w.u64(*rows);
    }
    for phase in s.phases.in_order() {
        w.u64(nanos(phase));
    }
    w.u64(nanos(s.wall));
}

fn get_summary(r: &mut Reader<'_>) -> Result<QuerySummary, DecodeError> {
    Ok(QuerySummary {
        trace_digest: r.str16()?,
        trace_events: r.u64()?,
        counters: OpCounters {
            comparisons: r.u64()?,
            compare_exchanges: r.u64()?,
            routing_hops: r.u64()?,
            linear_steps: r.u64()?,
        },
        output_rows: r.u64()? as usize,
        output_row_width: r.u64()? as usize,
        carry_words: r.u64()? as usize,
        shard_partitions: (0..r.u16()?)
            .map(|_| Ok((r.str16()?, r.u64()?)))
            .collect::<Result<Vec<_>, DecodeError>>()?,
        phases: PhaseBreakdown {
            parse: Duration::from_nanos(r.u64()?),
            resolve: Duration::from_nanos(r.u64()?),
            queue_wait: Duration::from_nanos(r.u64()?),
            execute: Duration::from_nanos(r.u64()?),
            publish: Duration::from_nanos(r.u64()?),
        },
        wall: Duration::from_nanos(r.u64()?),
    })
}

fn put_schema(w: &mut Writer, schema: &Schema) {
    let names = schema.column_names();
    if names.len() > u16::MAX as usize {
        w.overflowed("column count", names.len(), u16::MAX as usize);
        return;
    }
    w.u16(names.len() as u16);
    for name in names {
        let (_, col) = schema.column(name).expect("listed columns exist");
        w.str16(name);
        match col.ty() {
            ColumnType::U64 => w.u8(0),
            ColumnType::I64 => w.u8(1),
            ColumnType::Bool => w.u8(2),
            ColumnType::Bytes(n) => {
                w.u8(3);
                if n > u16::MAX as usize {
                    w.overflowed("bytes column width", n, u16::MAX as usize);
                    return;
                }
                w.u16(n as u16);
            }
        }
    }
}

fn get_schema(r: &mut Reader<'_>) -> Result<Schema, DecodeError> {
    let ncols = r.u16()?;
    let mut columns = Vec::with_capacity(ncols as usize);
    for _ in 0..ncols {
        let name = r.str16()?;
        let ty = match r.u8()? {
            0 => ColumnType::U64,
            1 => ColumnType::I64,
            2 => ColumnType::Bool,
            3 => ColumnType::Bytes(r.u16()? as usize),
            other => return Err(DecodeError::new(format!("unknown column-type tag {other}"))),
        };
        columns.push((name, ty));
    }
    Schema::new(columns).map_err(|e| DecodeError::new(format!("invalid schema on the wire: {e}")))
}

fn put_span(w: &mut Writer, node: &SpanNode) {
    w.str16(&node.name);
    w.str16(&node.detail);
    if node.input_rows.len() > u16::MAX as usize {
        w.overflowed("span input count", node.input_rows.len(), u16::MAX as usize);
        return;
    }
    w.u16(node.input_rows.len() as u16);
    for rows in &node.input_rows {
        w.u64(*rows);
    }
    w.u64(node.output_rows);
    w.u64(node.output_row_width);
    w.u64(node.counters.comparisons);
    w.u64(node.counters.compare_exchanges);
    w.u64(node.counters.routing_hops);
    w.u64(node.counters.linear_steps);
    w.u64(node.total_ns);
    w.u64(node.self_ns);
    if node.children.len() > u16::MAX as usize {
        w.overflowed("span child count", node.children.len(), u16::MAX as usize);
        return;
    }
    w.u16(node.children.len() as u16);
    for child in &node.children {
        put_span(w, child);
    }
}

fn get_span(r: &mut Reader<'_>, depth: usize) -> Result<SpanNode, DecodeError> {
    if depth > MAX_TRACE_DEPTH {
        return Err(DecodeError::new(format!(
            "span tree nests deeper than {MAX_TRACE_DEPTH} spans"
        )));
    }
    let name = r.str16()?;
    let detail = r.str16()?;
    let input_rows = (0..r.u16()?)
        .map(|_| r.u64())
        .collect::<Result<Vec<_>, _>>()?;
    let output_rows = r.u64()?;
    let output_row_width = r.u64()?;
    let counters = OpCounters {
        comparisons: r.u64()?,
        compare_exchanges: r.u64()?,
        routing_hops: r.u64()?,
        linear_steps: r.u64()?,
    };
    let total_ns = r.u64()?;
    let self_ns = r.u64()?;
    let children = (0..r.u16()?)
        .map(|_| get_span(r, depth + 1))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SpanNode {
        name,
        detail,
        input_rows,
        output_rows,
        output_row_width,
        counters,
        total_ns,
        self_ns,
        children,
    })
}

fn put_stats(w: &mut Writer, s: &StatsReply) {
    w.u64(s.session.queries);
    w.u64(s.session.trace_events);
    w.u64(s.session.output_rows);
    w.u64(s.session.comparisons);
    w.u64(s.session.cache_hits);
    w.u64(s.session.output_bytes);
    w.u64(s.session.max_carry_words);
    w.u64(s.session.shards);
    w.u64(s.cache.hits);
    w.u64(s.cache.misses);
    w.u64(s.cache.evictions);
    w.u64(s.cache.entries);
    w.u64(s.cache.bytes);
    w.str16(&s.build);
    w.u64(s.uptime_secs);
    if s.shard_cache_hits.len() > u16::MAX as usize {
        w.overflowed("shard count", s.shard_cache_hits.len(), u16::MAX as usize);
        return;
    }
    w.u16(s.shard_cache_hits.len() as u16);
    for hits in &s.shard_cache_hits {
        w.u64(*hits);
    }
}

fn get_stats(r: &mut Reader<'_>) -> Result<StatsReply, DecodeError> {
    Ok(StatsReply {
        session: SessionStats {
            queries: r.u64()?,
            trace_events: r.u64()?,
            output_rows: r.u64()?,
            comparisons: r.u64()?,
            cache_hits: r.u64()?,
            output_bytes: r.u64()?,
            max_carry_words: r.u64()?,
            shards: r.u64()?,
        },
        cache: CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            entries: r.u64()?,
            bytes: r.u64()?,
        },
        build: r.str16()?,
        uptime_secs: r.u64()?,
        shard_cache_hits: (0..r.u16()?)
            .map(|_| r.u64())
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn put_metrics(w: &mut Writer, snapshot: &MetricsSnapshot) {
    if snapshot.samples.len() > u32::MAX as usize {
        w.overflowed("series count", snapshot.samples.len(), u32::MAX as usize);
        return;
    }
    w.u32(snapshot.samples.len() as u32);
    for sample in &snapshot.samples {
        w.str16(&sample.name);
        w.u8(match sample.class {
            MetricClass::Content => 0,
            MetricClass::Timing => 1,
        });
        if sample.labels.len() > u16::MAX as usize {
            w.overflowed("label count", sample.labels.len(), u16::MAX as usize);
            return;
        }
        w.u16(sample.labels.len() as u16);
        for (key, value) in &sample.labels {
            w.str16(key);
            w.str16(value);
        }
        match &sample.value {
            MetricValue::Counter(v) => {
                w.u8(0);
                w.u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.u8(1);
                w.u64(*v as u64);
            }
            MetricValue::Histogram(h) => {
                w.u8(2);
                w.u64(h.count);
                w.u64(h.sum);
                // At most one cell per power of two: always fits u16.
                w.u16(h.buckets.len() as u16);
                for (index, count) in &h.buckets {
                    w.u8(*index);
                    w.u64(*count);
                }
            }
        }
    }
}

fn get_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, DecodeError> {
    let nseries = r.u32()?;
    let mut samples = Vec::with_capacity(nseries.min(4096) as usize);
    for _ in 0..nseries {
        let name = r.str16()?;
        let class = match r.u8()? {
            0 => MetricClass::Content,
            1 => MetricClass::Timing,
            other => return Err(DecodeError::new(format!("unknown metric class {other}"))),
        };
        let labels = (0..r.u16()?)
            .map(|_| Ok((r.str16()?, r.str16()?)))
            .collect::<Result<Vec<_>, DecodeError>>()?;
        let value = match r.u8()? {
            0 => MetricValue::Counter(r.u64()?),
            1 => MetricValue::Gauge(r.u64()? as i64),
            2 => {
                let count = r.u64()?;
                let sum = r.u64()?;
                let buckets = (0..r.u16()?)
                    .map(|_| Ok((r.u8()?, r.u64()?)))
                    .collect::<Result<Vec<_>, DecodeError>>()?;
                MetricValue::Histogram(HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                })
            }
            other => {
                return Err(DecodeError::new(format!(
                    "unknown metric value tag {other}"
                )))
            }
        };
        samples.push(MetricSample {
            name,
            labels,
            class,
            value,
        });
    }
    Ok(MetricsSnapshot { samples })
}

// ---------------------------------------------------------------------------
// Top-level encode/decode
// ---------------------------------------------------------------------------

impl Request {
    /// Encode into a frame body.  Fails with a typed
    /// [`ErrorKind::FrameTooLarge`] error when a field does not fit its
    /// wire width (e.g. a query string over 64 KiB).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::new();
        match self {
            Request::QueryText {
                token,
                deadline_ms,
                trace_id,
                collect_trace,
                query,
            } => {
                w.u8(1);
                w.str16(token);
                w.u32(*deadline_ms);
                w.u64(*trace_id);
                w.u8(*collect_trace as u8);
                w.str16(query);
            }
            Request::QueryPlan {
                token,
                deadline_ms,
                trace_id,
                collect_trace,
                plan,
            } => {
                w.u8(2);
                w.str16(token);
                w.u32(*deadline_ms);
                w.u64(*trace_id);
                w.u8(*collect_trace as u8);
                put_plan(&mut w, plan);
            }
            Request::Stats { token } => {
                w.u8(3);
                w.str16(token);
            }
            Request::Metrics { token } => {
                w.u8(4);
                w.str16(token);
            }
        }
        w.finish()
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Reader::new(body);
        check_version(&mut r)?;
        let request = match r.u8()? {
            1 => Request::QueryText {
                token: r.str16()?,
                deadline_ms: r.u32()?,
                trace_id: r.u64()?,
                collect_trace: get_bool(&mut r, "collect_trace")?,
                query: r.str16()?,
            },
            2 => Request::QueryPlan {
                token: r.str16()?,
                deadline_ms: r.u32()?,
                trace_id: r.u64()?,
                collect_trace: get_bool(&mut r, "collect_trace")?,
                plan: get_plan(&mut r, 0)?,
            },
            3 => Request::Stats { token: r.str16()? },
            4 => Request::Metrics { token: r.str16()? },
            other => return Err(DecodeError::new(format!("unknown request opcode {other}"))),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encode into a frame body.  Fails with a typed
    /// [`ErrorKind::FrameTooLarge`] error when a field does not fit its
    /// wire width; error frames themselves are bounded by construction
    /// and always encode.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::new();
        match self {
            Response::Reply(reply) => {
                w.u8(0);
                w.str16(&reply.label);
                w.u8(reply.cached as u8);
                w.u64(reply.trace_id);
                put_summary(&mut w, &reply.summary);
                let table = reply.rows.table();
                put_schema(&mut w, table.schema());
                w.u32(table.len() as u32);
                for row in table.rows() {
                    w.bytes(row);
                }
                match &reply.trace {
                    Some(trace) => {
                        w.u8(1);
                        put_span(&mut w, trace);
                    }
                    None => w.u8(0),
                }
            }
            Response::Stats(stats) => {
                w.u8(2);
                put_stats(&mut w, stats);
            }
            Response::Error(error) => {
                w.u8(3);
                w.u8(error.kind.to_wire());
                w.u32(error.retry_after_ms);
                w.str16(&error.message);
            }
            Response::Metrics(snapshot) => {
                w.u8(4);
                put_metrics(&mut w, snapshot);
            }
        }
        w.finish()
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Reader::new(body);
        check_version(&mut r)?;
        let status = r.u8()?;
        let response = match status {
            0 => {
                let label = r.str16()?;
                let cached = get_bool(&mut r, "cached")?;
                let trace_id = r.u64()?;
                let summary = get_summary(&mut r)?;
                let schema = get_schema(&mut r)?;
                let n = r.u32()? as usize;
                let data = r.take(n * schema.row_width())?.to_vec();
                let trace = match get_bool(&mut r, "has_trace")? {
                    true => Some(get_span(&mut r, 0)?),
                    false => None,
                };
                Response::Reply(Box::new(QueryReply {
                    label,
                    cached,
                    trace_id,
                    summary,
                    rows: Rows::from_wide(WideTable::from_encoded(Arc::new(schema), data)),
                    trace,
                }))
            }
            2 => Response::Stats(get_stats(&mut r)?),
            3 => Response::Error(WireError {
                kind: ErrorKind::from_wire(r.u8()?)?,
                retry_after_ms: r.u32()?,
                message: r.str16()?,
            }),
            4 => Response::Metrics(get_metrics(&mut r)?),
            other => return Err(DecodeError::new(format!("unknown response status {other}"))),
        };
        r.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_engine::parse_query;

    fn roundtrip_request(request: Request) {
        let body = request.encode().unwrap();
        assert_eq!(Request::decode(&body).unwrap(), request);
    }

    fn roundtrip_response(response: Response) {
        let body = response.encode().unwrap();
        assert_eq!(Response::decode(&body).unwrap(), response);
    }

    fn summary() -> QuerySummary {
        QuerySummary {
            trace_digest: "ab".repeat(32),
            trace_events: 12345,
            counters: OpCounters {
                comparisons: 1,
                compare_exchanges: 2,
                routing_hops: 3,
                linear_steps: 4,
            },
            output_rows: 2,
            output_row_width: 16,
            carry_words: 1,
            shard_partitions: vec![
                ("orders@shard0".into(), 1024),
                ("orders@shard1".into(), 1024),
            ],
            phases: PhaseBreakdown {
                parse: Duration::from_nanos(11),
                resolve: Duration::from_nanos(22),
                queue_wait: Duration::from_micros(33),
                execute: Duration::from_micros(440),
                publish: Duration::from_nanos(55),
            },
            wall: Duration::from_micros(817),
        }
    }

    fn span_tree() -> SpanNode {
        let scan = SpanNode {
            name: "scan".into(),
            detail: "orders".into(),
            input_rows: vec![],
            output_rows: 32,
            output_row_width: 16,
            counters: OpCounters::default(),
            total_ns: 1_000,
            self_ns: 1_000,
            children: vec![],
        };
        let join = SpanNode {
            name: "join".into(),
            detail: "o_key=o_key".into(),
            input_rows: vec![32, 16],
            output_rows: 48,
            output_row_width: 24,
            counters: OpCounters {
                comparisons: 100,
                compare_exchanges: 50,
                routing_hops: 25,
                linear_steps: 200,
            },
            total_ns: 9_000,
            self_ns: 7_000,
            children: vec![scan.clone(), scan],
        };
        SpanNode {
            name: "query".into(),
            detail: String::new(),
            input_rows: vec![],
            output_rows: 48,
            output_row_width: 24,
            counters: OpCounters {
                comparisons: 100,
                compare_exchanges: 50,
                routing_hops: 25,
                linear_steps: 200,
            },
            total_ns: 10_000,
            self_ns: 1_000,
            children: vec![join],
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Stats {
            token: "acme".into(),
        });
        roundtrip_request(Request::QueryText {
            token: "acme".into(),
            deadline_ms: 0,
            trace_id: 0,
            collect_trace: false,
            query: "JOIN orders lineitem ON o_key | FILTER price>=100 | AGG sum(qty)".into(),
        });
        // A nonzero deadline budget, correlation id and trace flag cross
        // the wire intact.
        roundtrip_request(Request::QueryText {
            token: "acme".into(),
            deadline_ms: 2_500,
            trace_id: 0xdead_beef_cafe_f00d,
            collect_trace: true,
            query: "SCAN orders | AGG count".into(),
        });
        // Every plan node and parameter type crosses the wire intact,
        // including projections, range filters and bytes constants.
        for text in [
            "SCAN t | FILTER k in 3..9 | DISTINCT | SWAP | JOIN u key-left | SEMIJOIN v \
             | ANTIJOIN w | UNION x | JOINAGG y sumleft | AGG max",
            "JOIN a b left-right | FILTER v>=100",
            "JOINAGG a b sumproducts",
            "JOIN orders lineitem ON o_key=l_key | FILTER region=\"east\" | FILTER tax<-2 \
             | AGG sum(qty) BY o_key",
            "SCAN t | FILTER urgent=true | AGG count",
            "JOIN orders lineitem ON o_key | PROJECT o_key,price,qty | DISTINCT | UNION extra",
            "SEMIJOIN a b ON k=j | FILTER price in 10..99",
        ] {
            roundtrip_request(Request::QueryPlan {
                token: "t0".into(),
                deadline_ms: 750,
                trace_id: 7,
                collect_trace: true,
                plan: parse_query(text).unwrap(),
            });
        }
    }

    #[test]
    fn responses_roundtrip() {
        // The degenerate pair shape travels as the two-u64-column schema.
        let pair = Rows::from_wide(
            WideTable::from_rows(
                Schema::pair(),
                [
                    vec![Value::U64(1), Value::U64(10)],
                    vec![Value::U64(2), Value::U64(20)],
                ],
            )
            .unwrap(),
        );
        roundtrip_response(Response::Reply(Box::new(QueryReply {
            label: "acme/q0".into(),
            cached: true,
            trace_id: 99,
            summary: summary(),
            rows: pair,
            trace: None,
        })));
        let schema = Schema::new([
            ("k", ColumnType::U64),
            ("p", ColumnType::I64),
            ("u", ColumnType::Bool),
            ("tag", ColumnType::Bytes(4)),
        ])
        .unwrap();
        let table = WideTable::from_rows(
            schema,
            [
                vec![
                    Value::U64(1),
                    Value::I64(-5),
                    Value::Bool(true),
                    Value::Bytes(b"east".to_vec()),
                ],
                vec![
                    Value::U64(2),
                    Value::I64(7),
                    Value::Bool(false),
                    Value::Bytes(b"west".to_vec()),
                ],
            ],
        )
        .unwrap();
        // A reply carrying a full span tree (nested children, counters,
        // multi-input spans) round-trips field-for-field.
        roundtrip_response(Response::Reply(Box::new(QueryReply {
            label: "acme/q1".into(),
            cached: false,
            trace_id: u64::MAX,
            summary: summary(),
            rows: Rows::from_wide(table),
            trace: Some(span_tree()),
        })));
        roundtrip_response(Response::Stats(StatsReply {
            session: SessionStats {
                queries: 4,
                trace_events: 10,
                output_rows: 6,
                comparisons: 3,
                cache_hits: 1,
                output_bytes: 96,
                max_carry_words: 3,
                shards: 4,
            },
            cache: CacheStats {
                hits: 2,
                misses: 5,
                evictions: 1,
                entries: 4,
                bytes: 4096,
            },
            build: "0.1.0".into(),
            uptime_secs: 86_401,
            shard_cache_hits: vec![2, 0, 1, 3],
        }));
        roundtrip_response(Response::Error(WireError::new(
            ErrorKind::Query,
            "unknown table `ghost`",
        )));
        // The resilience error kinds and the back-off hint round-trip too.
        roundtrip_response(Response::Error(
            WireError::new(ErrorKind::Overloaded, "shedding load").with_retry_after_ms(50),
        ));
        roundtrip_response(Response::Error(WireError::new(
            ErrorKind::DeadlineExceeded,
            "deadline of 250ms exhausted in queue",
        )));
    }

    #[test]
    fn metrics_snapshots_roundtrip() {
        roundtrip_request(Request::Metrics {
            token: "acme".into(),
        });
        // Empty snapshot and every value kind, including a sparse
        // histogram, labelled series and a negative gauge.
        roundtrip_response(Response::Metrics(MetricsSnapshot::default()));
        let snapshot = MetricsSnapshot {
            samples: vec![
                MetricSample {
                    name: "engine_queries_total".into(),
                    labels: vec![("result".into(), "executed".into())],
                    class: MetricClass::Content,
                    value: MetricValue::Counter(42),
                },
                MetricSample {
                    name: "engine_batch_requests".into(),
                    labels: vec![],
                    class: MetricClass::Timing,
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 9,
                        sum: 31,
                        buckets: vec![(0, 1), (2, 3), (64, 5)],
                    }),
                },
                MetricSample {
                    name: "engine_pool_queue_depth".into(),
                    labels: vec![],
                    class: MetricClass::Content,
                    value: MetricValue::Gauge(-7),
                },
            ],
        };
        roundtrip_response(Response::Metrics(snapshot));
    }

    #[test]
    fn error_messages_are_bounded() {
        let e = WireError::new(ErrorKind::Protocol, "x".repeat(10_000));
        assert_eq!(e.message.len(), MAX_ERROR_MESSAGE);
        let body = Response::Error(e).encode().unwrap();
        assert!(body.len() < MAX_ERROR_MESSAGE + 16);
    }

    #[test]
    fn malformed_bodies_are_typed_errors_not_panics() {
        // Empty, truncated, bad opcode, bad tags, trailing garbage.
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[PROTOCOL_VERSION]).is_err());
        assert!(Request::decode(&[PROTOCOL_VERSION, 99]).is_err());
        assert!(Response::decode(&[PROTOCOL_VERSION, 99]).is_err());
        let mut ok = Request::Stats { token: "t".into() }.encode().unwrap();
        ok.push(0);
        let err = Request::decode(&ok).unwrap_err();
        assert!(err.message().contains("trailing"));
        // A version mismatch is distinguishable from garbage — in
        // particular the previous protocol versions are answered with a
        // typed version error, not a parse error.
        for old in [1u8, 2, 3, 4, 5] {
            let versioned = Request::decode(&[old, 1]).unwrap_err();
            assert!(is_version_error(&versioned));
            assert!(versioned.message().contains("this build speaks 6"));
        }
        assert!(!is_version_error(&err));
    }

    #[test]
    fn plan_depth_is_bounded_on_decode() {
        // 1000 nested DISTINCT nodes around a scan: encodes fine, decode
        // refuses at the depth bound.
        let mut plan = Plan::scan("t");
        for _ in 0..1000 {
            plan = plan.distinct();
        }
        let body = Request::QueryPlan {
            token: "t".into(),
            deadline_ms: 0,
            trace_id: 0,
            collect_trace: false,
            plan,
        }
        .encode()
        .unwrap();
        let err = Request::decode(&body).unwrap_err();
        assert!(err.message().contains("deeper"));
    }

    #[test]
    fn span_depth_is_bounded_on_decode() {
        // A 1000-deep chain of spans encodes fine; decode refuses at the
        // trace depth bound.
        let mut trace = span_tree();
        for _ in 0..1000 {
            let mut parent = span_tree();
            parent.children = vec![trace];
            trace = parent;
        }
        let body = Response::Reply(Box::new(QueryReply {
            label: "acme/q0".into(),
            cached: false,
            trace_id: 0,
            summary: summary(),
            rows: Rows::from_wide(
                WideTable::from_rows(Schema::pair(), [vec![Value::U64(1), Value::U64(10)]])
                    .unwrap(),
            ),
            trace: Some(trace),
        }))
        .encode()
        .unwrap();
        let err = Response::decode(&body).unwrap_err();
        assert!(err.message().contains("deeper"));
    }

    #[test]
    fn oversized_fields_fail_encode_instead_of_panicking() {
        let err = Request::QueryText {
            token: "t".into(),
            deadline_ms: 0,
            trace_id: 0,
            collect_trace: false,
            query: "x".repeat(70_000),
        }
        .encode()
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::FrameTooLarge);
        assert!(err.message.contains("string field"));

        let err = Request::QueryPlan {
            token: "t".into(),
            deadline_ms: 0,
            trace_id: 0,
            collect_trace: false,
            plan: Plan::scan("t").filter(WidePredicate::equals(
                "tag",
                Value::Bytes(vec![0x41; 70_000]),
            )),
        }
        .encode()
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::FrameTooLarge);
        assert!(err.message.contains("bytes constant"));
    }

    #[test]
    fn frames_roundtrip_and_enforce_bounds() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 16).unwrap();
        let mut cursor = io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor, 16).unwrap().unwrap(), b"hello");
        // Clean EOF between frames.
        assert!(read_frame(&mut cursor, 16).unwrap().is_none());
        // Oversized declared length is rejected before buffering.
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor, 4) {
            Err(FrameError::TooLarge {
                declared: 5,
                max: 4,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    /// A writer that takes at most `cap` bytes per call and counts calls.
    struct Throttled {
        cap: usize,
        calls: usize,
        got: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.got.len();
            for buf in bufs {
                let room = self.cap - (self.got.len() - before);
                self.got.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_short_writes_lose_nothing() {
        let body: Vec<u8> = (0..=255).collect();
        let mut framed = (body.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&body);
        for (cap, calls) in [
            (usize::MAX, 1),
            (1, framed.len()),
            (3, framed.len().div_ceil(3)),
        ] {
            let mut w = Throttled {
                cap,
                calls: 0,
                got: Vec::new(),
            };
            write_frame(&mut w, &body, 1024).unwrap();
            assert_eq!(w.got, framed, "cap {cap}");
            assert_eq!(w.calls, calls, "cap {cap}");
        }
    }
}
