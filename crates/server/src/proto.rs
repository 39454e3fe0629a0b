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
//! of the unified [`Plan`] IR (one tag byte per node, then its fields in
//! the order of the `Plan` field list in this module), depth-limited on
//! decode so a hostile frame cannot recurse the decoder to death.  The `token` names the tenant; the first
//! token on a connection binds its engine session.  `deadline_ms` is the
//! request's time budget in milliseconds from server arrival (`0` = no
//! deadline); the engine checks it at batch admission and at job start,
//! never interrupting a running execution, and the server answers with a
//! typed [`ErrorKind::DeadlineExceeded`] frame when the budget is
//! exhausted.
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
//! span*`, depth-limited on decode like `plan`.  Each
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
/// more than a plan.
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
// Codec
// ---------------------------------------------------------------------------

/// A body failed to decode; carries a human-readable reason that ends up
/// in a [`ErrorKind::Protocol`] error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
    /// The body's version byte is not [`PROTOCOL_VERSION`].
    unsupported_version: bool,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
            unsupported_version: false,
        }
    }

    /// The reason the body was rejected.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame body: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// `true` iff a decode failure is the version check (so the server can
/// answer with [`ErrorKind::UnsupportedVersion`] instead of
/// [`ErrorKind::Protocol`]).
pub fn is_version_error(e: &DecodeError) -> bool {
    e.unsupported_version
}

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
    /// `true` iff `len` fits `max`; otherwise records `what` as the
    /// (first) oversized field.
    fn fits(&mut self, what: &str, len: usize, max: usize) -> bool {
        if len > max && self.overflow.is_none() {
            self.overflow = Some(format!("{what} of {len} exceeds the wire bound of {max}"));
        }
        len <= max
    }

    /// Write `len` as a `u16` length or count; if it does not fit, record
    /// the overflow, write nothing and return `false` so the caller skips
    /// the items.
    fn count16(&mut self, what: &str, len: usize) -> bool {
        let fits = self.fits(what, len, u16::MAX as usize);
        if fits {
            (len as u16).put(self);
        }
        fits
    }

    /// `len:u16be` + raw bytes.
    fn bytes16(&mut self, what: &str, bytes: &[u8]) {
        if self.count16(what, bytes.len()) {
            self.buf.extend_from_slice(bytes);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Nesting level of the recursive value being decoded (the root is 0).
    depth: usize,
}

impl<'a> Reader<'a> {
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

    fn bytes16(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = u16::get(self)? as usize;
        self.take(len)
    }

    /// Decode one level of a recursive value, refusing to go deeper than
    /// `max` levels below the root, so a hostile frame cannot recurse the
    /// decoder to death.
    fn nested<T>(
        &mut self,
        max: usize,
        what: &str,
        get: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        if self.depth > max {
            return Err(DecodeError::new(format!(
                "{what} nests deeper than {max} levels"
            )));
        }
        self.depth += 1;
        let out = get(self);
        self.depth -= 1;
        out
    }
}

/// One type's wire layout: `put` writes it, `get` reads it back.  Every
/// message type states its layout once — as a `wire_struct!` or
/// `wire_enum!` field list, or as one hand-written impl where the layout
/// is not a field list.
trait Wire: Sized {
    /// What an over-long `Vec` of this type is called in the encode error.
    const COUNT: &'static str = "list length";

    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encode one message behind the version byte.
fn encode(message: &impl Wire) -> Result<Vec<u8>, WireError> {
    let mut w = Writer {
        buf: vec![PROTOCOL_VERSION],
        overflow: None,
    };
    message.put(&mut w);
    match w.overflow {
        Some(message) => Err(WireError::new(ErrorKind::FrameTooLarge, message)),
        None => Ok(w.buf),
    }
}

/// Decode one whole body: the version byte, one message, nothing after.
fn decode<T: Wire>(body: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader {
        buf: body,
        pos: 0,
        depth: 0,
    };
    let version = u8::get(&mut r)?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError {
            unsupported_version: true,
            ..DecodeError::new(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            ))
        });
    }
    let message = T::get(&mut r)?;
    if r.pos != body.len() {
        return Err(DecodeError::new(format!(
            "{} trailing bytes after the message",
            body.len() - r.pos
        )));
    }
    Ok(message)
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_be_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_be_bytes(bytes.try_into().expect("took the width")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

/// Two's complement, as a `u64`.
impl Wire for i64 {
    fn put(&self, w: &mut Writer) {
        (*self as u64).put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u64::get(r)? as i64)
    }
}

/// One `0`/`1` byte.
impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        (*self as u8).put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::new(format!("bad bool byte {other}"))),
        }
    }
}

/// As a `u64`.
impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        (*self as u64).put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u64::get(r)? as usize)
    }
}

/// Nanoseconds as a `u64`, saturated.
impl Wire for Duration {
    fn put(&self, w: &mut Writer) {
        (self.as_nanos().min(u64::MAX as u128) as u64).put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Duration::from_nanos(u64::get(r)?))
    }
}

/// `str16`: `len:u16be` UTF-8 bytes.
impl Wire for String {
    // The one list of bare strings on the wire is a projection's columns.
    const COUNT: &'static str = "projection column count";

    fn put(&self, w: &mut Writer) {
        w.bytes16("string field", self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        String::from_utf8(r.bytes16()?.to_vec())
            .map_err(|_| DecodeError::new("string field is not UTF-8"))
    }
}

/// A `0`/`1` flag byte, then the value when `1`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(value) = self {
            value.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            other => Err(DecodeError::new(format!("bad option byte {other}"))),
        }
    }
}

/// `count:u16be` items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        if w.count16(T::COUNT, self.len()) {
            for item in self {
                item.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        (0..u16::get(r)?).map(|_| T::get(r)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::get(r).map(Box::new)
    }
}

/// Wrap a generated `get` body in `Reader::nested` when the type asked
/// for a depth bound.
macro_rules! wire_get {
    ($r:ident, $body:expr) => {
        $body
    };
    ($r:ident, $body:expr, $max:expr, $what:expr) => {
        $r.nested($max, $what, |$r| $body)
    };
}

/// A struct laid out as its fields in wire order.  `nested(max, what)`
/// bounds the decoder's recursion through the type.
macro_rules! wire_struct {
    ($ty:ident $(nested($max:expr, $what:expr))? { $($field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                wire_get!(r, Ok($ty { $($field: Wire::get(r)?),* }) $(, $max, $what)?)
            }
        }
    };
}

/// An enum laid out as one tag byte per variant, then that variant's
/// fields in wire order (tuple fields are named for the field list).
macro_rules! wire_enum {
    ($ty:ident $(nested($max:expr, $what:expr))? {
        $($tag:literal => $variant:ident $(($($tuple:ident),*))? $({$($field:ident),*})?),* $(,)?
    }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                match self {
                    $($ty::$variant $(($($tuple),*))? $({$($field),*})? => {
                        w.buf.push($tag);
                        $($($tuple.put(w);)*)?
                        $($($field.put(w);)*)?
                    })*
                }
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                wire_get!(r, Ok(match u8::get(r)? {
                    $($tag => $ty::$variant
                        $(($(wire_enum!(@get r $tuple)),*))?
                        $({$($field: Wire::get(r)?),*})?,)*
                    other => {
                        let message = format!("unknown {} tag {other}", stringify!($ty));
                        return Err(DecodeError::new(message));
                    }
                }) $(, $max, $what)?)
            }
        }
    };
    (@get $r:ident $tuple:ident) => {
        Wire::get($r)?
    };
}

wire_struct! { OpCounters { comparisons, compare_exchanges, routing_hops, linear_steps } }

wire_struct! { PhaseBreakdown { parse, resolve, queue_wait, execute, publish } }

wire_struct! { QuerySummary {
    trace_digest, trace_events, counters, output_rows, output_row_width, carry_words,
    shard_partitions, phases, wall,
} }

wire_struct! { SessionStats {
    queries, trace_events, output_rows, comparisons, cache_hits, output_bytes, max_carry_words,
    shards,
} }

wire_struct! { CacheStats { hits, misses, evictions, entries, bytes } }

wire_struct! { StatsReply { session, cache, build, uptime_secs, shard_cache_hits } }

wire_enum! { ErrorKind {
    0 => Protocol,
    1 => FrameTooLarge,
    2 => UnsupportedVersion,
    3 => AuthMismatch,
    4 => Query,
    5 => Shutdown,
    6 => Internal,
    7 => DeadlineExceeded,
    8 => Overloaded,
} }

wire_struct! { WireError { kind, retry_after_ms, message } }

wire_enum! { Aggregate { 0 => Count, 1 => Sum, 2 => Min, 3 => Max } }

wire_enum! { JoinAggregate { 0 => CountPairs, 1 => SumLeft, 2 => SumRight, 3 => SumProducts } }

/// A tag byte, then the value: `0 u64`, `1 i64`, `2 bool`, or `3` and a
/// bytes constant as `len:u16be` raw bytes.
impl Wire for Value {
    fn put(&self, w: &mut Writer) {
        match self {
            Value::U64(n) => (0u8, *n).put(w),
            Value::I64(n) => (1u8, *n).put(w),
            Value::Bool(b) => (2u8, *b).put(w),
            Value::Bytes(b) => {
                3u8.put(w);
                w.bytes16("bytes constant", b);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::get(r)? {
            0 => Value::U64(u64::get(r)?),
            1 => Value::I64(i64::get(r)?),
            2 => Value::Bool(bool::get(r)?),
            3 => Value::Bytes(r.bytes16()?.to_vec()),
            other => return Err(DecodeError::new(format!("unknown Value tag {other}"))),
        })
    }
}

wire_enum! { WideCmp { 0 => AtLeast, 1 => Below, 2 => Equals } }

wire_enum! { WidePredicate {
    0 => True,
    1 => Compare { column, cmp, constant },
    2 => InRange { column, lo, hi },
} }

wire_enum! { Plan nested(MAX_PLAN_DEPTH, "plan") {
    0 => Scan(table),
    1 => Filter { predicate, input },
    2 => Project { columns, input },
    3 => Distinct { input },
    4 => UnionAll { left, right },
    5 => Join { left_key, right_key, left, right },
    6 => SemiJoin { left_key, right_key, left, right },
    7 => AntiJoin { left_key, right_key, left, right },
    8 => GroupAggregate { aggregate, column, by, input },
    9 => JoinAggregate { aggregate, left_key, right_key, left_value, right_value, left, right },
} }

/// `ncols:u16be (name:str16 type)*`, each `type` a tag byte — `0` `u64`,
/// `1` `i64`, `2` `bool`, `3 width:u16be` bytes — and validated through
/// [`Schema::new`] on decode.
impl Wire for Schema {
    fn put(&self, w: &mut Writer) {
        if !w.count16("column count", self.len()) {
            return;
        }
        for column in self.columns() {
            w.bytes16("string field", column.name().as_bytes());
            match column.ty() {
                ColumnType::U64 => w.buf.push(0),
                ColumnType::I64 => w.buf.push(1),
                ColumnType::Bool => w.buf.push(2),
                ColumnType::Bytes(width) => {
                    w.buf.push(3);
                    w.count16("bytes column width", width);
                }
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let columns = (0..u16::get(r)?)
            .map(|_| {
                let name = String::get(r)?;
                let ty = match u8::get(r)? {
                    0 => ColumnType::U64,
                    1 => ColumnType::I64,
                    2 => ColumnType::Bool,
                    3 => ColumnType::Bytes(u16::get(r)? as usize),
                    other => {
                        return Err(DecodeError::new(format!("unknown column-type tag {other}")))
                    }
                };
                Ok((name, ty))
            })
            .collect::<Result<Vec<_>, DecodeError>>()?;
        Schema::new(columns)
            .map_err(|e| DecodeError::new(format!("invalid schema on the wire: {e}")))
    }
}

/// The schema, `nrows:u32be`, then the raw fixed-width row bytes.
impl Wire for Rows {
    fn put(&self, w: &mut Writer) {
        let table = self.table();
        table.schema().put(w);
        if w.fits("row count", table.len(), u32::MAX as usize) {
            (table.len() as u32).put(w);
            for row in table.rows() {
                w.buf.extend_from_slice(row);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let schema = Schema::get(r)?;
        let n = u32::get(r)? as usize;
        let data = r.take(n * schema.row_width())?.to_vec();
        Ok(Rows::from_wide(WideTable::from_encoded(
            Arc::new(schema),
            data,
        )))
    }
}

wire_struct! { SpanNode nested(MAX_TRACE_DEPTH, "span tree") {
    name, detail, input_rows, output_rows, output_row_width, counters, total_ns, self_ns, children,
} }

wire_struct! { QueryReply { label, cached, trace_id, summary, rows, trace } }

wire_enum! { MetricClass { 0 => Content, 1 => Timing } }

wire_struct! { HistogramSnapshot { count, sum, buckets } }

wire_enum! { MetricValue { 0 => Counter(v), 1 => Gauge(v), 2 => Histogram(h) } }

wire_struct! { MetricSample { name, class, labels, value } }

/// The one list counted in 32 bits: `nseries:u32be series*`.
impl Wire for MetricsSnapshot {
    fn put(&self, w: &mut Writer) {
        if w.fits("series count", self.samples.len(), u32::MAX as usize) {
            (self.samples.len() as u32).put(w);
            for sample in &self.samples {
                sample.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let nseries = u32::get(r)?;
        let mut samples = Vec::with_capacity(nseries.min(4096) as usize);
        for _ in 0..nseries {
            samples.push(MetricSample::get(r)?);
        }
        Ok(MetricsSnapshot { samples })
    }
}

wire_enum! { Request {
    1 => QueryText { token, deadline_ms, trace_id, collect_trace, query },
    2 => QueryPlan { token, deadline_ms, trace_id, collect_trace, plan },
    3 => Stats { token },
    4 => Metrics { token },
} }

wire_enum! { Response {
    0 => Reply(reply),
    2 => Stats(stats),
    3 => Error(error),
    4 => Metrics(snapshot),
} }

impl Request {
    /// Encode into a frame body.  Fails with a typed
    /// [`ErrorKind::FrameTooLarge`] error when a field does not fit its
    /// wire width (e.g. a query string over 64 KiB).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        encode(self)
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        decode(body)
    }
}

impl Response {
    /// Encode into a frame body.  Fails with a typed
    /// [`ErrorKind::FrameTooLarge`] error when a field does not fit its
    /// wire width; error frames themselves are bounded by construction
    /// and always encode.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        encode(self)
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        decode(body)
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
                    name: "engine_workers".into(),
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
