//! # obliv-server — a persistent network front door for the oblivious
//! query engine
//!
//! The engine ([`obliv_engine`]) executes concurrent oblivious batches
//! with per-query leakage digests, but on its own it is only reachable by
//! in-process callers.  This crate is the service boundary a deployment
//! exposes: a versioned, length-prefixed binary wire protocol
//! ([`proto`]), a TCP (and in-memory loopback) connection server
//! ([`Server`]) that maps connections to engine
//! [`Session`](obliv_engine::Session)s and executes each connection's
//! requests on that connection's handler thread, and a blocking
//! [`Client`] library.
//!
//! Everything is `std`-only — no async runtime: a connection has at most
//! one request in flight, and its handler thread executes it as a
//! one-request engine batch (a result-cache hit and a cold execution
//! alike) and frames the answer.
//!
//! ## What the protocol does and does not leak
//!
//! The paper's adversary already observes every public-memory access of a
//! query's execution; the server is designed to add *nothing new* to that
//! surface:
//!
//! * Frames carry plans, table names, digests, row counts and result rows
//!   — all either public by the engine's definition or already revealed
//!   by answering the query.  Frame sizes are functions of those same
//!   public parameters (fixed-width rows, bounded error messages, no
//!   compression).
//! * Scheduling cannot perturb digests: every query still runs on its own
//!   tracer, so a response's `trace_digest` over TCP is bit-identical to
//!   an in-process run of the same plan (asserted end-to-end in this
//!   crate's integration tests).
//! * What the transport *does* reveal — who asked, when, and how often —
//!   is outside the paper's model, exactly as in ObliDB-style enclave
//!   services; see `crates/server/README.md` for the full accounting.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use obliv_engine::{Engine, EngineConfig};
//! use obliv_join::Table;
//! use obliv_server::{Client, Server, ServerConfig};
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! engine.register_table("orders", Table::from_pairs(vec![(1, 120), (2, 80)])).unwrap();
//!
//! // TCP on an ephemeral port; `connect_loopback` would avoid sockets.
//! let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr().unwrap(), "tenant-a").unwrap();
//!
//! let reply = client.query("SCAN orders | FILTER v>=100").unwrap();
//! assert_eq!(reply.summary.output_rows, 1);
//! assert_eq!(reply.summary.trace_digest.len(), 64);
//!
//! drop(client);
//! server.shutdown();
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`proto`] | frame format, request/response codecs, typed error frames |
//! | [`transport`] | the [`transport::Connection`] trait, TCP, in-memory [`transport::loopback`] |
//! | [`server`] | [`Server`], [`ServerConfig`] — accept loop, sessions, per-connection handlers |
//! | [`client`] | [`Client`], [`ClientError`], [`RetryingClient`] — the blocking client library |
//!
//! ## Resilience
//!
//! Requests may carry a `deadline_ms` budget (enforced server-side with
//! typed [`ErrorKind::DeadlineExceeded`] frames), the server sheds load
//! past [`ServerConfig::max_in_flight`] with typed [`ErrorKind::Overloaded`]
//! frames carrying a `retry_after_ms` hint, and [`RetryingClient`] retries
//! exactly the transient error categories with seeded exponential backoff.
//! The whole stack is exercised by a deterministic fault-injection harness
//! (the `obliv-chaos` crate; see `tests/chaos.rs`) which also asserts that
//! faults never perturb `Content`-class metrics or audit exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod transport;

pub use client::{Client, ClientError, RetryPolicy, RetryingClient};
pub use proto::{
    ErrorKind, QueryReply, Request, Response, StatsReply, WireError, MAX_REQUEST_FRAME,
    MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
pub use transport::{loopback, Connection, PipeStream};
