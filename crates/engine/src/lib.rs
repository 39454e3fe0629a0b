//! # obliv-engine — a concurrent oblivious query service
//!
//! The rest of this workspace reproduces the Krastnikov–Kerschbaum–Stebila
//! oblivious join and its operator library as one-shot library calls.  This
//! crate is the serving layer a deployment actually runs: it owns a
//! [`Catalog`] of named tables, accepts batches of [`QueryRequest`]s whose
//! plans reference tables *by name*, parses a tiny text query language, and
//! executes many queries concurrently on a worker pool — while preserving,
//! per query, exactly the leakage profile of a serial run.
//!
//! ## Why concurrency does not change the leakage
//!
//! The paper's adversary (§3.1) observes the sequence of public-memory
//! accesses of one program run.  The engine gives every query its own
//! [`Tracer`](obliv_trace::Tracer) and its own buffers; queries share no
//! mutable state, so each query's access stream is byte-for-byte the stream
//! a serial run would produce, and its SHA-256 trace digest (reported in
//! [`QuerySummary`]) is independent of whatever else the pool is running.
//! Scheduling affects throughput, never traces.  The integration tests
//! assert both properties: bit-identical results and digests between
//! [`Engine::execute_serial`] and [`Engine::execute_batch`], and digest
//! invariance between a query running alone and alongside seven others.
//!
//! ## Quick start
//!
//! ```
//! use obliv_engine::{Engine, EngineConfig};
//! use obliv_join::Table;
//!
//! let engine = Engine::new(EngineConfig { workers: 4, ..Default::default() });
//! engine.register_table("orders", Table::from_pairs(vec![(1, 120), (1, 80), (2, 200)])).unwrap();
//! engine.register_table("lineitem", Table::from_pairs(vec![(1, 3), (2, 5)])).unwrap();
//!
//! let responses = engine
//!     .execute_text_batch(&[
//!         "JOIN orders lineitem | FILTER v>=1 | AGG sum",
//!         "SCAN orders | FILTER v>=100",
//!     ])
//!     .unwrap();
//! assert_eq!(responses.len(), 2);
//! for r in &responses {
//!     // 64 hex chars of SHA-256: the query's whole access pattern.
//!     assert_eq!(r.summary.trace_digest.len(), 64);
//! }
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`catalog`] | [`Catalog`], [`TableMeta`] — named tables, public sizes |
//! | [`query`] | [`Plan`], [`QueryRequest`], [`QueryResponse`], [`Rows`], [`QuerySummary`] |
//! | [`planner`] | [`ResolvedPlan`] — type-checking, carry selection, the wide execution tree |
//! | [`frontend`] | [`parse_query`], [`parse_statement`] — the pipeline text language and the `EXPLAIN ANALYZE` verb |
//! | [`executor`] | [`Engine`], [`EngineConfig`], [`CacheStats`] — worker-pool batch execution and the result cache |
//! | [`digest_memo`] | [`DigestMemo`] — trace digests once per public shape, with periodic re-audits |
//! | [`session`] | [`Session`], [`SessionStats`] — per-tenant queues and accounting |
//! | [`shardable`] | [`Shardability`], [`MergeOp`] — can a plan decompose into per-shard subplans? |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod digest_memo;
pub mod error;
pub mod executor;
pub mod frontend;
pub mod planner;
pub(crate) mod pool;
pub mod query;
pub mod session;
pub mod shardable;

pub use catalog::{Catalog, TableMeta};
pub use digest_memo::DigestMemo;
pub use error::EngineError;
pub use executor::{CacheStats, Engine, EngineConfig, QueryExecutor};
pub use frontend::{parse_query, parse_statement, Statement};
pub use planner::ResolvedPlan;
pub use query::{Plan, QueryRequest, QueryResponse, QuerySummary, Rows};
pub use session::{Session, SessionStats};
pub use shardable::{MergeOp, Shardability};
// Telemetry types that appear in the engine's public API (summaries carry
// a `PhaseBreakdown`; `Engine::metrics`/`audit` expose the registry and
// audit ring), re-exported so callers need not depend on obliv-telemetry.
pub use obliv_telemetry::{
    chrome_trace_json, AuditRecord, Histogram, HistogramSnapshot, LeakageAudit, MetricClass,
    MetricValue, MetricsRegistry, MetricsSnapshot, PhaseBreakdown, SlowQueryLog, SlowQueryRecord,
    SpanNode,
};
