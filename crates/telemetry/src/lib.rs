//! Leakage-aware observability for the oblivious join stack.
//!
//! An oblivious engine has an unusual constraint on its metrics: everything
//! it exports is visible to the same adversary the execution traces are
//! hardened against, so **every exported value must be a function of public
//! parameters only** — table sizes, plan shapes, padded output bounds,
//! operation counts of data-independent algorithms — never of tuple
//! contents.  Wall-clock durations are the one exception: they are reported
//! for operators (capacity planning needs them) but are segregated into
//! their own [`MetricClass::Timing`] class so that the content-independence
//! contract can be stated, tested, and filtered mechanically.
//!
//! The crate has three parts:
//!
//! | module | what it provides |
//! |---|---|
//! | [`metrics`] | [`MetricsRegistry`]: lock-free counters / gauges / log₂ histograms, stable names + labels, snapshots, Prometheus-style text rendering |
//! | [`span`] | the per-query [`PhaseBreakdown`] (parse → resolve → queue-wait → execute → publish) |
//! | [`spantree`] | [`SpanTree`](SpanNode): hierarchical per-operator span recording, `EXPLAIN ANALYZE` text rendering, Chrome-trace JSON export |
//! | [`audit`] | [`LeakageAudit`]: capped ring of per-query [`AuditRecord`]s (revealed sizes, op counters, carry widths, digest) with JSON export |
//! | [`slowlog`] | [`SlowQueryLog`]: capped ring of [`SlowQueryRecord`]s (canonical plan, public sizes, span tree — never contents) for queries over a wall-time threshold |
//!
//! Registration takes a short-lived internal lock; **updates never lock** —
//! every handle ([`Counter`], [`Gauge`], [`Histogram`]) is an `Arc` of plain
//! atomics, so the hot path is a relaxed atomic RMW.
//!
//! The content-independence contract is enforced by tests at every layer:
//! two runs over different *data* with the same public parameters must
//! produce identical [`MetricsSnapshot::without_timing`] views and identical
//! audit exports, mirroring the existing trace-digest tests.

pub mod audit;
pub mod metrics;
pub mod slowlog;
pub mod span;
pub mod spantree;

pub use audit::{AuditRecord, LeakageAudit};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricClass, MetricSample, MetricValue,
    MetricsRegistry, MetricsSnapshot,
};
pub use slowlog::{SlowQueryLog, SlowQueryRecord};
pub use span::PhaseBreakdown;
pub use spantree::{chrome_trace_json, synthetic_span, SpanNode, SpanRecorder};
