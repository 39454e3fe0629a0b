//! Optional trace-sink instrumentation.
//!
//! [`MeteredSink`] wraps any [`TraceSink`] and counts the logical events
//! flowing through it into a registry [`Counter`], without altering what
//! the inner sink observes (runs are delegated, not expanded).  This gives
//! the primitives layer an opt-in event-rate metric with one relaxed
//! atomic add per record.

use obliv_trace::network::gate_count;
use obliv_trace::{AccessKind, ArrayId, BlockOp, SweepOrder, TraceEvent, TraceSink};

use crate::metrics::Counter;

/// A [`TraceSink`] adapter that counts logical events into `events`.
///
/// A coalesced run of `count` accesses counts as `count` events, a hop
/// sweep of `count` hops as `4·count` and a bitonic block as four per gate,
/// matching the per-element semantics of the expanded stream.
#[derive(Debug, Clone)]
pub struct MeteredSink<S> {
    inner: S,
    events: Counter,
}

impl<S: TraceSink> MeteredSink<S> {
    /// Wrap `inner`, counting events into `events`.
    pub fn new(inner: S, events: Counter) -> Self {
        MeteredSink { inner, events }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Borrow the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink> TraceSink for MeteredSink<S> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.events.inc();
        self.inner.record(event);
    }

    #[inline]
    fn record_run(&mut self, kind: AccessKind, array: ArrayId, start: u64, count: u64) {
        self.events.add(count);
        self.inner.record_run(kind, array, start, count);
    }

    #[inline]
    fn record_sweep(&mut self, array: ArrayId, stride: u64, count: u64, order: SweepOrder) {
        self.events.add(4 * count);
        self.inner.record_sweep(array, stride, count, order);
    }

    #[inline]
    fn record_block(&mut self, array: ArrayId, lo: u64, n: u64, descending: bool, op: BlockOp) {
        self.events.add(4 * gate_count(n, op));
        self.inner.record_block(array, lo, n, descending, op);
    }
}

// Re-exported so downstream users of the adapter can build events without
// also depending on obliv-trace directly.
pub use obliv_trace::TraceEvent as Event;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricClass, MetricsRegistry};
    use obliv_trace::{Access, CountingSink, HashingSink};

    #[test]
    fn counts_records_and_runs() {
        let reg = MetricsRegistry::new();
        let counter = reg.counter("trace_events_total", MetricClass::Content, &[]);
        let mut sink = MeteredSink::new(CountingSink::default(), counter);
        sink.record(TraceEvent::Access(Access {
            kind: AccessKind::Read,
            array: ArrayId(1),
            index: 0,
        }));
        sink.record_run(AccessKind::Write, ArrayId(1), 0, 9);
        sink.record_sweep(ArrayId(1), 2, 5, SweepOrder::Descending);
        assert_eq!(reg.snapshot().counter("trace_events_total", &[]), 30);
    }

    #[test]
    fn every_composite_event_reaches_the_inner_sink_unexpanded() {
        // A wrapper that forgot to forward a composite would hand the inner
        // sink the default per-element expansion instead: same accesses,
        // different records, different digest.
        fn stream(sink: &mut impl TraceSink) {
            sink.record(TraceEvent::Alloc {
                array: ArrayId(0),
                len: 80,
            });
            sink.record(TraceEvent::Access(Access::read(ArrayId(0), 3)));
            sink.record_run(AccessKind::Write, ArrayId(0), 2, 9);
            sink.record_sweep(ArrayId(0), 4, 7, SweepOrder::Ascending);
            sink.record_block(ArrayId(0), 16, 40, true, BlockOp::Sort);
            sink.record_block(ArrayId(0), 8, 64, false, BlockOp::Merge);
        }
        let mut bare = HashingSink::new();
        stream(&mut bare);

        let reg = MetricsRegistry::new();
        let counter = reg.counter("trace_events_total", MetricClass::Content, &[]);
        let mut metered = MeteredSink::new(HashingSink::new(), counter);
        stream(&mut metered);

        assert_eq!(metered.inner().digest(), bare.digest());
        assert_eq!(metered.inner().events(), bare.events());
        assert_eq!(metered.inner().records(), 6);
        assert_eq!(
            reg.snapshot().counter("trace_events_total", &[]),
            bare.events()
        );
    }
}
