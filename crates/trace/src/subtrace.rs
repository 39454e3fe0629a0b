//! Buffered per-partition trace fragments for intra-query parallelism.
//!
//! A parallel driver splits one oblivious pass (a gate run of the sorting
//! network, or an elementwise read-modify-write sweep) into disjoint range
//! partitions and executes them concurrently.  Workers cannot record into
//! the [`Tracer`](crate::Tracer) directly — it is deliberately
//! single-threaded (`Rc` state), because the adversary observes *one*
//! interleaved access stream — so each partition records its accesses into
//! an owned, `Send` [`SubTrace`] instead.  After the fork-join barrier the
//! coordinating thread folds the partitions back, **in schedule order**,
//! with [`Tracer::fold_subtraces`](crate::Tracer::fold_subtraces): adjacent
//! contiguous fragments coalesce into exactly the whole-pass events the
//! serial driver would have emitted, so the resulting trace — and therefore
//! any digest over it — is bit-identical to the serial walk.
//!
//! The parallel bitonic *sort* does not record fragments: its trace is the
//! serial driver's walk of the network, replayed after the last wave (see
//! `obliv_primitives::sort::bitonic`).  Fragments serve the partitioned
//! elementwise passes, and [`SubEvent::Exchange`] any driver that splits a
//! single gate run — which is also how `obliv-verify` shows that a
//! misordered fold is caught.
//!
//! The events are *composite* on purpose: a partition records "the gates
//! `(lo+g, lo+stride+g)` for `g < count`" as one [`SubEvent::Exchange`]
//! rather than `4·count` individual accesses.  Composites carry enough
//! structure for the fold to verify contiguity — a misordered fold fails to
//! coalesce, emits a different event sequence, and is caught by the
//! obliviousness checkers (the digest diverges from the serial reference).

use crate::counters::OpCounters;

/// One composite access event recorded by a partition.
///
/// Positions are absolute indices into the partitioned array, so folding
/// needs no per-partition offset bookkeeping: two fragments are adjacent
/// exactly when their absolute ranges are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubEvent {
    /// A run of compare-exchange gates `(lo + g, lo + stride + g)` for
    /// `g < count`: the partition read and wrote both strided windows.
    Exchange {
        /// First gate's lower position.
        lo: u64,
        /// Distance between the two positions of every gate.
        stride: u64,
        /// Number of gates.
        count: u64,
    },
    /// An elementwise read-modify-write sweep of `[start, start + count)`.
    Rw {
        /// First element of the swept window.
        start: u64,
        /// Number of elements swept.
        count: u64,
    },
}

/// The trace fragment recorded by one partition of a parallel pass:
/// composite access events plus the operation-counter deltas the partition
/// accumulated.  `SubTrace` is plain owned data (`Send`), so partitions can
/// run on pool workers and ship their fragments back across threads.
#[derive(Debug, Clone, Default)]
pub struct SubTrace {
    events: Vec<SubEvent>,
    counters: OpCounters,
}

impl SubTrace {
    /// An empty fragment.
    pub fn new() -> Self {
        SubTrace::default()
    }

    /// Record a run of `count` compare-exchange gates at absolute position
    /// `lo` with the given `stride`.  Empty runs record nothing.
    pub fn record_exchange(&mut self, lo: u64, stride: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.events.push(SubEvent::Exchange { lo, stride, count });
    }

    /// Record an elementwise read-modify-write sweep of
    /// `[start, start + count)`.  Empty sweeps record nothing.
    pub fn record_rw(&mut self, start: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.events.push(SubEvent::Rw { start, count });
    }

    /// Add `n` sorting-network comparisons (and the matching
    /// compare-exchange gates), mirroring
    /// [`Tracer::bump_comparisons`](crate::Tracer::bump_comparisons).
    pub fn bump_comparisons(&mut self, n: u64) {
        self.counters.comparisons += n;
        self.counters.compare_exchanges += n;
    }

    /// Add `n` linear-pass element steps.
    pub fn bump_linear_steps(&mut self, n: u64) {
        self.counters.linear_steps += n;
    }

    /// Add `n` routing-network hop steps.
    pub fn bump_routing_hops(&mut self, n: u64) {
        self.counters.routing_hops += n;
    }

    /// The recorded composite events, in partition-program order.
    pub fn events(&self) -> &[SubEvent] {
        &self.events
    }

    /// The operation-counter deltas this partition accumulated.
    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    /// True if the fragment recorded no events and no counter deltas.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters == OpCounters::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_runs_and_sweeps_record_nothing() {
        let mut st = SubTrace::new();
        st.record_exchange(4, 8, 0);
        st.record_rw(2, 0);
        assert!(st.is_empty());
    }

    #[test]
    fn events_keep_program_order_and_counters_accumulate() {
        let mut st = SubTrace::new();
        st.bump_comparisons(3);
        st.record_exchange(0, 4, 3);
        st.record_rw(10, 5);
        st.bump_linear_steps(5);
        st.bump_routing_hops(2);
        assert_eq!(
            st.events(),
            &[
                SubEvent::Exchange {
                    lo: 0,
                    stride: 4,
                    count: 3
                },
                SubEvent::Rw {
                    start: 10,
                    count: 5
                }
            ]
        );
        let c = st.counters();
        assert_eq!(c.comparisons, 3);
        assert_eq!(c.compare_exchanges, 3);
        assert_eq!(c.linear_steps, 5);
        assert_eq!(c.routing_hops, 2);
        assert!(!st.is_empty());
    }
}
