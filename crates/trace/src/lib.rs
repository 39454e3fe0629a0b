//! # obliv-trace — the public-memory substrate
//!
//! This crate models the adversarial memory model of *Efficient Oblivious
//! Database Joins* (Krastnikov, Kerschbaum, Stebila; VLDB 2020), §3.1:
//!
//! * **Public memory** — everything held in a [`TrackedBuffer`].  The
//!   adversary observes, for every access, the array, the index, and whether
//!   it was a read or a write (but never the contents).
//! * **Local memory** — ordinary Rust locals, limited by convention to a
//!   constant number of records (the paper's level-II obliviousness).
//!
//! Every buffer belongs to a [`Tracer`], which forwards the interleaved
//! access stream to a pluggable [`TraceSink`]:
//!
//! | Sink | Use |
//! |------|-----|
//! | [`NullSink`] | timing runs — zero recording overhead |
//! | [`CollectingSink`] | full logs for Figure 7 and small-`n` trace-equality tests |
//! | [`HashingSink`] | streamed SHA-256 trace fingerprint for large `n` (the paper's §6.1 experiment) |
//! | [`CountingSink`] | read/write totals per array |
//!
//! Besides single accesses a sink receives three *composite* events — a
//! run of consecutive accesses, one stage of a routing network, one bitonic
//! sub-network ([`network`] says which gates the last one stands for) —
//! whose extents are functions of public parameters; each expands, by
//! default, to the per-element stream it replaces ([`TraceSink`]).
//!
//! Algorithm-level operation counts (sorting-network comparisons, routing
//! hops, linear-pass steps) are accumulated in [`OpCounters`] and drive the
//! Table 3 reproduction.
//!
//! ## Example
//!
//! ```
//! use obliv_trace::{CollectingSink, Tracer};
//!
//! // Oblivious "maximum" over public memory: the scan pattern is fixed.
//! let tracer = Tracer::new(CollectingSink::new());
//! let buf = tracer.alloc_from(vec![3u64, 9, 1, 7]);
//! let mut best = 0u64; // local memory
//! for i in 0..buf.len() {
//!     let v = buf.read(i);
//!     // branch on local data only; the memory trace is input-independent
//!     best = if v > best { v } else { best };
//! }
//! assert_eq!(best, 9);
//! assert_eq!(tracer.with_sink(|s| s.accesses().len()), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod counters;
pub mod network;
pub mod sha256;
mod sink;
mod tracer;
mod tracked;

pub use access::{Access, AccessKind, ArrayId, SweepOrder, TraceEvent};
pub use counters::OpCounters;
pub use network::BlockOp;
pub use sink::{AccessTotals, CollectingSink, CountingSink, HashingSink, NullSink, TraceSink};
pub use tracer::Tracer;
pub use tracked::TrackedBuffer;

/// Convenience alias: a tracer that discards its trace (benchmark and
/// example configuration).
pub type NullTracer = Tracer<NullSink>;

/// Compare two collected traces for exact equality, returning the index of
/// the first divergence if any.
///
/// This is the small-`n` obliviousness check from the paper's §6.1: run the
/// program on two different inputs with the same public parameters and
/// demand identical logs.
pub fn first_trace_divergence(a: &[Access], b: &[Access]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_none_for_equal_traces() {
        let t = vec![Access::read(ArrayId(0), 1), Access::write(ArrayId(0), 2)];
        assert_eq!(first_trace_divergence(&t, &t.clone()), None);
    }

    #[test]
    fn divergence_reports_first_mismatch() {
        let a = vec![Access::read(ArrayId(0), 1), Access::write(ArrayId(0), 2)];
        let b = vec![Access::read(ArrayId(0), 1), Access::write(ArrayId(0), 3)];
        assert_eq!(first_trace_divergence(&a, &b), Some(1));
    }

    #[test]
    fn divergence_reports_length_mismatch() {
        let a = vec![Access::read(ArrayId(0), 1)];
        let b = vec![Access::read(ArrayId(0), 1), Access::write(ArrayId(0), 2)];
        assert_eq!(first_trace_divergence(&a, &b), Some(1));
    }
}
