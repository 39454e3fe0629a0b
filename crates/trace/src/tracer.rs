//! The tracer: allocation of public arrays and shared recording state.

use std::cell::RefCell;
use std::rc::Rc;

use crate::access::{Access, AccessKind, ArrayId, SweepOrder, TraceEvent};
use crate::counters::OpCounters;
use crate::network::{self, BlockOp};
use crate::sink::TraceSink;
use crate::tracked::TrackedBuffer;

/// Shared recording state for one logical program run.
///
/// A `Tracer` hands out [`TrackedBuffer`]s (the paper's public-memory
/// arrays); every read and write those buffers perform is forwarded, in
/// program order, to the tracer's [`TraceSink`], and algorithm-level
/// operation counts are accumulated in its [`OpCounters`].
///
/// Cloning a `Tracer` is cheap and yields a handle to the *same* underlying
/// state (the clones share the sink and counters); this is what lets every
/// buffer carry its own handle while the program still produces one
/// interleaved trace.
///
/// ```
/// use obliv_trace::{CollectingSink, Tracer};
///
/// let tracer = Tracer::new(CollectingSink::new());
/// let mut buf = tracer.alloc::<u64>(4);
/// buf.write(2, 99);
/// let v = buf.read(2);
/// assert_eq!(v, 99);
/// assert_eq!(tracer.with_sink(|s| s.accesses().len()), 2);
/// ```
pub struct Tracer<S: TraceSink> {
    inner: Rc<RefCell<TracerInner<S>>>,
}

struct TracerInner<S: TraceSink> {
    sink: S,
    counters: OpCounters,
    next_array: u32,
}

impl<S: TraceSink> Clone for Tracer<S> {
    fn clone(&self) -> Self {
        Tracer {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<S: TraceSink + Default> Default for Tracer<S> {
    fn default() -> Self {
        Tracer::new(S::default())
    }
}

impl<S: TraceSink> Tracer<S> {
    /// Create a tracer recording into `sink`.
    pub fn new(sink: S) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(TracerInner {
                sink,
                counters: OpCounters::zero(),
                next_array: 0,
            })),
        }
    }

    /// Allocate a public array of `len` default-initialised elements.
    ///
    /// The allocation itself is an observable event (array lengths are
    /// public), recorded before any access to the array.
    pub fn alloc<T: Copy + Default>(&self, len: usize) -> TrackedBuffer<T, S> {
        self.alloc_from(vec![T::default(); len])
    }

    /// Allocate a public array initialised with the contents of `data`.
    ///
    /// Used to model the program's input tables: the initial contents are in
    /// public memory from the start, so placing them there is not a traced
    /// per-element write (only the allocation event is recorded).
    pub fn alloc_from<T: Copy>(&self, data: Vec<T>) -> TrackedBuffer<T, S> {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = ArrayId(inner.next_array);
            inner.next_array += 1;
            inner.sink.record(TraceEvent::Alloc {
                array: id,
                len: data.len() as u64,
            });
            id
        };
        TrackedBuffer::from_parts(id, data, self.clone())
    }

    /// Record a single memory access (called by [`TrackedBuffer`]).
    #[inline]
    pub(crate) fn record_access(&self, access: Access) {
        self.inner
            .borrow_mut()
            .sink
            .record(TraceEvent::Access(access));
    }

    /// Record a coalesced run of `count` consecutive same-kind accesses
    /// (called by [`TrackedBuffer`]'s batched emitters).
    #[inline]
    pub(crate) fn record_access_run(
        &self,
        kind: AccessKind,
        array: ArrayId,
        start: u64,
        count: u64,
    ) {
        if count == 0 {
            return;
        }
        self.inner
            .borrow_mut()
            .sink
            .record_run(kind, array, start, count);
    }

    /// Record the four coalesced runs of one blocked compare-exchange pass
    /// — reads then writes of both strided windows — in a single sink
    /// transaction (one shared-state borrow instead of `4·count`).
    #[inline]
    pub(crate) fn record_exchange_runs(&self, array: ArrayId, lo: u64, stride: u64, count: u64) {
        if count == 0 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner.sink.record_run(AccessKind::Read, array, lo, count);
        inner
            .sink
            .record_run(AccessKind::Read, array, lo + stride, count);
        inner.sink.record_run(AccessKind::Write, array, lo, count);
        inner
            .sink
            .record_run(AccessKind::Write, array, lo + stride, count);
    }

    /// Record an elementwise read-modify-write sweep of `[start,
    /// start+count)` — one coalesced read run followed by one coalesced
    /// write run, in a single sink transaction (called by
    /// [`TrackedBuffer::rw_run_mut`]).
    #[inline]
    pub(crate) fn record_rw_runs(&self, array: ArrayId, start: u64, count: u64) {
        if count == 0 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner.sink.record_run(AccessKind::Read, array, start, count);
        inner
            .sink
            .record_run(AccessKind::Write, array, start, count);
    }

    /// Record one routing-network stage as a single sweep event (called by
    /// [`TrackedBuffer::sweep_mut`]).
    #[inline]
    pub(crate) fn record_sweep(&self, array: ArrayId, stride: u64, count: u64, order: SweepOrder) {
        if count == 0 {
            return;
        }
        self.inner
            .borrow_mut()
            .sink
            .record_sweep(array, stride, count, order);
    }

    /// Record one bitonic sub-network as a single block event and count its
    /// gates as comparisons, in one shared-state borrow (called by
    /// [`TrackedBuffer::block_mut`]).
    #[inline]
    pub(crate) fn record_block(&self, array: ArrayId, lo: u64, n: u64, desc: bool, op: BlockOp) {
        let gates = network::gate_count(n, op);
        if gates == 0 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner.counters.comparisons += gates;
        inner.counters.compare_exchanges += gates;
        inner.sink.record_block(array, lo, n, desc, op);
    }

    /// Current snapshot of the operation counters.
    pub fn counters(&self) -> OpCounters {
        self.inner.borrow().counters
    }

    /// Add `n` sorting-network comparisons (and the matching
    /// compare-exchange gates).
    #[inline]
    pub fn bump_comparisons(&self, n: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.counters.comparisons += n;
        inner.counters.compare_exchanges += n;
    }

    /// Add `n` routing-network hop steps.
    #[inline]
    pub fn bump_routing_hops(&self, n: u64) {
        self.inner.borrow_mut().counters.routing_hops += n;
    }

    /// Add `n` linear-pass element steps.
    #[inline]
    pub fn bump_linear_steps(&self, n: u64) {
        self.inner.borrow_mut().counters.linear_steps += n;
    }

    /// Run `f` with shared access to the sink (e.g. to read a collected log
    /// or a digest mid-run).
    pub fn with_sink<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.inner.borrow().sink)
    }

    /// Consume the tracer and return the sink, provided no buffers still
    /// hold a handle to it.
    ///
    /// Returns `Err(self)` if other handles are still alive.
    pub fn try_into_sink(self) -> Result<S, Self> {
        match Rc::try_unwrap(self.inner) {
            Ok(cell) => Ok(cell.into_inner().sink),
            Err(rc) => Err(Tracer { inner: rc }),
        }
    }

    /// Number of arrays allocated so far.
    pub fn arrays_allocated(&self) -> u32 {
        self.inner.borrow().next_array
    }
}

impl<S: TraceSink> std::fmt::Debug for Tracer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Tracer")
            .field("arrays_allocated", &inner.next_array)
            .field("counters", &inner.counters)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::sink::{CollectingSink, CountingSink, NullSink};

    #[test]
    fn alloc_assigns_sequential_ids_and_records_lengths() {
        let tracer = Tracer::new(CollectingSink::new());
        let a = tracer.alloc::<u32>(3);
        let b = tracer.alloc_from(vec![1u32, 2, 3, 4]);
        assert_eq!(a.id(), ArrayId(0));
        assert_eq!(b.id(), ArrayId(1));
        assert_eq!(tracer.arrays_allocated(), 2);
        tracer.with_sink(|s| {
            assert_eq!(s.allocations(), &[(ArrayId(0), 3), (ArrayId(1), 4)]);
        });
    }

    #[test]
    fn accesses_are_recorded_in_program_order() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc::<u64>(8);
        buf.write(5, 50);
        let _ = buf.read(5);
        let _ = buf.read(0);
        tracer.with_sink(|s| {
            let kinds: Vec<(AccessKind, u64)> =
                s.accesses().iter().map(|a| (a.kind, a.index)).collect();
            assert_eq!(
                kinds,
                vec![
                    (AccessKind::Write, 5),
                    (AccessKind::Read, 5),
                    (AccessKind::Read, 0)
                ]
            );
        });
    }

    #[test]
    fn counters_accumulate() {
        let tracer = Tracer::new(NullSink);
        tracer.bump_comparisons(3);
        tracer.bump_routing_hops(2);
        tracer.bump_linear_steps(10);
        let c = tracer.counters();
        assert_eq!(c.comparisons, 3);
        assert_eq!(c.compare_exchanges, 3);
        assert_eq!(c.routing_hops, 2);
        assert_eq!(c.linear_steps, 10);
    }

    #[test]
    fn try_into_sink_requires_unique_handle() {
        let tracer = Tracer::new(CountingSink::new());
        let buf = tracer.alloc::<u8>(1);
        let tracer = match tracer.try_into_sink() {
            Ok(_) => panic!("buffer still holds a handle"),
            Err(t) => t,
        };
        drop(buf);
        let sink = tracer.try_into_sink().expect("now unique");
        assert_eq!(sink.allocated_cells(), 1);
    }

    #[test]
    fn clones_share_state() {
        let tracer = Tracer::new(CountingSink::new());
        let clone = tracer.clone();
        clone.bump_linear_steps(4);
        assert_eq!(tracer.counters().linear_steps, 4);
    }
}
