//! Public-memory arrays whose every access is observable.

use crate::access::{Access, AccessKind, ArrayId, SweepOrder};
use crate::network::BlockOp;
use crate::sink::TraceSink;
use crate::tracer::Tracer;

/// A public-memory array.
///
/// This is the workspace's rendering of the paper's adversarial model
/// (§3.1): all table data lives in `TrackedBuffer`s, every element read or
/// write goes through [`read`](TrackedBuffer::read) /
/// [`write`](TrackedBuffer::write) and is reported to the owning
/// [`Tracer`], and the algorithms are only allowed to hold a constant number
/// of elements at a time in ordinary local variables (the paper's level-II
/// constant local memory).
///
/// Element types are `Copy` on purpose: a database entry in this model is a
/// fixed-width record that fits in the constant-size working set, and moving
/// it between public and local memory is a bitwise copy.
#[derive(Debug)]
pub struct TrackedBuffer<T: Copy, S: TraceSink> {
    id: ArrayId,
    data: Vec<T>,
    tracer: Tracer<S>,
}

impl<T: Copy, S: TraceSink> TrackedBuffer<T, S> {
    pub(crate) fn from_parts(id: ArrayId, data: Vec<T>, tracer: Tracer<S>) -> Self {
        TrackedBuffer { id, data, tracer }
    }

    /// The array's identifier in the trace.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// The (public) length of the array.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has length zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A handle to the tracer this buffer reports to.
    pub fn tracer(&self) -> Tracer<S> {
        self.tracer.clone()
    }

    /// `e ?← T[i]`: read element `i` into local memory.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds — array lengths are public, so a
    /// bounds failure is a program bug, not an information leak.
    #[inline]
    pub fn read(&self, i: usize) -> T {
        self.tracer.record_access(Access::read(self.id, i as u64));
        self.data[i]
    }

    /// `T[i] ?← e`: write the local value `v` to element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn write(&mut self, i: usize, v: T) {
        self.tracer.record_access(Access::write(self.id, i as u64));
        self.data[i] = v;
    }

    /// Batched emission: read the window `[start, start+count)`.
    ///
    /// Reports one coalesced read-run event to the tracer and returns the
    /// window.  Only runs whose extent is a function of public parameters
    /// (e.g. a sorting network's schedule) may be coalesced — the run
    /// boundary itself becomes part of the observable trace.
    ///
    /// # Panics
    /// Panics if the window is out of bounds.
    #[inline]
    pub fn read_run(&self, start: usize, count: usize) -> &[T] {
        self.tracer
            .record_access_run(AccessKind::Read, self.id, start as u64, count as u64);
        &self.data[start..start + count]
    }

    /// Batched emission: write the window `[start, start+count)`.
    ///
    /// Reports one coalesced write-run event and returns the window
    /// mutably.  The caller must overwrite every element of the window
    /// (the event claims `count` writes); the compare-exchange drivers do.
    ///
    /// # Panics
    /// Panics if the window is out of bounds.
    #[inline]
    pub fn write_run(&mut self, start: usize, count: usize) -> &mut [T] {
        self.tracer
            .record_access_run(AccessKind::Write, self.id, start as u64, count as u64);
        &mut self.data[start..start + count]
    }

    /// Batched emission for a run of compare-exchange gates `(lo+g,
    /// lo+stride+g)`, `g < count`: report the four coalesced runs (two
    /// reads, two writes) in one tracer transaction and return the two
    /// disjoint windows `[lo, lo+count)` and `[lo+stride, lo+stride+count)`
    /// mutably.
    ///
    /// Every gate still reads both its elements into local memory and
    /// writes both back — the caller does so element-wise on the returned
    /// windows — so the constant-local-memory discipline of §3.1 is
    /// unchanged; only the *emission* is batched.
    ///
    /// # Panics
    /// Panics if `count > stride` (the windows would overlap) or if the
    /// upper window is out of bounds.
    #[inline]
    pub fn paired_run_mut(
        &mut self,
        lo: usize,
        stride: usize,
        count: usize,
    ) -> (&mut [T], &mut [T]) {
        assert!(
            count <= stride,
            "paired_run_mut windows overlap: count {count} > stride {stride}"
        );
        self.tracer
            .record_exchange_runs(self.id, lo as u64, stride as u64, count as u64);
        let (head, tail) = self.data.split_at_mut(lo + stride);
        (&mut head[lo..lo + count], &mut tail[..count])
    }

    /// Batched emission for an elementwise read-modify-write sweep of
    /// `[start, start+count)`: report one coalesced read run followed by
    /// one coalesced write run in a single tracer transaction and return
    /// the window mutably.
    ///
    /// The caller must read and overwrite every element of the window (the
    /// events claim `count` reads and `count` writes); the mark-pass
    /// drivers do.  As with the other batched emitters, only sweeps whose
    /// extent is a function of public parameters may use this.
    ///
    /// # Panics
    /// Panics if the window is out of bounds.
    #[inline]
    pub fn rw_run_mut(&mut self, start: usize, count: usize) -> &mut [T] {
        self.tracer
            .record_rw_runs(self.id, start as u64, count as u64);
        &mut self.data[start..start + count]
    }

    /// Batched emission for one stage of a routing network: `count` hops,
    /// the hop at lower index `i` touching the pair `(i, i + stride)`,
    /// visited in `order`.  Reports one sweep event and returns the window
    /// `[0, count + stride)` the stage works on.
    ///
    /// The caller must perform the hops in the announced order, each one
    /// reading both cells into local memory and writing both back (the
    /// event's per-element expansion claims exactly that); the routing and
    /// compaction networks do.  As with the other batched emitters, only
    /// stages whose `(stride, count, order)` are functions of public
    /// parameters may use this.
    ///
    /// # Panics
    /// Panics if the window is out of bounds.
    #[inline]
    pub fn sweep_mut(&mut self, stride: usize, count: usize, order: SweepOrder) -> &mut [T] {
        self.tracer
            .record_sweep(self.id, stride as u64, count as u64, order);
        &mut self.data[..count + stride]
    }

    /// Batched emission for a whole bitonic sub-network: the sort (or only
    /// the merge) of the `n` cells `[lo, lo + n)`.  Reports one block event,
    /// adds the sub-network's gate count
    /// ([`network::gate_count`](crate::network::gate_count)) to the
    /// comparison counters, and returns exactly that window.
    ///
    /// The caller must execute the gates of
    /// [`network::for_each_run`](crate::network::for_each_run)`(lo, n,
    /// descending, op)` — before or after this call; the sort driver has
    /// run them when it records the block — each one reading both its
    /// cells into local memory and writing both back (the event's
    /// per-element expansion claims exactly that), and must not bump the
    /// comparison counter for them again.  `lo`, `n`, the direction and the kind have
    /// to be functions of public parameters only — the sort driver takes
    /// them from the array length by a fixed recursion — because they are
    /// what the trace shows of the sub-network.
    ///
    /// # Panics
    /// Panics if the window is out of bounds.
    #[inline]
    pub fn block_mut(&mut self, lo: usize, n: usize, descending: bool, op: BlockOp) -> &mut [T] {
        self.tracer
            .record_block(self.id, lo as u64, n as u64, descending, op);
        &mut self.data[lo..lo + n]
    }

    /// Out-of-model mutable access to the whole array.
    ///
    /// The sort driver runs a network's gates over this view — serially or
    /// on several threads — and then records the network's trace by a walk
    /// of the same network ([`block_mut`](TrackedBuffer::block_mut),
    /// [`paired_run_mut`](TrackedBuffer::paired_run_mut)).  Like
    /// [`as_slice`](TrackedBuffer::as_slice), this is **not** part of the
    /// oblivious programming model and records nothing; algorithm code must
    /// pair it with an emission that accounts for every access.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Out-of-model inspection of the whole array.
    ///
    /// This is **not** part of the oblivious programming model — it exists
    /// so tests, reports and output extraction can look at final contents
    /// without polluting the trace.  Algorithm code must not use it on data
    /// whose access pattern matters.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Out-of-model consumption of the array (used when handing a finished
    /// output table back to the caller).
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, CountingSink};

    #[test]
    fn read_write_roundtrip() {
        let tracer = Tracer::new(CountingSink::new());
        let mut buf = tracer.alloc::<u64>(10);
        for i in 0..10 {
            buf.write(i, (i * i) as u64);
        }
        for i in 0..10 {
            assert_eq!(buf.read(i), (i * i) as u64);
        }
        let totals = tracer.with_sink(|s| s.overall());
        assert_eq!(totals.reads, 10);
        assert_eq!(totals.writes, 10);
    }

    #[test]
    fn alloc_from_preserves_contents_without_traced_writes() {
        let tracer = Tracer::new(CollectingSink::new());
        let buf = tracer.alloc_from(vec![7u8, 8, 9]);
        assert_eq!(buf.as_slice(), &[7, 8, 9]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        tracer.with_sink(|s| assert!(s.accesses().is_empty()));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let tracer = Tracer::new(CollectingSink::new());
        let buf = tracer.alloc::<u8>(2);
        let _ = buf.read(2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc::<u8>(2);
        buf.write(5, 1);
    }

    #[test]
    fn read_run_expands_per_element_on_collecting_sink() {
        let tracer = Tracer::new(CollectingSink::new());
        let buf = tracer.alloc_from(vec![10u64, 11, 12, 13, 14]);
        assert_eq!(buf.read_run(1, 3), &[11, 12, 13]);
        tracer.with_sink(|s| {
            let idx: Vec<u64> = s.accesses().iter().map(|a| a.index).collect();
            assert_eq!(idx, vec![1, 2, 3]);
            assert!(s
                .accesses()
                .iter()
                .all(|a| a.kind == crate::access::AccessKind::Read));
        });
    }

    #[test]
    fn write_run_counts_every_element() {
        let tracer = Tracer::new(CountingSink::new());
        let mut buf = tracer.alloc::<u64>(8);
        buf.write_run(2, 4).copy_from_slice(&[9, 9, 9, 9]);
        assert_eq!(tracer.with_sink(|s| s.overall()).writes, 4);
        assert_eq!(buf.as_slice(), &[0, 0, 9, 9, 9, 9, 0, 0]);
    }

    #[test]
    fn paired_run_mut_returns_disjoint_windows_and_emits_four_runs() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc_from(vec![5u64, 4, 3, 2, 1, 0]);
        let (lo, hi) = buf.paired_run_mut(1, 3, 2);
        assert_eq!(lo, &[4, 3]);
        assert_eq!(hi, &[1, 0], "upper window starts at lo + stride = 4");
        lo[0] = 100;
        hi[1] = 200;
        assert_eq!(buf.as_slice(), &[5, 100, 3, 2, 1, 200]);
        tracer.with_sink(|s| {
            // Expanded order: R lo-window, R hi-window, W lo-window, W hi-window.
            let pattern: Vec<(crate::access::AccessKind, u64)> =
                s.accesses().iter().map(|a| (a.kind, a.index)).collect();
            use crate::access::AccessKind::{Read, Write};
            assert_eq!(
                pattern,
                vec![
                    (Read, 1),
                    (Read, 2),
                    (Read, 4),
                    (Read, 5),
                    (Write, 1),
                    (Write, 2),
                    (Write, 4),
                    (Write, 5)
                ]
            );
        });
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn paired_run_mut_rejects_overlapping_windows() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc::<u64>(8);
        let _ = buf.paired_run_mut(0, 2, 3);
    }

    #[test]
    fn empty_runs_emit_nothing() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc::<u64>(4);
        assert!(buf.read_run(2, 0).is_empty());
        assert!(buf.write_run(2, 0).is_empty());
        let (lo, hi) = buf.paired_run_mut(1, 2, 0);
        assert!(lo.is_empty() && hi.is_empty());
        tracer.with_sink(|s| assert!(s.accesses().is_empty()));
    }

    /// One routing stage as the hop loops wrote it before the sweep event:
    /// single traced reads and writes, conditional swap on local copies.
    fn per_hop_stage<S: TraceSink>(
        buf: &mut TrackedBuffer<u64, S>,
        stride: usize,
        count: usize,
        order: SweepOrder,
    ) {
        let hop = |buf: &mut TrackedBuffer<u64, S>, i: usize| {
            let (lo, hi) = (buf.read(i), buf.read(i + stride));
            buf.write(i, lo.min(hi));
            buf.write(i + stride, lo.max(hi));
        };
        match order {
            SweepOrder::Ascending => (0..count).for_each(|i| hop(buf, i)),
            SweepOrder::Descending => (0..count).rev().for_each(|i| hop(buf, i)),
        }
    }

    /// The same stage over the one slice `sweep_mut` lends out.
    fn slice_stage<S: TraceSink>(
        buf: &mut TrackedBuffer<u64, S>,
        stride: usize,
        count: usize,
        order: SweepOrder,
    ) {
        let win = buf.sweep_mut(stride, count, order);
        let mut hop = |i: usize| {
            let (lo, hi) = (win[i], win[i + stride]);
            win[i] = lo.min(hi);
            win[i + stride] = lo.max(hi);
        };
        match order {
            SweepOrder::Ascending => (0..count).for_each(&mut hop),
            SweepOrder::Descending => (0..count).rev().for_each(&mut hop),
        }
    }

    #[test]
    fn sweep_expands_to_the_per_hop_stream_in_both_orders() {
        let data: Vec<u64> = (0..23u64).map(|i| (i * 37) % 11).collect();
        for order in [SweepOrder::Ascending, SweepOrder::Descending] {
            // Strides below, at and above the hop count: hops overlap their
            // neighbours' cells in the first case and never in the last.
            for (stride, count) in [(1usize, 22usize), (4, 19), (8, 8), (16, 7), (3, 0)] {
                let per_hop = Tracer::new(CollectingSink::new());
                let mut a = per_hop.alloc_from(data.clone());
                per_hop_stage(&mut a, stride, count, order);

                let swept = Tracer::new(CollectingSink::new());
                let mut b = swept.alloc_from(data.clone());
                slice_stage(&mut b, stride, count, order);

                assert_eq!(a.as_slice(), b.as_slice(), "{order:?} {stride} {count}");
                assert_eq!(
                    per_hop.with_sink(|s| s.accesses().to_vec()),
                    swept.with_sink(|s| s.accesses().to_vec()),
                    "{order:?} stride={stride} count={count}"
                );
            }
        }
    }

    #[test]
    fn sweep_digest_and_totals_depend_on_the_shape_only() {
        use crate::sink::HashingSink;
        let run = |data: Vec<u64>, order| {
            let tracer = Tracer::new(HashingSink::new());
            let mut buf = tracer.alloc_from(data);
            slice_stage(&mut buf, 4, 12, order);
            tracer.with_sink(|s| (s.digest(), s.events()))
        };
        let a = run((0..16).collect(), SweepOrder::Ascending);
        let b = run((0..16).rev().collect(), SweepOrder::Ascending);
        assert_eq!(a, b, "two datasets of one shape");
        assert_eq!(a.1, 1 + 4 * 12, "alloc + four accesses per hop");
        assert_ne!(a.0, run((0..16).collect(), SweepOrder::Descending).0);

        let counting = Tracer::new(CountingSink::new());
        let mut buf = counting.alloc_from((0..16u64).collect::<Vec<_>>());
        slice_stage(&mut buf, 4, 12, SweepOrder::Descending);
        let totals = counting.with_sink(|s| s.for_array(buf.id()));
        assert_eq!((totals.reads, totals.writes), (24, 24));
    }

    #[test]
    #[should_panic]
    fn sweep_window_must_fit_the_array() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc::<u64>(8);
        let _ = buf.sweep_mut(4, 5, SweepOrder::Ascending);
    }

    #[test]
    fn into_vec_returns_contents() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc::<u32>(3);
        buf.write(0, 1);
        buf.write(1, 2);
        buf.write(2, 3);
        assert_eq!(buf.into_vec(), vec![1, 2, 3]);
    }
}
