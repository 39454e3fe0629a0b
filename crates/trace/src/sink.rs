//! Trace sinks: what to do with the access stream.
//!
//! The algorithms in this workspace are written once against the
//! [`TrackedBuffer`](crate::TrackedBuffer) API; *what happens* to the
//! resulting access stream is decided by the sink the
//! [`Tracer`](crate::Tracer) was built with:
//!
//! * [`NullSink`] — discard everything (benchmark configuration; compiles to
//!   nothing after inlining),
//! * [`CollectingSink`] — keep the full log (Figure 7, small-`n` trace
//!   equality tests),
//! * [`HashingSink`] — keep only a SHA-256 fingerprint of the log (the
//!   paper's large-`n` obliviousness experiment),
//! * [`CountingSink`] — keep per-array read/write totals (cost accounting).
//!
//! [`HashingSink`] does not chain a hash per event: it serialises each sink
//! call as one fixed-layout record and streams the records through a
//! single running SHA-256 (format and rationale on the type).

use crate::access::{Access, AccessKind, ArrayId, SweepOrder, TraceEvent};
use crate::network::{self, BlockOp};
use crate::sha256::Sha256;

/// A consumer of the observable event stream.
///
/// Implementations must be deterministic functions of the event sequence:
/// the whole point of recording is to compare the streams of different runs.
pub trait TraceSink {
    /// Record one observable event.
    fn record(&mut self, event: TraceEvent);

    /// Record `count` consecutive same-kind accesses `start, start+1, …,
    /// start+count−1` on one array as a single coalesced run.
    ///
    /// Run boundaries are part of the observable program description: the
    /// batched emitters only coalesce runs whose extent is a function of
    /// public parameters (e.g. a sorting network's gate schedule), so a
    /// coalesced stream reveals exactly what the per-element stream does.
    ///
    /// The default implementation replays the run as `count` individual
    /// [`TraceEvent::Access`] events, so order-exact sinks — in particular
    /// the access-pattern checker's [`CollectingSink`] — observe the
    /// fully expanded per-element stream.  Sinks for which the expansion
    /// is pure overhead ([`NullSink`], [`HashingSink`], [`CountingSink`])
    /// override this with an O(1) fold.  The same holds for the other two
    /// composite events below; a sink that *wraps* another must forward
    /// all three, or its inner sink is handed the expansion instead of the
    /// event.
    fn record_run(&mut self, kind: AccessKind, array: ArrayId, start: u64, count: u64) {
        for i in 0..count {
            self.record(TraceEvent::Access(Access {
                kind,
                array,
                index: start + i,
            }));
        }
    }

    /// Record one stage of a routing network as a single *sweep*: `count`
    /// hops over one array, the hop at lower index `i` reading `i` and
    /// `i + stride` and then writing both back, visited in `order`.
    ///
    /// Unlike the gates of a sorting-network run, the hops of a stage are
    /// *not* independent — a hop may read the cell the previous hop wrote —
    /// so the per-hop interleaving `R i, R i+stride, W i, W i+stride` is
    /// part of the program description and the default implementation
    /// replays exactly that stream, hop by hop.  Order-exact sinks
    /// ([`CollectingSink`]) therefore see what a loop of single
    /// [`record`](TraceSink::record) calls would have shown them; the sinks
    /// that only fold override this in O(1).  `stride`, `count` and `order`
    /// are functions of the (public) array length alone.
    fn record_sweep(&mut self, array: ArrayId, stride: u64, count: u64, order: SweepOrder) {
        let mut hop = |i: u64| {
            for access in [
                Access::read(array, i),
                Access::read(array, i + stride),
                Access::write(array, i),
                Access::write(array, i + stride),
            ] {
                self.record(TraceEvent::Access(access));
            }
        };
        match order {
            SweepOrder::Ascending => (0..count).for_each(&mut hop),
            SweepOrder::Descending => (0..count).rev().for_each(&mut hop),
        }
    }

    /// Record a whole bitonic sub-network as a single *block*: the sort
    /// (or, for [`BlockOp::Merge`], only the merge) of the `n` cells `[lo,
    /// lo + n)` of one array, ordering larger keys first if `descending`.
    ///
    /// Which gates that is, and in which order, is fixed by
    /// [`network::for_each_run`]; the default implementation replays them
    /// run by run — both windows of a run read, then both written, the
    /// stream four [`record_run`](TraceSink::record_run) calls per run used
    /// to produce — so order-exact sinks ([`CollectingSink`]) still see
    /// every access.  The sinks that only fold override this in O(1) with
    /// [`network::gate_count`].
    ///
    /// `lo`, `n`, the direction and the kind are all public: the sort
    /// driver derives them from the array length alone, by the recursion
    /// [`network::walk`] spells out.
    fn record_block(&mut self, array: ArrayId, lo: u64, n: u64, descending: bool, op: BlockOp) {
        let mut replay = |lo: usize, stride: usize, count: usize, _descending: bool| {
            for kind in [AccessKind::Read, AccessKind::Write] {
                for start in [lo, lo + stride] {
                    self.record_run(kind, array, start as u64, count as u64);
                }
            }
        };
        network::for_each_run(lo as usize, n as usize, descending, op, &mut replay);
    }
}

/// Discards every event. This is the configuration used for timing runs so
/// that tracing overhead does not distort the measured runtimes.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn record_run(&mut self, _kind: AccessKind, _array: ArrayId, _start: u64, _count: u64) {}

    #[inline(always)]
    fn record_sweep(&mut self, _array: ArrayId, _stride: u64, _count: u64, _order: SweepOrder) {}

    #[inline(always)]
    fn record_block(&mut self, _array: ArrayId, _lo: u64, _n: u64, _desc: bool, _op: BlockOp) {}
}

/// Keeps the complete event log in memory.
///
/// Only suitable for small inputs (the log of a full join at `n = 10⁶` has
/// on the order of 10⁹ entries); the paper makes the same distinction and
/// switches to the hashed representation beyond `n = 10`.
#[derive(Debug, Default, Clone)]
pub struct CollectingSink {
    accesses: Vec<Access>,
    allocs: Vec<(ArrayId, u64)>,
}

impl CollectingSink {
    /// A new, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded memory accesses, in program order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// The recorded allocations (array id, length), in program order.
    pub fn allocations(&self) -> &[(ArrayId, u64)] {
        &self.allocs
    }

    /// Number of recorded memory accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if no accesses have been recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

impl TraceSink for CollectingSink {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access(a) => self.accesses.push(a),
            TraceEvent::Alloc { array, len } => self.allocs.push((array, len)),
        }
    }
}

/// Streams the access log through one running SHA-256, so traces of
/// arbitrary length can be compared in constant space — the role the
/// chained hash `H ← SHA-256(H ‖ r ‖ t ‖ i)` plays in the paper's §6.1
/// experiment.
///
/// Every sink call becomes one fixed-layout little-endian record, fed to
/// the hasher in program order:
///
/// | call | bytes | layout |
/// |------|-------|--------|
/// | read / write | 13 | `array:u32 ‖ tag:u8 (0 read, 1 write) ‖ index:u64` |
/// | alloc | 13 | `array:u32 ‖ tag:u8 (2) ‖ len:u64` |
/// | read / write run | 21 | `array:u32 ‖ tag:u8 (3 read, 4 write) ‖ start:u64 ‖ count:u64` |
/// | hop sweep | 21 | `array:u32 ‖ tag:u8 (5 ascending, 6 descending) ‖ stride:u64 ‖ count:u64` |
/// | bitonic block | 21 | `array:u32 ‖ tag:u8 (7 sort ↑, 8 sort ↓, 9 merge ↑, 10 merge ↓) ‖ lo:u64 ‖ n:u64` |
///
/// The tag byte sits at offset 4 of every record and fixes the record's
/// length, so the concatenation parses back into exactly one event
/// sequence: two different sequences are two different messages, and equal
/// digests mean equal traces up to a SHA-256 collision.  That is the only
/// property the paper uses its per-event chain for — comparing the traces
/// of two runs — so the streamed digest is interchangeable with the chain
/// *for comparison*, while costing one compression per 64 bytes of records
/// (about five events) instead of one compression, one 32-byte state
/// re-absorb and one padding pass per event.  Digest *values* differ from
/// the chained form; nothing compares digests across the two.
///
/// Allocation events are folded in (tag 2) so that two programs allocating
/// different-shaped scratch space cannot collide by accident.
/// [`events`](HashingSink::events) counts *accesses represented* — one per
/// single event, `count` per coalesced run, `4·count` per hop sweep, four
/// per gate of a block — so event totals stay comparable between batched
/// and per-element emission; [`records`](HashingSink::records) counts the
/// records absorbed, which is what the hashing costs.
#[derive(Debug, Clone)]
pub struct HashingSink {
    hasher: Sha256,
    events: u64,
    records: u64,
}

impl Default for HashingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl HashingSink {
    /// Start from the empty record stream.
    pub fn new() -> Self {
        HashingSink {
            hasher: Sha256::new(),
            events: 0,
            records: 0,
        }
    }

    /// The digest of the record stream so far.  Finalises a copy of the
    /// running hasher, so recording can continue afterwards.
    pub fn digest(&self) -> [u8; 32] {
        self.hasher.clone().finalize()
    }

    /// The current digest rendered as hex.
    pub fn digest_hex(&self) -> String {
        Sha256::hex(&self.digest())
    }

    /// How many events have been folded into the digest.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// How many records — sink calls — the digest has absorbed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Absorb one record: `array ‖ tag ‖ words…`, tag byte at offset 4.
    #[inline]
    fn absorb<const N: usize>(&mut self, array: ArrayId, tag: u8, words: &[u64]) {
        let mut record = [0u8; N];
        record[..4].copy_from_slice(&array.0.to_le_bytes());
        record[4] = tag;
        for (slot, word) in record[5..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        self.hasher.update(&record);
        self.records += 1;
    }
}

impl TraceSink for HashingSink {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access(a) => self.absorb::<13>(a.array, a.kind.as_byte(), &[a.index]),
            // Tag byte 2 distinguishes allocations from reads (0) and
            // writes (1).
            TraceEvent::Alloc { array, len } => self.absorb::<13>(array, 2, &[len]),
        }
        self.events += 1;
    }

    /// Batched absorption: one 21-byte record per coalesced run instead of
    /// one 13-byte record per access, with tag bytes 3 (read run) / 4
    /// (write run), domain-separated from single accesses (0/1) and
    /// allocations (2).  Since run boundaries are a function of public
    /// parameters only, the batched digest remains one too.
    fn record_run(&mut self, kind: AccessKind, array: ArrayId, start: u64, count: u64) {
        self.absorb::<21>(array, 3 + kind.as_byte(), &[start, count]);
        // `events` keeps counting *accesses represented*, so event totals
        // stay comparable between batched and per-element emission.
        self.events += count;
    }

    /// One 21-byte record per routing stage, tag bytes 5 (ascending) / 6
    /// (descending), domain-separated from every other record kind.
    fn record_sweep(&mut self, array: ArrayId, stride: u64, count: u64, order: SweepOrder) {
        let tag = match order {
            SweepOrder::Ascending => 5,
            SweepOrder::Descending => 6,
        };
        self.absorb::<21>(array, tag, &[stride, count]);
        self.events += 4 * count;
    }

    /// One 21-byte record per sub-network, tag bytes 7–10 (sort / merge ×
    /// ascending / descending), domain-separated from every other record
    /// kind.
    fn record_block(&mut self, array: ArrayId, lo: u64, n: u64, descending: bool, op: BlockOp) {
        let tag = match op {
            BlockOp::Sort => 7,
            BlockOp::Merge => 9,
        } + u8::from(descending);
        self.absorb::<21>(array, tag, &[lo, n]);
        self.events += 4 * network::gate_count(n, op);
    }
}

/// Per-array read/write totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessTotals {
    /// Number of reads observed.
    pub reads: u64,
    /// Number of writes observed.
    pub writes: u64,
}

impl AccessTotals {
    /// Reads plus writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Counts reads and writes, overall and per array.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    overall: AccessTotals,
    per_array: Vec<AccessTotals>,
    allocated_cells: u64,
}

impl CountingSink {
    /// A new sink with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Totals over every array.
    pub fn overall(&self) -> AccessTotals {
        self.overall
    }

    /// Totals for one array (zero if the array was never touched).
    pub fn for_array(&self, array: ArrayId) -> AccessTotals {
        self.per_array
            .get(array.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Total number of public cells allocated (sum of allocation lengths).
    pub fn allocated_cells(&self) -> u64 {
        self.allocated_cells
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access(a) => {
                let idx = a.array.0 as usize;
                if idx >= self.per_array.len() {
                    self.per_array.resize(idx + 1, AccessTotals::default());
                }
                let slot = &mut self.per_array[idx];
                match a.kind {
                    crate::access::AccessKind::Read => {
                        slot.reads += 1;
                        self.overall.reads += 1;
                    }
                    crate::access::AccessKind::Write => {
                        slot.writes += 1;
                        self.overall.writes += 1;
                    }
                }
            }
            TraceEvent::Alloc { len, .. } => self.allocated_cells += len,
        }
    }

    fn record_run(&mut self, kind: AccessKind, array: ArrayId, _start: u64, count: u64) {
        let idx = array.0 as usize;
        if idx >= self.per_array.len() {
            self.per_array.resize(idx + 1, AccessTotals::default());
        }
        let slot = &mut self.per_array[idx];
        match kind {
            AccessKind::Read => {
                slot.reads += count;
                self.overall.reads += count;
            }
            AccessKind::Write => {
                slot.writes += count;
                self.overall.writes += count;
            }
        }
    }

    /// Every hop reads two cells and writes two.
    fn record_sweep(&mut self, array: ArrayId, _stride: u64, count: u64, _order: SweepOrder) {
        self.record_run(AccessKind::Read, array, 0, 2 * count);
        self.record_run(AccessKind::Write, array, 0, 2 * count);
    }

    /// Every gate reads two cells and writes two.
    fn record_block(&mut self, array: ArrayId, _lo: u64, n: u64, _descending: bool, op: BlockOp) {
        self.record_sweep(array, 0, network::gate_count(n, op), SweepOrder::Ascending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Alloc {
                array: ArrayId(0),
                len: 4,
            },
            TraceEvent::Access(Access::read(ArrayId(0), 0)),
            TraceEvent::Access(Access::write(ArrayId(0), 1)),
            TraceEvent::Access(Access::read(ArrayId(0), 3)),
        ]
    }

    #[test]
    fn collecting_sink_keeps_order() {
        let mut sink = CollectingSink::new();
        for e in sample_events() {
            sink.record(e);
        }
        assert_eq!(sink.len(), 3);
        assert!(!sink.is_empty());
        assert_eq!(sink.allocations(), &[(ArrayId(0), 4)]);
        assert_eq!(sink.accesses()[0].kind, AccessKind::Read);
        assert_eq!(sink.accesses()[1].kind, AccessKind::Write);
        assert_eq!(sink.accesses()[2].index, 3);
    }

    #[test]
    fn hashing_sink_is_deterministic_and_order_sensitive() {
        let mut a = HashingSink::new();
        let mut b = HashingSink::new();
        for e in sample_events() {
            a.record(e);
            b.record(e);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), 4);

        // Swapping two events changes the digest.
        let mut c = HashingSink::new();
        let mut events = sample_events();
        events.swap(1, 2);
        for e in events {
            c.record(e);
        }
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn hashing_sink_distinguishes_reads_writes_and_allocs() {
        let mut read = HashingSink::new();
        read.record(TraceEvent::Access(Access::read(ArrayId(0), 7)));
        let mut write = HashingSink::new();
        write.record(TraceEvent::Access(Access::write(ArrayId(0), 7)));
        let mut alloc = HashingSink::new();
        alloc.record(TraceEvent::Alloc {
            array: ArrayId(0),
            len: 7,
        });
        assert_ne!(read.digest(), write.digest());
        assert_ne!(read.digest(), alloc.digest());
        assert_ne!(write.digest(), alloc.digest());
    }

    #[test]
    fn counting_sink_totals() {
        let mut sink = CountingSink::new();
        for e in sample_events() {
            sink.record(e);
        }
        sink.record(TraceEvent::Access(Access::write(ArrayId(2), 0)));
        assert_eq!(
            sink.overall(),
            AccessTotals {
                reads: 2,
                writes: 2
            }
        );
        assert_eq!(
            sink.for_array(ArrayId(0)),
            AccessTotals {
                reads: 2,
                writes: 1
            }
        );
        assert_eq!(sink.for_array(ArrayId(1)), AccessTotals::default());
        assert_eq!(
            sink.for_array(ArrayId(2)),
            AccessTotals {
                reads: 0,
                writes: 1
            }
        );
        assert_eq!(sink.for_array(ArrayId(9)), AccessTotals::default());
        assert_eq!(sink.allocated_cells(), 4);
        assert_eq!(sink.overall().total(), 4);
    }

    #[test]
    fn record_run_default_expansion_matches_per_element_stream() {
        // A sink with no override sees the legacy per-element stream.
        struct Probe(CollectingSink);
        impl TraceSink for Probe {
            fn record(&mut self, event: TraceEvent) {
                self.0.record(event);
            }
        }
        let mut probe = Probe(CollectingSink::new());
        probe.record_run(AccessKind::Write, ArrayId(1), 10, 3);
        let mut reference = CollectingSink::new();
        for i in 10..13 {
            reference.record(TraceEvent::Access(Access::write(ArrayId(1), i)));
        }
        assert_eq!(probe.0.accesses(), reference.accesses());
    }

    #[test]
    fn counting_sink_folds_runs() {
        let mut sink = CountingSink::new();
        sink.record_run(AccessKind::Read, ArrayId(2), 0, 5);
        sink.record_run(AccessKind::Write, ArrayId(2), 0, 7);
        assert_eq!(
            sink.for_array(ArrayId(2)),
            AccessTotals {
                reads: 5,
                writes: 7
            }
        );
        assert_eq!(sink.overall().total(), 12);

        // Every composite folds to the accesses it stands for: the event
        // count a hashing sink reports for the same stream, less the
        // allocation.
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
        let mut counted = CountingSink::new();
        stream(&mut counted);
        let mut hashed = HashingSink::new();
        stream(&mut hashed);
        assert_eq!(counted.overall().total() + 1, hashed.events());
        assert_eq!(hashed.records(), 6);
    }

    #[test]
    fn hashing_sink_runs_are_deterministic_and_parameter_sensitive() {
        let run = |kind, start, count| {
            let mut s = HashingSink::new();
            s.record_run(kind, ArrayId(0), start, count);
            (s.digest(), s.events())
        };
        let (d1, e1) = run(AccessKind::Read, 4, 8);
        let (d2, e2) = run(AccessKind::Read, 4, 8);
        assert_eq!(d1, d2, "same run, same digest");
        assert_eq!(e1, 8, "events count accesses represented");
        assert_eq!(e1, e2);
        // Every public parameter of the run perturbs the digest.
        assert_ne!(d1, run(AccessKind::Write, 4, 8).0);
        assert_ne!(d1, run(AccessKind::Read, 5, 8).0);
        assert_ne!(d1, run(AccessKind::Read, 4, 9).0);
        // Runs are domain-separated from single accesses.
        let mut single = HashingSink::new();
        single.record(TraceEvent::Access(Access::read(ArrayId(0), 4)));
        assert_ne!(run(AccessKind::Read, 4, 1).0, single.digest());
    }

    #[test]
    fn hashing_sink_sweeps_are_parameter_sensitive_and_domain_separated() {
        let sweep = |stride, count, order| {
            let mut s = HashingSink::new();
            s.record_sweep(ArrayId(0), stride, count, order);
            (s.digest(), s.events())
        };
        let (d, e) = sweep(4, 8, SweepOrder::Ascending);
        assert_eq!((d, e), sweep(4, 8, SweepOrder::Ascending));
        assert_eq!(e, 32, "events count accesses represented");
        assert_ne!(d, sweep(2, 8, SweepOrder::Ascending).0);
        assert_ne!(d, sweep(4, 9, SweepOrder::Ascending).0);
        assert_ne!(d, sweep(4, 8, SweepOrder::Descending).0);
        // Same two words as a run record, different tag.
        let mut run = HashingSink::new();
        run.record_run(AccessKind::Read, ArrayId(0), 4, 8);
        assert_ne!(d, run.digest());
    }

    #[test]
    fn hashing_sink_blocks_are_parameter_sensitive_and_domain_separated() {
        let block = |lo, n, descending, op| {
            let mut s = HashingSink::new();
            s.record_block(ArrayId(0), lo, n, descending, op);
            (s.digest(), s.events())
        };
        let (d, e) = block(4, 8, false, BlockOp::Sort);
        assert_eq!((d, e), block(4, 8, false, BlockOp::Sort));
        assert_eq!(e, 4 * 24, "events count accesses represented");
        assert_ne!(d, block(5, 8, false, BlockOp::Sort).0);
        assert_ne!(d, block(4, 9, false, BlockOp::Sort).0);
        assert_ne!(d, block(4, 8, true, BlockOp::Sort).0);
        assert_ne!(d, block(4, 8, false, BlockOp::Merge).0);
        assert_ne!(
            block(4, 8, true, BlockOp::Sort).0,
            block(4, 8, false, BlockOp::Merge).0
        );
        // Same two words as a run or a sweep record, different tag.
        let mut run = HashingSink::new();
        run.record_run(AccessKind::Read, ArrayId(0), 4, 8);
        assert_ne!(d, run.digest());
        let mut sweep = HashingSink::new();
        sweep.record_sweep(ArrayId(0), 4, 8, SweepOrder::Ascending);
        assert_ne!(d, sweep.digest());
    }

    #[test]
    fn block_default_expansion_is_the_run_by_run_stream() {
        // A sink that overrides nothing sees, for a block, what four
        // `record_run` calls per gate run of the sub-network show it.
        for (n, op) in [
            (2u64, BlockOp::Sort),
            (13, BlockOp::Sort),
            (13, BlockOp::Merge),
        ] {
            let mut expanded = CollectingSink::new();
            expanded.record_block(ArrayId(1), 5, n, true, op);
            let mut reference = CollectingSink::new();
            network::for_each_run(5, n as usize, true, op, &mut |lo, stride, count, _| {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    for start in [lo, lo + stride] {
                        reference.record_run(kind, ArrayId(1), start as u64, count as u64);
                    }
                }
            });
            assert_eq!(expanded.accesses(), reference.accesses(), "n={n} {op:?}");
            assert_eq!(
                expanded.len() as u64,
                4 * network::gate_count(n, op),
                "n={n} {op:?}"
            );
            // The folding sinks agree on the totals without expanding.
            let mut counted = CountingSink::new();
            counted.record_block(ArrayId(1), 5, n, true, op);
            assert_eq!(counted.overall().reads, expanded.len() as u64 / 2);
            assert_eq!(
                counted.for_array(ArrayId(1)).writes,
                expanded.len() as u64 / 2
            );
        }
    }

    #[test]
    fn hashing_sink_digest_is_sha256_of_the_documented_record_stream() {
        let mut sink = HashingSink::new();
        assert_eq!(sink.digest(), Sha256::digest(b""));
        sink.record(TraceEvent::Alloc {
            array: ArrayId(7),
            len: 9,
        });
        sink.record(TraceEvent::Access(Access::write(ArrayId(7), 3)));
        // Reading the digest mid-run finalises a copy: recording continues.
        let midway = sink.digest();
        sink.record_run(AccessKind::Read, ArrayId(7), 2, 6);
        sink.record_sweep(ArrayId(7), 4, 5, SweepOrder::Descending);
        sink.record_block(ArrayId(7), 1, 8, true, BlockOp::Merge);

        let mut stream = Vec::new();
        for (tag, words) in [
            (2u8, vec![9u64]),
            (1, vec![3]),
            (3, vec![2, 6]),
            (6, vec![4, 5]),
            (10, vec![1, 8]),
        ] {
            stream.extend_from_slice(&7u32.to_le_bytes());
            stream.push(tag);
            for word in words {
                stream.extend_from_slice(&word.to_le_bytes());
            }
        }
        assert_eq!(stream.len(), 13 + 13 + 21 + 21 + 21);
        assert_eq!(midway, Sha256::digest(&stream[..26]));
        assert_eq!(sink.digest(), Sha256::digest(&stream));
        // A merge of 8 cells is three levels of four gates.
        assert_eq!(sink.events(), 1 + 1 + 6 + 4 * 5 + 4 * 12);
        assert_eq!(sink.records(), 5);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut sink = NullSink;
        for e in sample_events() {
            sink.record(e);
        }
    }
}
