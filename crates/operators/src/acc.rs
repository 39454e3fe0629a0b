//! The record the two aggregation kernels sort, scan and compact.
//!
//! The aggregates need what the join kernel's record has — key, data word,
//! table id, routing metadata for compaction — plus running accumulators
//! that must be full words (sums wrap at 2⁶⁴).  They used to borrow the
//! join record's `α₁`/`α₂`/alignment words for that, which pinned the
//! kernel's layout to eight `u64`s; with a record of their own the kernel
//! is free to be as narrow as the join allows, and each aggregate carries
//! exactly as many accumulators (`A`) as it folds.

use obliv_primitives::{Choice, CtSelect, Routable};

/// `(j, d, tid)` plus `A` running accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccRecord<const A: usize> {
    /// Grouping / join attribute `j`.
    pub key: u64,
    /// Data attribute `d`; the finished aggregate in output rows.
    pub value: u64,
    /// Running per-group accumulators.
    pub acc: [u64; A],
    /// 1-based routing destination for compaction; 0 in null records.
    pub dest: u64,
    /// Originating table (1 or 2) where two tables are combined, else 0.
    pub tid: u32,
    /// 1 for real records, 0 for discarded ones.
    pub live: u32,
}

impl<const A: usize> AccRecord<A> {
    /// A live record with zeroed accumulators.
    pub fn new(key: u64, value: u64, tid: u32) -> Self {
        AccRecord {
            key,
            value,
            acc: [0; A],
            dest: 1,
            tid,
            live: 1,
        }
    }
}

impl<const A: usize> CtSelect for AccRecord<A> {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        AccRecord {
            key: u64::ct_select(c, a.key, b.key),
            value: u64::ct_select(c, a.value, b.value),
            acc: <[u64; A]>::ct_select(c, a.acc, b.acc),
            dest: u64::ct_select(c, a.dest, b.dest),
            tid: u32::ct_select(c, a.tid, b.tid),
            live: u32::ct_select(c, a.live, b.live),
        }
    }
}

impl<const A: usize> Routable for AccRecord<A> {
    fn dest(&self) -> u64 {
        self.dest
    }

    fn set_dest(&mut self, dest: u64) {
        self.dest = dest;
    }

    fn null() -> Self {
        AccRecord {
            key: 0,
            value: 0,
            acc: [0; A],
            dest: 0,
            tid: 0,
            live: 0,
        }
    }

    fn is_null(&self) -> bool {
        self.live == 0
    }

    fn set_null(&mut self) {
        self.live = 0;
        self.dest = 0;
    }
}
