//! The unit of observation available to the adversary.
//!
//! In the paper's model (§3.1) the adversary sees, for every `?←` operation,
//! *which* array is touched, *where* it is touched, and whether the touch is
//! a read or a write — but never the contents (probabilistic encryption hides
//! those).  An [`Access`] is exactly that triple.

/// Whether a public-memory access is a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// `e ?← T[i]` in the paper's notation.
    Read,
    /// `T[i] ?← e` in the paper's notation.
    Write,
}

impl AccessKind {
    /// Single-byte encoding used by the chained trace hash (`t` in the
    /// paper's `H ← h(H‖r‖t‖i)` update): 0 for a read, 1 for a write.
    #[inline]
    pub fn as_byte(self) -> u8 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }
    }
}

/// Identifier of one public-memory array (`r` in the chained trace hash).
///
/// Arrays are numbered in allocation order by the [`Tracer`](crate::Tracer)
/// that created them, so two runs of the same program allocate identically
/// numbered arrays and their traces can be compared element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// The raw numeric id.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// One observable public-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Read or write.
    pub kind: AccessKind,
    /// Which array was accessed.
    pub array: ArrayId,
    /// Which element of the array was accessed.
    pub index: u64,
}

impl Access {
    /// Convenience constructor for a read access.
    #[inline]
    pub fn read(array: ArrayId, index: u64) -> Self {
        Access {
            kind: AccessKind::Read,
            array,
            index,
        }
    }

    /// Convenience constructor for a write access.
    #[inline]
    pub fn write(array: ArrayId, index: u64) -> Self {
        Access {
            kind: AccessKind::Write,
            array,
            index,
        }
    }
}

/// The order in which a hop sweep
/// ([`TraceSink::record_sweep`](crate::TraceSink::record_sweep)) visits its
/// lower indices: a compaction stage walks front to back, a distribution
/// stage back to front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepOrder {
    /// Hops at `i = 0, 1, …, count − 1`.
    Ascending,
    /// Hops at `i = count − 1, …, 1, 0`.
    Descending,
}

/// A program-level event that is *not* a memory access but is still part of
/// the observable cost model: allocations reveal lengths (the paper's
/// programs legitimately reveal `n` and `m`), and operation counters feed the
/// Table 3 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A public-memory access.
    Access(Access),
    /// A new public array of the given length was allocated.
    ///
    /// Lengths are public by assumption: the algorithm only ever allocates
    /// arrays whose sizes are functions of `n` and `m`.
    Alloc {
        /// The newly allocated array.
        array: ArrayId,
        /// Its (public) length.
        len: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_bytes_are_distinct() {
        assert_eq!(AccessKind::Read.as_byte(), 0);
        assert_eq!(AccessKind::Write.as_byte(), 1);
    }

    #[test]
    fn constructors_set_fields() {
        let a = Access::read(ArrayId(3), 17);
        assert_eq!(a.kind, AccessKind::Read);
        assert_eq!(a.array, ArrayId(3));
        assert_eq!(a.index, 17);

        let w = Access::write(ArrayId(0), 2);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.array.index(), 0);
        assert_eq!(w.index, 2);
    }

    #[test]
    fn accesses_compare_structurally() {
        assert_eq!(Access::read(ArrayId(1), 5), Access::read(ArrayId(1), 5));
        assert_ne!(Access::read(ArrayId(1), 5), Access::write(ArrayId(1), 5));
        assert_ne!(Access::read(ArrayId(1), 5), Access::read(ArrayId(2), 5));
        assert_ne!(Access::read(ArrayId(1), 5), Access::read(ArrayId(1), 6));
    }
}
