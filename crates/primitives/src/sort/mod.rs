//! Oblivious (data-independent) sorting.
//!
//! A sorting network touches a sequence of index pairs that depends only on
//! the array length, never on its contents: exactly the property needed for
//! the paper's level-II obliviousness.  [`bitonic`] is Batcher's bitonic
//! sorter (§3.5 of the paper), the network the paper's implementation and
//! cost model (Table 3) are built on, for arbitrary lengths (not just
//! powers of two).  The shape its trace is recorded from is stated once, in
//! [`obliv_trace::network`].  Every compare-exchange writes back both of
//! its elements, so the trace does not reveal whether a swap happened, and
//! the sort bumps the tracer's comparison counters used by the Table 3
//! reproduction.

pub mod bitonic;

use obliv_trace::{TraceSink, TrackedBuffer};

use crate::ct::{Choice, CtSelect};

/// Direction of a sort or of a single compare-exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller keys first.
    Ascending,
    /// Larger keys first.
    Descending,
}

impl Direction {
    /// Flip the direction (used by the bitonic recursion).
    pub fn flipped(self) -> Direction {
        match self {
            Direction::Ascending => Direction::Descending,
            Direction::Descending => Direction::Ascending,
        }
    }
}

/// One compare-exchange gate on positions `i < j` of `buf`, ordered by the
/// key extractor `key`.
///
/// Both elements are read and both are written back regardless of whether
/// they are exchanged, as required for obliviousness under probabilistic
/// encryption (§3.5).  The decision itself is taken on local copies.
#[inline]
pub(crate) fn compare_exchange<T, S, K, F>(
    buf: &mut TrackedBuffer<T, S>,
    i: usize,
    j: usize,
    dir: Direction,
    key: &F,
) where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    debug_assert!(i < j, "compare_exchange expects i < j (got {i}, {j})");
    let a = buf.read(i);
    let b = buf.read(j);
    buf.tracer().bump_comparisons(1);
    let out_of_order = match dir {
        Direction::Ascending => key(&a) > key(&b),
        Direction::Descending => key(&a) < key(&b),
    };
    // Branch-free write-back: the same two writes happen either way, and the
    // values routed to them are chosen by masked selection.
    let c = Choice::from_bool(out_of_order);
    let lo = T::ct_select(c, b, a);
    let hi = T::ct_select(c, a, b);
    buf.write(i, lo);
    buf.write(j, hi);
}

/// Check (out of model) that a buffer is sorted by `key` in direction `dir`.
///
/// Used by tests and debug assertions; reads the underlying slice directly.
pub fn is_sorted_by_key<T, S, K, F>(buf: &TrackedBuffer<T, S>, dir: Direction, key: F) -> bool
where
    T: Copy,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    let slice = buf.as_slice();
    slice.windows(2).all(|w| match dir {
        Direction::Ascending => key(&w[0]) <= key(&w[1]),
        Direction::Descending => key(&w[0]) >= key(&w[1]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{CollectingSink, Tracer};

    #[test]
    fn direction_flips() {
        assert_eq!(Direction::Ascending.flipped(), Direction::Descending);
        assert_eq!(Direction::Descending.flipped(), Direction::Ascending);
    }

    #[test]
    fn compare_exchange_orders_pair_and_always_writes() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc_from(vec![5u64, 3]);
        compare_exchange(&mut buf, 0, 1, Direction::Ascending, &|x| *x);
        assert_eq!(buf.as_slice(), &[3, 5]);

        // Already ordered: contents unchanged but the same accesses happen.
        compare_exchange(&mut buf, 0, 1, Direction::Ascending, &|x| *x);
        assert_eq!(buf.as_slice(), &[3, 5]);

        let accesses = tracer.with_sink(|s| s.accesses().to_vec());
        assert_eq!(accesses.len(), 8, "2 reads + 2 writes per gate");
        assert_eq!(
            accesses[0..4],
            accesses[4..8],
            "identical pattern whether or not a swap happened"
        );
    }

    #[test]
    fn compare_exchange_descending() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc_from(vec![2u64, 9]);
        compare_exchange(&mut buf, 0, 1, Direction::Descending, &|x| *x);
        assert_eq!(buf.as_slice(), &[9, 2]);
    }

    #[test]
    fn is_sorted_detects_order() {
        let tracer = Tracer::new(CollectingSink::new());
        let asc = tracer.alloc_from(vec![1u64, 2, 2, 5]);
        let desc = tracer.alloc_from(vec![5u64, 2, 2, 1]);
        let neither = tracer.alloc_from(vec![1u64, 3, 2]);
        assert!(is_sorted_by_key(&asc, Direction::Ascending, |x| *x));
        assert!(!is_sorted_by_key(&asc, Direction::Descending, |x| *x));
        assert!(is_sorted_by_key(&desc, Direction::Descending, |x| *x));
        assert!(!is_sorted_by_key(&neither, Direction::Ascending, |x| *x));
        assert!(!is_sorted_by_key(&neither, Direction::Descending, |x| *x));
    }
}
