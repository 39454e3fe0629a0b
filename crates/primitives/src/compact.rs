//! Oblivious compaction: gather the non-null elements of an array at the
//! front, obliviously.
//!
//! §3.5 of the paper mentions two ways to do this: sort with the null flag
//! as the leading key (`O(n log² n)` with a bitonic sorter), or Goodrich's
//! order-preserving routing-network compaction.  Only the second is built
//! here ([`oblivious_compact`]): `O(n log n)`, the mirror image of the
//! distribution network of Algorithm 3 (the paper notes the distribution
//! network "is used in the reverse direction" relative to Goodrich's
//! compaction).
//!
//! [`oblivious_compact`] is also one half of the join: `Oblivious-Expand`
//! assigns its destinations as a running sum, so the "sort by destination,
//! nulls last" of `Ext-Oblivious-Distribute` only ever has to *remove nulls
//! stably*, which is this network at `O(n log n)` instead of a sort's
//! `O(n log² n)` (see [`oblivious_expand`](crate::oblivious_expand)).
//! Selections and projections reduce to it as well.

use obliv_trace::{SweepOrder, TraceSink, TrackedBuffer};

use crate::ct::{Choice, CtSelect};
use crate::routable::Routable;

/// Result of a compaction: the buffer plus the number of real elements now
/// occupying its prefix.
#[derive(Debug)]
pub struct Compaction<T: Copy, S: TraceSink> {
    /// The compacted buffer (same length as the input).
    pub table: TrackedBuffer<T, S>,
    /// Number of non-null elements, all of which now sit at the front.
    pub live: u64,
}

/// Order-preserving oblivious compaction via the reverse routing network.
///
/// Every non-null element is assigned its rank among the non-null elements
/// (a linear pass), and the routing network then moves each element *down*
/// to its rank with hops of decreasing powers of two — the mirror image of
/// [`oblivious_distribute`](crate::oblivious_distribute), with the same
/// `O(n log n)` cost and the same input-independent access pattern.
///
/// The relative order of the surviving elements is preserved.  Destination
/// attributes of the survivors are overwritten with their rank.
pub fn oblivious_compact<T, S>(mut buf: TrackedBuffer<T, S>) -> Compaction<T, S>
where
    T: Routable,
    S: TraceSink,
{
    let n = buf.len();
    let tracer = buf.tracer();

    // Pass 1: rank assignment.  Non-null elements receive dest = 1, 2, …;
    // null elements receive dest = 0.
    let mut rank: u64 = 0;
    tracer.bump_linear_steps(n as u64);
    for slot in buf.rw_run_mut(0, n) {
        let mut e = *slot;
        let live = Choice::from_bool(!e.is_null());
        rank += live.mask() & 1;
        e.set_dest(u64::ct_select(live, rank, 0));
        *slot = e;
    }
    let live = rank;

    // Pass 2: routing.  Each live element must move down by exactly
    // (position − rank + 1); the moves follow the binary expansion of that
    // distance, least-significant bit first, with hop sizes j = 1, 2, 4, ….
    // Processing pairs front-to-back within a stage vacates a destination
    // slot before the element behind it arrives, and because the remaining
    // distances of live elements grow by at most the gap between them, a
    // moving element always lands on a null slot.  Each stage is one sweep
    // event over one borrowed slice; a hop still reads both its cells into
    // local memory and writes both back.
    let mut j = 1usize;
    while j < n {
        tracer.bump_routing_hops((n - j) as u64);
        let cells = buf.sweep_mut(j, n - j, SweepOrder::Ascending);
        for i in 0..n - j {
            let lo = cells[i];
            let hi = cells[i + j];
            // Remaining downward distance of the upper element: current
            // position (i + j) minus target position (dest − 1).  Lower
            // bits were cleared by earlier stages, so testing bit log₂ j
            // asks whether this stage's hop is part of the element's
            // route.
            let live_hi = Choice::from_bool(!hi.is_null());
            let remaining = ((i + j) as u64 + 1).wrapping_sub(hi.dest());
            let bit_set = Choice::from_bool(remaining & (j as u64) != 0);
            let hop = live_hi.and(bit_set);
            cells[i] = T::ct_select(hop, hi, lo);
            cells[i + j] = T::ct_select(hop, lo, hi);
        }
        j *= 2;
    }

    Compaction { table: buf, live }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routable::Keyed;
    use obliv_trace::{CollectingSink, CountingSink, Tracer};

    type K = Keyed<u64>;

    /// Build a buffer from an option pattern: `Some(v)` is a real element
    /// with payload `v`, `None` is a null slot.
    fn build(
        tracer: &Tracer<CountingSink>,
        pattern: &[Option<u64>],
    ) -> TrackedBuffer<K, CountingSink> {
        tracer.alloc_from(
            pattern
                .iter()
                .map(|p| match p {
                    Some(v) => Keyed::new(*v, 1),
                    None => Keyed::null(),
                })
                .collect::<Vec<_>>(),
        )
    }

    fn live_values(c: &Compaction<K, CountingSink>) -> Vec<u64> {
        c.table.as_slice()[..c.live as usize]
            .iter()
            .map(|e| e.value)
            .collect()
    }

    #[test]
    fn compacts_simple_pattern_preserving_order() {
        let tracer = Tracer::new(CountingSink::new());
        let buf = build(
            &tracer,
            &[None, Some(10), None, Some(20), Some(30), None, Some(40)],
        );
        let c = oblivious_compact(buf);
        assert_eq!(c.live, 4);
        assert_eq!(live_values(&c), vec![10, 20, 30, 40]);
        // Every slot past the live prefix is null.
        assert!(c.table.as_slice()[c.live as usize..]
            .iter()
            .all(|e| e.is_null()));
    }

    #[test]
    fn exhaustive_small_patterns() {
        // Every null/real pattern up to length 10; order preservation is
        // checked by giving the real elements increasing payloads.
        for n in 0..=10usize {
            for mask in 0u32..(1 << n) {
                let pattern: Vec<Option<u64>> = (0..n)
                    .map(|i| {
                        if (mask >> i) & 1 == 1 {
                            Some(100 + i as u64)
                        } else {
                            None
                        }
                    })
                    .collect();
                let expected: Vec<u64> = pattern.iter().flatten().copied().collect();
                let tracer = Tracer::new(CountingSink::new());
                let c = oblivious_compact(build(&tracer, &pattern));
                assert_eq!(c.live as usize, expected.len(), "n={n} mask={mask:b}");
                assert_eq!(live_values(&c), expected, "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn all_null_and_all_real() {
        let tracer = Tracer::new(CountingSink::new());
        let c = oblivious_compact(build(&tracer, &[None, None, None]));
        assert_eq!(c.live, 0);

        let c = oblivious_compact(build(&tracer, &[Some(1), Some(2), Some(3)]));
        assert_eq!(c.live, 3);
        assert_eq!(live_values(&c), vec![1, 2, 3]);

        let empty: TrackedBuffer<K, _> = tracer.alloc_from(vec![]);
        let c = oblivious_compact(empty);
        assert_eq!(c.live, 0);
    }

    #[test]
    fn larger_random_like_pattern() {
        let tracer = Tracer::new(CountingSink::new());
        let pattern: Vec<Option<u64>> = (0..300u64)
            .map(|i| {
                if (i * 2654435761) % 7 < 3 {
                    Some(i)
                } else {
                    None
                }
            })
            .collect();
        let expected: Vec<u64> = pattern.iter().flatten().copied().collect();
        let c = oblivious_compact(build(&tracer, &pattern));
        assert_eq!(c.live as usize, expected.len());
        assert_eq!(live_values(&c), expected);
    }

    #[test]
    fn traces_depend_only_on_length() {
        let run = |pattern: Vec<Option<u64>>| {
            let tracer = Tracer::new(CollectingSink::new());
            let buf = tracer.alloc_from(
                pattern
                    .iter()
                    .map(|p| match p {
                        Some(v) => Keyed::new(*v, 1),
                        None => Keyed::<u64>::null(),
                    })
                    .collect::<Vec<_>>(),
            );
            let _ = oblivious_compact(buf);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        let a = run(vec![Some(1), None, Some(2), None, Some(3), None, None]);
        let b = run(vec![None, None, None, None, None, None, Some(9)]);
        let c = run(vec![Some(4); 7]);
        assert_eq!(a, b);
        assert_eq!(a.len(), c.len());
        assert_eq!(a, c);
    }
}
