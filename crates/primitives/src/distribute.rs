//! `Oblivious-Distribute` (Algorithm 3) and its extended variant.
//!
//! Problem: given `n` elements, each carrying an injective 1-based
//! destination `f(x) ∈ {1, …, m}` (`m ≥` number of real elements), place
//! every element at its destination in an array of size `m`, obliviously.
//!
//! [`oblivious_distribute`] is §5.2's deterministic routing network: sort by
//! destination, then let every element "trickle down" to its target with
//! hops of decreasing powers of two (`O(n log² n + m log m)`).  The paper's
//! other construction, a pseudorandom permutation of the slots undone by a
//! sort, rests on a PRP assumption that §5.2 sets aside; it is not built
//! here.
//!
//! It accepts *extended* inputs in the sense of `Ext-Oblivious-Distribute`
//! (Algorithm 4, lines 24–31): elements may be marked null (`dest() == 0`),
//! in which case they are discarded and only the real elements are placed.
//!
//! ## Where this departs from Algorithm 3 / 4
//!
//! * The sort of [`oblivious_distribute`] is for callers with *arbitrary*
//!   destinations.  [`oblivious_expand`](crate::oblivious_expand) does not
//!   call it: its destinations are a running sum, so a stable removal of
//!   nulls ([`oblivious_compact`](crate::oblivious_compact), `O(n log n)`)
//!   already yields the order the sort would.  Both share everything after
//!   that step (`place_prefix`).
//! * The paper lays the sorted input into an array of size `max(n, m)` and
//!   returns its first `m` cells.  Real elements are at most `m` and sit at
//!   the front, and the routing network never touches a cell at or beyond
//!   `m`, so only the first `min(n, m)` elements are laid out, into an array
//!   of exactly `m` cells, and there is nothing to cut off afterwards.
//! * Every routing stage runs over one borrowed slice and is announced by
//!   one sweep event ([`TrackedBuffer::sweep_mut`]) whose per-element
//!   expansion is the `R i, R i+j, W i, W i+j` stream of the paper's loop.
//!
//! The access pattern stays a function of `(n, m)` alone: the sort and the
//! lay-out see only `n` and `m`, and each stage's stride, hop count and
//! order are computed from `m`.

use obliv_trace::network::greatest_power_of_two_below;
use obliv_trace::{SweepOrder, TraceSink, TrackedBuffer};

use crate::ct::Choice;
use crate::routable::Routable;
use crate::sort::bitonic;

/// Deterministic oblivious distribution (Algorithms 3 / Ext, §5.2).
///
/// Consumes the input buffer (its storage is reused for the sort step) and
/// returns a fresh buffer of length exactly `m` in which every non-null
/// element `x` of the input sits at index `x.dest() − 1`; all other slots
/// hold [`Routable::null`].
///
/// # Requirements
/// * non-null destinations must be injective and lie in `1..=m`,
/// * the number of non-null elements must be at most `m`.
///
/// These are programming contracts of the caller; they are checked with
/// debug assertions, not data-dependent control flow.
pub fn oblivious_distribute<T, S>(mut x: TrackedBuffer<T, S>, m: usize) -> TrackedBuffer<T, S>
where
    T: Routable,
    S: TraceSink,
{
    debug_assert!(
        x.as_slice().iter().filter(|e| !e.is_null()).count() <= m,
        "more real elements than destinations"
    );

    // Alg. 3 line 3 / Alg. 4 line 26: sort the input so that real elements
    // come first, ordered by destination.  Nulls sort last because their
    // `dest` of 0 is mapped to +infinity via the is_null flag.
    bitonic::sort_by_key(&mut x, |e: &T| (e.is_null(), e.dest()));

    place_prefix(x, m)
}

/// The tail shared by distribution and expansion: given an array whose real
/// elements form a prefix ordered by destination, lay that prefix into a
/// fresh array of `m` cells (lines 4–5 / 27–29) and route every element
/// forward to its destination (lines 6–17).
///
/// At most `m` elements are real, so cells at or beyond `min(n, m)` of the
/// input are null and are not copied.
pub(crate) fn place_prefix<T, S>(x: TrackedBuffer<T, S>, m: usize) -> TrackedBuffer<T, S>
where
    T: Routable,
    S: TraceSink,
{
    let tracer = x.tracer();
    let prefix = x.len().min(m);
    let mut a = tracer.alloc_from(vec![T::null(); m]);
    tracer.bump_linear_steps(prefix as u64);
    let laid_out = x.read_run(0, prefix);
    a.write_run(0, prefix).copy_from_slice(laid_out);
    drop(x);
    route_forward(&mut a);
    a
}

/// The routing network of Algorithm 3 over the whole of `a`.  Hop intervals
/// are the powers of two below `m = a.len()`; for each interval `j` the
/// stage scans backwards and moves an element forward by `j` whenever doing
/// so does not overshoot its destination.  Both outcomes of a hop perform
/// identical accesses.
fn route_forward<T, S>(a: &mut TrackedBuffer<T, S>)
where
    T: Routable,
    S: TraceSink,
{
    let m = a.len();
    if m < 2 {
        return;
    }
    let tracer = a.tracer();
    let mut j = greatest_power_of_two_below(m as u64) as usize;
    while j >= 1 {
        tracer.bump_routing_hops((m - j) as u64);
        let cells = a.sweep_mut(j, m - j, SweepOrder::Descending);
        // 0-based translation of "for i ← m − j … 1".
        for i in (0..m - j).rev() {
            let y = cells[i];
            let y_next = cells[i + j];
            // 1-based condition f̂(y) ≥ i + j becomes dest ≥ i + j + 1 in
            // 0-based position terms; nulls (dest 0) never satisfy it.
            let hop = Choice::ge_u64(y.dest(), (i + j + 1) as u64);
            cells[i] = T::ct_select(hop, y_next, y);
            cells[i + j] = T::ct_select(hop, y, y_next);
        }
        j /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routable::Keyed;
    use obliv_trace::{CollectingSink, CountingSink, Tracer};

    type K = Keyed<u64>;

    fn keyed(
        tracer: &Tracer<CountingSink>,
        pairs: &[(u64, u64)],
    ) -> TrackedBuffer<K, CountingSink> {
        tracer.alloc_from(pairs.iter().map(|&(v, d)| Keyed::new(v, d)).collect())
    }

    fn check_placement(out: &[K], expected: &[(u64, u64)], m: usize) {
        assert_eq!(out.len(), m);
        let mut want = vec![None; m];
        for &(v, d) in expected {
            want[(d - 1) as usize] = Some(v);
        }
        for (i, slot) in out.iter().enumerate() {
            match want[i] {
                Some(v) => {
                    assert_eq!(slot.dest, i as u64 + 1, "slot {i}");
                    assert_eq!(slot.value, v, "slot {i}");
                }
                None => assert!(slot.is_null(), "slot {i} should be null, got {slot:?}"),
            }
        }
    }

    #[test]
    fn places_paper_example() {
        // Figure 3: n = 5, m = 8, destinations 4, 1, 3, 8, 6.
        let tracer = Tracer::new(CountingSink::new());
        let pairs = [(1, 4), (2, 1), (3, 3), (4, 8), (5, 6)];
        let x = keyed(&tracer, &pairs);
        let out = oblivious_distribute(x, 8);
        check_placement(out.as_slice(), &pairs, 8);
    }

    #[test]
    fn handles_m_equal_n_dense_permutation() {
        let tracer = Tracer::new(CountingSink::new());
        let pairs: Vec<(u64, u64)> = (0..16u64).map(|i| (i, ((i * 5) % 16) + 1)).collect();
        let x = keyed(&tracer, &pairs);
        let out = oblivious_distribute(x, 16);
        check_placement(out.as_slice(), &pairs, 16);
    }

    #[test]
    fn discards_null_elements_ext_variant() {
        let tracer = Tracer::new(CountingSink::new());
        // Nulls interleaved with real elements; m smaller than n.
        let x = tracer.alloc_from(vec![
            Keyed::new(10u64, 2),
            Keyed::<u64>::null(),
            Keyed::new(30, 1),
            Keyed::<u64>::null(),
            Keyed::new(50, 3),
            Keyed::<u64>::null(),
        ]);
        let out = oblivious_distribute(x, 3);
        check_placement(out.as_slice(), &[(10, 2), (30, 1), (50, 3)], 3);
    }

    #[test]
    fn single_element_and_empty_domains() {
        let tracer = Tracer::new(CountingSink::new());
        let x = keyed(&tracer, &[(9, 1)]);
        let out = oblivious_distribute(x, 1);
        check_placement(out.as_slice(), &[(9, 1)], 1);

        let empty: TrackedBuffer<K, _> = tracer.alloc_from(vec![]);
        let out = oblivious_distribute(empty, 4);
        assert_eq!(out.len(), 4);
        assert!(out.as_slice().iter().all(|e| e.is_null()));

        let all_null: TrackedBuffer<K, _> = tracer.alloc_from(vec![Keyed::null(); 3]);
        let out = oblivious_distribute(all_null, 0);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn sparse_distribution_many_gaps() {
        let tracer = Tracer::new(CountingSink::new());
        let pairs: Vec<(u64, u64)> = (0..10u64).map(|i| (i + 100, i * 7 + 1)).collect();
        let m = 64 + 2; // not a power of two
        let x = keyed(&tracer, &pairs);
        let out = oblivious_distribute(x, m);
        check_placement(out.as_slice(), &pairs, m);
    }

    #[test]
    fn routing_trace_depends_only_on_n_and_m() {
        let run = |dests: Vec<u64>| {
            let tracer = Tracer::new(CollectingSink::new());
            let x = tracer.alloc_from(dests.iter().map(|&d| Keyed::new(d, d)).collect::<Vec<K>>());
            let _ = oblivious_distribute(x, 16);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Same n = 6, m = 16, very different destination structures.
        let a = run(vec![1, 2, 3, 4, 5, 6]);
        let b = run(vec![11, 12, 13, 14, 15, 16]);
        let c = run(vec![1, 3, 7, 8, 15, 16]);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn routing_hop_counter_is_m_log_m() {
        let tracer = Tracer::new(CountingSink::new());
        let m = 64;
        let x = keyed(&tracer, &[(1, 1), (2, 30), (3, 64)]);
        let _ = oblivious_distribute(x, m);
        // For m a power of two the loop executes (m - j) hops for j = m/2,
        // m/4, …, 1: that is Σ (m − m/2^k) = m·log₂(m) − (m − 1).
        let expected = (m as u64) * 6 - (m as u64 - 1);
        assert_eq!(tracer.counters().routing_hops, expected);
    }
}
