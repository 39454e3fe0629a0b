//! `Oblivious-Expand` (Algorithm 4).
//!
//! Given an array `X = (x₁, …, xₙ)` and a non-negative replication count
//! `g(x)` for each element, produce
//!
//! ```text
//! A = (x₁, …, x₁, x₂, …, x₂, …)        with g(xᵢ) copies of xᵢ,
//! ```
//!
//! in time `O(n log n + m log m)` where `m = Σ g(xᵢ)`, obliviously.  This
//! is the workhorse of the join: `S₁` is `T₁` expanded by `α₂` and `S₂` is
//! `T₂` expanded by `α₁`.
//!
//! ## Where this departs from Algorithm 4
//!
//! The paper assigns each element its first output position (the running
//! sum of the counts, zero-count elements marked null) and hands the array
//! to `Ext-Oblivious-Distribute`, whose first step sorts by `(is null,
//! destination)` — `O(n log² n)`.  But running sums are non-decreasing in
//! input order, so that sort can only ever do one thing: remove the nulls
//! and keep everything else where it was.  That is order-preserving
//! compaction (§3.5, Goodrich's network, [`oblivious_compact`]) at
//! `O(n log n)`, and it is what runs here:
//!
//! 1. one pass marks zero-count elements null and totals the counts (`m`);
//! 2. [`oblivious_compact`] gathers the survivors at the front, order kept;
//! 3. one pass over the first `min(n, m)` cells — every survivor has a
//!    count of at least 1, so there are at most `m` of them — assigns each
//!    survivor the running sum as its destination;
//! 4. the tail shared with [`oblivious_distribute`](crate::oblivious_distribute)
//!    lays that prefix into `m` cells and routes it forward;
//! 5. a final pass copies every element into the null slots that follow it.
//!
//! Cheap nulls are also what lets the join expand both sides straight from
//! `T_C`: the other table's rows just have a count of 0.
//!
//! Every pass length, the compaction network and the routing network are
//! fixed by `n` and `m`, so the trace is a function of `(n, m)` only — how
//! many elements survive step 1 is never used as a loop bound.

use obliv_trace::{TraceSink, TrackedBuffer};

use crate::compact::{oblivious_compact, Compaction};
use crate::ct::Choice;
use crate::distribute::place_prefix;
use crate::routable::Routable;

/// Result of an expansion: the expanded buffer plus its (public) length.
#[derive(Debug)]
pub struct Expansion<T: Copy, S: TraceSink> {
    /// The expanded table, of length `total`.
    pub table: TrackedBuffer<T, S>,
    /// Total number of copies produced (`m = Σ g(x)`), which the algorithm
    /// legitimately reveals (§3.2, "Revealing Output Length").
    pub total: u64,
}

/// Obliviously duplicate each element of `x` according to `g` (Algorithm 4).
///
/// `g` is evaluated on local copies of the elements; it must be a pure
/// function of the element's payload — not of its destination attribute,
/// which the expansion overwrites on the way.  Elements with `g(x) == 0`,
/// and elements that are already null, produce no copies.
///
/// The destination attribute of every output element is left set to its
/// (1-based) position in the output, which callers may overwrite.
///
/// ```
/// use obliv_trace::{CountingSink, Tracer};
/// use obliv_primitives::{oblivious_expand, Keyed};
///
/// let tracer = Tracer::new(CountingSink::new());
/// let x = tracer.alloc_from(vec![
///     Keyed::new(10u64, 1),
///     Keyed::new(20u64, 1),
///     Keyed::new(30u64, 1),
/// ]);
/// // Replicate by value: 2 copies of 10, none of 20, 3 copies of 30.
/// let out = oblivious_expand(x, |e| match e.value {
///     10 => 2,
///     30 => 3,
///     _ => 0,
/// });
/// assert_eq!(out.total, 5);
/// let values: Vec<u64> = out.table.as_slice().iter().map(|e| e.value).collect();
/// assert_eq!(values, vec![10, 10, 30, 30, 30]);
/// ```
pub fn oblivious_expand<T, S, G>(mut x: TrackedBuffer<T, S>, g: G) -> Expansion<T, S>
where
    T: Routable,
    S: TraceSink,
    G: Fn(&T) -> u64,
{
    let n = x.len();
    let tracer = x.tracer();

    // Step 1: zero-count elements become null; m = Σ g.  Both candidate
    // records are built and the masked selection picks one, so no
    // secret-dependent branch is taken.
    let mut total: u64 = 0;
    tracer.bump_linear_steps(n as u64);
    for slot in x.rw_run_mut(0, n) {
        let e = *slot;
        let count = Choice::from_bool(!e.is_null()).mask() & g(&e);
        total += count;
        let mut dropped = e;
        dropped.set_null();
        *slot = T::ct_select(Choice::eq_u64(count, 0), dropped, e);
    }
    let m = total as usize;

    // Step 2: stable removal of the nulls (the sort of
    // Ext-Oblivious-Distribute, line 26, at O(n log n)).
    let Compaction { table: mut x, .. } = oblivious_compact(x);

    // Step 3 (lines 3–11): cumulative counts become first-occurrence
    // destinations.  `s` lives in local memory; cells past the survivors are
    // null, keep their destination of 0 and do not advance `s`.
    let prefix = n.min(m);
    let mut s: u64 = 1;
    tracer.bump_linear_steps(prefix as u64);
    for slot in x.rw_run_mut(0, prefix) {
        let e = *slot;
        let live = Choice::from_bool(!e.is_null());
        let mut placed = e;
        placed.set_dest(s);
        *slot = T::ct_select(live, placed, e);
        s += live.mask() & g(&e);
    }

    // Step 4 (lines 27–31): lay out and route to the first-occurrence
    // positions.
    let mut a = place_prefix(x, m);

    // Step 5 (lines 14–21): fill every null slot with the closest preceding
    // real element.  Both branches of the selection write the slot back.
    let mut prev = T::null();
    tracer.bump_linear_steps(m as u64);
    for slot in a.rw_run_mut(0, m) {
        let e = *slot;
        prev = T::ct_select(Choice::from_bool(e.is_null()), prev, e);
        *slot = prev;
    }

    Expansion { table: a, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routable::Keyed;
    use obliv_trace::{CollectingSink, CountingSink, Tracer};

    type K = Keyed<u64>;

    fn expand_counts(counts: &[u64]) -> (Vec<u64>, u64) {
        // Build elements whose value is their index and whose replication
        // count is looked up from `counts` by value.
        let tracer = Tracer::new(CountingSink::new());
        let x: TrackedBuffer<K, _> = tracer.alloc_from(
            (0..counts.len() as u64)
                .map(|i| Keyed::new(i, 1))
                .collect::<Vec<_>>(),
        );
        let counts = counts.to_vec();
        let out = oblivious_expand(x, move |e| counts[e.value as usize]);
        let values = out.table.as_slice().iter().map(|e| e.value).collect();
        (values, out.total)
    }

    fn reference(counts: &[u64]) -> Vec<u64> {
        counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i as u64, c as usize))
            .collect()
    }

    #[test]
    fn paper_figure_4_example() {
        // g = (2, 3, 0, 2, 1) → x1 x1 x2 x2 x2 x4 x4 x5.
        let (values, total) = expand_counts(&[2, 3, 0, 2, 1]);
        assert_eq!(total, 8);
        assert_eq!(values, reference(&[2, 3, 0, 2, 1]));
    }

    #[test]
    fn all_zero_counts_yield_empty_output() {
        let (values, total) = expand_counts(&[0, 0, 0]);
        assert_eq!(total, 0);
        assert!(values.is_empty());
    }

    #[test]
    fn single_element_many_copies() {
        let (values, total) = expand_counts(&[7]);
        assert_eq!(total, 7);
        assert_eq!(values, vec![0; 7]);
    }

    #[test]
    fn zeros_at_boundaries() {
        for counts in [
            vec![0, 5, 0],
            vec![0, 0, 3, 1],
            vec![4, 0, 0, 0],
            vec![1, 0, 1, 0, 1],
            vec![0, 1],
        ] {
            let (values, total) = expand_counts(&counts);
            let want = reference(&counts);
            assert_eq!(total as usize, want.len(), "{counts:?}");
            assert_eq!(values, want, "{counts:?}");
        }
    }

    #[test]
    fn larger_mixed_counts() {
        let counts: Vec<u64> = (0..50u64).map(|i| (i * 7 + 3) % 5).collect();
        let (values, total) = expand_counts(&counts);
        let want = reference(&counts);
        assert_eq!(total as usize, want.len());
        assert_eq!(values, want);
    }

    #[test]
    fn empty_input() {
        let (values, total) = expand_counts(&[]);
        assert_eq!(total, 0);
        assert!(values.is_empty());
    }

    #[test]
    fn trace_depends_only_on_n_and_m() {
        // Two count vectors with the same n and the same total m but very
        // different shapes must produce identical traces.
        let run = |counts: Vec<u64>| {
            let tracer = Tracer::new(CollectingSink::new());
            let x: TrackedBuffer<K, _> = tracer.alloc_from(
                (0..counts.len() as u64)
                    .map(|i| Keyed::new(i, 1))
                    .collect::<Vec<_>>(),
            );
            let counts2 = counts.clone();
            let _ = oblivious_expand(x, move |e| counts2[e.value as usize]);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        let a = run(vec![2, 2, 2, 2]); // m = 8, uniform
        let b = run(vec![8, 0, 0, 0]); // m = 8, single heavy element
        let c = run(vec![0, 0, 1, 7]); // m = 8, heavy tail
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn output_preserves_destination_ordering_of_copies() {
        // The destinations left on the output should be non-decreasing and
        // equal to the first-occurrence index of each run.
        let tracer = Tracer::new(CountingSink::new());
        let x: TrackedBuffer<K, _> =
            tracer.alloc_from(vec![Keyed::new(5, 1), Keyed::new(6, 1), Keyed::new(7, 1)]);
        let out = oblivious_expand(x, |e| e.value - 4); // counts 1, 2, 3
        let dests: Vec<u64> = out.table.as_slice().iter().map(|e| e.dest).collect();
        assert_eq!(dests, vec![1, 2, 2, 4, 4, 4]);
    }
}
