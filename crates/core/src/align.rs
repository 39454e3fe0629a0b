//! `Align-Table` (Algorithm 5): reorder `S₂` so it lines up with `S₁`.
//!
//! After expansion, `S₁` holds `α₂(j)` contiguous copies of every `T₁` entry
//! and `S₂` holds `α₁(j)` contiguous copies of every `T₂` entry; both are
//! grouped by join value in the same order.  Within the block of a join
//! value `j` (of size `α₁·α₂`), row `p` of `S₁` is copy number `p mod α₂` of
//! `T₁` entry `⌊p/α₂⌋` — so the `S₂` row that must sit at position `p` is
//! the `T₂` entry with index `p mod α₂` (in its `⌊p/α₂⌋`-th copy).
//!
//! A single linear pass computes, for every `S₂` row, the block position it
//! must move to (the alignment index `ii`), and one oblivious sort by
//! `(j, ii)` realises the permutation.

use obliv_primitives::sort::bitonic;
use obliv_primitives::{Choice, CtSelect};
use obliv_trace::{TraceSink, Tracer, TrackedBuffer};

use crate::record::{AugRecord, Payload};

/// Run Algorithm 5 in place on the expanded table `S₂`.
pub fn align_table<S: TraceSink, P: Payload>(
    s2: &mut TrackedBuffer<AugRecord<P>, S>,
    tracer: &Tracer<S>,
) {
    let m = s2.len();

    // Linear pass: q is the 0-based index of the row within its join-value
    // block (reset whenever the join value changes, exactly like the counter
    // in Fill-Dimensions).  With contiguous expansion the row at block
    // offset q is copy number (q mod α₁) of T₂ entry number ⌊q/α₁⌋, and it
    // must move to block offset ii = (q mod α₁)·α₂ + ⌊q/α₁⌋.  The index goes
    // into the record's routing word, which expansion is done with.
    let mut prev_key: u64 = 0;
    let mut have_prev = Choice::FALSE;
    let mut q: u64 = 0;
    tracer.bump_linear_steps(m as u64);
    for e in s2.rw_run_mut(0, m) {
        let same_group = have_prev.and(Choice::eq_u64(e.key, prev_key));
        q = u64::ct_select(same_group, q, 0);
        // α₁ ≥ 1 for every row of S₂ (groups with α₁ = 0 expanded to nothing),
        // but divide defensively to keep the arithmetic total.
        let alpha1 = u64::from(e.alpha1.max(1));
        let copy_number = q % alpha1;
        let source_index = q / alpha1;
        e.set_align_idx(copy_number * u64::from(e.alpha2) + source_index);
        q += 1;
        prev_key = e.key;
        have_prev = Choice::TRUE;
    }

    // One oblivious sort by (j, ii) puts every copy where S₁ expects it.
    bitonic::sort_by_key(s2, |r: &AugRecord<P>| (r.key, r.align_idx()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Entry, TableId};
    use obliv_trace::{CollectingSink, CountingSink};

    /// Build an S₂-shaped buffer directly: `groups` lists, per join value,
    /// the α₁ and the data values of its T₂ entries (α₂ is their count).
    fn build_s2(
        tracer: &Tracer<CountingSink>,
        groups: &[(u64, u32, Vec<u64>)],
    ) -> TrackedBuffer<AugRecord, CountingSink> {
        let mut rows = Vec::new();
        for (key, alpha1, values) in groups {
            let alpha2 = values.len() as u32;
            for value in values {
                for _ in 0..*alpha1 {
                    let mut r = AugRecord::from_entry(Entry::new(*key, *value), TableId::Right);
                    r.alpha1 = *alpha1;
                    r.alpha2 = alpha2;
                    rows.push(r);
                }
            }
        }
        tracer.alloc_from(rows)
    }

    #[test]
    fn aligns_paper_figure_5_group() {
        // Group x: α₁ = 2 (a1, a2 in T₁), α₂ = 3 (u1, u2, u3 in T₂).
        // Expanded S₂ = u1 u1 u2 u2 u3 u3 must become u1 u2 u3 u1 u2 u3.
        let tracer = Tracer::new(CountingSink::new());
        let mut s2 = build_s2(&tracer, &[(1, 2, vec![31, 32, 33])]);
        align_table(&mut s2, &tracer);
        let values: Vec<u64> = s2.as_slice().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![31, 32, 33, 31, 32, 33]);
    }

    #[test]
    fn aligns_multiple_groups_independently() {
        let tracer = Tracer::new(CountingSink::new());
        // Group 1: α₁ = 2, values {10, 20}; group 2: α₁ = 1, values {7};
        // group 3: α₁ = 3, values {5, 6}.
        let mut s2 = build_s2(
            &tracer,
            &[(1, 2, vec![10, 20]), (2, 1, vec![7]), (3, 3, vec![5, 6])],
        );
        align_table(&mut s2, &tracer);
        let values: Vec<u64> = s2.as_slice().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![10, 20, 10, 20, 7, 5, 6, 5, 6, 5, 6]);
    }

    #[test]
    fn single_copy_groups_stay_in_place() {
        let tracer = Tracer::new(CountingSink::new());
        let mut s2 = build_s2(&tracer, &[(1, 1, vec![1, 2, 3]), (2, 1, vec![4])]);
        align_table(&mut s2, &tracer);
        let values: Vec<u64> = s2.as_slice().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_table_is_a_no_op() {
        let tracer = Tracer::new(CountingSink::new());
        let mut s2 = tracer.alloc_from(Vec::<AugRecord>::new());
        align_table(&mut s2, &tracer);
        assert!(s2.is_empty());
    }

    #[test]
    fn trace_depends_only_on_length() {
        let run = |groups: Vec<(u64, u32, Vec<u64>)>| {
            let tracer = Tracer::new(CollectingSink::new());
            let mut rows = Vec::new();
            for (key, alpha1, values) in &groups {
                let alpha2 = values.len() as u32;
                for value in values {
                    for _ in 0..*alpha1 {
                        let mut r = AugRecord::from_entry(Entry::new(*key, *value), TableId::Right);
                        r.alpha1 = *alpha1;
                        r.alpha2 = alpha2;
                        rows.push(r);
                    }
                }
            }
            let mut s2 = tracer.alloc_from(rows);
            align_table(&mut s2, &tracer);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Both inputs have m = 12 rows but different group structures.
        let a = run(vec![(1, 2, vec![1, 2, 3]), (2, 3, vec![4, 5])]);
        let b = run(vec![(7, 12, vec![9])]);
        assert_eq!(a, b);
    }
}
