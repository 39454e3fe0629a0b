//! `Align-Table` (Algorithm 5): reorder `S₂` so it lines up with `S₁`.
//!
//! After expansion, `S₁` holds `α₂(j)` contiguous copies of every `T₁` entry
//! and `S₂` holds `α₁(j)` contiguous copies of every `T₂` entry; both are
//! grouped by join value in the same order, so a join value's block starts
//! at the same row `p − q` of both (`p` a row's position, `q` its offset
//! inside its block).  Within the block of a join value `j` (of size
//! `α₁·α₂`), row `p` of `S₁` is copy number `p mod α₂` of `T₁` entry
//! `⌊p/α₂⌋` — so the `S₂` row that must sit at position `p` is the `T₂`
//! entry with index `p mod α₂` (in its `⌊p/α₂⌋`-th copy).
//!
//! A single linear pass computes, for every `S₂` row, its block offset in
//! `S₁` (the alignment index `ii`) and writes its data value with the slot
//! `p − q + ii` into an [`AlignRecord`]; one oblivious sort by slot
//! realises the permutation.  The align sort moves 8 + 8W bytes per record
//! (16 with the one-word payload), not the 40 of an [`AugRecord`]:
//! the zip reads the join value from `S₁`, so only `d₂` has to travel.
//!
//! ## Where this departs from Algorithm 5
//!
//! The paper sorts `S₂` by `(j, ii)`.  Here the sort key is the row's slot
//! in `S₁`, `p − q + ii`: blocks are laid out in ascending `j` in both
//! tables, so ordering by slot is ordering by `(j, ii)`, and the slots form
//! a permutation of `0..m` — one word, no ties, and no join value to carry.
//! The network is the same one over the same `m` records, so the
//! comparisons and the trace's shape are the paper's.

use obliv_primitives::sort::bitonic;
use obliv_primitives::{Choice, CtSelect};
use obliv_trace::{TraceSink, Tracer, TrackedBuffer};

use crate::record::{AlignRecord, AugRecord, Payload};

/// Run Algorithm 5 on the expanded table `S₂`, which it consumes: the
/// result holds `S₂`'s data values in `S₁`'s row order, row `i` with slot
/// `i`.
pub fn align_table<S: TraceSink, P: Payload>(
    s2: TrackedBuffer<AugRecord<P>, S>,
    tracer: &Tracer<S>,
) -> TrackedBuffer<AlignRecord<P>, S> {
    let m = s2.len();
    let mut aligned = tracer.alloc::<AlignRecord<P>>(m);

    // Linear pass: q is the 0-based index of the row within its join-value
    // block (reset whenever the join value changes, exactly like the counter
    // in Fill-Dimensions).  With contiguous expansion the row at block
    // offset q is copy number (q mod α₁) of T₂ entry number ⌊q/α₁⌋, and it
    // must move to block offset ii = (q mod α₁)·α₂ + ⌊q/α₁⌋ — row p − q + ii
    // of S₁.
    let mut prev_key: u64 = 0;
    let mut have_prev = Choice::FALSE;
    let mut q: u64 = 0;
    tracer.bump_linear_steps(m as u64);
    let rows = s2.read_run(0, m).iter().zip(aligned.write_run(0, m));
    for (p, (e, out)) in (0u64..).zip(rows) {
        let same_group = have_prev.and(Choice::eq_u64(e.key, prev_key));
        q = u64::ct_select(same_group, q, 0);
        // α₁ ≥ 1 for every row of S₂ (groups with α₁ = 0 expanded to nothing),
        // but divide defensively to keep the arithmetic total.
        let alpha1 = u64::from(e.alpha1.max(1));
        let copy_number = q % alpha1;
        let source_index = q / alpha1;
        let ii = copy_number * u64::from(e.alpha2) + source_index;
        *out = AlignRecord {
            slot: p - q + ii,
            value: e.value,
        };
        q += 1;
        prev_key = e.key;
        have_prev = Choice::TRUE;
    }
    drop(s2);

    // One oblivious sort by slot puts every copy where S₁ expects it.
    bitonic::sort_by_key(&mut aligned, |r: &AlignRecord<P>| r.slot);
    aligned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Entry, TableId};
    use obliv_trace::{CollectingSink, CountingSink};

    /// S₂-shaped rows: `groups` lists, per join value, the α₁ and the data
    /// values of its T₂ entries (α₂ is their count).
    fn s2_rows(groups: &[(u64, u32, Vec<u64>)]) -> Vec<AugRecord> {
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
        rows
    }

    /// Align the S₂ built from `groups`; returns its data values in S₁
    /// order, after checking that row `i` holds slot `i`.
    fn aligned_values(groups: &[(u64, u32, Vec<u64>)]) -> Vec<u64> {
        let tracer = Tracer::new(CountingSink::new());
        let aligned = align_table(tracer.alloc_from(s2_rows(groups)), &tracer);
        let slots: Vec<u64> = aligned.as_slice().iter().map(|r| r.slot).collect();
        assert_eq!(slots, (0..slots.len() as u64).collect::<Vec<_>>());
        aligned.as_slice().iter().map(|r| r.value).collect()
    }

    #[test]
    fn aligns_paper_figure_5_group() {
        // Group x: α₁ = 2 (a1, a2 in T₁), α₂ = 3 (u1, u2, u3 in T₂).
        // Expanded S₂ = u1 u1 u2 u2 u3 u3 must become u1 u2 u3 u1 u2 u3.
        let values = aligned_values(&[(1, 2, vec![31, 32, 33])]);
        assert_eq!(values, vec![31, 32, 33, 31, 32, 33]);
    }

    #[test]
    fn aligns_multiple_groups_independently() {
        // Group 1: α₁ = 2, values {10, 20}; group 2: α₁ = 1, values {7};
        // group 3: α₁ = 3, values {5, 6}.
        let values = aligned_values(&[(1, 2, vec![10, 20]), (2, 1, vec![7]), (3, 3, vec![5, 6])]);
        assert_eq!(values, vec![10, 20, 10, 20, 7, 5, 6, 5, 6, 5, 6]);
    }

    #[test]
    fn single_copy_groups_stay_in_place() {
        let values = aligned_values(&[(1, 1, vec![1, 2, 3]), (2, 1, vec![4])]);
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_table_is_a_no_op() {
        assert!(aligned_values(&[]).is_empty());
    }

    #[test]
    fn trace_depends_only_on_length() {
        let run = |groups: Vec<(u64, u32, Vec<u64>)>| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = align_table(tracer.alloc_from(s2_rows(&groups)), &tracer);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Both inputs have m = 12 rows but different group structures.
        let a = run(vec![(1, 2, vec![1, 2, 3]), (2, 3, vec![4, 5])]);
        let b = run(vec![(7, 12, vec![9])]);
        assert_eq!(a, b);
    }
}
