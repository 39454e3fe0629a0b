//! `Augment-Tables` (Algorithm 2): compute the group dimensions α₁ and α₂.
//!
//! The two input tables are concatenated (with table ids) into `T_C`, which
//! is sorted **once**, by `(j, tid, d)`: each join value's entries become
//! one contiguous block with the `T₁` entries first, and the per-group
//! counts are computed with one forward and one backward linear pass
//! (Figure 2).
//!
//! The sort moves [`AugmentRecord`]s — `(j, tid, d)`, 24 bytes with the
//! one-word payload — because nothing else is known yet.  Fill-Dimensions'
//! forward pass reads the sorted run and writes the [`AugRecord`]s the
//! expansions move, so the widening costs no pass of its own, and the
//! narrow run is dropped as soon as it has been read.
//!
//! The sum of the per-group products `α₁·α₂` — the output size `m` — falls
//! out of the same backward pass and is the one data-dependent quantity the
//! algorithm legitimately reveals (§3.2).
//!
//! ## Where this departs from Algorithm 2
//!
//! The paper sorts `T_C` by `(j, tid)`, fills the dimensions, then sorts a
//! second time by `(tid, j, d)` and cuts the result into the augmented `T₁`
//! and `T₂`.  The only consumers of those two tables are the two
//! expansions, and expansion discards elements whose count is 0 at the cost
//! of a linear-log compaction (`obliv_primitives::oblivious_expand`).  So
//! the `d` component moves into the first sort — `(j, tid, d)` refines
//! `(j, tid)`, `Fill-Dimensions` is unaffected — and [`augment_tables`]
//! returns the augmented `T_C` itself: its `tid = 1` subsequence is `T₁` in
//! `(j, d)` order, its `tid = 2` subsequence is `T₂` in `(j, d)` order, and
//! the join expands each side from it with the other table's counts masked
//! to 0.  One `O(n log² n)` sort and both split loops are gone; `S₁`, `S₂`
//! and the output rows are what the paper's pipeline produces, in the same
//! order.
//!
//! The trace is a function of `(n₁, n₂)` alone: one sorting network over
//! `n₁ + n₂` records and two full-length passes.

use obliv_primitives::sort::bitonic;
use obliv_primitives::{Choice, CtSelect};
use obliv_trace::{TraceSink, Tracer, TrackedBuffer};

use crate::record::{AugRecord, AugmentRecord, Payload, TableId};
use crate::table::Table;

/// The augmented combined table produced by Algorithm 2, plus the output
/// size.
#[derive(Debug)]
pub struct AugmentedTable<S: TraceSink, P: Payload = u64> {
    /// `T_C` sorted by `(j, tid, d)`, every record carrying its group's
    /// `(α₁, α₂)`.
    pub tc: TrackedBuffer<AugRecord<P>, S>,
    /// The exact join output size `m = Σ_j α₁(j)·α₂(j)`.
    pub output_size: u64,
}

/// Run Algorithm 2 on the two client tables.
///
/// Loading the plaintext tables into public memory is modelled as the
/// initial allocation of `T_C` (the adversary sees the lengths `n₁`, `n₂`,
/// which are public inputs).
pub fn augment_tables<S: TraceSink>(
    tracer: &Tracer<S>,
    t1: &Table,
    t2: &Table,
) -> AugmentedTable<S> {
    // Line 2: T_C ← (T₁ × {tid = 1}) ∪ (T₂ × {tid = 2}).
    let combined: Vec<AugmentRecord> = t1
        .iter()
        .map(|e| AugmentRecord::new(e.key, e.value, TableId::Left))
        .chain(
            t2.iter()
                .map(|e| AugmentRecord::new(e.key, e.value, TableId::Right)),
        )
        .collect();
    augment_combined(tracer, combined)
}

/// The generic body of Algorithm 2 over an already-combined `T_C` (in any
/// order; the table ids say which record came from where).  The payload
/// type is generic so the wide operators can run the same augmentation over
/// `[u64; W]` multi-column carries.
///
/// # Panics
/// Panics if `T_C` has 2³² records or more: the group dimensions are stored
/// as `u32`.
pub fn augment_combined<S: TraceSink, P: Payload>(
    tracer: &Tracer<S>,
    combined: Vec<AugmentRecord<P>>,
) -> AugmentedTable<S, P> {
    assert!(
        u32::try_from(combined.len()).is_ok(),
        "n1 + n2 = {} does not fit the record's 32-bit group dimensions",
        combined.len()
    );
    let mut sorted = tracer.alloc_from(combined);

    // Line 3, with `d` appended: every group is a contiguous block with the
    // T₁ entries first, and each table's entries are in (j, d) order.
    bitonic::sort_by_key(&mut sorted, AugmentRecord::sort_key);

    // Line 4: Fill-Dimensions — two linear passes (Figure 2).
    let (tc, output_size) = fill_dimensions(sorted, tracer);

    AugmentedTable { tc, output_size }
}

/// The two linear passes of Figure 2 over the `(j, tid)`-sorted `T_C`.
///
/// The forward pass reads the sorted narrow records and writes the
/// augmented `T_C`, which it returns with the output size `m`; the narrow
/// run is freed once read.
fn fill_dimensions<S: TraceSink, P: Payload>(
    sorted: TrackedBuffer<AugmentRecord<P>, S>,
    tracer: &Tracer<S>,
) -> (TrackedBuffer<AugRecord<P>, S>, u64) {
    let n = sorted.len();
    let mut tc = tracer.alloc::<AugRecord<P>>(n);

    // Forward pass: incremental counts.  Entries of a group see c₁ grow
    // while tid = 1 entries pass, then c₂ grow while tid = 2 entries pass;
    // the last entry of each group ends up holding the final (α₁, α₂).
    let mut prev_key: u64 = 0;
    let mut have_prev = Choice::FALSE;
    let mut c1: u32 = 0;
    let mut c2: u32 = 0;
    tracer.bump_linear_steps(n as u64);
    for (e, out) in sorted.read_run(0, n).iter().zip(tc.write_run(0, n)) {
        let same_group = have_prev.and(Choice::eq_u64(e.key, prev_key));
        c1 = u32::ct_select(same_group, c1, 0);
        c2 = u32::ct_select(same_group, c2, 0);
        let from_left = Choice::eq_u64(e.tid, TableId::Left.as_u32().into());
        c1 += (from_left.mask() & 1) as u32;
        c2 += (from_left.not().mask() & 1) as u32;
        *out = e.augment(c1, c2);
        prev_key = e.key;
        have_prev = Choice::TRUE;
    }
    drop(sorted);

    // Backward pass: propagate each group's final counts (held by its last
    // entry) to the whole group, accumulating m = Σ α₁·α₂ at the boundaries.
    let mut next_key: u64 = 0;
    let mut have_next = Choice::FALSE;
    let mut a1: u32 = 0;
    let mut a2: u32 = 0;
    let mut m: u64 = 0;
    tracer.bump_linear_steps(n as u64);
    for e in tc.rw_run_mut(0, n).iter_mut().rev() {
        let boundary = have_next.and(Choice::eq_u64(e.key, next_key)).not();
        a1 = u32::ct_select(boundary, e.alpha1, a1);
        a2 = u32::ct_select(boundary, e.alpha2, a2);
        m += boundary.mask() & (u64::from(a1) * u64::from(a2));
        e.alpha1 = a1;
        e.alpha2 = a2;
        next_key = e.key;
        have_next = Choice::TRUE;
    }

    (tc, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{CollectingSink, CountingSink};

    /// The augmented `T_C` and `m`.
    fn augmented(t1: &[(u64, u64)], t2: &[(u64, u64)]) -> (Vec<AugRecord>, u64) {
        let tracer = Tracer::new(CountingSink::new());
        let a = augment_tables(
            &tracer,
            &Table::from_pairs(t1.to_vec()),
            &Table::from_pairs(t2.to_vec()),
        );
        (a.tc.as_slice().to_vec(), a.output_size)
    }

    /// The subsequence of `T_C` that came from one table, as `(j, d)` pairs.
    fn side(tc: &[AugRecord], table: TableId) -> Vec<(u64, u64)> {
        tc.iter()
            .filter(|r| r.tid == table.as_u32())
            .map(|r| (r.key, r.value))
            .collect()
    }

    fn sorted(rows: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn paper_figure_2_example() {
        // T₁: (x,a1), (x,a2), (y,b1..b4), T₂: (x,u1..u3), (y,v1), (y,v2), (z,w1).
        let t1 = [(2, 203), (1, 102), (2, 201), (2, 204), (1, 101), (2, 202)];
        let t2 = [(3, 501), (1, 303), (2, 402), (1, 301), (2, 401), (1, 302)];
        let (tc, m) = augmented(&t1, &t2);

        // m = 2·3 (x) + 4·2 (y) + 0·1 (z) = 14.
        assert_eq!(m, 14);

        // Every x entry carries (α₁, α₂) = (2, 3); every y entry (4, 2);
        // the z entry of T₂ carries (0, 1).
        assert_eq!(tc.len(), 12);
        for r in &tc {
            match r.key {
                1 => assert_eq!((r.alpha1, r.alpha2), (2, 3), "{r:?}"),
                2 => assert_eq!((r.alpha1, r.alpha2), (4, 2), "{r:?}"),
                3 => assert_eq!((r.alpha1, r.alpha2), (0, 1), "{r:?}"),
                _ => panic!("unexpected key in {r:?}"),
            }
        }

        // T_C is sorted by (j, tid, d), so each table's rows survive as a
        // subsequence in (j, d) order — what the second sort of Algorithm 2
        // would have produced as the augmented T₁ and T₂.
        assert!(tc
            .windows(2)
            .all(|w| (w[0].key, w[0].tid, w[0].value) <= (w[1].key, w[1].tid, w[1].value)));
        assert_eq!(side(&tc, TableId::Left), sorted(&t1));
        assert_eq!(side(&tc, TableId::Right), sorted(&t2));
        assert!(tc.iter().all(|r| r.is_live()));
    }

    #[test]
    fn disjoint_keys_produce_zero_output() {
        let (tc, m) = augmented(&[(1, 1), (2, 2)], &[(3, 3), (4, 4)]);
        assert_eq!(m, 0);
        for r in &tc {
            let expected = if r.tid == 1 { (1, 0) } else { (0, 1) };
            assert_eq!((r.alpha1, r.alpha2), expected, "{r:?}");
        }
    }

    #[test]
    fn empty_tables() {
        let (tc, m) = augmented(&[], &[]);
        assert_eq!(m, 0);
        assert!(tc.is_empty());

        let (tc, m) = augmented(&[(1, 1)], &[]);
        assert_eq!(m, 0);
        assert_eq!(tc.len(), 1);
        assert_eq!((tc[0].tid, tc[0].alpha1, tc[0].alpha2), (1, 1, 0));
    }

    #[test]
    fn one_to_one_groups() {
        let t: Vec<(u64, u64)> = (0..8).map(|i| (i, i * 10)).collect();
        let (tc, m) = augmented(&t, &t);
        assert_eq!(m, 8);
        assert_eq!(tc.len(), 16);
        assert!(tc.iter().all(|r| (r.alpha1, r.alpha2) == (1, 1)));
        // Within every group the T₁ entry precedes the T₂ entry.
        assert!(tc.chunks(2).all(|g| (g[0].tid, g[1].tid) == (1, 2)));
    }

    #[test]
    fn single_heavy_group() {
        let t1: Vec<(u64, u64)> = (0..5).map(|i| (42, i)).collect();
        let t2: Vec<(u64, u64)> = (0..7).map(|i| (42, 100 + i)).collect();
        let (tc, m) = augmented(&t1, &t2);
        assert_eq!(m, 35);
        assert!(tc.iter().all(|r| (r.alpha1, r.alpha2) == (5, 7)));
        assert_eq!(side(&tc, TableId::Left), t1);
        assert_eq!(side(&tc, TableId::Right), t2);
    }

    #[test]
    fn duplicate_data_values_are_kept() {
        // Repeated (j, d) pairs are legitimate rows and must all survive.
        let (tc, m) = augmented(&[(1, 9), (1, 9), (1, 9)], &[(1, 5)]);
        assert_eq!(m, 3);
        assert_eq!(side(&tc, TableId::Left), [(1, 9); 3]);
        assert!(tc.iter().all(|r| (r.alpha1, r.alpha2) == (3, 1)));
    }

    #[test]
    fn trace_depends_only_on_sizes() {
        let run = |t1: Vec<(u64, u64)>, t2: Vec<(u64, u64)>| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = augment_tables(&tracer, &Table::from_pairs(t1), &Table::from_pairs(t2));
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Same (n₁, n₂) = (4, 3), wildly different group structures.
        let a = run(
            vec![(1, 1), (1, 2), (1, 3), (1, 4)],
            vec![(1, 5), (1, 6), (1, 7)],
        );
        let b = run(
            vec![(1, 1), (2, 2), (3, 3), (4, 4)],
            vec![(9, 5), (9, 6), (8, 7)],
        );
        assert_eq!(a, b);
    }
}
