//! The full oblivious equi-join (Algorithm 1).
//!
//! ```text
//! Oblivious-Join(T₁, T₂):
//!   1. Augment-Tables      — T_C sorted by (j, tid, d), dimensions α₁, α₂, size m
//!   2. Oblivious-Expand    — S₁: α₂ copies of every T₁ entry of T_C
//!   3. Oblivious-Expand    — S₂: α₁ copies of every T₂ entry of T_C
//!   4. Align-Table S₂      — S₂'s data values, sorted into S₁'s row order
//!   5. zip                 — output rows (S₁[i].d, S₂[i].d)
//! ```
//!
//! Each sort moves a record of its own, carrying only the words it orders
//! and the next phase reads: the augment sort `(j, tid, d)`
//! ([`AugmentRecord`], 24 bytes with the one-word payload), the align sort
//! `(slot, d₂)` ([`AlignRecord`], 16 bytes).
//! The expansions move the 40-byte [`AugRecord`] that Fill-Dimensions
//! writes.
//!
//! The total cost is `O(n log² n + m log² m)` with `n = n₁ + n₂` — one
//! sorting network over `n` records (augment) and one over `m` (align) —
//! plus `O(n log n + m log m)` routing hops; the access pattern is a
//! function of `(n₁, n₂, m)` only.
//!
//! ## Where this departs from Algorithm 1
//!
//! The paper expands the separated tables `T₁` and `T₂`.  Here both
//! expansions read the augmented `T_C` (see [`crate::augment`]): the count of
//! a record is `α₂` if it came from `T₁` and 0 otherwise for `S₁`, and the
//! mirror image for `S₂`.  A count of 0 costs a record its place in a
//! linear-log compaction and nothing else, so this replaces a second
//! `O(n log² n)` sort over `T_C` by two `O(n log n)` compactions over it.
//! `T_C` is copied once (a traced linear pass) because each expansion
//! consumes its input.
//!
//! The trace still depends on `(n₁, n₂, m)` only: the copy and both
//! expansions run over all `n₁ + n₂` records whatever their table ids, the
//! expansions' networks are fixed by `(n₁ + n₂, m)`, and align and zip see
//! `m` records.

use std::time::Instant;

use obliv_primitives::{oblivious_expand, Choice, Expansion};
use obliv_trace::{NullSink, OpCounters, TraceSink, Tracer, TrackedBuffer};

use crate::align::align_table;
use crate::augment::augment_combined;
use crate::record::{AlignRecord, AugRecord, AugmentRecord, JoinRow, Payload, TableId};
use crate::stats::{JoinStats, Phase};
use crate::table::Table;

/// The output of an oblivious join.
///
/// The payload type defaults to the paper's single data word; the wide
/// operators instantiate it with `[u64; W]` for multi-column carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinResult<P: Payload = u64> {
    /// The joined rows `(d₁, d₂)`, one per matching pair of input rows.
    ///
    /// The rows come out grouped by join value (ascending); within a group
    /// every `T₁` row, in `d₁` order, is paired with the group's `T₂` rows in
    /// `d₂` order — lexicographic by `(d₁, d₂)` wherever a group's `d₁` are
    /// distinct, and exactly what a sort-merge join over `(j, d)`-sorted
    /// inputs emits.  Callers that need a different order should sort.
    pub rows: Vec<JoinRow<P>>,
    /// The join value of each output row, aligned with `rows`.
    ///
    /// Keeping the key available lets downstream oblivious operators (e.g.
    /// the query plans of `obliv-operators`) regroup or re-join the output
    /// without a plaintext pass over the inputs.
    pub keys: Vec<crate::record::JoinKey>,
    /// Per-phase operation counts and timings.
    pub stats: JoinStats,
}

impl<P: Payload> JoinResult<P> {
    /// Number of output rows (`m`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the join produced no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Join two tables obliviously, discarding the memory trace (the fastest
/// configuration; use [`oblivious_join_with_tracer`] to record or hash the
/// trace).
pub fn oblivious_join(t1: &Table, t2: &Table) -> JoinResult {
    let tracer = Tracer::new(NullSink);
    oblivious_join_with_tracer(&tracer, t1, t2)
}

/// Join two tables obliviously, performing every public-memory access
/// through `tracer`.
pub fn oblivious_join_with_tracer<S: TraceSink>(
    tracer: &Tracer<S>,
    t1: &Table,
    t2: &Table,
) -> JoinResult {
    let combined: Vec<AugmentRecord> = t1
        .iter()
        .map(|e| AugmentRecord::new(e.key, e.value, TableId::Left))
        .chain(
            t2.iter()
                .map(|e| AugmentRecord::new(e.key, e.value, TableId::Right)),
        )
        .collect();
    oblivious_join_combined(tracer, combined, t1.len(), t2.len())
}

/// Join two keyed payload slices obliviously.
///
/// This is the generic entry point behind [`oblivious_join_with_tracer`]:
/// the payload type is any fixed-size [`Payload`] (the wide operators pass
/// `[u64; W]` to carry several columns per side through one kernel run).
/// The access pattern does not depend on the payload type, only on the
/// record width it implies.
pub fn oblivious_join_payloads<S: TraceSink, P: Payload>(
    tracer: &Tracer<S>,
    t1: &[(u64, P)],
    t2: &[(u64, P)],
) -> JoinResult<P> {
    let combined: Vec<AugmentRecord<P>> = t1
        .iter()
        .map(|&(k, v)| AugmentRecord::new(k, v, TableId::Left))
        .chain(
            t2.iter()
                .map(|&(k, v)| AugmentRecord::new(k, v, TableId::Right)),
        )
        .collect();
    oblivious_join_combined(tracer, combined, t1.len(), t2.len())
}

/// Algorithm 1 over an already-combined record vector (`n1` records from
/// `T₁`, `n2` from `T₂`).
fn oblivious_join_combined<S: TraceSink, P: Payload>(
    tracer: &Tracer<S>,
    combined: Vec<AugmentRecord<P>>,
    n1: usize,
    n2: usize,
) -> JoinResult<P> {
    let mut stats = JoinStats::new(n1 as u64, n2 as u64);
    let mut ops_before = tracer.counters();
    let mut phase_timer = Instant::now();
    let mut finish_phase = |phase: Phase, stats: &mut JoinStats, tracer: &Tracer<S>| {
        let now = Instant::now();
        let ops_now = tracer.counters();
        stats.record_phase(phase, ops_now.since(&ops_before), now - phase_timer);
        ops_before = ops_now;
        phase_timer = now;
    };

    // Phase 1: Algorithm 2.
    let augmented = augment_combined(tracer, combined);
    let m = augmented.output_size;
    stats.output_size = m;
    finish_phase(Phase::Augment, &mut stats, tracer);

    // Phase 2: S₁ = the T₁ entries of T_C expanded by α₂.  Expansion
    // consumes its input and T_C is needed twice, so this side works on a
    // copy.
    let tc = augmented.tc;
    let s1 = expand_side(traced_copy(tracer, &tc), TableId::Left);
    debug_assert_eq!(s1.total, m);
    finish_phase(Phase::ExpandLeft, &mut stats, tracer);

    // Phase 3: S₂ = the T₂ entries of T_C expanded by α₁.
    let s2 = expand_side(tc, TableId::Right);
    debug_assert_eq!(s2.total, m);
    finish_phase(Phase::ExpandRight, &mut stats, tracer);

    // Phase 4: align S₂ with S₁; S₂ is freed once its index pass has read
    // it.
    let s1 = s1.table;
    let aligned = align_table(s2.table, tracer);
    finish_phase(Phase::Align, &mut stats, tracer);

    // Phase 5: zip the data values together (Algorithm 1, lines 6–9).
    let (rows, keys) = zip_output(tracer, &s1, &aligned);
    finish_phase(Phase::Zip, &mut stats, tracer);

    JoinResult { rows, keys, stats }
}

/// Expand one side of the join out of the augmented `T_C`: every record
/// that came from `side` is replicated by the *other* table's group
/// dimension (`α₂` copies of a `T₁` entry, `α₁` of a `T₂` entry), every
/// other record by 0.  The mask is arithmetic, so which rows of `T_C` an
/// expansion keeps is never a control-flow decision.
pub fn expand_side<S: TraceSink, P: Payload>(
    tc: TrackedBuffer<AugRecord<P>, S>,
    side: TableId,
) -> Expansion<AugRecord<P>, S> {
    oblivious_expand(tc, move |r: &AugRecord<P>| {
        let copies = match side {
            TableId::Left => r.alpha2,
            TableId::Right => r.alpha1,
        };
        Choice::eq_u64(r.tid.into(), side.as_u32().into()).mask() & u64::from(copies)
    })
}

/// A second copy of `src` in public memory: one read run, one write run.
fn traced_copy<T: Copy + Default, S: TraceSink>(
    tracer: &Tracer<S>,
    src: &TrackedBuffer<T, S>,
) -> TrackedBuffer<T, S> {
    let n = src.len();
    let mut copy = tracer.alloc::<T>(n);
    tracer.bump_linear_steps(n as u64);
    let cells = src.read_run(0, n);
    copy.write_run(0, n).copy_from_slice(cells);
    copy
}

/// The final linear pass: `TD[i] ← (S₁[i].d, S₂[i].d)`, with `S₂`'s data
/// values read from the aligned buffer (the join value is carried alongside
/// for downstream operators, from `S₁`).
///
/// The pass is a fixed left-to-right scan of all three arrays, so its
/// accesses are emitted as three coalesced runs (`read_run` on each input,
/// `write_run` on the output) and its `m` step counts as one batched
/// counter update — run extents are a function of the public size `m`
/// only, so the batched trace stays a function of public parameters.
fn zip_output<S: TraceSink, P: Payload>(
    tracer: &Tracer<S>,
    s1: &TrackedBuffer<AugRecord<P>, S>,
    aligned: &TrackedBuffer<AlignRecord<P>, S>,
) -> (Vec<JoinRow<P>>, Vec<crate::record::JoinKey>) {
    debug_assert_eq!(s1.len(), aligned.len());
    let m = s1.len();
    let mut td = tracer.alloc_from(vec![(0u64, JoinRow::<P>::default()); m]);
    tracer.bump_linear_steps(m as u64);
    {
        let left_rows = s1.read_run(0, m);
        let right_rows = aligned.read_run(0, m);
        let out = td.write_run(0, m);
        for i in 0..m {
            let left = left_rows[i];
            let right = right_rows[i];
            debug_assert_eq!(
                right.slot, i as u64,
                "the aligned buffer is not in S₁'s row order at row {i}"
            );
            out[i] = (left.key, JoinRow::new(left.value, right.value));
        }
    }
    td.into_vec().into_iter().map(|(k, r)| (r, k)).unzip()
}

/// A plain (non-oblivious) nested-loop reference join, used by tests and
/// documentation to state the functional contract of [`oblivious_join`]:
/// both produce the same multiset of `(d₁, d₂)` pairs.
pub fn reference_join(t1: &Table, t2: &Table) -> Vec<JoinRow> {
    let mut rows = Vec::new();
    for a in t1.iter() {
        for b in t2.iter() {
            if a.key == b.key {
                rows.push(JoinRow::new(a.value, b.value));
            }
        }
    }
    rows
}

/// Helper shared by tests and benches: the multiset of output rows, sorted,
/// so results with different orderings can be compared.
pub fn sorted_rows(mut rows: Vec<JoinRow>) -> Vec<JoinRow> {
    rows.sort_unstable();
    rows
}

/// Measured operation counters of a join, as a convenience for callers that
/// only care about totals (reports, Table 1 reproduction).
pub fn total_ops(result: &JoinResult) -> OpCounters {
    result.stats.total_ops()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{CollectingSink, CountingSink, HashingSink};

    fn table(pairs: &[(u64, u64)]) -> Table {
        Table::from_pairs(pairs.to_vec())
    }

    fn assert_join_matches_reference(t1: &Table, t2: &Table) -> JoinResult {
        let result = oblivious_join(t1, t2);
        assert_eq!(
            sorted_rows(result.rows.clone()),
            sorted_rows(reference_join(t1, t2)),
            "join mismatch for {t1:?} vs {t2:?}"
        );
        assert_eq!(result.stats.output_size as usize, result.rows.len());
        result
    }

    #[test]
    fn joins_paper_figure_1_example() {
        // T₁ = {(x,a1),(x,a2),(y,b1),(y,b2),(y,b3)}, T₂ = {(x,u1),(x,u2),(x,u3),(y,v1),(y,v2)}.
        let t1 = table(&[(1, 11), (1, 12), (2, 21), (2, 22), (2, 23)]);
        let t2 = table(&[(1, 31), (1, 32), (1, 33), (2, 41), (2, 42)]);
        let result = assert_join_matches_reference(&t1, &t2);
        assert_eq!(result.len(), 2 * 3 + 3 * 2);
    }

    #[test]
    fn joins_disjoint_tables_to_empty_output() {
        let t1 = table(&[(1, 1), (2, 2), (3, 3)]);
        let t2 = table(&[(7, 7), (8, 8)]);
        let result = assert_join_matches_reference(&t1, &t2);
        assert!(result.is_empty());
    }

    #[test]
    fn joins_with_empty_inputs() {
        let t = table(&[(1, 1), (2, 2)]);
        let empty = Table::new();
        assert_join_matches_reference(&t, &empty);
        assert_join_matches_reference(&empty, &t);
        assert_join_matches_reference(&empty, &empty);
    }

    #[test]
    fn joins_one_to_one_keys() {
        let t1: Table = (0..20u64).map(|i| (i, i * 10)).collect();
        let t2: Table = (0..20u64).map(|i| (i, i * 100)).collect();
        let result = assert_join_matches_reference(&t1, &t2);
        assert_eq!(result.len(), 20);
    }

    #[test]
    fn joins_single_giant_group() {
        let t1: Table = (0..9u64).map(|i| (5, i)).collect();
        let t2: Table = (0..7u64).map(|i| (5, 100 + i)).collect();
        let result = assert_join_matches_reference(&t1, &t2);
        assert_eq!(result.len(), 63);
    }

    #[test]
    fn joins_skewed_group_mix() {
        // A heavy key, several medium keys, keys unique to one side, and
        // repeated (j, d) rows.
        let t1 = table(&[
            (1, 1),
            (1, 2),
            (1, 3),
            (1, 3),
            (2, 10),
            (3, 20),
            (3, 21),
            (9, 90),
        ]);
        let t2 = table(&[
            (1, 100),
            (1, 101),
            (3, 300),
            (4, 400),
            (4, 401),
            (9, 900),
            (9, 900),
        ]);
        assert_join_matches_reference(&t1, &t2);
    }

    #[test]
    fn joins_unbalanced_table_sizes() {
        let t1: Table = (0..3u64).map(|i| (i % 2, i)).collect();
        let t2: Table = (0..40u64).map(|i| (i % 5, 1000 + i)).collect();
        assert_join_matches_reference(&t1, &t2);
        assert_join_matches_reference(&t2, &t1);
    }

    #[test]
    fn output_rows_are_grouped_by_join_value() {
        let t1 = table(&[(2, 20), (1, 10), (1, 11)]);
        let t2 = table(&[(1, 5), (2, 6), (1, 7)]);
        let result = oblivious_join(&t1, &t2);
        // Key 1 pairs first (4 of them), then key 2 pairs (1).
        assert_eq!(result.len(), 5);
        let key1_rows = &result.rows[..4];
        assert!(key1_rows.iter().all(|r| r.left == 10 || r.left == 11));
        assert_eq!(result.rows[4], JoinRow::new(20, 6));
    }

    #[test]
    fn counters_match_between_runs_with_same_shape() {
        // Same (n₁, n₂, m): operation counters must be identical.
        let a = oblivious_join(&table(&[(1, 1), (1, 2)]), &table(&[(1, 5), (2, 6)]));
        let b = oblivious_join(&table(&[(7, 9), (8, 8)]), &table(&[(7, 1), (7, 2)]));
        assert_eq!(a.stats.output_size, 2);
        assert_eq!(b.stats.output_size, 2);
        assert_eq!(a.stats.total_ops(), b.stats.total_ops());
        for phase in Phase::ALL {
            assert_eq!(
                a.stats.phase(phase).ops,
                b.stats.phase(phase).ops,
                "{phase:?}"
            );
        }
    }

    #[test]
    fn trace_is_identical_for_inputs_with_same_shape() {
        let run = |t1: &Table, t2: &Table| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = oblivious_join_with_tracer(&tracer, t1, t2);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // (n₁, n₂, m) = (4, 4, 8) in three different ways.
        let a = run(
            &table(&[(1, 1), (1, 2), (2, 3), (2, 4)]),
            &table(&[(1, 5), (1, 6), (2, 7), (2, 8)]),
        );
        let b = run(
            &table(&[(3, 1), (3, 2), (3, 3), (3, 4)]),
            &table(&[(3, 5), (3, 6), (9, 7), (9, 8)]),
        );
        let c = run(
            &table(&[(1, 9), (2, 9), (3, 9), (4, 9)]),
            &table(&[(1, 1), (1, 2), (2, 1), (3, 1)]),
        );
        // a and b share the shape (n₁, n₂, m) = (4, 4, 8) and must agree
        // exactly; c has m = 4, so its trace legitimately differs in length.
        assert_eq!(a, b);
        assert_ne!(a.len(), c.len());
    }

    #[test]
    fn hashed_trace_matches_for_same_shape_and_differs_otherwise() {
        let run = |t1: &Table, t2: &Table| {
            let tracer = Tracer::new(HashingSink::new());
            let _ = oblivious_join_with_tracer(&tracer, t1, t2);
            tracer.with_sink(|s| s.digest_hex())
        };
        let base = run(
            &table(&[(1, 1), (1, 2), (2, 3)]),
            &table(&[(1, 4), (2, 5), (2, 6)]),
        ); // shape (3, 3, m = 2·1 + 1·2 = 4)
        let smaller_m = run(
            &table(&[(9, 9), (9, 8), (9, 7)]),
            &table(&[(9, 1), (3, 2), (3, 3)]),
        ); // shape (3, 3, m = 3·1 + 0·2 = 3) — different m, different trace
        let larger_m = run(
            &table(&[(1, 1), (1, 2), (2, 3)]),
            &table(&[(1, 4), (1, 5), (1, 6)]),
        ); // shape (3, 3, m = 2·3 = 6)
        assert_ne!(base, smaller_m);
        assert_ne!(base, larger_m);

        // And a genuinely identical shape must agree.
        let twin = run(
            &table(&[(5, 0), (5, 1), (6, 2)]),
            &table(&[(5, 3), (6, 4), (6, 5)]),
        ); // α(5) = 2×1, α(6) = 1×2 → m = 4
        assert_eq!(base, twin);
    }

    #[test]
    fn measured_ops_match_cost_model_prediction() {
        use crate::cost;
        for (t1, t2) in [
            (
                table(&[(1, 1), (1, 2), (2, 3), (3, 4)]),
                table(&[(1, 5), (2, 6), (2, 7)]),
            ),
            (
                (0..32u64).map(|i| (i % 8, i)).collect::<Table>(),
                (0..24u64).map(|i| (i % 6, i)).collect::<Table>(),
            ),
            // Unbalanced both ways: the compactions run over n₁ + n₂
            // whichever side is small.
            (
                (0..3u64).map(|i| (i % 2, i)).collect::<Table>(),
                (0..97u64).map(|i| (i % 5, i)).collect::<Table>(),
            ),
            (
                (0..97u64).map(|i| (i % 5, i)).collect::<Table>(),
                (0..3u64).map(|i| (i % 2, i)).collect::<Table>(),
            ),
            // Zero output: disjoint keys, then an empty side, then nothing.
            (table(&[(1, 1), (2, 2), (3, 3)]), table(&[(7, 7), (8, 8)])),
            (table(&[(1, 1), (2, 2), (3, 3)]), Table::new()),
            (Table::new(), Table::new()),
        ] {
            let tracer = Tracer::new(CountingSink::new());
            let result = oblivious_join_with_tracer(&tracer, &t1, &t2);
            let predicted = cost::predict(t1.len(), t2.len(), result.stats.output_size as usize);
            let measured = result.stats.total_ops();
            assert_eq!(measured.comparisons, predicted.total_comparisons());
            assert_eq!(measured.routing_hops, predicted.routing_hops);
            // Sorting happens in two phases only, routing in the other two.
            let hops = |p: Phase| result.stats.phase(p).ops.routing_hops;
            let comparisons = |p: Phase| result.stats.phase(p).ops.comparisons;
            assert_eq!(
                comparisons(Phase::Augment),
                predicted.augment_sort_comparisons
            );
            assert_eq!(comparisons(Phase::Align), predicted.align_sort_comparisons);
            assert_eq!(
                comparisons(Phase::ExpandLeft) + comparisons(Phase::ExpandRight),
                0
            );
            assert_eq!(hops(Phase::ExpandLeft), predicted.routing_hops / 2);
            assert_eq!(hops(Phase::ExpandRight), predicted.routing_hops / 2);
        }
    }
}
