//! Batcher's bitonic sorting network, for arbitrary input lengths.
//!
//! This is the oblivious sort the paper builds everything on (§3.5): an
//! in-place, input-independent `O(n log² n)` network.  The arbitrary-length
//! variant used here follows the standard recursive construction: split the
//! input in halves sorted in opposite directions, then merge the resulting
//! bitonic sequence with hops of decreasing powers of two.  The sequence of
//! compare-exchange positions depends only on `n`.
//!
//! ## Execution strategy
//!
//! A sort takes two steps.  The first runs the gates: one plain recursion
//! over the buffer's cells (`sort_window`, `merge_window`), which is the
//! network — halves sorted in opposite directions, then a merge at the
//! greatest power of two below `n`.  The second records the trace: one walk
//! of the same recursion, spelled out in [`obliv_trace::network`], down to
//! sub-networks of at most [`BLOCK`] cells.  Such a *block* (a whole
//! sub-sort, or the tail of a larger merge) is one trace event and one
//! comparison-counter update ([`TrackedBuffer::block_mut`]); a merge level
//! above `BLOCK` is a *gate run*, one batched trace transaction over its two
//! strided windows ([`TrackedBuffer::paired_run_mut`]).  Nothing is
//! materialised, so a sort costs no memory beyond its input, and which
//! steps it records depends on its (public) length alone.  An order-exact
//! sink expands a block back into its runs, so the per-element trace is the
//! one a run-by-run driver would emit.
//!
//! With a [parallelism context](crate::par::context) installed, the first
//! step forks: the two half-sorts of a sub-network of at least
//! [`FORK_CELLS`] cells run on two threads over the two borrowed halves,
//! and so do the two halves of a merge's top run and its two sub-merges,
//! to a depth of ⌈log₂ threads⌉.  The forked branches touch disjoint cells
//! and run the same gates, so the contents are the serial sort's; the
//! second step is unchanged, so the trace and counters are too.
//!
//! [`sort_by_key_dir_per_gate`] keeps the per-gate walk around as the
//! differential-testing oracle and ablation baseline: a third statement of
//! the recursion, written independently of [`obliv_trace::network`], that
//! the tests check the walk's runs and the drivers' contents against.
//!
//! The compare-exchange *swap* is branch-free ([`CtSelect`]); the
//! *comparison* is whatever `K: Ord` compiles to, and tuple keys compare
//! lexicographically with a short-circuit.  That is level-II oblivious (no
//! memory access depends on it) but not constant-time in the level-III
//! sense; [`crate::ct`] records what the constant-time comparator costs
//! (+25 % per gate on the join's augment sort) and why it is not the
//! default.
//!
//! The paper parameterises calls as `Bitonic-Sort⟨x ↑, y ↓, …⟩`; here the
//! same thing is expressed with a key-extraction closure returning a tuple
//! (use [`core::cmp::Reverse`] for descending components), plus an overall
//! [`Direction`].

use obliv_trace::network::{self as shape, greatest_power_of_two_below, Step};
use obliv_trace::{BlockOp, TraceSink, TrackedBuffer};

use super::{compare_exchange, Direction};
use crate::ct::{Choice, CtSelect};
use crate::par::{self, ParCtx};

/// Sort `buf` in place, ascending by `key`.
///
/// ```
/// use obliv_trace::{CollectingSink, Tracer};
/// use obliv_primitives::sort::bitonic::sort_by_key;
///
/// let tracer = Tracer::new(CollectingSink::new());
/// let mut buf = tracer.alloc_from(vec![5u64, 1, 4, 1, 3]);
/// sort_by_key(&mut buf, |x| *x);
/// assert_eq!(buf.as_slice(), &[1, 1, 3, 4, 5]);
/// ```
pub fn sort_by_key<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, key: F)
where
    T: Copy + CtSelect + Send,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    sort_by_key_dir(buf, Direction::Ascending, key);
}

/// Largest sub-network the trace walk records as one block: large enough
/// that the per-step costs (a tracer borrow, a trace record) vanish beside
/// its `O(n log² n)` gates.  Sizes from 16 to 512 measured within 6 % of
/// each other on the join kernel, so the value is not delicate; it is a
/// constant rather than an option because the block cut is part of the
/// trace — two runs compare equal only if they cut their blocks at the same
/// size.
pub const BLOCK: usize = 64;

/// Smallest sub-network, in cells, whose two halves a forking sort runs on
/// two threads: a fork costs a thread spawn and a join, which a sort of
/// fewer cells does not earn back.  Unlike [`BLOCK`] it never changes a
/// trace — the trace comes from the same walk whether the gates forked or
/// not — only where the threads are spent.
pub const FORK_CELLS: usize = 8192;

/// Sort `buf` in place in the given direction by `key`.
///
/// Runs the network's gates over the buffer's cells — forking them across
/// the installed [parallelism context](crate::par::context), if any — and
/// then records its trace and comparison counts by one walk of the network
/// in blocks of at most [`BLOCK`] cells and, above them, one gate run per
/// merge level (see the module docs).  Block and run boundaries are a pure
/// function of the (public) length, so the batched trace remains a function
/// of public parameters only, forked or not.
pub fn sort_by_key_dir<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, dir: Direction, key: F)
where
    T: Copy + CtSelect + Send,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let descending = dir == Direction::Descending;
    let cells = buf.as_mut_slice();
    match par::context().filter(|ctx| ctx.fork_depth() > 0) {
        Some(ctx) => Fork {
            ctx: &ctx,
            key: &key,
        }
        .sort(cells, descending, ctx.fork_depth()),
        None => sort_window(cells, descending, &key),
    }
    record(buf, descending);
}

/// Record the trace and comparison counts of the network sorting `buf` in
/// direction `descending`, whose gates have already run: one block event
/// per sub-network of at most [`BLOCK`] cells, one gate run per merge level
/// above them, in the network's execution order.
fn record<T: Copy, S: TraceSink>(buf: &mut TrackedBuffer<T, S>, descending: bool) {
    let tracer = buf.tracer();
    shape::walk(
        0,
        buf.len(),
        descending,
        BlockOp::Sort,
        BLOCK,
        &mut |step| match step {
            Step::Block {
                lo,
                n,
                descending,
                op,
            } => {
                buf.block_mut(lo, n, descending, op);
            }
            Step::Run {
                lo, stride, count, ..
            } => {
                tracer.bump_comparisons(count as u64);
                buf.paired_run_mut(lo, stride, count);
            }
        },
    );
}

/// The sorting network over `win`, gate for gate what
/// [`shape::for_each_run`] lists for [`BlockOp::Sort`].
fn sort_window<T, K>(win: &mut [T], descending: bool, key: &impl Fn(&T) -> K)
where
    T: Copy + CtSelect,
    K: Ord,
{
    if win.len() <= 1 {
        return;
    }
    let (head, tail) = win.split_at_mut(win.len() / 2);
    sort_window(head, !descending, key);
    sort_window(tail, descending, key);
    merge_window(win, descending, key);
}

/// The merge network over `win` ([`BlockOp::Merge`]): the first `n − m`
/// cells against the cells from `m` on, then both parts.
fn merge_window<T, K>(win: &mut [T], descending: bool, key: &impl Fn(&T) -> K)
where
    T: Copy + CtSelect,
    K: Ord,
{
    if win.len() <= 1 {
        return;
    }
    let m = greatest_power_of_two_below(win.len() as u64) as usize;
    let (head, tail) = win.split_at_mut(m);
    // `tail` is the shorter window; the zip stops with it.
    exchange_windows(head, tail, descending, key);
    merge_window(head, descending, key);
    merge_window(tail, descending, key);
}

/// Compare-exchange the paired windows of one (part of a) gate run on
/// local copies: gate `g` orders `lo_win[g]` against `hi_win[g]`,
/// branch-free, for as many gates as the shorter window holds.
#[inline]
fn exchange_windows<T, K>(
    lo_win: &mut [T],
    hi_win: &mut [T],
    descending: bool,
    key: &impl Fn(&T) -> K,
) where
    T: Copy + CtSelect,
    K: Ord,
{
    for (a_slot, b_slot) in lo_win.iter_mut().zip(hi_win.iter_mut()) {
        let a = *a_slot;
        let b = *b_slot;
        let out_of_order = if descending {
            key(&a) < key(&b)
        } else {
            key(&a) > key(&b)
        };
        let c = Choice::from_bool(out_of_order);
        *a_slot = T::ct_select(c, b, a);
        *b_slot = T::ct_select(c, a, b);
    }
}

/// The gate recursion of [`sort_window`] and [`merge_window`], forking its
/// independent halves across a parallelism context while `depth` forks
/// remain and each branch covers at least half of [`FORK_CELLS`].  The
/// gates are the serial recursion's; only disjoint ones run concurrently.
struct Fork<'a, F> {
    ctx: &'a ParCtx,
    key: &'a F,
}

/// Whether a fork branch over `cells` cells is worth its own thread.
fn worth_forking(cells: usize) -> bool {
    2 * cells >= FORK_CELLS
}

impl<F> Fork<'_, F> {
    fn sort<T, K>(&self, win: &mut [T], descending: bool, depth: u32)
    where
        T: Copy + CtSelect + Send,
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        if depth == 0 || !worth_forking(win.len() / 2) {
            return sort_window(win, descending, self.key);
        }
        let (head, tail) = win.split_at_mut(win.len() / 2);
        self.ctx
            .join(&mut || self.sort(head, !descending, depth - 1), &mut || {
                self.sort(tail, descending, depth - 1)
            });
        self.merge(win, descending, depth);
    }

    fn merge<T, K>(&self, win: &mut [T], descending: bool, depth: u32)
    where
        T: Copy + CtSelect + Send,
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        if depth == 0 || !worth_forking(win.len() / 2) {
            return merge_window(win, descending, self.key);
        }
        let m = greatest_power_of_two_below(win.len() as u64) as usize;
        let (head, tail) = win.split_at_mut(m);
        self.exchange(head, tail, descending, depth);
        if worth_forking(tail.len()) {
            self.ctx
                .join(&mut || self.merge(head, descending, depth - 1), &mut || {
                    self.merge(tail, descending, depth - 1)
                });
        } else {
            // A short tail: only the head merge is worth the threads.
            self.merge(head, descending, depth);
            merge_window(tail, descending, self.key);
        }
    }

    /// The top run of a merge, `hi_win.len()` gates, split into two
    /// contiguous gate ranges.
    fn exchange<T, K>(&self, lo_win: &mut [T], hi_win: &mut [T], descending: bool, depth: u32)
    where
        T: Copy + CtSelect + Send,
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        let count = hi_win.len();
        // Each half of the run touches `count` cells.
        if depth == 0 || !worth_forking(count) {
            return exchange_windows(lo_win, hi_win, descending, self.key);
        }
        let (lo_head, lo_tail) = lo_win.split_at_mut(count / 2);
        let (hi_head, hi_tail) = hi_win.split_at_mut(count / 2);
        self.ctx.join(
            &mut || self.exchange(lo_head, hi_head, descending, depth - 1),
            &mut || self.exchange(lo_tail, hi_tail, descending, depth - 1),
        );
    }
}

/// The recursive per-gate driver: identical gate order and semantics, but
/// one traced read/write per element and one counter bump per gate.
///
/// Retained as the differential-testing oracle for the run-batched driver
/// and as the baseline of `benches/sort_network_ablation.rs`; new code
/// should call [`sort_by_key_dir`].
pub fn sort_by_key_dir_per_gate<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, dir: Direction, key: F)
where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    let n = buf.len();
    sort_range(buf, 0, n, dir, &key);
}

fn sort_range<T, S, K, F>(
    buf: &mut TrackedBuffer<T, S>,
    lo: usize,
    n: usize,
    dir: Direction,
    key: &F,
) where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    if n <= 1 {
        return;
    }
    let m = n / 2;
    // The two halves are sorted in opposite directions so that the whole
    // range forms a bitonic sequence, which `merge_range` then sorts.
    sort_range(buf, lo, m, dir.flipped(), key);
    sort_range(buf, lo + m, n - m, dir, key);
    merge_range(buf, lo, n, dir, key);
}

fn merge_range<T, S, K, F>(
    buf: &mut TrackedBuffer<T, S>,
    lo: usize,
    n: usize,
    dir: Direction,
    key: &F,
) where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    if n <= 1 {
        return;
    }
    let m = greatest_power_of_two_below(n as u64) as usize;
    for i in lo..lo + (n - m) {
        compare_exchange(buf, i, i + m, dir, key);
    }
    merge_range(buf, lo, m, dir, key);
    merge_range(buf, lo + m, n - m, dir, key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{AccessKind, CollectingSink, CountingSink, Tracer};

    fn sorts_correctly(input: Vec<u64>) {
        let tracer = Tracer::new(CountingSink::new());
        let mut buf = tracer.alloc_from(input.clone());
        sort_by_key(&mut buf, |x| *x);
        let mut expected = input;
        expected.sort_unstable();
        assert_eq!(buf.as_slice(), expected.as_slice());
    }

    #[test]
    fn sorts_all_small_permutation_like_inputs() {
        // Exhaustive 0/1 inputs up to length 10: by the 0-1 principle, a
        // comparator network that sorts every 0/1 sequence sorts everything.
        for n in 0..=10usize {
            for mask in 0u32..(1 << n) {
                let input: Vec<u64> = (0..n).map(|i| ((mask >> i) & 1) as u64).collect();
                let tracer = Tracer::new(CountingSink::new());
                let mut buf = tracer.alloc_from(input.clone());
                sort_by_key(&mut buf, |x| *x);
                let mut expected = input;
                expected.sort_unstable();
                assert_eq!(buf.as_slice(), expected.as_slice(), "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn sorts_typical_inputs() {
        sorts_correctly(vec![]);
        sorts_correctly(vec![42]);
        sorts_correctly(vec![5, 4, 3, 2, 1]);
        sorts_correctly(vec![1, 1, 1, 1]);
        sorts_correctly((0..97).rev().map(|x| x * 7 % 31).collect());
        sorts_correctly((0..128).map(|x| (x * 2654435761u64) % 1000).collect());
    }

    #[test]
    fn descending_direction() {
        let tracer = Tracer::new(CountingSink::new());
        let mut buf = tracer.alloc_from(vec![3u64, 9, 1, 7, 7]);
        sort_by_key_dir(&mut buf, Direction::Descending, |x| *x);
        assert_eq!(buf.as_slice(), &[9, 7, 7, 3, 1]);
    }

    #[test]
    fn lexicographic_tuple_keys_with_reverse() {
        use core::cmp::Reverse;
        let tracer = Tracer::new(CountingSink::new());
        // (group, value): ascending group, descending value.
        let mut buf = tracer.alloc_from(vec![(2u64, 1u64), (1, 5), (2, 9), (1, 2)]);
        sort_by_key(&mut buf, |&(g, v)| (g, Reverse(v)));
        assert_eq!(buf.as_slice(), &[(1, 5), (1, 2), (2, 9), (2, 1)]);
    }

    #[test]
    fn scheduled_driver_matches_per_gate_oracle_bit_for_bit() {
        // Differential test: both drivers implement the same network, so
        // the final contents must agree element-wise — including ties,
        // which exercise the ct_select write-back order.
        for n in [0usize, 1, 2, 3, 5, 8, 13, 33, 64, 100, 129] {
            for dir in [Direction::Ascending, Direction::Descending] {
                let input: Vec<u64> = (0..n as u64).map(|x| (x * 2654435761) % 17).collect();
                let t1 = Tracer::new(CountingSink::new());
                let mut scheduled = t1.alloc_from(input.clone());
                sort_by_key_dir(&mut scheduled, dir, |x| *x);
                let t2 = Tracer::new(CountingSink::new());
                let mut per_gate = t2.alloc_from(input);
                sort_by_key_dir_per_gate(&mut per_gate, dir, |x| *x);
                assert_eq!(scheduled.as_slice(), per_gate.as_slice(), "n={n} {dir:?}");
                // Same comparison totals, batched or not.
                assert_eq!(t1.counters().comparisons, t2.counters().comparisons);
                // Same read/write totals, batched or not.
                assert_eq!(
                    t1.with_sink(|s| s.overall()),
                    t2.with_sink(|s| s.overall()),
                    "n={n} {dir:?}"
                );
            }
        }
    }

    /// The gate runs of the network over `n` cells in direction `dir`, in
    /// execution order, as [`shape::for_each_run`] lists them.
    fn runs(n: usize, dir: Direction) -> Vec<(usize, usize, usize)> {
        let mut runs = Vec::new();
        let descending = dir == Direction::Descending;
        shape::for_each_run(
            0,
            n,
            descending,
            BlockOp::Sort,
            &mut |lo, stride, count, _| runs.push((lo, stride, count)),
        );
        runs
    }

    #[test]
    fn run_walk_is_the_per_gate_oracles_pair_sequence() {
        // The independent check on the one statement of the network: the
        // gates `for_each_run` lists, flattened in order, are the pairs
        // the per-gate oracle's own recursion touches, gate for gate (read
        // i, read j, write i, write j).
        for n in 0..200usize {
            for dir in [Direction::Ascending, Direction::Descending] {
                let mut expected: Vec<(AccessKind, u64)> = Vec::new();
                for (lo, stride, count) in runs(n, dir) {
                    for g in lo..lo + count {
                        let (i, j) = (g as u64, (g + stride) as u64);
                        expected.extend([
                            (AccessKind::Read, i),
                            (AccessKind::Read, j),
                            (AccessKind::Write, i),
                            (AccessKind::Write, j),
                        ]);
                    }
                }
                let tracer = Tracer::new(CollectingSink::new());
                let mut buf = tracer.alloc_from((0..n as u64).rev().collect::<Vec<_>>());
                sort_by_key_dir_per_gate(&mut buf, dir, |x| *x);
                let touched: Vec<(AccessKind, u64)> =
                    tracer.with_sink(|s| s.accesses().iter().map(|a| (a.kind, a.index)).collect());
                assert!(touched == expected, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn executed_accesses_follow_the_run_schedule_exactly() {
        // The streamed driver's collected trace is precisely the expansion
        // of the network's public gate runs: per run, a read of each window
        // then a write of each window.  (`tests/kernel_structure.rs` sweeps
        // every n < 200, and forked sorts at sizes that fork.)
        for n in [0usize, 1, 2, 3, 5, 8, 13] {
            let tracer = Tracer::new(CollectingSink::new());
            let input: Vec<u64> = (0..n as u64).map(|x| (x * 37) % 11).collect();
            let mut buf = tracer.alloc_from(input);
            sort_by_key(&mut buf, |x| *x);
            let accesses = tracer.with_sink(|s| s.accesses().to_vec());

            let mut expected: Vec<(AccessKind, u64)> = Vec::new();
            for (lo, stride, count) in runs(n, Direction::Ascending) {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    for start in [lo, lo + stride] {
                        expected.extend((start..start + count).map(|i| (kind, i as u64)));
                    }
                }
            }
            let got: Vec<(AccessKind, u64)> = accesses.iter().map(|a| (a.kind, a.index)).collect();
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn a_hashed_sort_absorbs_a_record_per_block_not_four_per_run() {
        // 1 036 rows is the larger table of the ledger's `engine_adhoc`
        // workload.  The accesses represented are the run-by-run driver's;
        // the records hashed for them are what the blocks save.
        use obliv_trace::HashingSink;
        let n = 1036usize;
        let tracer = Tracer::new(HashingSink::new());
        let mut buf = tracer.alloc_from((0..n as u64).rev().collect::<Vec<_>>());
        sort_by_key(&mut buf, |x| *x);
        let (events, records) = tracer.with_sink(|s| (s.events(), s.records()));

        let gates = shape::gate_count(n as u64, BlockOp::Sort);
        assert_eq!(events, 1 + 4 * gates, "alloc + four per gate");
        let runs = runs(n, Direction::Ascending).len() as u64;
        assert!(
            20 * records <= runs,
            "{records} records for a network of {runs} runs"
        );
    }

    #[test]
    fn trace_is_input_independent() {
        let n = 33usize;
        let run = |input: Vec<u64>| {
            let tracer = Tracer::new(CollectingSink::new());
            let mut buf = tracer.alloc_from(input);
            sort_by_key(&mut buf, |x| *x);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        let a = run((0..n as u64).collect());
        let b = run((0..n as u64).rev().collect());
        let c = run(vec![7; n]);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    /// Contents, collected access stream, counters and fork count of one
    /// sort of `input`, forked over `threads` threads when given.
    fn traced_sort<T>(
        input: &[T],
        dir: Direction,
        threads: Option<usize>,
        key: impl Fn(&T) -> (u64, u64) + Sync,
    ) -> (
        Vec<T>,
        Vec<obliv_trace::Access>,
        obliv_trace::OpCounters,
        u64,
    )
    where
        T: Copy + CtSelect + Send,
    {
        use crate::par::{with_parallelism, ScopedThreads};
        use std::sync::Arc;

        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc_from(input.to_vec());
        let ctx = ParCtx::new(Arc::new(ScopedThreads), threads.unwrap_or(1));
        let stats = ctx.stats();
        match threads {
            Some(_) => with_parallelism(ctx, || sort_by_key_dir(&mut buf, dir, key)),
            None => sort_by_key_dir(&mut buf, dir, key),
        }
        let accesses = tracer.with_sink(|s| s.accesses().to_vec());
        (buf.into_vec(), accesses, tracer.counters(), stats.forks())
    }

    #[test]
    fn par_sort_without_context_is_the_serial_driver() {
        // No context, or a budget of one thread: nothing forks, and the
        // sort is the serial one.
        let input: Vec<(u64, u64)> = (0..2 * FORK_CELLS as u64).map(|i| (i % 5, i)).collect();
        let serial = traced_sort(&input, Direction::Ascending, None, |r| *r);
        let one = traced_sort(&input, Direction::Ascending, Some(1), |r| *r);
        assert_eq!(one.3, 0, "one thread never forks");
        assert_eq!((one.0, one.1, one.2), (serial.0, serial.1, serial.2));
    }

    #[test]
    fn par_sort_is_bit_identical_to_serial_at_every_chunk_count() {
        // Around the cutoff and well above it, both directions, thread
        // budgets that are and are not powers of two, and a tuple key with
        // ties (every record tagged with where it started, so equal
        // contents mean the same permutation): the forked sort is the
        // serial driver in contents, collected access stream and counters,
        // and both are the per-gate oracle in contents and counters (its
        // stream interleaves each gate's reads and writes, the drivers'
        // batch them per run).
        for n in [
            FORK_CELLS - 1,
            FORK_CELLS,
            FORK_CELLS + 1,
            2 * FORK_CELLS + 3,
            10_007,
        ] {
            let input: Vec<((u64, u64), u64)> = (0..n as u64)
                .map(|i| (((i * 2_654_435_761) % 7, (i * 40_503) % 3), i))
                .collect();
            let key = |r: &((u64, u64), u64)| r.0;
            for dir in [Direction::Ascending, Direction::Descending] {
                let oracle = Tracer::new(CollectingSink::new());
                let mut per_gate = oracle.alloc_from(input.clone());
                sort_by_key_dir_per_gate(&mut per_gate, dir, key);
                let serial = traced_sort(&input, dir, None, key);
                assert!(serial.0 == per_gate.as_slice(), "serial rows n={n} {dir:?}");
                assert_eq!(serial.2, oracle.counters(), "serial counters n={n} {dir:?}");
                let expected = &serial.1;

                for threads in [2usize, 3, 4, 8] {
                    let (rows, trace, counters, forks) =
                        traced_sort(&input, dir, Some(threads), key);
                    let what = format!("n={n} {dir:?} threads={threads}");
                    assert!(rows == serial.0, "rows {what}");
                    assert!(&trace == expected, "trace {what}");
                    assert_eq!(counters, serial.2, "counters {what}");
                    // The cutoff decides whether anything forks at all.
                    assert_eq!(forks > 0, n >= FORK_CELLS, "forks {what}");
                }
            }
        }
    }

    #[test]
    fn par_sort_runs_on_real_threads() {
        use crate::par::{with_parallelism, Branch, ParExecutor, ScopedThreads};
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        use std::thread::{self, ThreadId};

        // The default join, with every branch noting the thread it ran on.
        #[derive(Default)]
        struct Witness(Mutex<HashSet<ThreadId>>);
        impl ParExecutor for Witness {
            fn join(&self, a: &mut Branch<'_>, b: &mut Branch<'_>) {
                let note = || self.0.lock().unwrap().insert(thread::current().id());
                ScopedThreads.join(
                    &mut || {
                        note();
                        a()
                    },
                    &mut || {
                        note();
                        b()
                    },
                );
            }
        }

        let input: Vec<u64> = (0..4 * FORK_CELLS as u64)
            .map(|x| (x * 2_654_435_761) % 101)
            .collect();
        let witness = Arc::new(Witness::default());
        let tracer = Tracer::new(CountingSink::new());
        let mut buf = tracer.alloc_from(input.clone());
        let ctx = ParCtx::new(Arc::clone(&witness) as Arc<dyn ParExecutor>, 4);
        with_parallelism(ctx, || sort_by_key(&mut buf, |x| *x));

        let mut expected = input;
        expected.sort_unstable();
        assert_eq!(buf.as_slice(), expected.as_slice());
        let threads = witness.0.lock().unwrap().len();
        assert!(threads >= 4, "gates ran on {threads} threads");
    }

    #[test]
    fn comparison_counter_matches_schedule_size() {
        for n in [1usize, 2, 7, 16, 33, 100] {
            let tracer = Tracer::new(CountingSink::new());
            let mut buf = tracer.alloc_from((0..n as u64).rev().collect::<Vec<_>>());
            sort_by_key(&mut buf, |x| *x);
            assert_eq!(
                tracer.counters().comparisons,
                shape::gate_count(n as u64, BlockOp::Sort),
                "n={n}"
            );
        }
    }
}
