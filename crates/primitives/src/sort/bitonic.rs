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
//! The recursion — `sort` halves in opposite directions, `merge` at the
//! greatest power of two below `n` — is spelled out once, in
//! [`obliv_trace::network`], and the serial driver walks it down to
//! sub-networks of at most [`BLOCK`] cells.  Such a *block* (a whole
//! sub-sort, or the tail of a larger merge) is one trace event and one
//! comparison-counter update ([`TrackedBuffer::block_mut`]) and runs as a
//! plain recursive loop over the slice it was lent; a merge level above
//! `BLOCK` is a *gate run*, one batched trace transaction over its two
//! strided windows ([`TrackedBuffer::paired_run_mut`]).  Nothing is
//! materialised, so a sort costs no memory beyond its input, and which
//! steps a sort takes depends on its (public) length alone.  An order-exact
//! sink expands a block back into its runs, so the per-element trace is
//! the one a run-by-run driver would emit.  [`run_schedule`] collects the
//! network's runs from the same recursion for the consumers that need run
//! identity (the parallel driver's wave plan, `verify::access`).
//! [`sort_by_key_dir_per_gate`] keeps the per-gate walk around as the
//! differential-testing oracle and ablation baseline.
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

use std::sync::{mpsc, Arc};

use obliv_trace::network::{self as shape, Step};
use obliv_trace::{BlockOp, TraceSink, TrackedBuffer};

use super::network::{
    self, bitonic_comparator_count, greatest_power_of_two_below, GateRun, RunSchedule, Schedule,
};
use super::wave;
use super::{compare_exchange, Direction};
use crate::ct::{Choice, CtSelect};
use crate::par::{self, ParTask};

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
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    sort_by_key_dir(buf, Direction::Ascending, key);
}

/// Largest sub-network the drivers hand out as one block: large enough
/// that the per-step costs (a tracer borrow, a closure dispatch, a trace
/// record) vanish beside its `O(n log² n)` gates.  Sizes from 16 to 512
/// measured within 6 % of each other on the join kernel, so the value is
/// not delicate; it is a constant rather than an option because the block
/// cut is part of the trace — two runs compare equal only if they cut
/// their blocks at the same size.
pub const BLOCK: usize = 64;

/// Sort `buf` in place in the given direction by `key`.
///
/// Walks the network in blocks of at most [`BLOCK`] cells and, above them,
/// one gate run per merge level (see the module docs).  Block and run
/// boundaries are a pure function of the (public) length, so the batched
/// trace remains a function of public parameters only.
pub fn sort_by_key_dir<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, dir: Direction, key: F)
where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    drive(
        buf,
        dir,
        |win, descending, op| match op {
            BlockOp::Sort => sort_window(win, descending, &key),
            BlockOp::Merge => merge_window(win, descending, &key),
        },
        |lo_win, hi_win, descending| exchange_windows(lo_win, hi_win, descending, &key),
    );
}

/// Walk the network sorting `buf` in direction `dir`, emitting its trace
/// and counting its comparisons step by step, and hand each step's cells to
/// `block` (the window of a sub-network, its direction and kind) or `run`
/// (the two windows of a gate run and its direction) to execute.  The
/// parallel driver, whose gates have already run, passes two no-ops.
fn drive<T, S>(
    buf: &mut TrackedBuffer<T, S>,
    dir: Direction,
    mut block: impl FnMut(&mut [T], bool, BlockOp),
    mut run: impl FnMut(&mut [T], &mut [T], bool),
) where
    T: Copy,
    S: TraceSink,
{
    let tracer = buf.tracer();
    let descending = dir == Direction::Descending;
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
            } => block(buf.block_mut(lo, n, descending, op), descending, op),
            Step::Run {
                lo,
                stride,
                count,
                descending,
            } => {
                tracer.bump_comparisons(count as u64);
                let (lo_win, hi_win) = buf.paired_run_mut(lo, stride, count);
                run(lo_win, hi_win, descending);
            }
        },
    );
}

/// The sorting network over one block's window, gate for gate what
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

/// The merge network over one block's window ([`BlockOp::Merge`]): the
/// first `n − m` cells against the cells from `m` on, then both parts.
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

/// Compare-exchange the paired windows of one (sub-)run on local copies:
/// gate `g` orders `lo_win[g]` against `hi_win[g]`, branch-free, for as many
/// gates as the shorter window holds.  Shared by the serial driver above
/// and both arms of the parallel driver.
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

/// One partition of a run assigned to a fork-join task: a contiguous range
/// of `count` gates of one schedule run, starting at absolute lower
/// position `lo`.
#[derive(Debug, Clone, Copy)]
struct SubRun {
    lo: usize,
    stride: usize,
    count: usize,
    descending: bool,
}

/// Sort `buf` in place, ascending by `key`, using the installed
/// [parallelism context](crate::par::context) if any.
///
/// Falls back to [`sort_by_key`] (bit-identical trace, same contents) when
/// no context is installed or the network is too small to split.
pub fn par_sort_by_key<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, key: F)
where
    T: Copy + CtSelect + Send + 'static,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K + Send + Sync + 'static,
{
    par_sort_by_key_dir(buf, Direction::Ascending, key);
}

/// Sort `buf` in place in the given direction by `key`, executing the
/// network's waves of independent runs across the installed parallelism
/// context.
///
/// The schedule is leveled into waves of pairwise-disjoint runs
/// ([`wave::cached_wave_plan`]); each wave's gates are split into balanced
/// partitions ([`network::GateRun::partition`] arithmetic), they execute
/// concurrently on owned scratch copies, and a barrier separates waves.
/// **No trace is emitted while waves execute**: after the last wave the
/// serial driver's own walk of the network runs once more with nothing
/// left to execute, so the emitted trace — blocks, runs, order, counters,
/// digest — is [`sort_by_key_dir`]'s by construction, whatever the waves
/// and partitions were.
///
/// The stronger bounds (`Send + 'static` on `T`, `Send + Sync + 'static`
/// on `F`) exist because partitions run on pool workers; serial call sites
/// keep using [`sort_by_key_dir`] unchanged.
pub fn par_sort_by_key_dir<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, dir: Direction, key: F)
where
    T: Copy + CtSelect + Send + 'static,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K + Send + Sync + 'static,
{
    let n = buf.len();
    if n <= 1 {
        return;
    }
    let Some(ctx) = par::context().filter(|c| c.chunks() >= 2) else {
        return sort_by_key_dir(buf, dir, key);
    };
    // Decided from the closed-form gate count: a network too small to fork
    // never materialises its schedule.
    if bitonic_comparator_count(n) < 2 * ctx.min_gates_per_chunk() as u64 {
        return sort_by_key_dir(buf, dir, key);
    }
    let sched = network::cached_bitonic_runs(n, dir);
    let plan = wave::cached_wave_plan(n, dir);
    let key = Arc::new(key);
    let runs = sched.runs();
    let data = buf.staging_mut();

    for wave_runs in plan.waves() {
        let wave_gates: usize = wave_runs.iter().map(|&ri| runs[ri as usize].count).sum();
        let per_chunk = wave_gates
            .div_ceil(ctx.chunks())
            .max(ctx.min_gates_per_chunk());

        // Pack the wave's runs into tasks of ~per_chunk gates, splitting
        // runs where needed (partition arithmetic: a sub-run is a valid
        // GateRun at lo + offset).
        let mut task_jobs: Vec<Vec<SubRun>> = Vec::new();
        let mut current: Vec<SubRun> = Vec::new();
        let mut current_gates = 0usize;
        for &ri in wave_runs {
            let run = runs[ri as usize];
            let mut off = 0usize;
            while off < run.count {
                let take = (per_chunk - current_gates).min(run.count - off);
                current.push(SubRun {
                    lo: run.lo + off,
                    stride: run.stride,
                    count: take,
                    descending: run.descending,
                });
                current_gates += take;
                off += take;
                if current_gates >= per_chunk {
                    task_jobs.push(std::mem::take(&mut current));
                    current_gates = 0;
                }
            }
        }
        if !current.is_empty() {
            task_jobs.push(current);
        }

        if task_jobs.len() < 2 {
            // The wave is too small to be worth forking: execute its runs
            // in place.
            for &ri in wave_runs {
                let run = runs[ri as usize];
                let (head, tail) = data.split_at_mut(run.lo + run.stride);
                exchange_windows(
                    &mut head[run.lo..run.lo + run.count],
                    &mut tail[..run.count],
                    run.descending,
                    key.as_ref(),
                );
            }
            continue;
        }

        let (tx, rx) = mpsc::channel::<(SubRun, Vec<T>)>();
        let mut tasks: Vec<ParTask> = Vec::with_capacity(task_jobs.len());
        for jobs in task_jobs {
            // Ship owned scratch: [lo window | hi window] per sub-run,
            // copied out untraced (the final walk accounts for every
            // access).
            let owned: Vec<(SubRun, Vec<T>)> = jobs
                .into_iter()
                .map(|sub| {
                    let mut scratch = Vec::with_capacity(2 * sub.count);
                    scratch.extend_from_slice(&data[sub.lo..sub.lo + sub.count]);
                    scratch.extend_from_slice(&data[sub.lo + sub.stride..][..sub.count]);
                    (sub, scratch)
                })
                .collect();
            let tx = tx.clone();
            let key = Arc::clone(&key);
            tasks.push(Box::new(move || {
                for (sub, mut scratch) in owned {
                    let (lo_win, hi_win) = scratch.split_at_mut(sub.count);
                    exchange_windows(lo_win, hi_win, sub.descending, key.as_ref());
                    let _ = tx.send((sub, scratch));
                }
            }));
        }
        drop(tx);
        ctx.run_tasks(tasks);

        for (sub, scratch) in rx.iter() {
            data[sub.lo..sub.lo + sub.count].copy_from_slice(&scratch[..sub.count]);
            data[sub.lo + sub.stride..][..sub.count].copy_from_slice(&scratch[sub.count..]);
        }
    }

    // Every gate has run; what is left of the serial driver is its trace.
    drive(buf, dir, |_, _, _| {}, |_, _, _| {});
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

/// The network's compare-exchange schedule for `n` elements, in execution
/// order.  Executing [`sort_by_key`] on any input of length `n` touches
/// exactly these pairs in exactly this order (grouped into the runs of
/// [`run_schedule`]).
pub fn schedule(n: usize) -> Schedule {
    let mut sched = Schedule::new();
    schedule_sort(&mut sched, 0, n);
    sched
}

/// The network flattened into maximal same-stride gate runs, each carrying
/// its merge direction — exactly the gates the serial driver executes, in
/// its order, from the same recursion.  The concatenation of the runs' gates equals
/// [`schedule`]`(n)` exactly.
///
/// Use [`network::cached_bitonic_runs`] for the memoised variant.
pub fn run_schedule(n: usize, dir: Direction) -> RunSchedule {
    let mut sched = RunSchedule::new();
    let descending = dir == Direction::Descending;
    shape::for_each_run(
        0,
        n,
        descending,
        BlockOp::Sort,
        &mut |lo, stride, count, descending| {
            sched.push_run(GateRun {
                lo,
                stride,
                count,
                descending,
            })
        },
    );
    sched
}

fn schedule_sort(sched: &mut Schedule, lo: usize, n: usize) {
    if n <= 1 {
        return;
    }
    let m = n / 2;
    schedule_sort(sched, lo, m);
    schedule_sort(sched, lo + m, n - m);
    schedule_merge(sched, lo, n);
}

fn schedule_merge(sched: &mut Schedule, lo: usize, n: usize) {
    if n <= 1 {
        return;
    }
    let m = greatest_power_of_two_below(n as u64) as usize;
    for i in lo..lo + (n - m) {
        sched.push(i, i + m);
    }
    schedule_merge(sched, lo, m);
    schedule_merge(sched, lo + m, n - m);
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

    #[test]
    fn executed_accesses_follow_the_run_schedule_exactly() {
        // The streamed driver's collected trace is precisely the expansion
        // of the public run schedule: per run, a read of each window then a
        // write of each window.  (`tests/kernel_structure.rs` sweeps every
        // n < 200 against the parallel driver as well.)
        for n in [0usize, 1, 2, 3, 5, 8, 13] {
            let sched = run_schedule(n, Direction::Ascending);
            let tracer = Tracer::new(CollectingSink::new());
            let input: Vec<u64> = (0..n as u64).map(|x| (x * 37) % 11).collect();
            let mut buf = tracer.alloc_from(input);
            sort_by_key(&mut buf, |x| *x);
            let accesses = tracer.with_sink(|s| s.accesses().to_vec());

            let mut expected: Vec<(AccessKind, u64)> = Vec::new();
            for run in sched.runs() {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    for start in [run.lo, run.lo + run.stride] {
                        for g in 0..run.count {
                            expected.push((kind, (start + g) as u64));
                        }
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

        let sched = run_schedule(n, Direction::Ascending);
        assert_eq!(events, 1 + 4 * sched.gate_count(), "alloc + four per gate");
        let runs = sched.runs().len() as u64;
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

    #[test]
    fn par_sort_without_context_is_the_serial_driver() {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc_from(vec![5u64, 1, 4, 1, 3]);
        par_sort_by_key(&mut buf, |x| *x);
        assert_eq!(buf.as_slice(), &[1, 1, 3, 4, 5]);

        let reference = Tracer::new(CollectingSink::new());
        let mut rbuf = reference.alloc_from(vec![5u64, 1, 4, 1, 3]);
        sort_by_key(&mut rbuf, |x| *x);
        assert_eq!(
            tracer.with_sink(|s| s.accesses().to_vec()),
            reference.with_sink(|s| s.accesses().to_vec())
        );
    }

    #[test]
    fn par_sort_is_bit_identical_to_serial_at_every_chunk_count() {
        use crate::par::{with_parallelism, ParCtx, SerialExecutor};
        use std::sync::Arc;

        for n in [2usize, 3, 5, 8, 13, 33, 64, 100, 129] {
            for dir in [Direction::Ascending, Direction::Descending] {
                let input: Vec<u64> = (0..n as u64).map(|x| (x * 2654435761) % 23).collect();

                let serial = Tracer::new(CollectingSink::new());
                let mut sbuf = serial.alloc_from(input.clone());
                sort_by_key_dir(&mut sbuf, dir, |x| *x);
                let serial_trace = serial.with_sink(|s| s.accesses().to_vec());

                for chunks in [1usize, 2, 4, 8] {
                    let parallel = Tracer::new(CollectingSink::new());
                    let mut pbuf = parallel.alloc_from(input.clone());
                    let ctx =
                        ParCtx::new(Arc::new(SerialExecutor), chunks).with_min_gates_per_chunk(1);
                    let stats = ctx.stats();
                    with_parallelism(ctx, || par_sort_by_key_dir(&mut pbuf, dir, |x| *x));
                    assert_eq!(
                        pbuf.as_slice(),
                        sbuf.as_slice(),
                        "contents n={n} {dir:?} chunks={chunks}"
                    );
                    assert_eq!(
                        parallel.with_sink(|s| s.accesses().to_vec()),
                        serial_trace,
                        "trace n={n} {dir:?} chunks={chunks}"
                    );
                    assert_eq!(
                        parallel.counters(),
                        serial.counters(),
                        "counters n={n} {dir:?} chunks={chunks}"
                    );
                    // Tiny networks legitimately never fork (every wave is
                    // below two gates); larger ones must.
                    if chunks >= 2 && n >= 16 {
                        assert!(stats.chunks() > 0, "forked n={n} {dir:?} chunks={chunks}");
                    }
                }
            }
        }
    }

    #[test]
    fn par_sort_runs_on_real_threads() {
        use crate::par::{with_parallelism, ParCtx, ParExecutor, ParTask};
        use std::sync::Arc;

        // A throwaway executor that actually spawns: proves the Send
        // bounds and the barrier do what they claim (the engine's pool
        // executor is exercised in the engine's differential suite).
        struct SpawningExecutor;
        impl ParExecutor for SpawningExecutor {
            fn run(&self, tasks: Vec<ParTask>) {
                std::thread::scope(|scope| {
                    for task in tasks {
                        scope.spawn(task);
                    }
                });
            }
        }

        let input: Vec<u64> = (0..257u64).map(|x| (x * 2654435761) % 101).collect();
        let serial = Tracer::new(CollectingSink::new());
        let mut sbuf = serial.alloc_from(input.clone());
        sort_by_key(&mut sbuf, |x| *x);

        let parallel = Tracer::new(CollectingSink::new());
        let mut pbuf = parallel.alloc_from(input);
        let ctx = ParCtx::new(Arc::new(SpawningExecutor), 4).with_min_gates_per_chunk(1);
        with_parallelism(ctx, || par_sort_by_key(&mut pbuf, |x| *x));

        assert_eq!(pbuf.as_slice(), sbuf.as_slice());
        assert_eq!(
            parallel.with_sink(|s| s.accesses().to_vec()),
            serial.with_sink(|s| s.accesses().to_vec())
        );
    }

    #[test]
    fn comparison_counter_matches_schedule_size() {
        for n in [1usize, 2, 7, 16, 33, 100] {
            let tracer = Tracer::new(CountingSink::new());
            let mut buf = tracer.alloc_from((0..n as u64).rev().collect::<Vec<_>>());
            sort_by_key(&mut buf, |x| *x);
            assert_eq!(
                tracer.counters().comparisons,
                schedule(n).len() as u64,
                "n={n}"
            );
        }
    }
}
