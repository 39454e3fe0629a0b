//! Property tests of the structure the join kernel is built from: expansion
//! as compaction + routing, and the sort driver that walks its network in
//! blocks.

use obliv_primitives::sort::{bitonic, Direction};
use obliv_primitives::{oblivious_expand, with_parallelism, Keyed, ParCtx, ScopedThreads};
use obliv_trace::network::{for_each_run, gate_count};
use obliv_trace::{AccessKind, BlockOp, CollectingSink, CountingSink, Tracer};
use proptest::prelude::*;
use std::sync::Arc;

type K = Keyed<u64>;

/// The count vectors the join feeds to expansion, and the ones that break
/// naive implementations: `kind` picks the shape, `noise` (one word per
/// element) fills it in.
fn count_vector(kind: u8, noise: &[u64]) -> Vec<u64> {
    let n = noise.len();
    let mut counts: Vec<u64> = match kind % 6 {
        // Mostly zeros, as when the other table's rows ride along (n > m).
        0 => noise.iter().map(|w| u64::from(w % 4 == 0)).collect(),
        // Small counts everywhere (n < m).
        1 => noise.iter().map(|w| w % 5).collect(),
        // All zero.
        2 => vec![0; n],
        // One heavy element, wherever it falls.
        3 => {
            let mut v = vec![0; n];
            if let Some(&w) = noise.first() {
                v[(w % n as u64) as usize] = 1 + (w >> 32) % 3000;
            }
            v
        }
        // Zeros at both ends around a dense middle.
        4 => (0..n)
            .map(|i| {
                if i < n / 3 || i >= n - n / 3 {
                    0
                } else {
                    1 + noise[i] % 3
                }
            })
            .collect(),
        // Exactly one copy each (n = m).
        _ => vec![1; n],
    };
    // Whatever the shape, a zero first and last element half the time.
    if n >= 2 && noise[1].is_multiple_of(2) {
        counts[0] = 0;
        counts[n - 1] = 0;
    }
    counts
}

/// `n` words of noise for every `n` in `sizes`.
fn noise(sizes: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<u64>> {
    sizes.prop_flat_map(|n| prop::collection::vec(any::<u64>(), n..=n))
}

fn expand<S: obliv_trace::TraceSink>(tracer: &Tracer<S>, counts: &[u64]) -> (Vec<u64>, u64) {
    let x: Vec<K> = (0..counts.len() as u64).map(|i| Keyed::new(i, 1)).collect();
    let counts = counts.to_vec();
    let out = oblivious_expand(tracer.alloc_from(x), move |e| counts[e.value as usize]);
    assert_eq!(out.table.len() as u64, out.total);
    let values = out.table.as_slice().iter().map(|e| e.value).collect();
    (values, out.total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn expand_matches_the_plain_reference_on_every_shape(
        kind in any::<u8>(),
        // Every length, powers of two or not, up to 5 000.
        noise in noise(0..=5000),
    ) {
        let counts = count_vector(kind, &noise);
        let expected: Vec<u64> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i as u64, c as usize))
            .collect();
        let (values, total) = expand(&Tracer::new(CountingSink::new()), &counts);
        prop_assert_eq!(total as usize, expected.len());
        prop_assert_eq!(values, expected);
    }

    #[test]
    fn expand_trace_is_a_function_of_n_and_m(
        kind in any::<u8>(),
        noise in noise(1..=300),
    ) {
        // A second count vector of the same (n, m) with as different a
        // shape as possible: everything on one element.
        let counts = count_vector(kind, &noise);
        let mut lumped = vec![0u64; counts.len()];
        lumped[(noise[0] % counts.len() as u64) as usize] = counts.iter().sum();

        let trace = |counts: &[u64]| {
            let tracer = Tracer::new(CollectingSink::new());
            expand(&tracer, counts);
            tracer.with_sink(|s| (s.allocations().to_vec(), s.accesses().to_vec()))
        };
        prop_assert_eq!(trace(&counts), trace(&lumped));
    }
}

/// The network's gate runs flattened into the per-element stream a
/// `CollectingSink` shows: per run, both windows read, then both written.
fn flattened(n: usize, dir: Direction) -> Vec<(AccessKind, u64)> {
    let mut expected = Vec::new();
    let descending = dir == Direction::Descending;
    for_each_run(
        0,
        n,
        descending,
        BlockOp::Sort,
        &mut |lo, stride, count, _| {
            for kind in [AccessKind::Read, AccessKind::Write] {
                for start in [lo, lo + stride] {
                    expected.extend((start..start + count).map(|i| (kind, i as u64)));
                }
            }
        },
    );
    expected
}

fn sort_trace(
    input: &[u64],
    dir: Direction,
    threads: Option<usize>,
) -> (Vec<u64>, Vec<(AccessKind, u64)>) {
    let tracer = Tracer::new(CollectingSink::new());
    let mut buf = tracer.alloc_from(input.to_vec());
    match threads {
        None => bitonic::sort_by_key_dir(&mut buf, dir, |x| *x),
        Some(threads) => {
            let ctx = ParCtx::new(Arc::new(ScopedThreads), threads);
            let stats = ctx.stats();
            with_parallelism(ctx, || bitonic::sort_by_key_dir(&mut buf, dir, |x| *x));
            assert!(stats.forks() > 0, "n={} threads={threads}", input.len());
        }
    }
    let accesses = tracer.with_sink(|s| s.accesses().iter().map(|a| (a.kind, a.index)).collect());
    (buf.as_slice().to_vec(), accesses)
}

#[test]
fn streamed_sort_trace_is_the_flattened_schedule_and_the_parallel_fold() {
    // Every n < 200 serially; the forked driver where it forks, around
    // the cutoff and across a power of two.
    let forking = [
        bitonic::FORK_CELLS,
        bitonic::FORK_CELLS + 1,
        2 * bitonic::FORK_CELLS + 3,
        10_007,
    ];
    for n in (0..200usize).chain(forking) {
        let input: Vec<u64> = (0..n as u64).map(|x| (x * 2_654_435_761) % 23).collect();
        for dir in [Direction::Ascending, Direction::Descending] {
            let expected = flattened(n, dir);
            let (sorted, serial) = sort_trace(&input, dir, None);
            assert!(serial == expected, "serial n={n} {dir:?}");
            if n < bitonic::FORK_CELLS {
                continue;
            }
            for threads in [2, 3, 4] {
                let (par_sorted, parallel) = sort_trace(&input, dir, Some(threads));
                assert!(parallel == expected, "n={n} {dir:?} threads={threads}");
                assert_eq!(par_sorted, sorted, "n={n} {dir:?} threads={threads}");
            }
        }
    }
}

#[test]
fn blocked_sort_is_the_per_gate_network_at_every_size() {
    // Every length around the block size (a sort of up to BLOCK cells is
    // one block, above it blocks and runs mix), and lengths straddling
    // powers of two, where the merge recursion's two parts differ most.
    let sizes = (0..=4 * bitonic::BLOCK + 3).chain([
        511, 512, 513, 1023, 1024, 1025, 1036, 2047, 2049, 4095, 4097, 5000,
    ]);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for n in sizes {
        // Few distinct keys, every row tagged with where it started: equal
        // outputs then mean the same permutation, ties included.
        let input: Vec<(u64, u64)> = (0..n as u64)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % 7, i)
            })
            .collect();
        for dir in [Direction::Ascending, Direction::Descending] {
            let blocked = Tracer::new(CollectingSink::new());
            let mut buf = blocked.alloc_from(input.clone());
            bitonic::sort_by_key_dir(&mut buf, dir, |r| r.0);
            let trace: Vec<(AccessKind, u64)> =
                blocked.with_sink(|s| s.accesses().iter().map(|a| (a.kind, a.index)).collect());
            assert!(trace == flattened(n, dir), "trace n={n} {dir:?}");
            assert_eq!(
                blocked.counters().comparisons,
                gate_count(n as u64, BlockOp::Sort),
                "comparisons n={n} {dir:?}"
            );

            let oracle = Tracer::new(CountingSink::new());
            let mut per_gate = oracle.alloc_from(input.clone());
            bitonic::sort_by_key_dir_per_gate(&mut per_gate, dir, |r| r.0);
            assert!(buf.as_slice() == per_gate.as_slice(), "rows n={n} {dir:?}");
        }
    }
}
