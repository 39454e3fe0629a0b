//! Ablation: the drivers of the bitonic sorter (the paper's network, §3.5)
//! against each other and against the standard library's (non-oblivious)
//! sort, on this implementation's record type.
//!
//! `bitonic_blocked` is the production driver: the network walked in blocks
//! of at most `bitonic::BLOCK` cells (one trace event and one counter update
//! each, run as a local loop) with one gate run per merge level above them.
//! `bitonic_per_gate` is the recursive per-gate walker (one traced
//! read/write per element, one counter bump per gate), kept as the
//! baseline that quantifies what the batching buys.
//! `bitonic_fork_join_2t` is the production driver with a two-thread
//! parallelism context installed: the network's halves fork onto two
//! threads (see `bitonic::FORK_CELLS`).  Beside `bitonic_blocked` at the
//! same `n` it gives the two-thread speed-up on every run.
//!
//! Batcher's odd-even mergesort is not built (ROADMAP item 7 says where it
//! would have to run to pay), so it has no row here.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obliv_primitives::sort::{bitonic, Direction};
use obliv_primitives::{with_parallelism, ParCtx, ScopedThreads};
use obliv_trace::{NullSink, Tracer};

fn scrambled(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17))
        .collect()
}

fn bench_networks(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_network_ablation");
    group.sample_size(10);

    for &n in &[1usize << 10, 1 << 12, 1 << 13, 1 << 16] {
        let data = scrambled(n);

        group.bench_with_input(BenchmarkId::new("bitonic_blocked", n), &data, |b, data| {
            b.iter_batched(
                || Tracer::new(NullSink).alloc_from(data.clone()),
                |mut buf| bitonic::sort_by_key(&mut buf, |x| *x),
                criterion::BatchSize::SmallInput,
            )
        });
        if n >= bitonic::FORK_CELLS {
            group.bench_with_input(
                BenchmarkId::new("bitonic_fork_join_2t", n),
                &data,
                |b, data| {
                    b.iter_batched(
                        || Tracer::new(NullSink).alloc_from(data.clone()),
                        |mut buf| {
                            let ctx = ParCtx::new(Arc::new(ScopedThreads), 2);
                            with_parallelism(ctx, || bitonic::sort_by_key(&mut buf, |x| *x))
                        },
                        criterion::BatchSize::SmallInput,
                    )
                },
            );
        }
        if n > 1 << 13 {
            // The large size is for the two rows above only.
            continue;
        }
        group.bench_with_input(BenchmarkId::new("bitonic_per_gate", n), &data, |b, data| {
            b.iter_batched(
                || Tracer::new(NullSink).alloc_from(data.clone()),
                |mut buf| bitonic::sort_by_key_dir_per_gate(&mut buf, Direction::Ascending, |x| *x),
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(
            BenchmarkId::new("std_sort_insecure", n),
            &data,
            |b, data| {
                b.iter_batched(
                    || data.clone(),
                    |mut v| v.sort_unstable(),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_networks);
criterion_main!(benches);
