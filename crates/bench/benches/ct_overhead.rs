//! Ablation: what obliviousness costs at the primitive level.
//!
//! Three compare-exchange disciplines over the same data:
//!
//! * the oblivious gate used throughout this workspace (always write both
//!   cells back, branch-free masked selection),
//! * a "leaky" gate that only writes when it actually swaps (the classic
//!   non-oblivious optimisation — its write pattern reveals the comparison
//!   results),
//! * the standard library sort as the no-security floor.
//!
//! This isolates the price of the write-back-always rule of §3.5 from the
//! asymptotic overhead of the networks themselves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obliv_primitives::is_sorted_by_key;
use obliv_primitives::sort::{bitonic, Direction};
use obliv_trace::network::for_each_run;
use obliv_trace::{BlockOp, NullSink, TraceSink, Tracer, TrackedBuffer};

fn scrambled(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0xA24BAED4963EE407).rotate_left(23))
        .collect()
}

/// A bitonic sort whose gates skip the write-back when no swap is needed —
/// faster, but the write pattern leaks the data ordering.
fn leaky_bitonic_sort<S: TraceSink>(buf: &mut TrackedBuffer<u64, S>) {
    let n = buf.len();
    for_each_run(
        0,
        n,
        false,
        BlockOp::Sort,
        &mut |lo, stride, count, descending| {
            for i in lo..lo + count {
                let a = buf.read(i);
                let b = buf.read(i + stride);
                let out_of_order = if descending { a < b } else { a > b };
                if out_of_order {
                    buf.write(i, b);
                    buf.write(i + stride, a);
                }
            }
        },
    );
}

fn bench_ct_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ct_overhead");
    group.sample_size(10);

    for &n in &[1usize << 10, 1 << 13] {
        let data = scrambled(n);

        group.bench_with_input(
            BenchmarkId::new("oblivious_write_always", n),
            &data,
            |b, data| {
                b.iter_batched(
                    || Tracer::new(NullSink).alloc_from(data.clone()),
                    |mut buf| {
                        bitonic::sort_by_key(&mut buf, |x| *x);
                        debug_assert!(is_sorted_by_key(&buf, Direction::Ascending, |x| *x));
                        buf
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("leaky_write_on_swap", n),
            &data,
            |b, data| {
                b.iter_batched(
                    || Tracer::new(NullSink).alloc_from(data.clone()),
                    |mut buf| {
                        leaky_bitonic_sort(&mut buf);
                        debug_assert!(is_sorted_by_key(&buf, Direction::Ascending, |x| *x));
                        buf
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(BenchmarkId::new("std_sort", n), &data, |b, data| {
            b.iter_batched(
                || data.clone(),
                |mut v| v.sort_unstable(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ct_overhead);
criterion_main!(benches);
