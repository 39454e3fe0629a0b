//! Criterion companion to the Table 3 reproduction: the cost of each phase
//! of the join in isolation, so regressions can be attributed to a
//! subroutine rather than the pipeline as a whole.

use criterion::{criterion_group, criterion_main, Criterion};
use obliv_join::augment::augment_tables;
use obliv_join::join::expand_side;
use obliv_join::{align, oblivious_join, TableId};
use obliv_trace::{NullSink, Tracer};
use obliv_workloads::balanced_unique_keys;

fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_breakdown");
    group.sample_size(10);

    let n = 1usize << 13;
    let workload = balanced_unique_keys(n / 2, 5);

    group.bench_function("full_join", |b| {
        b.iter(|| oblivious_join(&workload.left, &workload.right))
    });

    group.bench_function("phase_augment", |b| {
        b.iter(|| {
            let tracer = Tracer::new(NullSink);
            augment_tables(&tracer, &workload.left, &workload.right)
        })
    });

    group.bench_function("phase_expand_left", |b| {
        b.iter_batched(
            || {
                let tracer = Tracer::new(NullSink);
                augment_tables(&tracer, &workload.left, &workload.right).tc
            },
            |tc| expand_side(tc, TableId::Left),
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("phase_align", |b| {
        b.iter_batched(
            || {
                let tracer = Tracer::new(NullSink);
                let augmented = augment_tables(&tracer, &workload.left, &workload.right);
                (expand_side(augmented.tc, TableId::Right).table, tracer)
            },
            |(s2, tracer)| align::align_table(s2, &tracer),
            criterion::BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
