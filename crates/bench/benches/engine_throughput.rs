//! Engine throughput: queries/second of `obliv_engine::Engine::execute_batch`
//! as the worker pool widens, on three catalog shapes:
//!
//! * `orders_lineitem` — the PK–FK order/line-item workload,
//! * `power_law` — skewed group sizes (the paper's hard case),
//! * `wide` — the typed multi-column workload through the column-level
//!   frontend (`JOIN … ON …`, `FILTER col…`, `AGG agg(col)`); comparing its
//!   rows against `orders_lineitem` measures what wider rows cost over
//!   the two-column `{key, value}` schema,
//! * `unified_plan` — the unified-IR operator surface (multi-column join
//!   carries, `PROJECT`, wide `DISTINCT`/`UNION`, column-keyed semi/anti
//!   joins, range filters) over the same wide catalog; its cold/warm rows
//!   record the plan-API redesign's cost against the `wide` baseline.
//!
//! Each measured iteration executes one batch of 16 mixed queries (joins,
//! filter+aggregate, semi/anti joins, join-aggregates) through the full
//! service path: text parsing is done once up front, so the measurement is
//! resolution + concurrent oblivious execution.  Reported throughput is in
//! queries (elements) per second; the 1-worker row is the serial baseline
//! the speedup is read against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use obliv_engine::{parse_query, Engine, EngineConfig, QueryRequest};
use obliv_workloads::{orders_lineitem, power_law, wide_orders_lineitem, WorkloadSpec};

// Three serving-path configurations are measured per workload:
//
// * `workers/N` — cold path, result cache disabled: every iteration
//   resolves and obliviously executes all 16 queries.  Comparable to the
//   pre-cache numbers; still benefits from Arc-backed snapshots and the
//   scheduled sort.
// * `warm_cache/1` — result cache enabled and warmed: iterations measure
//   the pure serve-from-cache path (canonicalisation, probe, fan-out).
// * `dedup_x4/1` — cache disabled, the batch contains each query four
//   times: measures intra-batch deduplication (execute 16, answer 64).

/// The batch every configuration executes: a mixed, realistic query load.
const BATCH_QUERIES: [&str; 16] = [
    "JOIN left right",
    "SCAN left | FILTER v>=500 | AGG sum",
    "SEMIJOIN left right",
    "ANTIJOIN right left",
    "JOINAGG left right count",
    "JOIN left right left-right | DISTINCT",
    "SCAN right | FILTER k in 1..32 | AGG count",
    "SCAN left | SWAP | DISTINCT",
    "JOINAGG left right sumright",
    "JOIN left right key-left",
    "SCAN right | FILTER v<250 | AGG max",
    "SEMIJOIN right left",
    "ANTIJOIN left right",
    "SCAN left | DISTINCT | AGG count",
    "JOINAGG left right sumleft",
    "SCAN right | AGG min",
];

fn engine_for(workload: &WorkloadSpec, workers: usize, result_cache: bool) -> Engine {
    let engine = Engine::new(EngineConfig {
        workers,
        result_cache,
        ..Default::default()
    });
    engine
        .register_table("left", workload.left.clone())
        .unwrap();
    engine
        .register_table("right", workload.right.clone())
        .unwrap();
    engine
}

fn requests() -> Vec<QueryRequest> {
    BATCH_QUERIES
        .iter()
        .map(|q| QueryRequest::new(*q, parse_query(q).unwrap()))
        .collect()
}

/// The wide-row batch: the same query classes as [`BATCH_QUERIES`], but
/// over typed multi-column tables through the column-level frontend.  Every
/// query respects the one-carried-payload-per-side planner limit.
const WIDE_BATCH_QUERIES: [&str; 16] = [
    "JOIN orders lineitem ON o_key",
    "SCAN orders | FILTER price>=500 | AGG sum(price) BY region",
    "JOIN orders lineitem ON o_key | FILTER price>=500 | AGG sum(qty)",
    "SCAN lineitem | FILTER qty>=25 | AGG max(qty) BY o_key",
    "JOIN orders lineitem ON o_key | AGG count",
    "SCAN orders | FILTER priority<0 | AGG count BY region",
    "JOIN orders lineitem ON o_key | FILTER urgent=true | AGG max(tax)",
    "SCAN orders | FILTER urgent=true | AGG min(priority) BY region",
    "JOIN orders lineitem ON o_key | FILTER qty>=10 | AGG sum(qty)",
    "SCAN lineitem | FILTER tax<0 | AGG count BY o_key",
    "JOIN orders lineitem ON o_key | AGG min(tax)",
    "SCAN orders | AGG max(price) BY region",
    "JOIN orders lineitem ON o_key | FILTER price>=250 | AGG count",
    "SCAN lineitem | AGG sum(qty) BY o_key",
    "JOIN orders lineitem ON o_key | FILTER priority>=2 | AGG sum(qty)",
    "SCAN orders | FILTER price<250 | AGG count BY urgent",
];

fn wide_engine_for(workers: usize, result_cache: bool) -> Engine {
    let workload = wide_orders_lineitem(64, 8);
    let engine = Engine::new(EngineConfig {
        workers,
        result_cache,
        ..Default::default()
    });
    engine
        .register_wide_table("orders", workload.orders.clone())
        .unwrap();
    engine
        .register_wide_table("lineitem", workload.lineitem.clone())
        .unwrap();
    engine
}

fn wide_requests() -> Vec<QueryRequest> {
    WIDE_BATCH_QUERIES
        .iter()
        .map(|q| QueryRequest::new(*q, parse_query(q).unwrap()))
        .collect()
}

/// The unified-IR batch: operators the pre-redesign engine could not
/// express over wide tables at all — multi-column join carries, explicit
/// PROJECT, wide DISTINCT/UNION, column-keyed semi/anti joins and range
/// filters.  Read `unified_plan/*` against `wide/*` (same tables) for the
/// cost of the new operator surface, and `unified_plan/warm_cache` against
/// the PR 4 warm numbers for the redesign's serving-path overhead.
const UNIFIED_BATCH_QUERIES: [&str; 16] = [
    "JOIN orders lineitem ON o_key | PROJECT o_key,price,qty,tax | FILTER price>=500",
    "JOIN orders lineitem ON o_key | FILTER qty>=25 | AGG min(tax)",
    "SCAN orders | PROJECT region,price | DISTINCT",
    "SEMIJOIN orders lineitem ON o_key | AGG count BY region",
    "ANTIJOIN lineitem orders ON o_key | AGG sum(qty) BY o_key",
    "SCAN orders | FILTER price in 250..750 | AGG count BY region",
    "JOIN orders lineitem ON o_key | FILTER urgent=true | PROJECT o_key,price,priority,region,qty",
    "SCAN lineitem | DISTINCT | AGG count BY o_key",
    "SCAN orders | PROJECT o_key,price | UNION pairs",
    "JOIN orders lineitem ON o_key | FILTER tax in -3..3 | AGG sum(qty)",
    "SEMIJOIN lineitem orders ON o_key | PROJECT o_key,qty | DISTINCT",
    "JOIN orders lineitem ON o_key | PROJECT o_key,region,part | FILTER region=\"east\"",
    "SCAN orders | FILTER priority in -5..0 | AGG max(price) BY region",
    "ANTIJOIN orders lineitem ON o_key | PROJECT o_key,price",
    "JOIN orders lineitem ON o_key | AGG count",
    "SCAN lineitem | PROJECT part,qty | DISTINCT | AGG count BY part",
];

fn unified_engine_for(workers: usize, result_cache: bool) -> Engine {
    let engine = wide_engine_for(workers, result_cache);
    // A `{key, value}` table for the degenerate-schema UNION row.
    let workload = orders_lineitem(64, 8);
    engine.register_table("pairs", workload.left).unwrap();
    engine
}

fn unified_requests() -> Vec<QueryRequest> {
    UNIFIED_BATCH_QUERIES
        .iter()
        .map(|q| QueryRequest::new(*q, parse_query(q).unwrap()))
        .collect()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BATCH_QUERIES.len() as u64));

    let workloads = [
        ("orders_lineitem", orders_lineitem(64, 8)),
        ("power_law", power_law(128, 128, 1.5, 8)),
    ];

    for (name, workload) in &workloads {
        let batch = requests();
        for workers in [1usize, 2, 4, 8] {
            // Cold path: no result cache, every query executes.
            let engine = engine_for(workload, workers, false);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/workers"), workers),
                &batch,
                |b, batch| b.iter(|| engine.execute_batch(batch).unwrap()),
            );
        }

        // Warm cache: one priming run outside the measurement, then every
        // iteration serves all 16 queries from the (plan, epoch) cache.
        let engine = engine_for(workload, 1, true);
        engine.execute_batch(&batch).unwrap();
        group.bench_with_input(
            BenchmarkId::new(format!("{name}/warm_cache"), 1),
            &batch,
            |b, batch| b.iter(|| engine.execute_batch(batch).unwrap()),
        );

        // Intra-batch dedup: each query four times, cache off — 16
        // executions answer 64 requests.
        let batch_x4: Vec<QueryRequest> = (0..4).flat_map(|_| requests()).collect();
        let engine = engine_for(workload, 1, false);
        group.throughput(Throughput::Elements(batch_x4.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("{name}/dedup_x4"), 1),
            &batch_x4,
            |b, batch| b.iter(|| engine.execute_batch(batch).unwrap()),
        );
        group.throughput(Throughput::Elements(BATCH_QUERIES.len() as u64));
    }

    // Wide-row variant: the same serving path over typed multi-column
    // tables.  Read `wide/workers` against `orders_lineitem/workers` for
    // the schema-layer overhead on the cold path.
    let wide_batch = wide_requests();
    group.throughput(Throughput::Elements(WIDE_BATCH_QUERIES.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        let engine = wide_engine_for(workers, false);
        group.bench_with_input(
            BenchmarkId::new("wide/workers", workers),
            &wide_batch,
            |b, batch| b.iter(|| engine.execute_batch(batch).unwrap()),
        );
    }
    let engine = wide_engine_for(1, true);
    engine.execute_batch(&wide_batch).unwrap();
    group.bench_with_input(
        BenchmarkId::new("wide/warm_cache", 1),
        &wide_batch,
        |b, batch| b.iter(|| engine.execute_batch(batch).unwrap()),
    );

    // Unified-IR variant: the redesign's new operator surface (multi-carry
    // joins, PROJECT, wide DISTINCT/UNION/semi/anti, range filters) over
    // the same wide catalog.
    let unified_batch = unified_requests();
    group.throughput(Throughput::Elements(UNIFIED_BATCH_QUERIES.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        let engine = unified_engine_for(workers, false);
        group.bench_with_input(
            BenchmarkId::new("unified_plan/workers", workers),
            &unified_batch,
            |b, batch| b.iter(|| engine.execute_batch(batch).unwrap()),
        );
    }
    let engine = unified_engine_for(1, true);
    engine.execute_batch(&unified_batch).unwrap();
    group.bench_with_input(
        BenchmarkId::new("unified_plan/warm_cache", 1),
        &unified_batch,
        |b, batch| b.iter(|| engine.execute_batch(batch).unwrap()),
    );
    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
