//! The six workloads.
//!
//! Each is a closed loop with one caller (every caller in this system blocks
//! for its reply).  A workload knows what one *op* is, how to check its
//! output against the plaintext oracle, and — for the traced pass — how to
//! replay the op's inputs down the ladder of public entry points below it.
//! It speaks to the program only through `layers`.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use crate::gen::{self, Item, Order, Pair, SplitMix64};
use crate::layers::{
    self, CacheCounters, ClientHandle, CoordinatorHandle, EngineHandle, KernelCost, KernelJoin,
    PairTable, Reply, ServerCounters, ServerHandle, Sink, Wide,
};
use crate::metrics::PER_LAYER;
use crate::oracle;
use crate::queries::{fixed_batch, AdhocDraws, Cell, Query, Table};
use crate::spans::Spans;
use crate::stats::{ms, us, Tail};

/// Name, reason and tail percentile of one workload.
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The tail percentile `op_tail_ms` reports, fixed so the metric means
    /// the same thing in every run: the highest of p75/p90/p99 that keeps
    /// ten samples beyond it in a 15 s run on a 2-CPU box
    /// (`stats::Tail::supported`), lowered where ten runs did not repeat it
    /// (p99 → p90 on `server_warm`, whose p99 is scheduler wake-up noise).
    pub tail: Tail,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "kernel_balanced",
        why: "join kernel, n1=n2=m=50000 unique keys: sort-dominated (n log^2 n); no sink, engine, server or shard work",
        tail: Tail::P75,
    },
    Spec {
        name: "kernel_expanding",
        why: "join kernel, 2048x2048 rows over 64 keys, m=65536=16n: expand/align over m dominate, input sorts are small",
        tail: Tail::P90,
    },
    Spec {
        name: "engine_refresh",
        why: "8 fixed templates per batch, lineitem re-registered in a new row order before each op: same public shape, fresh contents, cache invalidated",
        tail: Tail::P75,
    },
    Spec {
        name: "engine_adhoc",
        why: "8 plans per batch with never-repeated filter constants: fresh public shape every op, result cache always misses, inserts and evicts",
        tail: Tail::P75,
    },
    Spec {
        name: "server_warm",
        why: "one client connection over real TCP, templates cycled, result cache primed: framing, codec, hand-off and syscalls only",
        tail: Tail::P90,
    },
    Spec {
        name: "shard_scatter",
        why: "8 fixed templates per batch on a 2-shard coordinator, lineitem partitioned, caches off: scatter plus oblivious merge over two engines",
        tail: Tail::P75,
    },
];

/// Code that is generic over the workload type.
pub trait WorkloadFn {
    type Out;
    fn call<W: Workload>(self) -> Self::Out;
}

/// Call `f` with the workload type that `name` names.
pub fn with_workload<F: WorkloadFn>(name: &str, f: F) -> Option<F::Out> {
    Some(match name {
        "kernel_balanced" => f.call::<Kernel<false>>(),
        "kernel_expanding" => f.call::<Kernel<true>>(),
        "engine_refresh" => f.call::<EngineRefresh>(),
        "engine_adhoc" => f.call::<EngineAdhoc>(),
        "server_warm" => f.call::<ServerWarm>(),
        "shard_scatter" => f.call::<ShardScatter>(),
        _ => return None,
    })
}

/// Samples of per-layer metrics gathered by the traced pass; the reported
/// value of a metric is the median of its samples (0 when the workload never
/// calls the layer).
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Compares results with the oracle.  `inject_wrong_row` flips one value of
/// the first result checked, to prove that a wrong row fails the run.
#[derive(Debug, Default)]
pub struct Verifier {
    pub inject_wrong_row: bool,
}

impl Verifier {
    pub fn pairs(&mut self, expected: &[Pair], mut rows: Vec<Pair>) -> Result<(), String> {
        if std::mem::take(&mut self.inject_wrong_row) {
            if let Some(row) = rows.first_mut() {
                row.1 ^= 1;
            }
        }
        if oracle::same_multiset(expected, &mut rows) {
            Ok(())
        } else {
            Err(format!(
                "join rows differ from the oracle ({} rows, {} expected)",
                rows.len(),
                expected.len()
            ))
        }
    }

    pub fn table(&mut self, what: &str, expected: &Table, mut rows: Table) -> Result<(), String> {
        if std::mem::take(&mut self.inject_wrong_row) {
            if let Some(Cell::U(v)) = rows.first_mut().and_then(|r| r.last_mut()) {
                *v ^= 1;
            }
        }
        if oracle::same_multiset(expected, &mut rows) {
            Ok(())
        } else {
            Err(format!(
                "`{what}`: rows differ from the oracle ({} rows, {} expected)",
                rows.len(),
                expected.len()
            ))
        }
    }
}

/// One workload: set-up, the timed op, its check, and its ladder.
pub trait Workload: Sized {
    type Output;

    /// Build everything the first op needs: generate inputs, build the
    /// engine / server / coordinator, register tables, connect, prime.
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String>;

    /// Once per run, outside set-up and outside the measured window:
    /// compute the oracle's answers (and cross-check the oracle itself).
    fn arm_oracle(&mut self) -> Result<(), String>;

    /// Untimed step before each op.
    fn prepare(&mut self, _spans: &mut Spans) -> Result<(), String> {
        Ok(())
    }

    /// The op.
    fn op(&mut self, spans: &mut Spans) -> Result<Self::Output, String>;

    /// Check the op's output, outside the timed span.
    fn verify(&mut self, out: Self::Output, verifier: &mut Verifier) -> Result<(), String>;

    /// The traced pass replays every `ladder_every`-th op.
    fn ladder_every(&self) -> usize;

    /// Replay the op's inputs down the public entry points of the layers
    /// below it, one span per call, and sample the per-layer metrics.
    fn ladder(
        &mut self,
        out: &Self::Output,
        op_wall: Duration,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String>;

    /// Probes that need no op, run once after the traced loop.
    fn probes(&mut self, _spans: &mut Spans, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }

    /// Counts of one op that must repeat exactly for the same seed
    /// (`benchmark check`).
    fn counts(&self, out: &Self::Output) -> Vec<(&'static str, u64)>;
}

// ---------------------------------------------------------------------------
// shared pieces
// ---------------------------------------------------------------------------

fn core_samples(cost: &KernelCost, layers: &mut Layers) {
    let [augment, expand_left, expand_right, align, zip] = cost.phases;
    layers.push("core.phase_augment_ms", ms(augment));
    layers.push("core.phase_expand_ms", ms(expand_left + expand_right));
    layers.push("core.phase_align_ms", ms(align));
    layers.push("core.phase_zip_ms", ms(zip));
    layers.push(
        "core.ns_per_gate",
        cost.wall().as_nanos() as f64 / cost.predicted_gates().max(1) as f64,
    );
    layers.push("core.comparisons", cost.comparisons as f64);
    layers.push("core.routing_hops", cost.routing_hops as f64);
    layers.push("core.cost_drift", cost.drift() as f64);
}

/// Inputs of the primitive probes, shaped like the join they sit under:
/// the sort sees all `n₁ + n₂` keys, expand and distribute take the left
/// side to its `m` output slots, compact drops every other element.
struct PrimitiveInputs {
    sort_keys: Vec<u64>,
    expand_counts: Vec<u64>,
    first_slots: Vec<u64>,
    m: usize,
    live: Vec<bool>,
}

impl PrimitiveInputs {
    fn new(left_keys: &[u64], right_keys: &[u64]) -> Self {
        let mut right_count: HashMap<u64, u64> = HashMap::new();
        for &k in right_keys {
            *right_count.entry(k).or_default() += 1;
        }
        let expand_counts: Vec<u64> = left_keys
            .iter()
            .map(|k| right_count.get(k).copied().unwrap_or(0))
            .collect();
        let mut next = 1;
        let first_slots = expand_counts
            .iter()
            .map(|&c| {
                let slot = if c == 0 { 0 } else { next };
                next += c;
                slot
            })
            .collect();
        let n = left_keys.len() + right_keys.len();
        PrimitiveInputs {
            sort_keys: left_keys.iter().chain(right_keys).copied().collect(),
            expand_counts,
            first_slots,
            m: (next - 1) as usize,
            live: (0..n).map(|i| i % 2 == 0).collect(),
        }
    }

    fn probe(&self, spans: &mut Spans, layers: &mut Layers) {
        let mark = spans.mark();
        let comparisons = layers::probe_sort(&self.sort_keys, spans);
        layers::probe_expand(&self.expand_counts, spans);
        layers::probe_compact(&self.live, spans);
        layers::probe_distribute(&self.first_slots, self.m, spans);
        let sort = spans.sum_since(mark, "primitives.sort");
        layers.push("primitives.sort_ms", ms(sort));
        layers.push(
            "primitives.sort_ns_per_cmp",
            sort.as_nanos() as f64 / comparisons.max(1) as f64,
        );
        for (metric, span) in [
            ("primitives.expand_ms", "primitives.expand"),
            ("primitives.compact_ms", "primitives.compact"),
            ("primitives.distribute_ms", "primitives.distribute"),
        ] {
            layers.push(metric, ms(spans.sum_since(mark, span)));
        }
    }
}

/// The wide `orders` / `lineitem` tables, as plain rows and in the
/// program's shape.
struct WideData {
    orders: Vec<Order>,
    items: Vec<Item>,
    orders_t: Wide,
    items_t: Wide,
}

impl WideData {
    fn new(rng: &mut SplitMix64) -> Self {
        let (orders, items) = gen::orders_lineitem(rng);
        WideData {
            orders_t: layers::orders_table(&orders),
            items_t: layers::items_table(&items),
            orders,
            items,
        }
    }

    fn expected(&self, batch: &[Query]) -> Vec<Table> {
        batch
            .iter()
            .map(|q| oracle::eval(q, &self.orders, &self.items))
            .collect()
    }

    fn primitive_inputs(&self) -> PrimitiveInputs {
        let left: Vec<u64> = self.orders.iter().map(|o| o.o_key).collect();
        let right: Vec<u64> = self.items.iter().map(|i| i.o_key).collect();
        PrimitiveInputs::new(&left, &right)
    }
}

fn texts(batch: &[Query]) -> Vec<String> {
    batch.iter().map(Query::text).collect()
}

/// Check one batch of replies against the oracle's tables.
fn check_batch(
    batch: &[Query],
    replies: &[Reply],
    expected: &[Table],
    verifier: &mut Verifier,
) -> Result<(), String> {
    if replies.len() != batch.len() {
        return Err(format!(
            "{} replies for {} queries",
            replies.len(),
            batch.len()
        ));
    }
    for ((query, reply), expected) in batch.iter().zip(replies).zip(expected) {
        verifier.table(&query.text(), expected, reply.cells())?;
    }
    Ok(())
}

/// The rungs shared by the engine and shard workloads, below the op:
/// the batch replayed as direct operator calls under `HashingSink` and under
/// `NullSink` (`trace.*`, `operators.*`), the bare join against the kernel's
/// payload entry point (`operators.staging_ratio`, `core.*`), and the
/// primitives at the join's sizes.  With `engine_replies`, each query's
/// direct digest must equal the engine's: the replay does the same
/// public-memory work.
fn operator_rungs(
    batch: &[Query],
    data: &WideData,
    items: &Wide,
    engine_replies: Option<&[Reply]>,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let orders = &data.orders_t;
    let (hashed, hashing_wall) = spans.timed("ladder.direct_hashing", |spans| {
        batch
            .iter()
            .map(|q| layers::run_direct(q, orders, items, Sink::Hashing, spans))
            .collect::<Vec<_>>()
    });
    let events: u64 = hashed.iter().map(|d| d.events).sum();
    if let Some(replies) = engine_replies {
        for ((query, direct), reply) in batch.iter().zip(&hashed).zip(replies) {
            if direct.digest.as_deref() != Some(reply.digest()) || direct.events != reply.events() {
                return Err(format!(
                    "`{}`: the direct operator replay traced differently from the engine",
                    query.text()
                ));
            }
        }
    }

    let mark = spans.mark();
    let (plain, null_wall) = spans.timed("ladder.direct_null", |spans| {
        batch
            .iter()
            .map(|q| layers::run_direct(q, orders, items, Sink::Null, spans))
            .collect::<Vec<_>>()
    });
    for ((query, a), b) in batch.iter().zip(&hashed).zip(&plain) {
        if a.rows != b.rows {
            return Err(format!("`{}`: rows depend on the sink", query.text()));
        }
    }
    let sink = hashing_wall.saturating_sub(null_wall);
    layers.push(
        "trace.sink_share",
        sink.as_secs_f64() / hashing_wall.as_secs_f64(),
    );
    layers.push(
        "trace.hash_ns_per_event",
        sink.as_nanos() as f64 / events.max(1) as f64,
    );
    for (metric, span) in [
        ("operators.join_ms", "operators.wide_join"),
        ("operators.filter_ms", "operators.wide_filter"),
        (
            "operators.group_aggregate_ms",
            "operators.wide_group_aggregate",
        ),
    ] {
        layers.push(metric, ms(spans.sum_since(mark, span)));
    }

    let mark = spans.mark();
    let (_, _) = spans.timed("ladder.join_aggregate", |spans| {
        layers::probe_join_aggregate(orders, items, spans)
    });
    layers.push(
        "operators.join_aggregate_ms",
        ms(spans.sum_since(mark, "operators.wide_join_aggregate")),
    );

    // The bare join: the wide operator against the kernel entry point on
    // the same keys and carried columns.
    let mark = spans.mark();
    let (cost, _) = spans.timed("ladder.staging", |spans| {
        layers::run_direct(&Query::JoinAll, orders, items, Sink::Null, spans);
        layers::probe_payload_join(orders, items, spans)
    });
    let wide = spans.sum_since(mark, "operators.wide_join");
    let kernel = spans.sum_since(mark, "core.oblivious_join_payloads");
    layers.push(
        "operators.staging_ratio",
        wide.as_secs_f64() / kernel.as_secs_f64(),
    );
    core_samples(&cost, layers);

    let primitives = data.primitive_inputs();
    spans.timed("ladder.primitives", |spans| primitives.probe(spans, layers));
    Ok(())
}

/// Per-query means of the engine's own phase split.
fn phase_samples(replies: &[Reply], layers: &mut Layers) {
    let n = replies.len().max(1) as f64;
    let mean = |f: fn(&layers::Phases) -> Duration| {
        replies
            .iter()
            .map(|r| f(&r.phases()))
            .sum::<Duration>()
            .as_secs_f64()
            / n
    };
    layers.push("engine.phase_resolve_us", mean(|p| p.resolve) * 1e6);
    layers.push("engine.phase_queue_wait_ms", mean(|p| p.queue_wait) * 1e3);
    layers.push("engine.phase_execute_ms", mean(|p| p.execute) * 1e3);
    layers.push("engine.phase_publish_us", mean(|p| p.publish) * 1e6);
    // What a query spends in the engine neither waiting for a worker nor
    // inside the operator pipeline: parse, resolve, dispatch, publish.
    let own: f64 = replies
        .iter()
        .map(|r| {
            let p = r.phases();
            r.wall().as_secs_f64() - p.queue_wait.as_secs_f64() - p.execute.as_secs_f64()
        })
        .sum();
    layers.push("engine.self_ms", own / n * 1e3);
}

/// Engine rungs of one op: `trace.events_per_op`, the phase split, the
/// cache's behaviour on this op and the cost of serving the same batch again
/// from the cache.
fn engine_rungs(
    engine: &EngineHandle,
    texts: &[String],
    replies: &[Reply],
    op_mark: usize,
    cache_before: CacheCounters,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let n = replies.len().max(1) as f64;
    layers.push(
        "trace.events_per_op",
        replies.iter().map(Reply::events).sum::<u64>() as f64,
    );
    layers.push(
        "engine.parse_us",
        us(spans.sum_since(op_mark, "engine.parse_query")) / n,
    );
    phase_samples(replies, layers);

    let cache = engine.cache();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    layers.push(
        "engine.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.push(
        "engine.cache_evictions",
        (cache.evictions - cache_before.evictions) as f64,
    );

    // The same batch again: every plan was just inserted, so all hits.
    let mark = spans.mark();
    let warm = spans
        .timed("ladder.cache_hit", |spans| engine.execute(texts, spans))
        .0?;
    if !warm.iter().all(|r| r.cached) {
        return Err("a plan executed a moment ago missed the result cache".to_string());
    }
    layers.push(
        "engine.cache_hit_us",
        us(spans.sum_since(mark, "engine.execute_batch")) / n,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// kernel_balanced, kernel_expanding
// ---------------------------------------------------------------------------

/// Rows per side of `kernel_balanced`: the first point of the paper's
/// Fig. 8 (n = 10⁵), deliberately not a power of two.
pub const BALANCED_ROWS: usize = 50_000;
/// `kernel_expanding`: the join of BENCH_8/10 and ROADMAP's table.
pub const EXPANDING_ROWS: usize = 2048;
pub const EXPANDING_KEYS: usize = 64;

/// One `core::oblivious_join` per op on fixed inputs.
pub struct Kernel<const EXPANDING: bool> {
    left_rows: Vec<Pair>,
    right_rows: Vec<Pair>,
    left: PairTable,
    right: PairTable,
    expected: Vec<Pair>,
    /// The first output that matched the oracle.  The inputs never change
    /// and the kernel is deterministic, so later outputs are compared with
    /// it row for row, falling back to the multiset check if they differ.
    verified: Option<KernelJoin>,
}

impl<const EXPANDING: bool> Workload for Kernel<EXPANDING> {
    type Output = KernelJoin;

    fn setup(seed: u64, _spans: &mut Spans) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let (left_rows, right_rows) = if EXPANDING {
            gen::grouped_pairs(EXPANDING_ROWS, EXPANDING_KEYS, &mut rng)
        } else {
            gen::balanced_pairs(BALANCED_ROWS, &mut rng)
        };
        Ok(Kernel {
            left: PairTable::new(&left_rows),
            right: PairTable::new(&right_rows),
            left_rows,
            right_rows,
            expected: Vec::new(),
            verified: None,
        })
    }

    fn arm_oracle(&mut self) -> Result<(), String> {
        self.expected = oracle::pair_join(&self.left_rows, &self.right_rows);
        let m = if EXPANDING {
            EXPANDING_ROWS * EXPANDING_ROWS / EXPANDING_KEYS
        } else {
            BALANCED_ROWS
        };
        if self.expected.len() != m {
            return Err(format!("generator produced m = {}", self.expected.len()));
        }
        if layers::baseline_join(&self.left, &self.right) != self.expected {
            return Err("the oracle disagrees with baselines::sort_merge_join".to_string());
        }
        Ok(())
    }

    fn op(&mut self, spans: &mut Spans) -> Result<KernelJoin, String> {
        Ok(layers::kernel_join(&self.left, &self.right, spans))
    }

    fn verify(&mut self, out: KernelJoin, verifier: &mut Verifier) -> Result<(), String> {
        if !verifier.inject_wrong_row && self.verified.as_ref().is_some_and(|v| v.same_rows(&out)) {
            return Ok(());
        }
        verifier.pairs(&self.expected, out.rows())?;
        self.verified.get_or_insert(out);
        Ok(())
    }

    fn ladder_every(&self) -> usize {
        4
    }

    fn ladder(
        &mut self,
        out: &KernelJoin,
        _op_wall: Duration,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String> {
        core_samples(&out.cost(), layers);
        let keys = |rows: &[Pair]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
        let primitives = PrimitiveInputs::new(&keys(&self.left_rows), &keys(&self.right_rows));
        spans.timed("ladder.primitives", |spans| primitives.probe(spans, layers));
        Ok(())
    }

    fn counts(&self, out: &KernelJoin) -> Vec<(&'static str, u64)> {
        let cost = out.cost();
        vec![
            ("output_rows", out.rows().len() as u64),
            ("core.comparisons", cost.comparisons),
            ("core.routing_hops", cost.routing_hops),
        ]
    }
}

// ---------------------------------------------------------------------------
// engine_refresh
// ---------------------------------------------------------------------------

/// Row orders of `lineitem` cycled through by `engine_refresh`.
const PERMUTATIONS: usize = 4;

/// One `Engine::execute_batch` of the eight fixed templates per op; before
/// each op `lineitem` is re-registered with the same rows in another order,
/// so the epoch bump invalidates the result cache while every revealed size
/// stays the same.
pub struct EngineRefresh {
    data: WideData,
    permutations: Vec<Wide>,
    next: usize,
    engine: EngineHandle,
    batch: Vec<Query>,
    texts: Vec<String>,
    expected: Vec<Table>,
    /// Each template's trace digest on the first op; the public shape never
    /// changes, so every later op must repeat it.
    digests: Option<Vec<String>>,
    cache_before: CacheCounters,
    register_mark: usize,
    op_mark: usize,
}

impl EngineRefresh {
    fn current_items(&self) -> &Wide {
        &self.permutations[(self.next + PERMUTATIONS - 1) % PERMUTATIONS]
    }
}

impl Workload for EngineRefresh {
    type Output = Vec<Reply>;

    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let data = WideData::new(&mut rng);
        let mut permutations = vec![data.items_t.clone()];
        for _ in 1..PERMUTATIONS {
            permutations.push(layers::items_table(&gen::permuted(&data.items, &mut rng)));
        }
        let engine = EngineHandle::new(true, None);
        engine.register("orders", &data.orders_t, spans)?;
        engine.register("lineitem", &permutations[0], spans)?;
        let batch = fixed_batch();
        Ok(EngineRefresh {
            texts: texts(&batch),
            batch,
            data,
            permutations,
            next: 1,
            engine,
            expected: Vec::new(),
            digests: None,
            cache_before: CacheCounters::default(),
            register_mark: 0,
            op_mark: 0,
        })
    }

    fn arm_oracle(&mut self) -> Result<(), String> {
        self.expected = self.data.expected(&self.batch);
        Ok(())
    }

    fn prepare(&mut self, spans: &mut Spans) -> Result<(), String> {
        let table = &self.permutations[self.next % PERMUTATIONS];
        self.register_mark = spans.mark();
        self.engine.register("lineitem", table, spans)?;
        self.next += 1;
        self.cache_before = self.engine.cache();
        self.op_mark = spans.mark();
        Ok(())
    }

    fn op(&mut self, spans: &mut Spans) -> Result<Vec<Reply>, String> {
        self.engine.execute(&self.texts, spans)
    }

    fn verify(&mut self, out: Vec<Reply>, verifier: &mut Verifier) -> Result<(), String> {
        check_batch(&self.batch, &out, &self.expected, verifier)?;
        if out.iter().any(|r| r.cached) {
            return Err("a re-registered table did not invalidate the result cache".to_string());
        }
        let digests: Vec<String> = out.iter().map(|r| r.digest().to_string()).collect();
        match &self.digests {
            Some(first) if *first != digests => {
                Err("trace digest changed on an unchanged public shape".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.digests = Some(digests);
                Ok(())
            }
        }
    }

    fn ladder_every(&self) -> usize {
        3
    }

    fn ladder(
        &mut self,
        out: &Vec<Reply>,
        _op_wall: Duration,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String> {
        layers.push(
            "engine.register_ms",
            ms(spans.sum_since(self.register_mark, "engine.register_wide_table")),
        );
        operator_rungs(
            &self.batch,
            &self.data,
            self.current_items(),
            Some(out),
            spans,
            layers,
        )?;
        engine_rungs(
            &self.engine,
            &self.texts,
            out,
            self.op_mark,
            self.cache_before,
            spans,
            layers,
        )
    }

    fn counts(&self, out: &Vec<Reply>) -> Vec<(&'static str, u64)> {
        reply_counts(out)
    }
}

fn reply_counts(replies: &[Reply]) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&Reply) -> u64| replies.iter().map(f).sum::<u64>();
    vec![
        ("output_rows", sum(|r| r.output_rows() as u64)),
        ("trace.events_per_op", sum(Reply::events)),
        ("comparisons", sum(Reply::comparisons)),
        ("routing_hops", sum(Reply::routing_hops)),
    ]
}

// ---------------------------------------------------------------------------
// engine_adhoc
// ---------------------------------------------------------------------------

/// Result-cache entry bound of `engine_adhoc`'s engine.  The default (1024)
/// is never reached in one run at eight inserts per op, and a long-lived
/// ad-hoc service sits at its bound; 64 puts the run in that steady state
/// after eight ops, so insert *and* evict are paid on every later op.
pub const ADHOC_CACHE_CAP: usize = 64;

/// One `Engine::execute_batch` of eight never-seen plans per op.
pub struct EngineAdhoc {
    data: WideData,
    engine: EngineHandle,
    draws: AdhocDraws,
    batch: Vec<Query>,
    texts: Vec<String>,
    cache_before: CacheCounters,
    op_mark: usize,
}

impl Workload for EngineAdhoc {
    type Output = Vec<Reply>;

    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let data = WideData::new(&mut rng);
        let engine = EngineHandle::new(true, Some(ADHOC_CACHE_CAP));
        engine.register("orders", &data.orders_t, spans)?;
        engine.register("lineitem", &data.items_t, spans)?;
        Ok(EngineAdhoc {
            data,
            engine,
            draws: AdhocDraws::new(rng),
            batch: Vec::new(),
            texts: Vec::new(),
            cache_before: CacheCounters::default(),
            op_mark: 0,
        })
    }

    fn arm_oracle(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn prepare(&mut self, spans: &mut Spans) -> Result<(), String> {
        self.batch = self.draws.next_batch();
        self.texts = texts(&self.batch);
        self.cache_before = self.engine.cache();
        self.op_mark = spans.mark();
        Ok(())
    }

    fn op(&mut self, spans: &mut Spans) -> Result<Vec<Reply>, String> {
        self.engine.execute(&self.texts, spans)
    }

    fn verify(&mut self, out: Vec<Reply>, verifier: &mut Verifier) -> Result<(), String> {
        let expected = self.data.expected(&self.batch);
        check_batch(&self.batch, &out, &expected, verifier)?;
        if out.iter().any(|r| r.cached) {
            return Err("a never-seen plan was served from the result cache".to_string());
        }
        Ok(())
    }

    fn ladder_every(&self) -> usize {
        3
    }

    fn ladder(
        &mut self,
        out: &Vec<Reply>,
        _op_wall: Duration,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String> {
        operator_rungs(
            &self.batch,
            &self.data,
            &self.data.items_t,
            Some(out),
            spans,
            layers,
        )?;
        engine_rungs(
            &self.engine,
            &self.texts,
            out,
            self.op_mark,
            self.cache_before,
            spans,
            layers,
        )
    }

    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers) -> Result<(), String> {
        // No op of this workload registers a table; time one registration.
        let mark = spans.mark();
        self.engine
            .register("lineitem", &self.data.items_t, spans)?;
        layers.push(
            "engine.register_ms",
            ms(spans.sum_since(mark, "engine.register_wide_table")),
        );
        Ok(())
    }

    fn counts(&self, out: &Vec<Reply>) -> Vec<(&'static str, u64)> {
        reply_counts(out)
    }
}

// ---------------------------------------------------------------------------
// server_warm
// ---------------------------------------------------------------------------

/// One `Client::query` round trip over real TCP per op, templates cycled,
/// result cache primed, **one** client connection: on a 2-CPU box client,
/// handler, batcher and pool threads already exceed the cores, and one
/// connection repeats within ±4 % where two repeat within ±8 %.
pub struct ServerWarm {
    // Declared (and so dropped) before the server it talks to.
    client: ClientHandle,
    loopback: Option<ClientHandle>,
    server: ServerHandle,
    engine: EngineHandle,
    data: WideData,
    batch: Vec<Query>,
    texts: Vec<String>,
    expected: Vec<Table>,
    /// Per template, the first reply that matched the oracle; replies are
    /// cache hits, so later ones must carry the same row bytes.
    verified: Vec<Option<Reply>>,
    cursor: usize,
    counters_at_start: ServerCounters,
}

impl Workload for ServerWarm {
    /// The template index and its reply.
    type Output = (usize, Reply);

    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let data = WideData::new(&mut rng);
        let engine = EngineHandle::new(true, None);
        engine.register("orders", &data.orders_t, spans)?;
        engine.register("lineitem", &data.items_t, spans)?;
        let batch = fixed_batch();
        let texts = texts(&batch);
        // Prime: one cold batch fills the result cache.
        spans
            .timed("setup.prime", |spans| engine.execute(&texts, spans))
            .0?;
        let server = ServerHandle::bind(&engine, spans)?;
        let client = server.connect_tcp(spans)?;
        Ok(ServerWarm {
            client,
            loopback: None,
            counters_at_start: server.counters(),
            server,
            engine,
            data,
            verified: batch.iter().map(|_| None).collect(),
            batch,
            texts,
            expected: Vec::new(),
            cursor: 0,
        })
    }

    fn arm_oracle(&mut self) -> Result<(), String> {
        self.expected = self.data.expected(&self.batch);
        Ok(())
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(usize, Reply), String> {
        let template = self.cursor % self.texts.len();
        self.cursor += 1;
        let reply = self.client.query(&self.texts[template], spans)?;
        Ok((template, reply))
    }

    fn verify(&mut self, out: (usize, Reply), verifier: &mut Verifier) -> Result<(), String> {
        let (template, reply) = out;
        if !reply.cached {
            return Err(format!(
                "`{}` missed the primed result cache",
                self.texts[template]
            ));
        }
        if !verifier.inject_wrong_row {
            if let Some(first) = &self.verified[template] {
                return if reply.same_rows(first) {
                    Ok(())
                } else {
                    Err(format!(
                        "`{}`: a cached reply changed",
                        self.texts[template]
                    ))
                };
            }
        }
        verifier.table(
            &self.texts[template],
            &self.expected[template],
            reply.cells(),
        )?;
        self.verified[template] = Some(reply);
        Ok(())
    }

    /// Coprime with the eight templates, so sampling does not favour one.
    fn ladder_every(&self) -> usize {
        257
    }

    /// One full cycle of the eight templates down each rung: TCP, the
    /// in-memory loopback transport, the engine in process, and the codec
    /// alone.  Each sample is the cycle's mean per round trip.
    fn ladder(
        &mut self,
        _out: &(usize, Reply),
        _op_wall: Duration,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String> {
        if self.loopback.is_none() {
            self.loopback = Some(self.server.connect_loopback()?);
        }
        let loopback = self.loopback.as_mut().expect("set above");
        let n = self.texts.len() as f64;
        let mark = spans.mark();
        let mut reply_bytes = 0;
        for text in &self.texts {
            let reply = self.client.query(text, spans)?;
            loopback.query(text, spans)?;
            let hit = self.engine.execute(std::slice::from_ref(text), spans)?;
            if !reply.cached || !hit[0].cached {
                return Err(format!("`{text}` missed the primed result cache"));
            }
            reply_bytes += layers::probe_codec(text, &reply, spans)?;
        }
        let per_op = |span: &str| us(spans.sum_since(mark, span)) / n;
        let (tcp, pipe) = (per_op("server.tcp_query"), per_op("server.loopback_query"));
        let (hit, codec) = (per_op("engine.execute_batch"), per_op("server.codec"));
        layers.push("server.tcp_rtt_us", tcp);
        layers.push("server.loopback_rtt_us", pipe);
        layers.push("server.net_self_us", tcp - pipe);
        layers.push("server.codec_us", codec);
        layers.push("server.handoff_self_us", pipe - hit - codec);
        layers.push("server.bytes_per_reply", reply_bytes as f64 / n);
        layers.push("engine.cache_hit_us", hit);
        layers.push("engine.parse_us", per_op("engine.parse_query"));
        Ok(())
    }

    fn probes(&mut self, _spans: &mut Spans, layers: &mut Layers) -> Result<(), String> {
        let (now, then) = (self.server.counters(), self.counters_at_start);
        layers.push(
            "server.batch_occupancy",
            (now.batched_requests - then.batched_requests) as f64
                / (now.batches - then.batches).max(1) as f64,
        );
        let cache = self.engine.cache();
        layers.push(
            "engine.cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        Ok(())
    }

    fn counts(&self, out: &(usize, Reply)) -> Vec<(&'static str, u64)> {
        let (template, reply) = out;
        let frame = layers::probe_codec(&self.texts[*template], reply, &mut Spans::new(false))
            .expect("a reply that arrived over the wire encodes");
        vec![
            ("output_rows", reply.output_rows() as u64),
            ("server.bytes_per_reply", frame as u64),
        ]
    }
}

// ---------------------------------------------------------------------------
// shard_scatter
// ---------------------------------------------------------------------------

pub const SHARDS: usize = 2;

/// One `Coordinator::execute_batch` of the eight fixed templates per op at
/// two shards: `lineitem` partitioned, `orders` replicated, per-shard result
/// caches off (no epoch trick keeps partitions aligned).  Routes covered:
/// `Partitioned(Reaggregate)`, `Partitioned(SortedConcat)`, `Replicated`.
pub struct ShardScatter {
    data: WideData,
    coordinator: CoordinatorHandle,
    batch: Vec<Query>,
    texts: Vec<String>,
    expected: Vec<Table>,
    timers_before: (u64, u64),
    /// One engine holding the whole tables, for `shard.speedup_vs_single`.
    single: Option<EngineHandle>,
}

impl Workload for ShardScatter {
    type Output = Vec<Reply>;

    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let data = WideData::new(&mut rng);
        let coordinator = CoordinatorHandle::new(SHARDS, &["lineitem"], spans);
        coordinator.register("orders", &data.orders_t, spans)?;
        coordinator.register("lineitem", &data.items_t, spans)?;
        let batch = fixed_batch();
        Ok(ShardScatter {
            texts: texts(&batch),
            batch,
            data,
            coordinator,
            expected: Vec::new(),
            timers_before: (0, 0),
            single: None,
        })
    }

    fn arm_oracle(&mut self) -> Result<(), String> {
        self.expected = self.data.expected(&self.batch);
        Ok(())
    }

    fn prepare(&mut self, _spans: &mut Spans) -> Result<(), String> {
        self.timers_before = self.coordinator.timers();
        Ok(())
    }

    fn op(&mut self, spans: &mut Spans) -> Result<Vec<Reply>, String> {
        self.coordinator.execute(&self.texts, spans)
    }

    fn verify(&mut self, out: Vec<Reply>, verifier: &mut Verifier) -> Result<(), String> {
        check_batch(&self.batch, &out, &self.expected, verifier)?;
        let partitioned: u64 = out[0].partitions().iter().map(|p| p.1).sum();
        if partitioned != self.data.items.len() as u64 {
            return Err(format!(
                "partitions hold {partitioned} of {} lineitem rows",
                self.data.items.len()
            ));
        }
        Ok(())
    }

    fn ladder_every(&self) -> usize {
        3
    }

    fn ladder(
        &mut self,
        out: &Vec<Reply>,
        op_wall: Duration,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let (scatter, merge) = self.coordinator.timers();
        let scatter = Duration::from_nanos(scatter - self.timers_before.0);
        let merge = Duration::from_nanos(merge - self.timers_before.1);
        layers.push("shard.scatter_ms", ms(scatter));
        layers.push("shard.merge_ms", ms(merge));
        layers.push(
            "shard.coord_self_ms",
            (op_wall.as_secs_f64() - scatter.as_secs_f64() - merge.as_secs_f64()) * 1e3,
        );
        layers.push(
            "shard.partition_rows",
            out[0].partitions().iter().map(|p| p.1).max().unwrap_or(0) as f64,
        );
        layers.push(
            "trace.events_per_op",
            out.iter().map(Reply::events).sum::<u64>() as f64,
        );

        if self.single.is_none() {
            let single = EngineHandle::new(false, None);
            single.register("orders", &self.data.orders_t, spans)?;
            single.register("lineitem", &self.data.items_t, spans)?;
            self.single = Some(single);
        }
        let single = self.single.as_ref().expect("set above");
        let mark = spans.mark();
        let replies = spans
            .timed("ladder.single_engine", |spans| {
                single.execute(&self.texts, spans)
            })
            .0?;
        layers.push(
            "shard.speedup_vs_single",
            spans.sum_since(mark, "engine.execute_batch").as_secs_f64() / op_wall.as_secs_f64(),
        );
        phase_samples(&replies, layers);

        operator_rungs(
            &self.batch,
            &self.data,
            &self.data.items_t,
            None,
            spans,
            layers,
        )
    }

    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers) -> Result<(), String> {
        // Partition into the shards and copy whole to the gather engine.
        let mark = spans.mark();
        self.coordinator
            .register("lineitem", &self.data.items_t, spans)?;
        layers.push(
            "shard.register_ms",
            ms(spans.sum_since(mark, "shard.register_wide_table")),
        );
        Ok(())
    }

    fn counts(&self, out: &Vec<Reply>) -> Vec<(&'static str, u64)> {
        let mut counts = reply_counts(out);
        counts.push((
            "shard.partition_rows",
            out[0].partitions().iter().map(|p| p.1).max().unwrap_or(0),
        ));
        counts
    }
}
