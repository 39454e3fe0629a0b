//! # obliv-shard — a sharded oblivious query coordinator
//!
//! One [`Coordinator`] owns `N` independent [`Engine`]s — one per shard,
//! each with its own catalog and result cache — plus a full-copy
//! *gather* engine, and presents the same [`QueryExecutor`] surface as a
//! single engine.  Tables named in [`ShardConfig::partitioned`] are split
//! into `N` balanced positional chunks (shard `i` holds rows
//! `[i·n/N, (i+1)·n/N)`, see [`chunk_bounds`]); every other table is
//! replicated to all shards, JODES-style *fact-partitioned /
//! dimension-replicated*.
//!
//! Each incoming plan is classified by the engine's
//! [`shardable`] analysis:
//!
//! * **Partitioned** — the *identical* plan is scattered to every shard
//!   (each shard's catalog resolves the partitioned name to its local
//!   chunk) and the partial results are combined with one oblivious merge
//!   chosen by the analysis: plain concatenation for order-preserving
//!   spines, a whole-row [`wide_sort`] for join/union partials,
//!   [`wide_distinct`] for a root distinct, and a re-aggregation
//!   ([`wide_group_aggregate`]) for root group/join aggregates.
//! * **Replicated** — the plan touches no partitioned table; it runs,
//!   unchanged, on shard 0's full replicas.
//! * **Gather** — not decomposable (partitioned tables on both join
//!   sides, operators above a merge point, …); the full-copy engine
//!   answers it exactly as a single-engine deployment would.
//!
//! ## What sharding leaks
//!
//! Every merge step is itself an oblivious operator over the partials'
//! *public* sizes, so scattering adds exactly one new class of revealed
//! values: the per-shard partition sizes.  Under balanced positional
//! chunking those are a pure function of the (already public) table size
//! and the shard count — Content-class in the metrics taxonomy — and they
//! are reported explicitly, as [`QuerySummary::shard_partitions`] entries
//! and in the coordinator's own leakage [`audit`](Coordinator::audit)
//! ring, rather than hidden in the runtime.  The combined trace digest is
//! a SHA-256 over the per-shard digests plus the merge digest:
//! still a pure function of public parameters, and deterministic for a
//! fixed `(plan, table sizes, shard count)`.
//!
//! ## Quick start
//!
//! ```
//! use obliv_engine::Plan;
//! use obliv_join::Table;
//! use obliv_shard::{Coordinator, ShardConfig};
//!
//! let coordinator = Coordinator::new(ShardConfig {
//!     shards: 2,
//!     partitioned: vec!["orders".into()],
//!     ..Default::default()
//! });
//! coordinator
//!     .register_table("orders", Table::from_pairs(vec![(1, 120), (1, 80), (2, 200), (3, 5)]))
//!     .unwrap();
//! coordinator
//!     .register_table("customers", Table::from_pairs(vec![(1, 7), (2, 9)]))
//!     .unwrap();
//!
//! let mut session = coordinator.session("tenant-a");
//! session.queue(Plan::scan("orders").join(Plan::scan("customers"), "key", "key"));
//! let responses = session.run().unwrap();
//! assert_eq!(responses[0].rows.len(), 3);
//! // The join was scattered over two chunks of `orders`:
//! assert_eq!(
//!     responses[0].summary.shard_partitions,
//!     vec![("orders@shard0".into(), 2), ("orders@shard1".into(), 2)]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obliv_chaos::{points, Fault, Faults};
use obliv_engine::digest_memo::{DigestMemo, TracedWork};
use obliv_engine::shardable::{self, MergeOp, Shardability};
use obliv_engine::{
    CacheStats, Engine, EngineConfig, EngineError, Plan, QueryExecutor, QueryRequest,
    QueryResponse, QuerySummary, Rows, Session, TableMeta,
};
use obliv_join::schema::WideTable;
use obliv_join::Table;
use obliv_operators::{
    group_aggregate_output_schema, union_output_schema, wide_distinct, wide_group_aggregate,
    wide_sort, wide_union_all,
};
use obliv_telemetry::{
    AuditRecord, Counter, Gauge, LeakageAudit, MetricClass, MetricsRegistry, PhaseBreakdown,
    SpanNode, SpanRecorder,
};
use obliv_trace::sha256::Sha256;
use obliv_trace::{OpCounters, TraceSink, Tracer};

/// Coordinator construction options.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (independent engines) the coordinator scatters
    /// over.  Clamped to at least 1.
    pub shards: usize,
    /// Names of the tables to key-range partition positionally across the
    /// shards; every other table is replicated to all shards.  Partition
    /// sizes are revealed (they are a pure function of the public table
    /// size and the shard count — see [`chunk_bounds`]).
    pub partitioned: Vec<String>,
    /// Template configuration for each shard engine *and* the full-copy
    /// gather engine.  Defaults to a 1-worker engine so an `N`-shard
    /// coordinator spawns no per-engine batch helpers beyond the scatter
    /// threads themselves.
    pub engine: EngineConfig,
    /// Fault-injection handle consulted at the
    /// [`shard/coordinator`](points::SHARD_COORDINATOR) point at batch
    /// start; a no-op unit type without the chaos `inject` feature.
    pub faults: Faults,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            partitioned: Vec::new(),
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            faults: Faults::default(),
        }
    }
}

/// The balanced positional chunk of a `rows`-row table assigned to
/// `shard` of `shards`: the half-open row range
/// `[shard·rows/shards, (shard+1)·rows/shards)`.
///
/// Chunk sizes differ by at most one row and depend only on the public
/// table size and the shard count — never on table contents — which is
/// exactly why per-shard partition sizes are safe to reveal.
pub fn chunk_bounds(rows: usize, shards: usize, shard: usize) -> (usize, usize) {
    (shard * rows / shards, (shard + 1) * rows / shards)
}

/// Where one plan runs under the current partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Scatter to every shard, then merge the partials.
    Scatter(MergeOp),
    /// Replicated inputs only: run on shard 0 unchanged.
    Local,
    /// Not decomposable: run on the full-copy engine.
    Gather,
}

/// Pre-registered registry handles for everything the coordinator reports.
struct CoordinatorMetrics {
    /// `shard_subplans_total{shard=i}` — subplans scattered to each shard.
    /// Content: how a plan decomposes is a function of the plan and the
    /// (public) partitioning alone.
    subplans: Vec<Counter>,
    /// `shard_queries_total{route=scatter|local|gather}` — Content, for
    /// the same reason.
    routes: [Counter; 3],
    merges: Counter,
    /// Merge and scatter wall time — Timing, like every duration.
    merge_ns: Counter,
    scatter_ns: Counter,
    shards: Gauge,
}

impl CoordinatorMetrics {
    fn new(registry: &MetricsRegistry, shards: usize) -> Self {
        use MetricClass::{Content, Timing};
        CoordinatorMetrics {
            subplans: (0..shards)
                .map(|i| {
                    registry.counter(
                        "shard_subplans_total",
                        Content,
                        &[("shard", &i.to_string())],
                    )
                })
                .collect(),
            routes: ["scatter", "local", "gather"]
                .map(|route| registry.counter("shard_queries_total", Content, &[("route", route)])),
            merges: registry.counter("shard_merges_total", Content, &[]),
            merge_ns: registry.counter("shard_merge_ns_total", Timing, &[]),
            scatter_ns: registry.counter("shard_scatter_ns_total", Timing, &[]),
            shards: registry.gauge("shard_count", Content, &[]),
        }
    }
}

/// The label-independent payload of one scattered-and-merged execution,
/// kept so intra-batch duplicates fan out without re-merging.
struct Merged {
    rows: Rows,
    span: SpanNode,
    digest: String,
    events: u64,
    counters: OpCounters,
}

/// The oblivious merge of one scattered query's partials, as the digest
/// memo's unit of [`TracedWork`]: the same fold for every sink.
struct MergeWork<'a> {
    op: MergeOp,
    partials: Vec<&'a WideTable>,
}

impl MergeWork<'_> {
    /// Every path starts from the oblivious concatenation (a
    /// [`wide_union_all`] fold, which routes through the shared
    /// [`union_output_schema`] validator), then applies the
    /// analysis-chosen finishing operator.
    fn fold<S: TraceSink>(&self, tracer: &Tracer<S>) -> Result<WideTable, EngineError> {
        let mut concat: WideTable = self.partials[0].clone();
        for partial in &self.partials[1..] {
            concat = wide_union_all(tracer, &concat, partial)?;
        }
        Ok(match self.op {
            // Order-preserving spines: the partials are contiguous slices
            // of the serial output, so their concatenation *is* it.
            MergeOp::Concat => concat,
            MergeOp::SortedConcat => wide_sort(tracer, &concat)?,
            MergeOp::MergeDistinct => wide_distinct(tracer, &concat)?,
            MergeOp::Reaggregate { combine } => {
                let schema = concat.schema_handle();
                let key = schema.columns()[0].name().to_string();
                let value = schema.columns()[1].name().to_string();
                let merged =
                    wide_group_aggregate(tracer, &concat, &key, combine, Some(value.as_str()))?;
                // Re-aggregation renames the value column (`count` becomes
                // `sum_count`, …) but keeps the byte layout: rewrap the
                // merged rows under the partials' schema so the response
                // wears the same column names a single engine reports.
                let mut bytes = Vec::with_capacity(merged.len() * merged.schema().row_width());
                for i in 0..merged.len() {
                    bytes.extend_from_slice(merged.row_bytes(i));
                }
                WideTable::from_encoded(schema, bytes)
            }
        })
    }
}

impl TracedWork for MergeWork<'_> {
    type Output = Result<WideTable, EngineError>;

    fn run<S: TraceSink>(&self, tracer: &Tracer<S>) -> (Self::Output, SpanNode) {
        let recorder = SpanRecorder::new("merge", tracer.counters());
        let table = self.fold(tracer);
        let (rows, width) = table
            .as_ref()
            .map_or((0, 0), |t| (t.len(), t.schema().row_width()));
        let span = recorder.finish(
            self.partials.iter().map(|p| p.len() as u64).collect(),
            rows as u64,
            width as u64,
            tracer.counters(),
        );
        (table, span)
    }
}

/// A sharded oblivious query coordinator: `N` shard [`Engine`]s plus a
/// full-copy gather engine behind one [`QueryExecutor`] surface.
///
/// See the [crate docs](crate) for the decomposition model and the
/// leakage accounting.
pub struct Coordinator {
    shards: usize,
    partitioned: BTreeSet<String>,
    /// One engine per shard; a partitioned table's chunk `i` lives in
    /// `shard_engines[i]`'s catalog under the table's plain name.
    shard_engines: Vec<Engine>,
    /// Full replicas of every table: answers gather-routed plans and is
    /// the authoritative source of public table metadata.
    full: Engine,
    registry: Arc<MetricsRegistry>,
    metrics: CoordinatorMetrics,
    /// Coordinator-level leakage ring: one record per *fresh* scattered
    /// query, with the per-shard partition sizes among its revealed
    /// inputs.  Local and gather routes are audited by the engine that
    /// ran them.
    audit: LeakageAudit,
    /// Digest memo for the merge step; the shard engines each keep their
    /// own.
    merge_memo: DigestMemo,
    faults: Faults,
}

impl Coordinator {
    /// A coordinator with empty catalogs on every shard.
    pub fn new(config: ShardConfig) -> Self {
        let shards = config.shards.max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = CoordinatorMetrics::new(&registry, shards);
        metrics.shards.set(shards as i64);
        Coordinator {
            shards,
            partitioned: config.partitioned.into_iter().collect(),
            shard_engines: (0..shards)
                .map(|_| Engine::new(config.engine.clone()))
                .collect(),
            full: Engine::new(config.engine.clone()),
            merge_memo: DigestMemo::new(&registry, "shard_merge"),
            registry,
            metrics,
            audit: LeakageAudit::new(config.engine.audit_capacity),
            faults: config.faults,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// `true` iff `name` is in the partitioned set (whether or not a table
    /// of that name is registered yet).
    pub fn is_partitioned(&self, name: &str) -> bool {
        self.partitioned.contains(name)
    }

    /// The coordinator's metrics registry (scatter/merge series; each
    /// shard engine keeps its own registry).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The coordinator's leakage audit ring: one record per fresh
    /// scattered query, its revealed inputs including the per-shard
    /// partition sizes.
    pub fn audit(&self) -> &LeakageAudit {
        &self.audit
    }

    /// The engine serving shard `i` — for tests and observability; the
    /// shard catalogs are managed through the coordinator's registration
    /// methods.
    pub fn shard_engine(&self, i: usize) -> &Engine {
        &self.shard_engines[i]
    }

    /// Register a pair-shaped `table` under `name` — constructor sugar for
    /// [`register_wide_table`](Coordinator::register_wide_table): the table
    /// is encoded once under the degenerate `{key: u64, value: u64}` schema
    /// and then chunked or replicated like any other.
    pub fn register_table(&self, name: impl Into<String>, table: Table) -> Result<(), EngineError> {
        self.register_wide_table(name, WideTable::from_pair(&table))
    }

    /// Register `table` under `name` on every shard: chunked positionally
    /// when `name` is partitioned, replicated otherwise.  The full-copy
    /// engine always receives the whole table.
    pub fn register_wide_table(
        &self,
        name: impl Into<String>,
        table: WideTable,
    ) -> Result<(), EngineError> {
        let name = name.into();
        if self.partitioned.contains(&name) {
            for (i, engine) in self.shard_engines.iter().enumerate() {
                let (lo, hi) = chunk_bounds(table.len(), self.shards, i);
                let mut bytes = Vec::with_capacity((hi - lo) * table.schema().row_width());
                for row in lo..hi {
                    bytes.extend_from_slice(table.row_bytes(row));
                }
                engine.register_wide_table(
                    name.as_str(),
                    WideTable::from_encoded(table.schema_handle(), bytes),
                )?;
            }
        } else {
            for engine in &self.shard_engines {
                engine.register_wide_table(name.as_str(), table.clone())?;
            }
        }
        self.full.register_wide_table(name, table)?;
        Ok(())
    }

    /// Remove the table registered under `name` from every shard and the
    /// full-copy engine; `true` iff a table of that name was registered.
    pub fn deregister_table(&self, name: &str) -> bool {
        for engine in &self.shard_engines {
            engine.deregister_table(name);
        }
        self.full.deregister_table(name).is_some()
    }

    /// Public metadata for `name` (whole-table sizes, from the full copy).
    pub fn table_meta(&self, name: &str) -> Option<TableMeta> {
        self.full.table_meta(name)
    }

    /// Public metadata for every registered table, in name order.
    pub fn list_tables(&self) -> Vec<TableMeta> {
        self.full.list_tables()
    }

    /// Open a session — a labelled request queue — against this
    /// coordinator, exactly like [`Engine::session`].
    pub fn session(&self, tenant: impl Into<String>) -> Session<'_> {
        Session::attach(self, tenant)
    }

    /// Where `plan` runs under the current partitioning, and with which
    /// merge — the coordinator's routing decision, exposed for tests and
    /// `EXPLAIN`-style tooling as the engine-level [`Shardability`].
    pub fn classify(&self, plan: &Plan) -> Shardability {
        shardable::analyze(plan, &|name| self.partitioned.contains(name))
    }

    fn route(&self, plan: &Plan) -> Route {
        match self.classify(plan) {
            Shardability::Partitioned(op) => Route::Scatter(op),
            Shardability::Replicated => Route::Local,
            Shardability::Gather => Route::Gather,
        }
    }

    /// Execute a batch of requests; responses in submission order.
    ///
    /// Mirrors [`Engine::execute_batch`] semantics: identical plans in one
    /// batch execute once (duplicates come back `cached: true`), and a
    /// failed request fails the whole batch with nothing finalised.  A
    /// panic in the coordinator itself or in one shard's engine is
    /// contained and surfaced as the typed
    /// [`EngineError::ShardFailed`]; sibling shards are unaffected and the
    /// coordinator remains usable.
    pub fn execute_batch(
        &self,
        requests: &[QueryRequest],
    ) -> Result<Vec<QueryResponse>, EngineError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Routing (and the chaos point) run inside a catch so a
        // coordinator crash is a typed error, not a caller panic.
        let routes: Vec<Route> = catch_unwind(AssertUnwindSafe(|| {
            consult_coordinator_faults(&self.faults);
            requests.iter().map(|r| self.route(r.plan())).collect()
        }))
        .map_err(|cause| EngineError::ShardFailed {
            shard: usize::MAX,
            message: panic_message(cause),
        })?;

        // Deduplicate by canonical plan, like the engine: each distinct
        // plan is scattered (or routed) once, duplicates fan out from the
        // representative's payload.
        let canon: Vec<&str> = requests.iter().map(|r| r.canonical()).collect();
        let mut slot_by_key: HashMap<&str, usize> = HashMap::with_capacity(requests.len());
        let mut representative: Vec<usize> = Vec::new();
        let mut slot_of_request: Vec<usize> = Vec::with_capacity(requests.len());
        for (i, &key) in canon.iter().enumerate() {
            let slot = *slot_by_key.entry(key).or_insert_with(|| {
                representative.push(i);
                representative.len() - 1
            });
            slot_of_request.push(slot);
        }

        let mut payload: Vec<Option<QueryResponse>> = Vec::new();
        payload.resize_with(representative.len(), || None);
        for (slot, &req) in representative.iter().enumerate() {
            let request = &requests[req];
            let response = match routes[req] {
                Route::Scatter(op) => {
                    self.metrics.routes[0].inc();
                    self.scatter(request, op)?
                }
                Route::Local => {
                    self.metrics.routes[1].inc();
                    one_response(
                        self.shard_engines[0].execute_batch(std::slice::from_ref(request))?,
                    )
                }
                Route::Gather => {
                    self.metrics.routes[2].inc();
                    one_response(self.full.execute_batch(std::slice::from_ref(request))?)
                }
            };
            payload[slot] = Some(response);
        }

        Ok(requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let slot = slot_of_request[i];
                let entry = payload[slot].as_ref().expect("every slot was filled");
                let mut response = entry.clone();
                response.label = request.label.clone();
                if representative[slot] != i {
                    // Intra-batch duplicate: served from the
                    // representative's payload, bit-identical to it.
                    response.cached = true;
                }
                response
            })
            .collect())
    }

    /// Cumulative result-cache accounting summed over the shard engines
    /// and the full-copy engine.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = self.full.cache_stats();
        for engine in &self.shard_engines {
            let s = engine.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
            total.bytes += s.bytes;
        }
        total
    }

    /// Scatter one request to every shard engine, then merge the partials.
    fn scatter(&self, request: &QueryRequest, op: MergeOp) -> Result<QueryResponse, EngineError> {
        let admitted = Instant::now();
        // One scoped thread per shard; a shard worker's panic is re-raised
        // by its engine on our scatter thread, contained there, and
        // surfaced as a typed per-shard failure (first failing shard
        // index wins).  Sibling engines run to completion either way.
        let results: Vec<Result<QueryResponse, EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shard_engines
                .iter()
                .enumerate()
                .map(|(i, engine)| {
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            engine.execute_batch(std::slice::from_ref(request))
                        }))
                        .map_err(|cause| EngineError::ShardFailed {
                            shard: i,
                            message: panic_message(cause),
                        })?
                        .map(one_response)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("shard panics are contained by catch_unwind")
                })
                .collect()
        });
        let scatter_elapsed = admitted.elapsed();
        let mut subs = Vec::with_capacity(results.len());
        for result in results {
            subs.push(result?);
        }
        for counter in &self.metrics.subplans {
            counter.inc();
        }
        self.metrics
            .scatter_ns
            .add(scatter_elapsed.as_nanos() as u64);

        let merge_start = Instant::now();
        let merged = self.merge(op, &subs)?;
        let merge_elapsed = merge_start.elapsed();
        self.metrics.merges.inc();
        self.metrics.merge_ns.add(merge_elapsed.as_nanos() as u64);

        // The combined digest chains the per-shard digests with the merge
        // digest: a pure function of public parameters, deterministic for
        // a fixed (plan, sizes, shard count).
        let mut combined = Sha256::new();
        for sub in &subs {
            combined.update(sub.summary.trace_digest.as_bytes());
        }
        combined.update(merged.digest.as_bytes());
        let trace_digest = Sha256::hex(&combined.finalize());

        let counters = subs
            .iter()
            .fold(merged.counters, |acc, s| acc + s.summary.counters);
        let trace_events = merged.events + subs.iter().map(|s| s.summary.trace_events).sum::<u64>();
        let carry_words = subs
            .iter()
            .map(|s| s.summary.carry_words)
            .max()
            .unwrap_or(0);
        // The scattered query counts as cached only when every shard
        // served its partial from cache; the deterministic merge is then
        // re-run, reproducing the original payload bit for bit.
        let cached = subs.iter().all(|s| s.cached);
        let shard_partitions = self.partitions_of(request.plan());
        let rows = merged.rows;
        let output_rows = rows.len();
        let output_row_width = rows.schema().row_width();

        // Root span: the per-shard query trees side by side (they ran
        // concurrently, so their totals may sum past the wall time; the
        // root total takes the max so the tree stays consistent), then
        // the merge span.
        let mut children: Vec<SpanNode> = subs.iter().map(|s| s.trace.as_ref().clone()).collect();
        children.push(merged.span);
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        let wall = admitted.elapsed();
        let total_ns = (wall.as_nanos() as u64).max(child_total);
        let trace = SpanNode {
            name: "shard_scatter".into(),
            detail: format!("{} shards, merge={}", self.shards, merge_name(op)),
            input_rows: subs.iter().map(|s| s.summary.output_rows as u64).collect(),
            output_rows: output_rows as u64,
            output_row_width: output_row_width as u64,
            counters,
            total_ns,
            self_ns: total_ns - child_total,
            children,
        };

        if !cached {
            let mut inputs: Vec<(String, u64)> = request
                .plan()
                .referenced_tables()
                .into_iter()
                .map(|name| {
                    let rows = self
                        .full
                        .table_meta(name)
                        .map(|m| m.rows as u64)
                        .unwrap_or(0);
                    (name.to_string(), rows)
                })
                .collect();
            inputs.extend(shard_partitions.iter().cloned());
            self.audit.push(AuditRecord {
                label: request.label.clone(),
                plan: request.canonical().to_string(),
                inputs,
                output_rows: output_rows as u64,
                output_row_width: output_row_width as u64,
                carry_words: carry_words as u64,
                trace_events,
                counters,
                digest: trace_digest.clone(),
            });
        }

        Ok(QueryResponse {
            label: request.label.clone(),
            rows,
            summary: QuerySummary {
                trace_digest,
                trace_events,
                counters,
                output_rows,
                output_row_width,
                carry_words,
                shard_partitions,
                phases: PhaseBreakdown {
                    parse: request.parse_cost(),
                    resolve: Duration::ZERO,
                    queue_wait: Duration::ZERO,
                    execute: scatter_elapsed,
                    publish: merge_elapsed,
                },
                wall,
            },
            cached,
            trace: Arc::new(trace),
        })
    }

    /// Combine per-shard partials with one oblivious merge, through the
    /// merge digest memo: a merge shape seen before (operator, partial
    /// schema, partial and output sizes) runs untraced.
    fn merge(&self, op: MergeOp, subs: &[QueryResponse]) -> Result<Merged, EngineError> {
        let partials: Vec<&WideTable> = subs.iter().map(|s| s.rows.table()).collect();
        // Validate up front with the shared schema validators, so the
        // traced fold cannot fail mid-merge (the same
        // validated-cannot-fail split the engine uses).
        for pair in partials.windows(2) {
            union_output_schema(pair[0].schema(), pair[1].schema())?;
        }
        if let MergeOp::Reaggregate { combine } = op {
            let schema = partials[0].schema();
            let key = schema.columns()[0].name();
            let value = schema.columns()[1].name();
            group_aggregate_output_schema(schema, key, combine, Some(value))?;
        }

        let shape = format!("merge {op:?} over {:?}", partials[0].schema());
        let work = MergeWork { op, partials };
        let traced = self.merge_memo.trace(&shape, &work);
        let table = traced.output?;
        self.merge_memo.commit(&traced.update);
        Ok(Merged {
            rows: Rows::from_wide(table),
            counters: traced.trace.counters,
            span: traced.trace,
            digest: traced.digest,
            events: traced.events,
        })
    }

    /// The `("table@shard{i}", rows)` partition-size entries for every
    /// partitioned table `plan` references — the new revealed values of a
    /// scattered execution.
    fn partitions_of(&self, plan: &Plan) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for name in plan.referenced_tables() {
            if self.partitioned.contains(name) {
                let rows = self.full.table_meta(name).map(|m| m.rows).unwrap_or(0);
                for i in 0..self.shards {
                    let (lo, hi) = chunk_bounds(rows, self.shards, i);
                    out.push((format!("{name}@shard{i}"), (hi - lo) as u64));
                }
            }
        }
        out
    }
}

impl QueryExecutor for Coordinator {
    fn execute_batch(&self, requests: &[QueryRequest]) -> Result<Vec<QueryResponse>, EngineError> {
        Coordinator::execute_batch(self, requests)
    }

    fn cache_stats(&self) -> CacheStats {
        Coordinator::cache_stats(self)
    }

    fn metrics(&self) -> &Arc<MetricsRegistry> {
        Coordinator::metrics(self)
    }

    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_cache_hits(&self) -> Vec<u64> {
        self.shard_engines
            .iter()
            .map(|e| e.cache_stats().hits)
            .collect()
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("shards", &self.shards)
            .field("partitioned", &self.partitioned)
            .field("tables", &self.full.list_tables().len())
            .finish()
    }
}

/// The first (and only) response of a single-request engine batch.
fn one_response(mut responses: Vec<QueryResponse>) -> QueryResponse {
    responses.pop().expect("one request yields one response")
}

/// Short public name of a merge operator, for span details and logs.
fn merge_name(op: MergeOp) -> &'static str {
    match op {
        MergeOp::Concat => "concat",
        MergeOp::SortedConcat => "sorted_concat",
        MergeOp::MergeDistinct => "distinct",
        MergeOp::Reaggregate { .. } => "reaggregate",
    }
}

/// Consult the [`shard/coordinator`](points::SHARD_COORDINATOR) injection
/// point at batch start, before any subplan is scattered: `Panic` models a
/// coordinator crash (contained and surfaced as
/// [`EngineError::ShardFailed`] with `shard == usize::MAX`), `Delay` a
/// slow decomposition.  Compiles to nothing without the chaos `inject`
/// feature.
fn consult_coordinator_faults(faults: &Faults) {
    match faults.hit(points::SHARD_COORDINATOR) {
        Some(Fault::Panic) => panic!("injected: shard coordinator panic"),
        Some(Fault::Delay(delay)) => std::thread::sleep(delay),
        _ => {}
    }
}

/// Render a contained panic payload as the `ShardFailed` message.
fn panic_message(cause: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = cause.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = cause.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_operators::Aggregate;

    fn coordinator(shards: usize) -> Coordinator {
        let c = Coordinator::new(ShardConfig {
            shards,
            partitioned: vec!["facts".into()],
            ..Default::default()
        });
        c.register_table(
            "facts",
            Table::from_pairs(vec![(1, 10), (2, 20), (1, 30), (3, 40), (2, 50)]),
        )
        .unwrap();
        c.register_table("dims", Table::from_pairs(vec![(1, 7), (2, 9)]))
            .unwrap();
        c
    }

    #[test]
    fn chunk_bounds_are_balanced_and_cover() {
        for rows in [0usize, 1, 5, 8, 2048] {
            for shards in [1usize, 2, 3, 4] {
                let mut covered = 0;
                for i in 0..shards {
                    let (lo, hi) = chunk_bounds(rows, shards, i);
                    assert!(lo <= hi && hi <= rows);
                    assert_eq!(lo, covered, "chunks are contiguous");
                    covered = hi;
                    assert!(hi - lo <= rows / shards + 1, "balanced within one row");
                }
                assert_eq!(covered, rows, "chunks cover the table");
            }
        }
    }

    #[test]
    fn shard_catalogs_hold_the_chunks() {
        let c = coordinator(2);
        assert_eq!(c.shard_engine(0).table_meta("facts").unwrap().rows, 2);
        assert_eq!(c.shard_engine(1).table_meta("facts").unwrap().rows, 3);
        // Replicated table: full copy everywhere.
        for i in 0..2 {
            assert_eq!(c.shard_engine(i).table_meta("dims").unwrap().rows, 2);
        }
        assert_eq!(c.table_meta("facts").unwrap().rows, 5);
    }

    #[test]
    fn scattered_join_carries_partition_sizes() {
        let c = coordinator(2);
        let response = one_response(
            c.execute_batch(&[QueryRequest::new(
                "q",
                Plan::scan("facts").join(Plan::scan("dims"), "key", "key"),
            )])
            .unwrap(),
        );
        assert_eq!(
            response.summary.shard_partitions,
            vec![("facts@shard0".into(), 2), ("facts@shard1".into(), 3)]
        );
        assert_eq!(response.summary.trace_digest.len(), 64);
        // facts keys 1,2,1,2 match dims; key 3 does not.
        assert_eq!(response.rows.len(), 4);
        let audits = c.audit().records();
        assert_eq!(audits.len(), 1);
        assert!(audits[0]
            .inputs
            .iter()
            .any(|(name, rows)| name == "facts@shard1" && *rows == 3));
    }

    #[test]
    fn replicated_and_gather_routes_answer_like_one_engine() {
        let c = coordinator(2);
        // Replicated-only plan → Local; distinct-within-plan → Gather.
        let plans = [
            Plan::scan("dims"),
            Plan::scan("facts").distinct().project(["key"]),
        ];
        for plan in plans {
            let response = one_response(c.execute_batch(&[QueryRequest::new("q", plan)]).unwrap());
            assert!(response.summary.shard_partitions.is_empty());
        }
        let snapshot = c.metrics().snapshot();
        assert_eq!(
            snapshot.counter("shard_queries_total", &[("route", "local")]),
            1
        );
        assert_eq!(
            snapshot.counter("shard_queries_total", &[("route", "gather")]),
            1
        );
    }

    #[test]
    fn duplicates_in_one_batch_scatter_once() {
        let c = coordinator(2);
        let plan = Plan::scan("facts").group_aggregate(
            Aggregate::Sum,
            Some("value".into()),
            Some("key".into()),
        );
        let batch = vec![
            QueryRequest::new("a", plan.clone()),
            QueryRequest::new("b", plan),
        ];
        let responses = c.execute_batch(&batch).unwrap();
        assert!(!responses[0].cached);
        assert!(responses[1].cached);
        assert_eq!(responses[0].rows, responses[1].rows);
        assert_eq!(responses[0].summary, responses[1].summary);
        assert_eq!(responses[1].label, "b");
        let snapshot = c.metrics().snapshot();
        assert_eq!(
            snapshot.counter("shard_queries_total", &[("route", "scatter")]),
            1
        );
        assert_eq!(
            snapshot.counter("shard_subplans_total", &[("shard", "0")]),
            1
        );
    }

    #[test]
    fn warm_scatter_is_bit_identical_and_counts_as_cached() {
        let c = coordinator(4);
        let request = [QueryRequest::new(
            "q",
            Plan::scan("facts").join(Plan::scan("dims"), "key", "key"),
        )];
        let miss = one_response(c.execute_batch(&request).unwrap());
        assert!(!miss.cached);
        let hit = one_response(c.execute_batch(&request).unwrap());
        assert!(hit.cached, "all shard partials were cached");
        assert_eq!(hit.rows, miss.rows);
        assert_eq!(hit.summary.trace_digest, miss.summary.trace_digest);
        assert_eq!(hit.summary.counters, miss.summary.counters);
        // Per-shard hit accounting is visible through the executor trait.
        assert_eq!(QueryExecutor::shard_cache_hits(&c), vec![1, 1, 1, 1]);
        // One audit record: the ring logs executions, not servings.
        assert_eq!(c.audit().records().len(), 1);
    }

    #[test]
    fn executor_trait_surface() {
        let c = coordinator(2);
        assert_eq!(QueryExecutor::shards(&c), 2);
        let ghost = QueryRequest::new("q", Plan::scan("ghost"));
        assert!(QueryExecutor::execute_batch(&c, &[ghost]).is_err());
        let _ = QueryExecutor::cache_stats(&c);
        let mut session = c.session("t");
        session.queue(Plan::scan("facts"));
        let responses = session.run().unwrap();
        assert_eq!(responses[0].rows.len(), 5);
        assert_eq!(session.stats().shards, 2);
    }

    #[test]
    fn deregister_clears_every_shard() {
        let c = coordinator(2);
        assert!(c.deregister_table("facts"));
        assert!(!c.deregister_table("facts"), "nothing left to remove");
        assert!(c.table_meta("facts").is_none());
        for i in 0..2 {
            assert!(c.shard_engine(i).table_meta("facts").is_none());
        }
        assert!(c
            .execute_batch(&[QueryRequest::new("q", Plan::scan("facts"))])
            .is_err());
    }
}
