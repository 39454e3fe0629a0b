//! The engine: catalog ownership, result caching, and batch execution.
//!
//! ## Concurrency model
//!
//! The tracing substrate is deliberately single-threaded (a
//! [`Tracer`] is an `Rc` of shared state), because the
//! paper's adversary observes *one* interleaved access stream per program.
//! The engine preserves that model under concurrency by giving every query
//! its own tracer, created on the thread that runs it: queries never share
//! mutable state, so each query's access stream — and therefore its trace
//! digest — is exactly what a serial run would produce.  Concurrency
//! changes *when* streams are produced, never *what* they contain.
//!
//! Plans are resolved against the catalog on the submitting thread, so
//! jobs are self-contained.  Table rows are `Arc`-backed, so resolution
//! clones are reference-count bumps against one shared snapshot — the
//! catalog read lock is held only for those bumps, never during execution.
//!
//! One loop runs every batch's fresh jobs: the calling thread and
//! `min(workers, jobs) − 1` scoped helpers each take the next job index
//! from one counter until none is left, and the helpers are joined before
//! the batch is finalised.  A 1-worker engine or a one-job batch spawns no
//! helper, and a batch served entirely from the result cache has no job.
//!
//! ## Digest memo
//!
//! "Its own tracer" does not mean "its own hash": every query runs under
//! `Tracer<NullSink>`; one whose public shape the engine has traced before
//! is served the memoised digest, a new shape is run again under
//! `HashingSink`, and every 512th repeat of a shape is traced again and
//! compared — see [`digest_memo`](crate::digest_memo).  Workers only read
//! the memo; its update is committed with the rest of a batch's
//! finalisation.
//!
//! ## Result cache
//!
//! Executing the same plan against the same catalog contents always
//! produces the same result table *and* the same leakage summary (the
//! digest is a pure function of public parameters).  The engine therefore
//! keeps a result cache keyed on `(canonical plan, catalog epoch)`: any
//! catalog mutation bumps the epoch and invalidates everything, and
//! identical plans within one batch are deduplicated — executed once, with
//! the response fanned out to every duplicate.  Cache keys contain only
//! public information (the plan text), so the cache leaks nothing beyond
//! what submitting the plan already reveals; hits are visible in
//! [`QueryResponse::cached`] and the engine-wide [`CacheStats`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use obliv_chaos::{points, Fault, Faults};
use obliv_join::schema::WideTable;
use obliv_join::Table;
use obliv_primitives::{with_parallelism, Branch, ParCtx, ParExecutor, ScopedThreads};
use obliv_telemetry::{
    synthetic_span, AuditRecord, Counter, Gauge, Histogram, LeakageAudit, MetricClass,
    MetricsRegistry, PhaseBreakdown, SlowQueryLog, SlowQueryRecord, SpanNode, SpanRecorder,
};
use obliv_trace::{OpCounters, TraceSink, Tracer};

use crate::catalog::{Catalog, TableMeta};
use crate::digest_memo::{DigestMemo, MemoUpdate, TracedWork};
use crate::error::EngineError;
use crate::frontend::parse_query;
use crate::planner::ResolvedPlan;
use crate::query::{QueryRequest, QueryResponse, QuerySummary, Rows};
use crate::session::Session;

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Threads one [`Engine::execute_batch`] spreads its fresh jobs over:
    /// the calling thread plus up to `workers − 1` scoped helpers, spawned
    /// for that batch and joined before it returns.  `1` runs every job on
    /// the calling thread.  The bound is per batch: two callers inside
    /// `execute_batch` at once use up to `workers` threads each.
    pub workers: usize,
    /// Threads one query's sorts may fork across.  `1` (the default) keeps
    /// every sort on its serial path; `>= 2` forks the halves of every
    /// sorting network of at least `FORK_CELLS` cells
    /// (`obliv_primitives::sort::bitonic::FORK_CELLS`) onto scoped threads,
    /// ⌈log₂ intra_query_threads⌉ levels deep.  Each batch thread runs its
    /// own query's forks, so up to `workers × intra_query_threads` threads
    /// can run at once.  Results and trace digests are bit-identical at every
    /// setting.
    pub intra_query_threads: usize,
    /// Enable the `(canonical plan, catalog epoch)` result cache.  On by
    /// default; disable it to force every request through a fresh
    /// execution (e.g. for timing the uncached path).  Intra-batch
    /// deduplication of identical plans is always on — it changes
    /// neither results nor leakage, only repeated work.
    pub result_cache: bool,
    /// Upper bound on retained result-cache entries; inserting past it
    /// evicts the oldest entry (insertion order) so one epoch cannot grow
    /// the cache without bound.  Evictions are visible in
    /// [`CacheStats::evictions`].
    pub result_cache_cap: usize,
    /// How many per-query leakage [`AuditRecord`]s the engine retains
    /// (newest first to age out; see [`Engine::audit`]).  Zero disables
    /// retention but keeps counting.
    pub audit_capacity: usize,
    /// Wall-time threshold for the slow-query ring: a fresh execution whose
    /// wall time (admission to collection) meets it deposits a
    /// [`SlowQueryRecord`] — canonical plan, public sizes and the span tree,
    /// never contents — into [`Engine::slow_queries`].  `None` (the
    /// default) disables the ring.  Cache hits never re-record: the ring
    /// logs executions, not servings.
    pub slow_query_threshold: Option<Duration>,
    /// How many [`SlowQueryRecord`]s the ring retains (oldest aged out).
    /// Zero disables retention but keeps counting.
    pub slow_query_capacity: usize,
    /// Fault-injection handle consulted at the `engine/worker` point just
    /// before each job executes (tests panic the job or slow it here).
    /// Defaults to disabled; in builds without the `inject` feature of
    /// `obliv-chaos` this is a zero-sized no-op.
    pub faults: Faults,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        EngineConfig {
            workers,
            intra_query_threads: 1,
            result_cache: true,
            result_cache_cap: RESULT_CACHE_CAP,
            audit_capacity: AUDIT_CAPACITY,
            slow_query_threshold: None,
            slow_query_capacity: SLOW_QUERY_CAPACITY,
            faults: Faults::default(),
        }
    }
}

/// Cumulative result-cache accounting for one engine.
///
/// A *miss* is a request that triggered a fresh plan execution; a *hit* is
/// a request answered from the cache or deduplicated against an identical
/// plan in the same batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered without a fresh execution.
    pub hits: u64,
    /// Requests that executed their plan.
    pub misses: u64,
    /// Entries aged out at the capacity bound (epoch invalidations clear
    /// the cache but are counted separately, in the metrics registry).
    pub evictions: u64,
    /// Entries currently retained.
    pub entries: u64,
    /// Bytes of result rows currently retained (`Σ rows × row width` —
    /// public shape only).
    pub bytes: u64,
}

/// The batch-execution surface a transport binds to.
///
/// The network server holds an `Arc<dyn QueryExecutor>` instead of a
/// concrete [`Engine`], so the same wire protocol can serve a single
/// process-local engine or a sharded coordinator (`obliv-shard`) that
/// scatters each plan over several engines and merges the partials.  The
/// contract mirrors the engine's: responses come back in submission order,
/// a failed batch finalises nothing, and every summary's Content fields
/// are functions of public parameters only.
pub trait QueryExecutor: Send + Sync + std::fmt::Debug {
    /// Execute a batch of requests; responses in submission order.
    fn execute_batch(&self, requests: &[QueryRequest]) -> Result<Vec<QueryResponse>, EngineError>;

    /// Cumulative result-cache accounting (aggregated over shards for a
    /// sharded executor).
    fn cache_stats(&self) -> CacheStats;

    /// The executor's metrics registry, shared so transport layers can
    /// register their own series into the same snapshot.
    fn metrics(&self) -> &Arc<MetricsRegistry>;

    /// How many shards answer queries (`1` for a plain engine).
    fn shards(&self) -> usize {
        1
    }

    /// Per-shard result-cache hit counts, indexed by shard.  A plain
    /// engine reports its single cache; a coordinator reports one entry
    /// per shard engine.
    fn shard_cache_hits(&self) -> Vec<u64> {
        vec![self.cache_stats().hits]
    }
}

impl QueryExecutor for Engine {
    fn execute_batch(&self, requests: &[QueryRequest]) -> Result<Vec<QueryResponse>, EngineError> {
        Engine::execute_batch(self, requests)
    }

    fn cache_stats(&self) -> CacheStats {
        Engine::cache_stats(self)
    }

    fn metrics(&self) -> &Arc<MetricsRegistry> {
        Engine::metrics(self)
    }
}

/// The label-independent payload of one executed query, shared between the
/// cache and every response fanned out from it.
pub(crate) struct CachedQuery {
    rows: Rows,
    summary: QuerySummary,
    /// The span tree recorded when the payload was freshly executed; cache
    /// hits replay it verbatim (Timing fields included), exactly like the
    /// summary's wall time.
    trace: Arc<SpanNode>,
}

/// Default upper bound on retained cache entries
/// ([`EngineConfig::result_cache_cap`]).
const RESULT_CACHE_CAP: usize = 1024;

/// Default leakage-audit ring capacity ([`EngineConfig::audit_capacity`]).
const AUDIT_CAPACITY: usize = 256;

/// Default slow-query ring capacity ([`EngineConfig::slow_query_capacity`]).
const SLOW_QUERY_CAPACITY: usize = 64;

/// The result cache: canonical plan → (epoch stamped at insertion,
/// executed payload), plus insertion-order bookkeeping for FIFO eviction
/// and a running byte total (result bytes only — public shape).
#[derive(Default)]
struct ResultCache {
    map: HashMap<String, (u64, Arc<CachedQuery>)>,
    /// Keys in insertion order; exactly the keys of `map`.
    order: VecDeque<String>,
    bytes: u64,
}

impl ResultCache {
    fn entry_bytes(entry: &CachedQuery) -> u64 {
        (entry.rows.len() * entry.rows.schema().row_width()) as u64
    }

    /// The payload cached for `key`, if it was stamped with the live
    /// catalog `epoch`.  Callers hold the catalog read lock they read
    /// `epoch` under (lock order catalog → cache, everywhere).
    fn get(&self, key: &str, epoch: u64) -> Option<Arc<CachedQuery>> {
        match self.map.get(key) {
            Some((cached_epoch, entry)) if *cached_epoch == epoch => Some(Arc::clone(entry)),
            _ => None,
        }
    }

    /// Insert an entry, evicting the oldest entries as needed to stay
    /// within `cap`; returns how many were evicted.
    fn insert(&mut self, cap: usize, key: &str, epoch: u64, entry: Arc<CachedQuery>) -> u64 {
        if cap == 0 {
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= cap && !self.map.contains_key(key) {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some((_, old)) = self.map.remove(&oldest) {
                self.bytes -= Self::entry_bytes(&old);
                evicted += 1;
            }
        }
        let size = Self::entry_bytes(&entry);
        match self.map.insert(key.to_string(), (epoch, entry)) {
            // Re-publish under an existing key (e.g. a stale-epoch entry
            // being replaced): swap the accounted bytes, keep its
            // insertion-order position.
            Some((_, old)) => self.bytes -= Self::entry_bytes(&old),
            None => self.order.push_back(key.to_string()),
        }
        self.bytes += size;
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// What one job yields for one freshly executed plan; the submitting
/// thread folds it into a [`QuerySummary`] once the publish span closes.
struct Executed {
    rows: Rows,
    /// Per-operator span tree (root `query` span, synthetic `queue_wait`
    /// first child, one span per plan node beneath).
    trace: SpanNode,
    trace_digest: String,
    trace_events: u64,
    /// Digest-memo bookkeeping, applied when the batch is finalised.
    memo_update: MemoUpdate,
    counters: OpCounters,
    carry_words: usize,
    execute: Duration,
    queue_wait: Duration,
    /// Fork-joins the query's sorts made (0 when intra-query parallelism
    /// is off or no sort was large enough to fork).
    forks: u64,
    /// Nanoseconds the query's forking threads spent waiting on joins.
    join_wait_ns: u64,
    /// When execution (and digest extraction) finished on the thread that
    /// ran the job; the publish span is derived from it.
    finished: Instant,
}

/// One distinct uncached plan of a batch: the resolved plan plus its public
/// description for the digest memo (canonical text and every input's
/// schema, i.e. all the resolution consumed besides the span-recorded
/// sizes), and the deadline checked when a thread picks it up.
struct FreshJob {
    slot: usize,
    plan: ResolvedPlan,
    shape: String,
    deadline: Option<Instant>,
}

/// One resolved plan as the digest memo's unit of [`TracedWork`]: the
/// single execution code path, generic over the sink it is traced into.
struct PlanWork<'a> {
    plan: &'a ResolvedPlan,
    queue_wait: Duration,
    par: Option<ParCtx>,
}

impl TracedWork for PlanWork<'_> {
    type Output = Rows;

    fn run<S: TraceSink>(&self, tracer: &Tracer<S>) -> (Rows, SpanNode) {
        let mut recorder = SpanRecorder::new("query", tracer.counters());
        // Resolution already validated the whole plan, so execution cannot
        // fail.  With a parallelism context installed the plan's large
        // sorts fork across threads; their trace (and therefore the
        // digest) is bit-identical either way.
        // Span recording observes operator boundaries without touching the
        // tracer, so digests are unchanged by it too.
        let rows = match &self.par {
            Some(ctx) => with_parallelism(ctx.clone(), || {
                self.plan.execute_traced(tracer, &mut recorder)
            }),
            None => self.plan.execute_traced(tracer, &mut recorder),
        };
        // The wait behind the batch's earlier jobs happened before this
        // span opened; surface it as a synthetic first child so the tree
        // tells the whole story (its duration is Timing-classed like any
        // other).
        recorder.attach_first(synthetic_span(
            "queue_wait",
            self.queue_wait.as_nanos() as u64,
        ));
        let trace = recorder.finish(
            Vec::new(),
            rows.len() as u64,
            rows.schema().row_width() as u64,
            tracer.counters(),
        );
        (rows, trace)
    }
}

/// The engine's [`ParExecutor`]: the default scoped-thread join, with the
/// `engine/parallel_worker` fault point consulted at the start of each
/// branch.
struct FaultedJoin {
    faults: Faults,
}

impl ParExecutor for FaultedJoin {
    fn join(&self, a: &mut Branch<'_>, b: &mut Branch<'_>) {
        ScopedThreads.join(
            &mut || {
                consult_parallel_worker_faults(&self.faults);
                a()
            },
            &mut || {
                consult_parallel_worker_faults(&self.faults);
                b()
            },
        );
    }
}

/// Pre-registered registry handles for everything the engine reports.
struct EngineMetrics {
    batches: Counter,
    batch_requests: Histogram,
    queries_executed: Counter,
    queries_cached: Counter,
    rows_returned: Counter,
    trace_events: Counter,
    op_counters: [Counter; 4],
    /// Cumulative nanoseconds per phase, indexed like
    /// [`PhaseBreakdown::NAMES`].
    phase_ns: [Counter; 5],
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_invalidations: Counter,
    cache_entries: Gauge,
    cache_bytes: Gauge,
    audit_records: Counter,
    workers: Gauge,
    deadline_exceeded: Counter,
    parallel_forks: Counter,
    parallel_join_wait_ns: Counter,
}

/// Operation-counter label values, aligned with [`OpCounters`] fields.
const OP_NAMES: [&str; 4] = [
    "comparisons",
    "compare_exchanges",
    "routing_hops",
    "linear_steps",
];

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        use MetricClass::{Content, Timing};
        // Class assignment is part of the resilience contract: a series is
        // Content only if faults, retries, and scheduling cannot perturb it
        // — an aborted batch re-run executes each plan exactly once (the
        // abort unwinds before any finalisation), so execution-side
        // accounting (executed queries, ops, trace events, audit records,
        // misses) is fault-invariant.  Anything counting *attempts* —
        // batches, cached answers served to a retrying client, rows fanned
        // out again — is Timing.
        EngineMetrics {
            batches: registry.counter("engine_batches_total", Timing, &[]),
            batch_requests: registry.histogram("engine_batch_requests", Timing, &[]),
            queries_executed: registry.counter(
                "engine_queries_total",
                Content,
                &[("result", "executed")],
            ),
            queries_cached: registry.counter(
                "engine_queries_total",
                Timing,
                &[("result", "cached")],
            ),
            rows_returned: registry.counter("engine_rows_returned_total", Timing, &[]),
            trace_events: registry.counter("engine_trace_events_total", Content, &[]),
            op_counters: OP_NAMES
                .map(|op| registry.counter("engine_ops_total", Content, &[("op", op)])),
            phase_ns: PhaseBreakdown::NAMES.map(|phase| {
                registry.counter("engine_phase_ns_total", Timing, &[("phase", phase)])
            }),
            cache_hits: registry.counter("engine_result_cache_hits_total", Timing, &[]),
            cache_misses: registry.counter("engine_result_cache_misses_total", Content, &[]),
            cache_evictions: registry.counter("engine_result_cache_evictions_total", Content, &[]),
            cache_invalidations: registry.counter(
                "engine_result_cache_invalidations_total",
                Content,
                &[],
            ),
            cache_entries: registry.gauge("engine_result_cache_entries", Content, &[]),
            cache_bytes: registry.gauge("engine_result_cache_bytes", Content, &[]),
            audit_records: registry.counter("engine_audit_records_total", Content, &[]),
            workers: registry.gauge("engine_workers", Content, &[]),
            deadline_exceeded: registry.counter("engine_deadline_exceeded_total", Timing, &[]),
            // Both Timing: how often a query's sorts forked (and how long
            // their joins waited) is scheduling, never content — digests
            // and op counters are identical at every thread count.
            parallel_forks: registry.counter("engine_parallel_chunks_total", Timing, &[]),
            parallel_join_wait_ns: registry.counter(
                "engine_parallel_barrier_ns_total",
                Timing,
                &[],
            ),
        }
    }
}

/// A concurrent oblivious query service over a [`Catalog`] of named tables.
///
/// ```
/// use obliv_engine::{Engine, EngineConfig};
/// use obliv_join::Table;
///
/// let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
/// engine.register_table("orders", Table::from_pairs(vec![(1, 120), (2, 80)])).unwrap();
/// engine.register_table("customers", Table::from_pairs(vec![(1, 7), (2, 9)])).unwrap();
///
/// let responses = engine
///     .execute_text_batch(&["SCAN orders | FILTER v>=100", "JOIN orders customers"])
///     .unwrap();
/// assert_eq!(responses.len(), 2);
/// assert_eq!(responses[0].rows.pairs().unwrap(), vec![(1, 120)]);
/// assert_eq!(responses[1].rows.pairs().unwrap(), vec![(1, 7), (2, 9)]);
/// ```
pub struct Engine {
    catalog: RwLock<Catalog>,
    workers: usize,
    /// Threads one query's sorts may fork across
    /// ([`EngineConfig::intra_query_threads`]).
    intra_query_threads: usize,
    /// Fault-injection handle ([`EngineConfig::faults`]); disabled in
    /// production, a no-op unit type without the chaos `inject` feature.
    faults: Faults,
    /// `(canonical plan) → (epoch, payload)`; entries are valid only while
    /// their stored epoch matches the live catalog's, and the whole map is
    /// cleared on every catalog mutation.  `None` when caching is disabled.
    result_cache: Option<Mutex<ResultCache>>,
    result_cache_cap: usize,
    /// Shape-keyed trace-digest memo; jobs only read it.
    digest_memo: DigestMemo,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    /// Process-wide metrics registry; the network server registers its own
    /// series into the same registry so one snapshot covers every layer.
    registry: Arc<MetricsRegistry>,
    metrics: EngineMetrics,
    /// Capped ring of per-query leakage audit records.
    audit: LeakageAudit,
    /// Wall-time threshold gating the slow-query ring; `None` disables it.
    slow_query_threshold: Option<Duration>,
    /// Capped ring of slow-query records (plan + public sizes + span tree).
    slow_log: SlowQueryLog,
}

impl Engine {
    /// An engine with an empty catalog.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_catalog(Catalog::new(), config)
    }

    /// An engine serving queries over an existing catalog.  No thread is
    /// spawned here: a batch spawns its helpers and joins them before it
    /// returns.
    pub fn with_catalog(catalog: Catalog, config: EngineConfig) -> Self {
        let workers = config.workers.max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = EngineMetrics::new(&registry);
        metrics.workers.set(workers as i64);
        let intra_query_threads = config.intra_query_threads.max(1);
        Engine {
            catalog: RwLock::new(catalog),
            workers,
            intra_query_threads,
            result_cache: config
                .result_cache
                .then(|| Mutex::new(ResultCache::default())),
            result_cache_cap: config.result_cache_cap,
            digest_memo: DigestMemo::new(&registry, "engine"),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            audit: LeakageAudit::new(config.audit_capacity),
            slow_query_threshold: config.slow_query_threshold,
            slow_log: SlowQueryLog::new(config.slow_query_capacity),
            registry,
            metrics,
            faults: config.faults,
        }
    }

    /// Most threads one batch's fresh jobs are spread over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's metrics registry.  Shared (`Arc`) so other layers —
    /// the network server registers its connection and request series
    /// here — contribute to one process-wide snapshot.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The per-query leakage audit ring (revealed sizes, op counters,
    /// carry widths, digests — public parameters only).
    pub fn audit(&self) -> &LeakageAudit {
        &self.audit
    }

    /// The slow-query ring (empty unless
    /// [`EngineConfig::slow_query_threshold`] is set).  Records are pushed
    /// only by batch finalisation, so an aborted batch — job panic,
    /// deadline expiry — can never leak a partial span tree into it.
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow_log
    }

    /// Cumulative result-cache accounting since construction.
    pub fn cache_stats(&self) -> CacheStats {
        let (entries, bytes) = match &self.result_cache {
            Some(cache) => {
                let cache = cache.lock().expect("result cache lock poisoned");
                (cache.map.len() as u64, cache.bytes)
            }
            None => (0, 0),
        };
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            evictions: self.cache_evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Drop every cached result (hit/miss/eviction totals are untouched;
    /// the clear is counted as an invalidation in the registry).
    pub fn clear_result_cache(&self) {
        if let Some(cache) = &self.result_cache {
            cache.lock().expect("result cache lock poisoned").clear();
            self.metrics.cache_invalidations.inc();
            self.metrics.cache_entries.set(0);
            self.metrics.cache_bytes.set(0);
        }
    }

    /// Register a pair-shaped `table` under `name` — constructor sugar for
    /// [`register_wide_table`](Engine::register_wide_table): the table is
    /// encoded once, here, under the degenerate `{key: u64, value: u64}`
    /// schema.  Replaces (and returns) any previous table of that name.
    pub fn register_table(
        &self,
        name: impl Into<String>,
        table: Table,
    ) -> Result<Option<WideTable>, EngineError> {
        self.register_wide_table(name, WideTable::from_pair(&table))
    }

    /// Register `table` under `name`, replacing (and returning) any
    /// previous table of that name.  Bumps the catalog epoch, invalidating
    /// every cached result.
    pub fn register_wide_table(
        &self,
        name: impl Into<String>,
        table: WideTable,
    ) -> Result<Option<WideTable>, EngineError> {
        let replaced = self
            .catalog
            .write()
            .expect("catalog lock poisoned")
            .register_wide(name, table)?;
        self.clear_result_cache();
        Ok(replaced)
    }

    /// Remove and return the table registered under `name`.  A real removal
    /// bumps the catalog epoch and invalidates every cached result; an
    /// unknown name returns `None` and changes nothing.
    pub fn deregister_table(&self, name: &str) -> Option<WideTable> {
        let removed = self
            .catalog
            .write()
            .expect("catalog lock poisoned")
            .deregister(name);
        if removed.is_some() {
            self.clear_result_cache();
        }
        removed
    }

    /// Public metadata for `name`, if registered.
    pub fn table_meta(&self, name: &str) -> Option<TableMeta> {
        self.catalog
            .read()
            .expect("catalog lock poisoned")
            .meta(name)
    }

    /// Public metadata for every registered table, in name order.
    pub fn list_tables(&self) -> Vec<TableMeta> {
        self.catalog.read().expect("catalog lock poisoned").list()
    }

    /// Open a session: a labelled request queue with cumulative accounting.
    pub fn session(&self, tenant: impl Into<String>) -> Session<'_> {
        Session::new(self, tenant)
    }

    /// Run one fresh job on the thread that picked it up, `queue_wait`
    /// after the batch was dispatched: the `engine/worker` injection point,
    /// the job-start deadline check, then the plan's execution with its own
    /// tracer.  `None` iff `deadline` had passed.  The caller closes the
    /// publish span, commits the memo update and assembles the
    /// [`QuerySummary`].
    fn run_job(&self, job: &FreshJob, queue_wait: Duration) -> Option<Executed> {
        consult_worker_faults(&self.faults);
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        let FreshJob { plan, shape, .. } = job;
        let start = Instant::now();
        let par = self.par_ctx();
        let stats = par.as_ref().map(ParCtx::stats);
        let work = PlanWork {
            plan,
            queue_wait,
            par,
        };
        let traced = self.digest_memo.trace(shape, &work);
        Some(Executed {
            rows: traced.output,
            counters: traced.trace.counters,
            trace: traced.trace,
            trace_digest: traced.digest,
            trace_events: traced.events,
            memo_update: traced.update,
            carry_words: plan.carry_words(),
            // Includes a miss's or re-audit's re-trace (its own
            // `trace_audit` span in the tree): it is time the query waited
            // for.
            execute: start.elapsed(),
            queue_wait,
            forks: stats.as_ref().map_or(0, |s| s.forks()),
            join_wait_ns: stats.as_ref().map_or(0, |s| s.join_wait_ns()),
            finished: Instant::now(),
        })
    }

    /// A fresh per-query parallelism context, when intra-query parallelism
    /// is configured (its [`ParStats`](obliv_primitives::ParStats) are
    /// created per call, so each query's fork/join-wait accounting starts
    /// at zero).
    fn par_ctx(&self) -> Option<ParCtx> {
        (self.intra_query_threads >= 2).then(|| {
            let exec = Arc::new(FaultedJoin {
                faults: self.faults.clone(),
            });
            ParCtx::new(exec, self.intra_query_threads)
        })
    }

    /// Execute a batch of requests, spreading its fresh jobs over the
    /// calling thread and up to `workers − 1` scoped helpers.
    ///
    /// Responses come back in submission order regardless of which thread
    /// ran which query or in what order they finished.  Every query runs on
    /// its own tracer, so results and trace digests are bit-identical to a
    /// 1-worker engine's.
    ///
    /// The whole batch is resolved before any query runs, so a single bad
    /// request fails the batch up front rather than part-way through.
    /// Identical plans are executed once per batch, and plans already in
    /// the result cache for the current catalog epoch are not executed at
    /// all; in both cases every duplicate receives the one payload with
    /// its own label and `cached: true`.
    pub fn execute_batch(
        &self,
        requests: &[QueryRequest],
    ) -> Result<Vec<QueryResponse>, EngineError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Deadline admission: a request whose caller-chosen time budget is
        // already spent (e.g. the queue wait alone consumed it) fails the
        // batch before any work is admitted.  Checked per request — not
        // per deduplicated plan — so every expired label is eligible to
        // surface; a second pre-execution check runs at job start.
        let admitted = Instant::now();
        for request in requests {
            if request.deadline().is_some_and(|d| admitted >= d) {
                self.metrics.deadline_exceeded.inc();
                return Err(EngineError::DeadlineExceeded {
                    label: request.label.clone(),
                });
            }
        }
        let batch_start = Instant::now();
        self.metrics.batches.inc();
        self.metrics.batch_requests.observe(requests.len() as u64);

        // Deduplicate by canonical plan: `slot_of_request[i]` is the
        // distinct-plan slot of request `i`, `representative[slot]` the
        // first request index with that plan.  The canonical form is
        // memoised on each `QueryRequest`, so re-submitted requests (the
        // warm-cache serving path) render their plan exactly once, ever.
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

        // Probe the cache and resolve the remaining plans against one
        // consistent catalog snapshot.  Resolution clones are Arc bumps,
        // so the read lock is held only briefly even for large tables.
        // Alongside each resolved plan we keep its resolve span and the
        // revealed input sizes (for the leakage audit record).
        struct FreshAux {
            resolve: Duration,
            inputs: Vec<(String, u64)>,
        }
        let mut payload: Vec<Option<Arc<CachedQuery>>> = Vec::new();
        payload.resize_with(representative.len(), || None);
        let mut aux: Vec<Option<FreshAux>> = Vec::new();
        aux.resize_with(representative.len(), || None);
        let mut jobs: Vec<FreshJob> = Vec::new();
        let epoch = {
            let catalog = self.catalog.read().expect("catalog lock poisoned");
            let epoch = catalog.epoch();
            if let Some(cache) = &self.result_cache {
                let cache = cache.lock().expect("result cache lock poisoned");
                for (slot, &req) in representative.iter().enumerate() {
                    payload[slot] = cache.get(canon[req], epoch);
                }
            }
            for (slot, &req) in representative.iter().enumerate() {
                if payload[slot].is_none() {
                    let sw = Instant::now();
                    let plan = requests[req].plan().resolve(&catalog)?;
                    let resolve = sw.elapsed();
                    let mut shape = canon[req].to_string();
                    let inputs = requests[req]
                        .plan()
                        .referenced_tables()
                        .into_iter()
                        .map(|name| {
                            // Resolution succeeded, so every referenced
                            // table is registered.
                            let table = catalog.resolve(name).expect("plan resolved");
                            shape.push_str(&format!("\n{name}: {:?}", table.schema()));
                            (name.to_string(), table.len() as u64)
                        })
                        .collect();
                    aux[slot] = Some(FreshAux { resolve, inputs });
                    // The job-start deadline check uses the representative
                    // request; admission covered every duplicate.
                    let deadline = requests[req].deadline();
                    jobs.push(FreshJob {
                        slot,
                        plan,
                        shape,
                        deadline,
                    });
                }
            }
            epoch
        };

        // Execute the distinct uncached plans: the calling thread and
        // `min(workers, jobs) − 1` scoped helpers each take the next job
        // index from one counter until none is left.  A job's queue wait is
        // its pickup time minus `dispatched`, so on a 1-worker engine every
        // job after the first reports its wait behind the earlier ones.
        // Each job is stamped when it returns, so the publish span is
        // measurable.  An expired deadline stops further pickups: the
        // batch fails anyway.
        let dispatched = Instant::now();
        let next = AtomicUsize::new(0);
        let run_jobs = || {
            let mut done = Vec::new();
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                let run = self.run_job(job, dispatched.elapsed());
                if run.is_none() {
                    next.store(jobs.len(), Ordering::Relaxed);
                }
                done.push((job.slot, run.map(|run| (run, Instant::now()))));
            }
            done
        };
        let helpers = self.workers.min(jobs.len()).saturating_sub(1);
        let mut outcomes = thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(run_jobs)).collect();
            let mut outcomes = run_jobs();
            // Join explicitly and re-raise a helper's panic with its
            // original payload: the scope's implicit join would replace it
            // with a generic message.  A panic on the calling thread
            // unwinds out of the scope after the helpers finish, payload
            // intact.
            for handle in handles {
                match handle.join() {
                    Ok(done) => outcomes.extend(done),
                    Err(cause) => std::panic::resume_unwind(cause),
                }
            }
            outcomes
        });
        // Back in job order (jobs were pushed in slot order): the first
        // expired job names the error, and finalisation is deterministic.
        outcomes.sort_unstable_by_key(|&(slot, _)| slot);
        if let Some(&(slot, _)) = outcomes.iter().find(|(_, run)| run.is_none()) {
            self.metrics.deadline_exceeded.inc();
            return Err(EngineError::DeadlineExceeded {
                label: requests[representative[slot]].label.clone(),
            });
        }

        // Finalise each fresh execution: close its publish span, assemble
        // the summary with the full phase breakdown, deposit the leakage
        // audit record, the digest-memo update and the content metrics.
        for (slot, run) in outcomes {
            let (run, collected) = run.expect("an expired job failed the batch");
            let FreshAux { resolve, inputs } = aux[slot].take().expect("fresh slot was resolved");
            let rep = representative[slot];
            let phases = PhaseBreakdown {
                parse: requests[rep].parse_cost(),
                resolve,
                queue_wait: run.queue_wait,
                execute: run.execute,
                publish: collected.saturating_duration_since(run.finished),
            };
            // Admission precedes submission precedes completion precedes
            // collection, so `queue_wait + execute <= wall` by
            // construction (asserted by the engine's unit tests).
            let wall = collected.saturating_duration_since(batch_start);
            self.metrics.trace_events.add(run.trace_events);
            self.digest_memo.commit(&run.memo_update);
            let ops = [
                run.counters.comparisons,
                run.counters.compare_exchanges,
                run.counters.routing_hops,
                run.counters.linear_steps,
            ];
            for (counter, n) in self.metrics.op_counters.iter().zip(ops) {
                counter.add(n);
            }
            for (counter, span) in self.metrics.phase_ns.iter().zip(phases.in_order()) {
                counter.add(span.as_nanos() as u64);
            }
            self.metrics.parallel_forks.add(run.forks);
            self.metrics.parallel_join_wait_ns.add(run.join_wait_ns);
            let trace = Arc::new(run.trace);
            if self.slow_query_threshold.is_some_and(|t| wall >= t) {
                self.slow_log.push(SlowQueryRecord {
                    label: requests[rep].label.clone(),
                    plan: canon[rep].to_string(),
                    inputs: inputs.clone(),
                    output_rows: run.rows.len() as u64,
                    output_row_width: run.rows.schema().row_width() as u64,
                    wall_ns: wall.as_nanos() as u64,
                    trace: Arc::clone(&trace),
                });
            }
            self.audit.push(AuditRecord {
                label: requests[rep].label.clone(),
                plan: canon[rep].to_string(),
                inputs,
                output_rows: run.rows.len() as u64,
                output_row_width: run.rows.schema().row_width() as u64,
                carry_words: run.carry_words as u64,
                trace_events: run.trace_events,
                counters: run.counters,
                digest: run.trace_digest.clone(),
            });
            self.metrics.audit_records.inc();
            let summary = QuerySummary {
                trace_digest: run.trace_digest,
                trace_events: run.trace_events,
                counters: run.counters,
                output_rows: run.rows.len(),
                output_row_width: run.rows.schema().row_width(),
                carry_words: run.carry_words,
                shard_partitions: Vec::new(),
                phases,
                wall,
            };
            payload[slot] = Some(Arc::new(CachedQuery {
                rows: run.rows,
                summary,
                trace,
            }));
        }

        // Publish fresh results for future batches of the same epoch.  The
        // catalog read lock is re-taken (same catalog → cache order as the
        // probe phase) so a concurrent mutation either already bumped the
        // epoch — in which case these stale-stamped entries are not
        // published at all — or is serialised after the inserts and clears
        // them; either way no dead entry can occupy the capped cache.
        // Skipped entirely on the fully-cached path: a warm batch has
        // nothing to publish and should not touch either lock again.
        if !jobs.is_empty() {
            if let Some(cache) = &self.result_cache {
                let catalog = self.catalog.read().expect("catalog lock poisoned");
                if catalog.epoch() == epoch {
                    let mut cache = cache.lock().expect("result cache lock poisoned");
                    for job in &jobs {
                        let entry = payload[job.slot].as_ref().expect("fresh slot was executed");
                        let evicted = cache.insert(
                            self.result_cache_cap,
                            canon[representative[job.slot]],
                            epoch,
                            Arc::clone(entry),
                        );
                        if evicted > 0 {
                            self.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
                            self.metrics.cache_evictions.add(evicted);
                        }
                    }
                    self.metrics.cache_entries.set(cache.map.len() as i64);
                    self.metrics.cache_bytes.set(cache.bytes as i64);
                }
            }
        }

        // Fan out: one response per request, in submission order.  The
        // representative of a freshly executed plan is the miss; every
        // other request (intra-batch duplicate or cache hit) is a hit.
        let fresh: Vec<bool> = {
            let mut fresh = vec![false; representative.len()];
            for job in &jobs {
                fresh[job.slot] = true;
            }
            fresh
        };
        let responses: Vec<QueryResponse> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let slot = slot_of_request[i];
                let entry = payload[slot].as_ref().expect("every slot was filled");
                let cached = !(fresh[slot] && representative[slot] == i);
                self.respond(request, entry, cached)
            })
            .collect();
        Ok(responses)
    }

    /// Fan one payload out to `request` under its own label, accounting it
    /// as a hit (`cached`: a cache hit or an intra-batch duplicate) or as
    /// the miss that executed it.
    fn respond(&self, request: &QueryRequest, entry: &CachedQuery, cached: bool) -> QueryResponse {
        if cached {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.cache_hits.inc();
            self.metrics.queries_cached.inc();
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            self.metrics.cache_misses.inc();
            self.metrics.queries_executed.inc();
        }
        self.metrics.rows_returned.add(entry.rows.len() as u64);
        QueryResponse {
            label: request.label.clone(),
            rows: entry.rows.clone(),
            summary: entry.summary.clone(),
            cached,
            trace: Arc::clone(&entry.trace),
        }
    }

    /// Execute `query` (with or without a leading `EXPLAIN ANALYZE` verb)
    /// and render its annotated per-operator plan tree: one line per span
    /// with revealed input/output sizes, row width, op counters and
    /// self/total time.  The tree's Content fields depend only on public
    /// parameters, so two runs over different table contents with the same
    /// plan differ only in the timing annotations (asserted by tests via
    /// [`SpanNode::without_timing`]).
    pub fn explain_analyze(&self, query: &str) -> Result<String, EngineError> {
        let inner = crate::frontend::strip_explain_analyze(query).unwrap_or(query);
        let response = self
            .execute_text_batch(&[inner])?
            .pop()
            .expect("one query yields one response");
        let mut out = format!("-- {}\n-- cached: {}\n", inner.trim(), response.cached);
        out.push_str(&response.trace.render_text(true));
        Ok(out)
    }

    /// Parse and execute a batch of text queries concurrently; the query
    /// text itself is used as each response's label.  Parsing is timed per
    /// query and surfaces as the `parse` phase of fresh summaries.
    pub fn execute_text_batch(&self, queries: &[&str]) -> Result<Vec<QueryResponse>, EngineError> {
        let requests = queries
            .iter()
            .map(|q| {
                let sw = Instant::now();
                let plan = parse_query(q)?;
                Ok(QueryRequest::new(*q, plan).with_parse_cost(sw.elapsed()))
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        self.execute_batch(&requests)
    }
}

/// Consult the `engine/worker` injection point just before a job runs: a
/// test-configured fault plan can panic the job (re-raised on the
/// submitting thread with its original payload) or delay it (typically to
/// force a deadline expiry).  Runs on whichever batch thread picked the
/// job up — a helper or the calling thread — so single-job batches are
/// injectable too.  Compiles to nothing when the chaos `inject` feature is
/// off.
fn consult_worker_faults(faults: &Faults) {
    match faults.hit(points::ENGINE_WORKER) {
        Some(Fault::Panic) => panic!("injected: engine worker panic"),
        Some(Fault::Delay(delay)) => thread::sleep(delay),
        _ => {}
    }
}

/// Consult the `engine/parallel_worker` injection point at the start of one
/// branch of a forked sort: `Panic` exercises the failed-branch path (the
/// join still waits for the other branch, then the panic surfaces on the
/// query's batch thread as the usual job panic, payload intact) and
/// `Delay` makes one branch a straggler.  Compiles to nothing when the
/// chaos `inject` feature is off.
fn consult_parallel_worker_faults(faults: &Faults) {
    match faults.hit(points::ENGINE_PARALLEL_WORKER) {
        Some(Fault::Panic) => panic!("injected: engine parallel worker panic"),
        Some(Fault::Delay(delay)) => thread::sleep(delay),
        _ => {}
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let catalog = self.catalog.read().expect("catalog lock poisoned");
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("tables", &catalog.len())
            .field("result_cache", &self.result_cache.is_some())
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Plan;
    use obliv_join::schema::Value;
    use obliv_operators::{Aggregate, WidePredicate};

    fn engine_with(config: EngineConfig) -> Engine {
        let engine = Engine::new(config);
        engine
            .register_table(
                "orders",
                Table::from_pairs(vec![(1, 100), (1, 250), (2, 50), (3, 300)]),
            )
            .unwrap();
        engine
            .register_table(
                "customers",
                Table::from_pairs(vec![(1, 7), (2, 7), (3, 9), (4, 9)]),
            )
            .unwrap();
        engine
    }

    fn engine(workers: usize) -> Engine {
        engine_with(EngineConfig {
            workers,
            ..Default::default()
        })
    }

    fn requests() -> Vec<QueryRequest> {
        vec![
            QueryRequest::new(
                "regions",
                Plan::scan("orders")
                    .join(Plan::scan("customers"), "key", "key")
                    .project(["key", "right_value"]),
            ),
            QueryRequest::new(
                "big-orders",
                Plan::scan("orders").filter(WidePredicate::at_least("value", Value::U64(100))),
            ),
            QueryRequest::new(
                "per-customer",
                Plan::scan("orders").group_aggregate(
                    Aggregate::Sum,
                    Some("value".into()),
                    Some("key".into()),
                ),
            ),
            QueryRequest::new(
                "no-orders",
                Plan::scan("customers").anti_join(Plan::scan("orders"), "key", "key"),
            ),
        ]
    }

    #[test]
    fn concurrent_matches_serial_bit_for_bit() {
        // One engine per run, so each is cold: the concurrent run really
        // executes and really traces on its helpers instead of replaying
        // the serial run's cached payloads or memoised digests.
        let serial = engine(1).execute_batch(&requests()).unwrap();
        let concurrent = engine(4).execute_batch(&requests()).unwrap();
        assert_eq!(serial.len(), concurrent.len());
        for (s, c) in serial.iter().zip(&concurrent) {
            assert_eq!(s.label, c.label);
            assert_eq!(s.rows, c.rows);
            assert_eq!(s.summary.trace_digest, c.summary.trace_digest);
            assert_eq!(s.summary.trace_events, c.summary.trace_events);
            assert_eq!(s.summary.counters, c.summary.counters);
            assert_eq!(s.summary.output_rows, c.summary.output_rows);
        }
    }

    #[test]
    fn responses_come_back_in_submission_order() {
        let engine = engine(3);
        let responses = engine.execute_batch(&requests()).unwrap();
        assert_eq!(
            responses
                .iter()
                .map(|r| r.label.as_str())
                .collect::<Vec<_>>(),
            vec!["regions", "big-orders", "per-customer", "no-orders"]
        );
    }

    #[test]
    fn unknown_table_fails_the_whole_batch_up_front() {
        let engine = engine(2);
        let mut reqs = requests();
        reqs.push(QueryRequest::new("bad", Plan::scan("ghost")));
        assert_eq!(
            engine.execute_batch(&reqs).unwrap_err(),
            EngineError::UnknownTable {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = engine(2);
        assert!(engine.execute_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn single_worker_pool_works() {
        let engine = engine(1);
        let responses = engine.execute_batch(&requests()).unwrap();
        assert_eq!(responses.len(), 4);
    }

    #[test]
    fn more_workers_than_queries_works() {
        let engine = engine(16);
        let responses = engine.execute_batch(&requests()[..2]).unwrap();
        assert_eq!(responses.len(), 2);
    }

    #[test]
    fn text_batch_roundtrip() {
        let engine = engine(2);
        let responses = engine
            .execute_text_batch(&[
                "SCAN orders | FILTER v>=100 | AGG sum",
                "ANTIJOIN customers orders",
            ])
            .unwrap();
        // Orders ≥ 100 grouped by customer: 1 → 350, 3 → 300.
        assert_eq!(responses[0].rows.pairs().unwrap(), vec![(1, 350), (3, 300)]);
        // Customer 4 has no orders.
        assert_eq!(responses[1].rows.pairs().unwrap(), vec![(4, 9)]);
        assert_eq!(responses[0].label, "SCAN orders | FILTER v>=100 | AGG sum");
    }

    #[test]
    fn summary_reports_leakage_accounting() {
        let engine = engine(2);
        let responses = engine.execute_batch(&requests()).unwrap();
        for r in &responses {
            assert_eq!(r.summary.trace_digest.len(), 64);
            assert!(r.summary.trace_events > 0);
            assert_eq!(r.summary.output_rows, r.rows.len());
            assert_eq!(r.summary.output_row_width, r.rows.schema().row_width());
        }
        // The join query does real sorting work.
        assert!(responses[0].summary.counters.comparisons > 0);
    }

    #[test]
    fn catalog_snapshot_is_taken_at_submission() {
        let engine = engine(2);
        let before = engine.execute_batch(&requests()).unwrap();
        // Re-register a table with different contents; old responses keep
        // their values, a new run sees the new table.
        engine
            .register_table("orders", Table::from_pairs(vec![(9, 1)]))
            .unwrap();
        let after = engine.execute_batch(&requests()[2..3]).unwrap();
        assert_ne!(before[2].rows, after[0].rows);
    }

    #[test]
    fn cache_hit_is_bit_identical_to_the_original_miss() {
        let engine = engine(2);
        let request = &requests()[..1];
        let miss = engine.execute_batch(request).unwrap().pop().unwrap();
        assert!(!miss.cached);
        let hit = engine.execute_batch(request).unwrap().pop().unwrap();
        assert!(hit.cached);
        // Bit-identical payload: result, digest, counters, even the wall
        // time of the run that produced it.
        assert_eq!(hit.label, miss.label);
        assert_eq!(hit.rows, miss.rows);
        assert_eq!(hit.summary, miss.summary);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(
            stats.bytes,
            (miss.rows.len() * miss.rows.schema().row_width()) as u64
        );
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn identical_plans_in_one_batch_execute_once() {
        let engine = engine(4);
        let plan = Plan::scan("orders").group_aggregate(
            Aggregate::Sum,
            Some("value".into()),
            Some("key".into()),
        );
        let batch = vec![
            QueryRequest::new("a", plan.clone()),
            QueryRequest::new("b", plan.clone()),
            QueryRequest::new("c", plan),
        ];
        let responses = engine.execute_batch(&batch).unwrap();
        assert_eq!(
            responses.iter().map(|r| r.cached).collect::<Vec<_>>(),
            vec![false, true, true],
            "first occurrence is the miss, duplicates are deduplicated"
        );
        assert_eq!(
            responses
                .iter()
                .map(|r| r.label.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"],
            "each duplicate keeps its own label"
        );
        assert_eq!(responses[0].rows, responses[1].rows);
        assert_eq!(responses[0].summary, responses[2].summary);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn catalog_mutation_invalidates_the_cache() {
        let engine = engine(2);
        let request = &requests()[2..3]; // per-customer aggregate over orders
        let first = engine.execute_batch(request).unwrap();
        engine
            .register_table("orders", Table::from_pairs(vec![(9, 1)]))
            .unwrap();
        let second = engine.execute_batch(request).unwrap();
        assert!(!second[0].cached, "epoch bump must force re-execution");
        assert_ne!(first[0].rows, second[0].rows);
        // Deregistering also invalidates.
        let third = engine.execute_batch(request).unwrap();
        assert!(third[0].cached);
        engine.deregister_table("customers");
        let fourth = engine.execute_batch(request).unwrap();
        assert!(!fourth[0].cached);
    }

    #[test]
    fn deregister_answers_for_every_table_and_only_removals_invalidate() {
        use obliv_join::schema::{ColumnType, Schema};
        let engine = engine(2);
        let wide = WideTable::from_rows(
            Schema::new([("id", ColumnType::U64), ("p", ColumnType::I64)]).unwrap(),
            [vec![Value::U64(1), Value::I64(-1)]],
        )
        .unwrap();
        engine.register_wide_table("typed", wide.clone()).unwrap();
        let epoch = || engine.catalog.read().unwrap().epoch();
        let request = &requests()[2..3]; // reads `orders` only
        engine.execute_batch(request).unwrap();

        // Unknown name: nothing removed, epoch and cache untouched.
        let before = epoch();
        assert_eq!(engine.deregister_table("ghost"), None);
        assert_eq!(epoch(), before);
        assert!(engine.execute_batch(request).unwrap()[0].cached);

        // A wide-registered table comes back as it went in ...
        assert_eq!(engine.deregister_table("typed"), Some(wide));
        assert_eq!(epoch(), before + 1);
        assert!(!engine.execute_batch(request).unwrap()[0].cached);

        // ... and a pair-registered one as its `{key, value}` encoding.
        let customers = Table::from_pairs(vec![(1, 7), (2, 7), (3, 9), (4, 9)]);
        assert_eq!(
            engine.deregister_table("customers"),
            Some(WideTable::from_pair(&customers))
        );
        assert_eq!(epoch(), before + 2);
        assert!(!engine.execute_batch(request).unwrap()[0].cached);
        assert_eq!(engine.deregister_table("customers"), None, "already gone");
        assert_eq!(epoch(), before + 2);
    }

    #[test]
    fn pair_registered_tables_report_the_degenerate_schema() {
        let engine = engine(1);
        let meta = engine.table_meta("orders").unwrap();
        assert_eq!(meta.rows, 4);
        assert_eq!(*meta.schema, obliv_join::Schema::pair());
        assert_eq!(meta.schema.row_width(), 16);
        assert_eq!(engine.list_tables()[1], meta, "listed as it is described");
    }

    #[test]
    fn disabled_cache_still_deduplicates_within_a_batch() {
        let engine = engine_with(EngineConfig {
            workers: 2,
            result_cache: false,
            ..Default::default()
        });
        let plan = Plan::scan("orders").group_aggregate(
            Aggregate::Sum,
            Some("value".into()),
            Some("key".into()),
        );
        let batch = vec![
            QueryRequest::new("a", plan.clone()),
            QueryRequest::new("b", plan),
        ];
        let responses = engine.execute_batch(&batch).unwrap();
        assert!(!responses[0].cached);
        assert!(responses[1].cached, "intra-batch dedup is always on");
        // But nothing persists across batches.
        let again = engine.execute_batch(&batch).unwrap();
        assert!(!again[0].cached);
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                ..Default::default()
            }
        );
    }

    #[test]
    fn clear_result_cache_forces_re_execution() {
        let engine = engine(2);
        let request = &requests()[1..2];
        engine.execute_batch(request).unwrap();
        engine.clear_result_cache();
        let responses = engine.execute_batch(request).unwrap();
        assert!(!responses[0].cached);
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 1, "the re-execution repopulates the cache");
        assert_eq!(
            stats.evictions, 0,
            "a clear is an invalidation, not an eviction"
        );
    }

    #[test]
    fn phase_breakdown_partitions_wall_time() {
        // Four distinct misses: more than the 2-worker engine's threads, so
        // some job waits behind another on both engines.
        for workers in [2, 1] {
            let engine = engine_with(EngineConfig {
                workers,
                result_cache: false,
                ..Default::default()
            });
            let responses = engine.execute_batch(&requests()).unwrap();
            for r in &responses {
                assert!(!r.cached);
                let p = r.summary.phases;
                assert!(
                    p.queue_wait + p.execute <= r.summary.wall,
                    "queue_wait {:?} + execute {:?} must fit in wall {:?} ({}, workers={workers})",
                    p.queue_wait,
                    p.execute,
                    r.summary.wall,
                    r.label
                );
                assert!(p.execute > Duration::ZERO);
                assert_eq!(p.parse, Duration::ZERO, "plan-built requests skip parse");
            }
            if workers == 1 {
                // One thread takes the jobs in submission order, so each
                // job waited at least as long as the one before it waited
                // and ran.
                for pair in responses.windows(2) {
                    let (before, after) = (pair[0].summary.phases, pair[1].summary.phases);
                    assert!(
                        after.queue_wait >= before.queue_wait + before.execute,
                        "{} waited {:?}, behind {} ({:?} + {:?})",
                        pair[1].label,
                        after.queue_wait,
                        pair[0].label,
                        before.queue_wait,
                        before.execute
                    );
                }
            }
        }
    }

    #[test]
    fn text_queries_record_a_parse_phase() {
        let engine = engine(2);
        let responses = engine
            .execute_text_batch(&["SCAN orders | FILTER v>=100"])
            .unwrap();
        assert!(responses[0].summary.phases.parse > std::time::Duration::ZERO);
    }

    #[test]
    fn capped_cache_evicts_oldest_first() {
        let engine = engine_with(EngineConfig {
            workers: 2,
            result_cache: true,
            result_cache_cap: 2,
            ..Default::default()
        });
        let plans = ["SCAN orders", "SCAN customers", "JOIN orders customers"];
        for q in plans {
            engine.execute_text_batch(&[q]).unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes > 0);
        // The oldest plan was evicted; the newer two still hit.
        assert!(!engine.execute_text_batch(&[plans[0]]).unwrap()[0].cached);
        assert!(engine.execute_text_batch(&[plans[2]]).unwrap()[0].cached);
    }

    #[test]
    fn audit_ring_records_public_parameters() {
        let engine = engine(2);
        let responses = engine.execute_batch(&requests()).unwrap();
        let records = engine.audit().records();
        assert_eq!(records.len(), responses.len());
        // Records are in finalisation order, not submission order; index
        // them by label.
        for r in &responses {
            let record = records
                .iter()
                .find(|rec| rec.label == r.label)
                .expect("every fresh query leaves an audit record");
            assert_eq!(record.digest, r.summary.trace_digest);
            assert_eq!(record.counters, r.summary.counters);
            assert_eq!(record.output_rows, r.rows.len() as u64);
            assert!(!record.inputs.is_empty());
            for (table, rows) in &record.inputs {
                assert_eq!(
                    engine.table_meta(table).unwrap().rows as u64,
                    *rows,
                    "audit reveals exactly the public table sizes"
                );
            }
        }
        // Cache hits do not re-audit.
        engine.execute_batch(&requests()).unwrap();
        assert_eq!(engine.audit().total_recorded(), responses.len() as u64);
        // The export renders one JSON object per record.
        assert_eq!(
            engine.audit().export_json().lines().count(),
            responses.len()
        );
    }

    #[test]
    fn expired_deadline_fails_at_admission() {
        let engine = engine(2);
        let late = QueryRequest::new("late", Plan::scan("orders")).with_deadline(Instant::now());
        assert_eq!(
            engine
                .execute_batch(std::slice::from_ref(&late))
                .unwrap_err(),
            EngineError::DeadlineExceeded {
                label: "late".into()
            }
        );
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.counter("engine_deadline_exceeded_total", &[]), 1);
        // The failed admission finalised nothing.
        assert_eq!(
            snap.counter("engine_queries_total", &[("result", "executed")]),
            0
        );
        assert_eq!(snap.counter("engine_audit_records_total", &[]), 0);
        // A clean follow-up (generous deadline) executes normally.
        let ok = QueryRequest::new("ok", Plan::scan("orders"))
            .with_deadline(Instant::now() + Duration::from_secs(60));
        assert!(engine.execute_batch(&[ok]).is_ok());
    }

    #[test]
    fn slow_job_with_deadline_times_out_at_worker_start() {
        let faults = obliv_chaos::FaultPlan::new()
            .seed(7)
            .once(
                points::ENGINE_WORKER,
                Fault::Delay(Duration::from_millis(50)),
            )
            .build();
        let engine = engine_with(EngineConfig {
            workers: 2,
            result_cache: false,
            faults,
            ..Default::default()
        });
        // Two distinct plans, one per batch thread; the injected delay
        // outlives the 10 ms budget, so whichever job it lands on expires
        // at job start.
        let deadline = Instant::now() + Duration::from_millis(10);
        let batch = vec![
            QueryRequest::new("a", Plan::scan("orders")).with_deadline(deadline),
            QueryRequest::new("b", Plan::scan("customers")).with_deadline(deadline),
        ];
        let err = engine.execute_batch(&batch).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
        assert!(
            engine
                .metrics()
                .snapshot()
                .counter("engine_deadline_exceeded_total", &[])
                >= 1
        );
        // The engine is fully usable afterwards (the fault fired once).
        assert_eq!(engine.execute_batch(&requests()).unwrap().len(), 4);
    }

    #[test]
    fn injected_worker_panic_propagates_and_engine_survives() {
        // Four distinct misses over two batch threads, the panic on the
        // n-th job picked up: across the attempts it lands on the helper
        // as well as on the calling thread.
        for n in 0..4 {
            let faults = obliv_chaos::FaultPlan::new()
                .seed(n)
                .nth(points::ENGINE_WORKER, n, Fault::Panic)
                .build();
            let engine = engine_with(EngineConfig {
                workers: 2,
                faults,
                ..Default::default()
            });
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.execute_batch(&requests())
            }));
            let payload = attempt.expect_err("the injected panic reaches the submitter");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected: engine worker panic"),
                "the original payload survives the thread hop (n={n})"
            );
            // The aborted batch finalised nothing: no audit record, no
            // executed query, no memo commit, no cache insert.
            let snap = engine.metrics().snapshot();
            assert_eq!(snap.counter("engine_audit_records_total", &[]), 0);
            assert_eq!(
                snap.counter("engine_queries_total", &[("result", "executed")]),
                0
            );
            assert_eq!(engine.digest_memo.entries(), 0);
            assert_eq!(engine.cache_stats().entries, 0);
            // And the next batch answers, every request a fresh execution.
            let responses = engine.execute_batch(&requests()).unwrap();
            assert_eq!(responses.len(), 4);
            assert!(responses.iter().all(|r| !r.cached));
        }
    }

    #[test]
    fn registry_reflects_engine_activity() {
        let engine = engine(4);
        engine.execute_batch(&requests()).unwrap();
        engine.execute_batch(&requests()).unwrap();
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.counter("engine_batches_total", &[]), 2);
        assert_eq!(
            snap.counter("engine_queries_total", &[("result", "executed")]),
            4
        );
        assert_eq!(
            snap.counter("engine_queries_total", &[("result", "cached")]),
            4
        );
        assert!(snap.counter("engine_phase_ns_total", &[("phase", "execute")]) > 0);
        assert_eq!(snap.gauge("engine_workers", &[]), 4);
        assert_eq!(snap.gauge("engine_result_cache_entries", &[]), 4);
        assert!(snap.counter("engine_ops_total", &[("op", "comparisons")]) > 0);
        assert_eq!(snap.counter("engine_audit_records_total", &[]), 4);
    }
}
