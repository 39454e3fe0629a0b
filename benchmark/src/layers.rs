//! The adapter seam: the only file that names the repo's APIs.
//!
//! Workloads, probes, statistics and reporting speak the benchmark's own
//! plain types (`gen::Pair`, `gen::Order`, `queries::Query`, `queries::Cell`)
//! and never import a repo crate; a later API change is a change to this
//! file alone.  Only surface that ROADMAP item 3 says survives is used: the
//! join kernel entry points, wide tables and the `wide_*` operators, text
//! queries, `Engine`, `Server`/`Client`, `Coordinator`, the wire codec's
//! `encode`/`decode`, and `Table` as constructor sugar.
//!
//! Every call into a layer's public function is wrapped in a span here, so
//! span boundaries are exactly the layer boundaries.

use std::sync::Arc;
use std::time::Duration;

use obliv_engine::{
    parse_query, Engine, EngineConfig, MetricValue, QueryRequest, QueryResponse, QuerySummary, Rows,
};
use obliv_join::{
    cost, oblivious_join, oblivious_join_payloads, ColumnType, JoinResult, JoinStats, Phase,
    Schema, Table, Value, WideTable,
};
use obliv_operators::{
    wide_filter, wide_group_aggregate, wide_join, wide_join_aggregate, Aggregate, JoinAggregate,
    WidePredicate,
};
use obliv_primitives::sort::bitonic;
use obliv_primitives::{oblivious_compact, oblivious_distribute, oblivious_expand, Keyed};
use obliv_server::{Client, QueryReply, Request, Response, Server, ServerConfig};
use obliv_shard::{Coordinator, ShardConfig};
use obliv_trace::{HashingSink, NullSink, TraceSink, Tracer};

use crate::gen::{Item, Order, Pair};
use crate::queries::{Cell, Query};
use crate::spans::Spans;

// ---------------------------------------------------------------------------
// core: the join kernel
// ---------------------------------------------------------------------------

/// A pair table in the kernel's input shape.
pub struct PairTable(Table);

impl PairTable {
    pub fn new(rows: &[Pair]) -> Self {
        PairTable(Table::from_pairs(rows.iter().copied()))
    }
}

/// What one kernel run reports about itself: the paper's Table 3 split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCost {
    /// Phase walls in execution order: augment, expand left, expand right,
    /// align, zip.
    pub phases: [Duration; 5],
    pub comparisons: u64,
    pub routing_hops: u64,
    /// `core::cost::predict(n₁, n₂, m)`.
    pub predicted_comparisons: u64,
    pub predicted_routing_hops: u64,
}

pub const PHASE_SPANS: [&str; 5] = [
    "core.phase.augment",
    "core.phase.expand_left",
    "core.phase.expand_right",
    "core.phase.align",
    "core.phase.zip",
];

impl KernelCost {
    fn of(stats: &JoinStats) -> Self {
        let ops = stats.total_ops();
        let predicted = cost::predict(
            stats.n1 as usize,
            stats.n2 as usize,
            stats.output_size as usize,
        );
        KernelCost {
            phases: Phase::ALL.map(|p| stats.phase(p).wall),
            comparisons: ops.comparisons,
            routing_hops: ops.routing_hops,
            predicted_comparisons: predicted.total_comparisons(),
            predicted_routing_hops: predicted.routing_hops,
        }
    }

    fn record_phases(&self, spans: &mut Spans) {
        let phases: Vec<_> = PHASE_SPANS.into_iter().zip(self.phases).collect();
        spans.add_phases(&phases);
    }

    pub fn wall(&self) -> Duration {
        self.phases.iter().sum()
    }

    /// Comparisons plus routing hops the cost model predicts.
    pub fn predicted_gates(&self) -> u64 {
        self.predicted_comparisons + self.predicted_routing_hops
    }

    /// Executed minus predicted counted operations; the model is exact, so
    /// anything but 0 is both a cost regression and an obliviousness smell.
    pub fn drift(&self) -> i64 {
        (self.comparisons + self.routing_hops) as i64 - self.predicted_gates() as i64
    }
}

/// The output of one `oblivious_join`.
pub struct KernelJoin(JoinResult);

impl KernelJoin {
    /// The `(d₁, d₂)` output rows.
    pub fn rows(&self) -> Vec<Pair> {
        self.0.rows.iter().map(|r| (r.left, r.right)).collect()
    }

    pub fn cost(&self) -> KernelCost {
        KernelCost::of(&self.0.stats)
    }

    /// Same rows in the same order.
    pub fn same_rows(&self, other: &KernelJoin) -> bool {
        self.0.rows == other.0.rows
    }
}

/// One `core::oblivious_join` (no tracer).
pub fn kernel_join(left: &PairTable, right: &PairTable, spans: &mut Spans) -> KernelJoin {
    let (result, _) = spans.timed("core.oblivious_join", |_| oblivious_join(&left.0, &right.0));
    let join = KernelJoin(result);
    join.cost().record_phases(spans);
    join
}

/// The repo's insecure sort-merge join on the same inputs, rows sorted: the
/// benchmark's own oracle is checked against it once per run.
pub fn baseline_join(left: &PairTable, right: &PairTable) -> Vec<Pair> {
    let (rows, _) = obliv_baselines::sort_merge_join(&left.0, &right.0);
    let mut rows: Vec<Pair> = rows.iter().map(|r| (r.left, r.right)).collect();
    rows.sort_unstable();
    rows
}

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

/// `sort::bitonic::sort_by_key` over `values`; returns its comparison count.
pub fn probe_sort(values: &[u64], spans: &mut Spans) -> u64 {
    let tracer = Tracer::new(NullSink);
    let mut buf = tracer.alloc_from(values.to_vec());
    spans.timed("primitives.sort", |_| {
        bitonic::sort_by_key(&mut buf, |v| *v)
    });
    assert!(buf.as_slice().windows(2).all(|w| w[0] <= w[1]));
    tracer.counters().comparisons
}

/// `oblivious_expand`: element `i` is replicated `counts[i]` times.
pub fn probe_expand(counts: &[u64], spans: &mut Spans) {
    let tracer = Tracer::new(NullSink);
    let buf = tracer.alloc_from(counts.iter().map(|&c| Keyed::new(c, 1)).collect());
    let (out, _) = spans.timed("primitives.expand", |_| {
        oblivious_expand(buf, |e: &Keyed<u64>| e.value)
    });
    assert_eq!(out.total, counts.iter().sum::<u64>());
}

/// `oblivious_compact` over a buffer whose element `i` is real iff `live[i]`.
pub fn probe_compact(live: &[bool], spans: &mut Spans) {
    let tracer = Tracer::new(NullSink);
    let buf = tracer.alloc_from(
        live.iter()
            .enumerate()
            .map(|(i, &l)| Keyed::new(i as u64, u64::from(l)))
            .collect(),
    );
    let (out, _) = spans.timed("primitives.compact", |_| oblivious_compact(buf));
    assert_eq!(out.live, live.iter().filter(|&&l| l).count() as u64);
}

/// `oblivious_distribute` of `dests.len()` elements to 1-based, injective
/// destinations in an array of `m` slots.
pub fn probe_distribute(dests: &[u64], m: usize, spans: &mut Spans) {
    let tracer = Tracer::new(NullSink);
    let buf = tracer.alloc_from(dests.iter().map(|&d| Keyed::new(d, d)).collect());
    let (out, _) = spans.timed("primitives.distribute", |_| oblivious_distribute(buf, m));
    assert_eq!(out.len(), m);
}

// ---------------------------------------------------------------------------
// operators: wide tables and the direct operator pipeline
// ---------------------------------------------------------------------------

/// A typed multi-column table in the program's shape.
#[derive(Clone)]
pub struct Wide(WideTable);

fn static_schema<const N: usize>(columns: [(&str, ColumnType); N]) -> Schema {
    Schema::new(columns).expect("the benchmark's schemas are valid")
}

pub fn orders_table(rows: &[Order]) -> Wide {
    let schema = static_schema([
        ("o_key", ColumnType::U64),
        ("price", ColumnType::U64),
        ("priority", ColumnType::I64),
        ("urgent", ColumnType::Bool),
        ("region", ColumnType::Bytes(4)),
    ]);
    let rows = rows.iter().map(|o| {
        vec![
            Value::U64(o.o_key),
            Value::U64(o.price),
            Value::I64(o.priority),
            Value::Bool(o.urgent),
            Value::Bytes(o.region.to_vec()),
        ]
    });
    Wide(WideTable::from_rows(schema, rows).expect("generated rows conform to the schema"))
}

pub fn items_table(rows: &[Item]) -> Wide {
    let schema = static_schema([
        ("o_key", ColumnType::U64),
        ("qty", ColumnType::U64),
        ("tax", ColumnType::I64),
        ("part", ColumnType::Bytes(8)),
    ]);
    let rows = rows.iter().map(|i| {
        vec![
            Value::U64(i.o_key),
            Value::U64(i.qty),
            Value::I64(i.tax),
            Value::Bytes(i.part.to_vec()),
        ]
    });
    Wide(WideTable::from_rows(schema, rows).expect("generated rows conform to the schema"))
}

fn cells(table: &WideTable) -> crate::queries::Table {
    (0..table.len())
        .map(|i| {
            table
                .row_values(i)
                .into_iter()
                .map(|v| match v {
                    Value::U64(v) => Cell::U(v),
                    Value::I64(v) => Cell::I(v),
                    Value::Bool(v) => Cell::B(v),
                    Value::Bytes(v) => Cell::S(v),
                })
                .collect()
        })
        .collect()
}

/// Which trace sink a direct pipeline runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Discard the trace (what a timing run of the bare operators costs).
    Null,
    /// Chained SHA-256 per trace event (what the engine runs today).
    Hashing,
}

/// The result of replaying one query as direct `wide_*` calls.
pub struct Direct {
    pub rows: crate::queries::Table,
    /// Trace digest and event count, under [`Sink::Hashing`].
    pub digest: Option<String>,
    pub events: u64,
}

/// Replay `query` as the direct `wide_*` calls the engine's planner lowers
/// its text to (same operators, same carried columns, one tracer), under
/// the chosen sink.  Under [`Sink::Hashing`] the digest must equal the
/// engine's for the same query, which `benchmark check` asserts.
pub fn run_direct(
    query: &Query,
    orders: &Wide,
    items: &Wide,
    sink: Sink,
    spans: &mut Spans,
) -> Direct {
    match sink {
        Sink::Null => {
            let tracer = Tracer::new(NullSink);
            let out = direct_pipeline(&tracer, query, &orders.0, &items.0, spans);
            Direct {
                rows: cells(&out),
                digest: None,
                events: 0,
            }
        }
        Sink::Hashing => {
            let tracer = Tracer::new(HashingSink::new());
            let out = direct_pipeline(&tracer, query, &orders.0, &items.0, spans);
            let (digest, events) = tracer.with_sink(|s| (s.digest_hex(), s.events()));
            Direct {
                rows: cells(&out),
                digest: Some(digest),
                events,
            }
        }
    }
}

fn direct_pipeline<S: TraceSink>(
    tracer: &Tracer<S>,
    query: &Query,
    orders: &WideTable,
    items: &WideTable,
    spans: &mut Spans,
) -> WideTable {
    let names = |cols: &[&str]| -> Vec<String> { cols.iter().map(|c| c.to_string()).collect() };
    let join = |carry_left: &[&str], carry_right: &[&str], spans: &mut Spans| {
        let (out, _) = spans.timed("operators.wide_join", |_| {
            wide_join(
                tracer,
                orders,
                items,
                "o_key",
                "o_key",
                &names(carry_left),
                &names(carry_right),
            )
        });
        out.expect("the fixed templates join valid columns")
    };
    let filter = |table: &WideTable, predicate: WidePredicate, spans: &mut Spans| {
        let (out, _) = spans.timed("operators.wide_filter", |_| {
            wide_filter(tracer, table, &predicate)
        });
        out.expect("the fixed templates filter valid columns")
    };
    let group =
        |table: &WideTable, key: &str, agg: Aggregate, col: Option<&str>, spans: &mut Spans| {
            let (out, _) = spans.timed("operators.wide_group_aggregate", |_| {
                wide_group_aggregate(tracer, table, key, agg, col)
            });
            out.expect("the fixed templates aggregate valid columns")
        };
    let at_least = |col: &str, c: u64| WidePredicate::at_least(col, Value::U64(c));
    match *query {
        Query::JoinPriceSumQty(c) => {
            let joined = join(&["price"], &["qty"], spans);
            let kept = filter(&joined, at_least("price", c), spans);
            group(&kept, "o_key", Aggregate::Sum, Some("qty"), spans)
        }
        Query::OrdersSumPriceByRegion(c) => {
            let kept = filter(orders, at_least("price", c), spans);
            group(&kept, "region", Aggregate::Sum, Some("price"), spans)
        }
        Query::JoinCount => {
            let joined = join(&[], &[], spans);
            group(&joined, "o_key", Aggregate::Count, None, spans)
        }
        Query::ItemsMaxQtyByKey(c) => {
            let kept = filter(items, at_least("qty", c), spans);
            group(&kept, "o_key", Aggregate::Max, Some("qty"), spans)
        }
        Query::UrgentCountByRegion => {
            let urgent = WidePredicate::equals("urgent", Value::Bool(true));
            let kept = filter(orders, urgent, spans);
            group(&kept, "region", Aggregate::Count, None, spans)
        }
        Query::JoinQtySumQty(c) => {
            let joined = join(&[], &["qty"], spans);
            let kept = filter(&joined, at_least("qty", c), spans);
            group(&kept, "o_key", Aggregate::Sum, Some("qty"), spans)
        }
        Query::JoinAll => join(
            &["price", "priority", "urgent", "region"],
            &["qty", "tax", "part"],
            spans,
        ),
        Query::ItemsSumQtyByKey => group(items, "o_key", Aggregate::Sum, Some("qty"), spans),
    }
}

/// `oblivious_join_payloads` on the keys and carried columns of the bare
/// `JOIN orders lineitem ON o_key`: the kernel work inside `wide_join`
/// without the wide-row staging and encoding around it.
pub fn probe_payload_join(orders: &Wide, items: &Wide, spans: &mut Spans) -> KernelCost {
    fn keyed(table: &WideTable, carried: &[&str]) -> Vec<(u64, [u64; 4])> {
        let schema = table.schema();
        let idx = |name: &str| schema.column(name).expect("column of the fixed schema").0;
        let key = idx("o_key");
        let carried: Vec<usize> = carried.iter().map(|c| idx(c)).collect();
        table
            .rows()
            .map(|row| {
                let mut words = [0u64; 4];
                for (w, &c) in words.iter_mut().zip(&carried) {
                    *w = schema.word_at(row, c);
                }
                (schema.word_at(row, key), words)
            })
            .collect()
    }
    let left = keyed(&orders.0, &["price", "priority", "urgent", "region"]);
    let right = keyed(&items.0, &["qty", "tax", "part"]);
    let tracer = Tracer::new(NullSink);
    let (result, _) = spans.timed("core.oblivious_join_payloads", |_| {
        oblivious_join_payloads(&tracer, &left, &right)
    });
    let cost = KernelCost::of(&result.stats);
    cost.record_phases(spans);
    cost
}

/// `wide_join_aggregate` (count of joined pairs per key, no `m`-sized
/// expansion) on the workload's tables: the operator `JOIN … | AGG count`
/// could lower to.  Returns its group count.
pub fn probe_join_aggregate(orders: &Wide, items: &Wide, spans: &mut Spans) -> usize {
    let tracer = Tracer::new(NullSink);
    let (out, _) = spans.timed("operators.wide_join_aggregate", |_| {
        wide_join_aggregate(
            &tracer,
            &orders.0,
            &items.0,
            "o_key",
            "o_key",
            None,
            None,
            JoinAggregate::CountPairs,
        )
    });
    out.expect("count over the key columns is valid").len()
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// Wall-time phases of one query inside the engine, as its summary reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    pub resolve: Duration,
    pub queue_wait: Duration,
    pub execute: Duration,
    pub publish: Duration,
}

/// One answered query, from the engine, the coordinator or over the wire.
pub struct Reply {
    rows: Rows,
    summary: QuerySummary,
    /// Served from the result cache (or deduplicated in-batch).
    pub cached: bool,
}

impl Reply {
    fn from_response(r: QueryResponse) -> Reply {
        Reply {
            rows: r.rows,
            summary: r.summary,
            cached: r.cached,
        }
    }

    fn from_wire(r: QueryReply) -> Reply {
        Reply {
            rows: r.rows,
            summary: r.summary,
            cached: r.cached,
        }
    }

    /// The result rows, decoded.
    pub fn cells(&self) -> crate::queries::Table {
        cells(self.rows.table())
    }

    /// Same schema and the same row bytes in the same order.
    pub fn same_rows(&self, other: &Reply) -> bool {
        self.rows == other.rows
    }

    pub fn output_rows(&self) -> usize {
        self.rows.len()
    }

    /// Chained SHA-256 of the query's public-memory access stream.
    pub fn digest(&self) -> &str {
        &self.summary.trace_digest
    }

    /// Exact trace event count.
    pub fn events(&self) -> u64 {
        self.summary.trace_events
    }

    pub fn comparisons(&self) -> u64 {
        self.summary.counters.comparisons
    }

    pub fn routing_hops(&self) -> u64 {
        self.summary.counters.routing_hops
    }

    pub fn phases(&self) -> Phases {
        let p = self.summary.phases;
        Phases {
            resolve: p.resolve,
            queue_wait: p.queue_wait,
            execute: p.execute,
            publish: p.publish,
        }
    }

    /// The query's wall time inside the engine, admission to collection.
    pub fn wall(&self) -> Duration {
        self.summary.wall
    }

    /// Per-shard partition sizes the coordinator revealed.
    pub fn partitions(&self) -> &[(String, u64)] {
        &self.summary.shard_partitions
    }
}

/// Parse each text (one `engine.parse_query` span each) into a request that
/// carries its parse cost, as `Engine::execute_text_batch` does.
fn requests(texts: &[String], spans: &mut Spans) -> Result<Vec<QueryRequest>, String> {
    texts
        .iter()
        .map(|text| {
            let (plan, cost) = spans.timed("engine.parse_query", |_| parse_query(text));
            let plan = plan.map_err(|e| e.to_string())?;
            Ok(QueryRequest::new(text.as_str(), plan).with_parse_cost(cost))
        })
        .collect()
}

/// Result-cache accounting of one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A process-local engine.
pub struct EngineHandle(Arc<Engine>);

impl EngineHandle {
    /// `EngineConfig::default()` (workers = `nproc`, result cache on — what
    /// users get); `cache_cap` overrides the result-cache entry bound.
    pub fn new(result_cache: bool, cache_cap: Option<usize>) -> Self {
        let mut config = EngineConfig {
            result_cache,
            ..EngineConfig::default()
        };
        if let Some(cap) = cache_cap {
            config.result_cache_cap = cap;
        }
        EngineHandle(Arc::new(Engine::new(config)))
    }

    /// Register (or replace) a wide table; bumps the catalog epoch, which
    /// invalidates the result cache.
    pub fn register(&self, name: &str, table: &Wide, spans: &mut Spans) -> Result<(), String> {
        let (out, _) = spans.timed("engine.register_wide_table", |_| {
            self.0.register_wide_table(name, table.0.clone())
        });
        out.map(|_| ()).map_err(|e| e.to_string())
    }

    /// Parse and execute one batch of text queries on the worker pool.
    pub fn execute(&self, texts: &[String], spans: &mut Spans) -> Result<Vec<Reply>, String> {
        let requests = requests(texts, spans)?;
        let (out, _) = spans.timed("engine.execute_batch", |_| self.0.execute_batch(&requests));
        let responses = out.map_err(|e| e.to_string())?;
        Ok(responses.into_iter().map(Reply::from_response).collect())
    }

    pub fn cache(&self) -> CacheCounters {
        let s = self.0.cache_stats();
        CacheCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
        }
    }
}

// ---------------------------------------------------------------------------
// server
// ---------------------------------------------------------------------------

/// What the server's own metrics say about its batcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Engine batches the batcher formed, and the requests folded into them.
    pub batches: u64,
    pub batched_requests: u64,
}

/// A wire server over one engine, on an ephemeral loopback TCP port.
pub struct ServerHandle(Server);

impl ServerHandle {
    pub fn bind(engine: &EngineHandle, spans: &mut Spans) -> Result<Self, String> {
        let (server, _) = spans.timed("server.bind", |_| {
            Server::bind(
                "127.0.0.1:0",
                Arc::clone(&engine.0),
                ServerConfig::default(),
            )
        });
        server.map(ServerHandle).map_err(|e| e.to_string())
    }

    /// One client connection over real TCP.
    pub fn connect_tcp(&self, spans: &mut Spans) -> Result<ClientHandle, String> {
        let addr = self.0.local_addr().expect("a bound server has an address");
        let (client, _) = spans.timed("server.connect", |_| Client::connect(addr, "benchmark"));
        let client = client.map_err(|e| e.to_string())?;
        Ok(ClientHandle {
            client,
            span: "server.tcp_query",
        })
    }

    /// One client connection over the in-memory loopback transport: the
    /// same framing, codec and handler/batcher hand-off, no sockets.
    pub fn connect_loopback(&self) -> Result<ClientHandle, String> {
        let pipe = self.0.connect_loopback().map_err(|e| e.to_string())?;
        Ok(ClientHandle {
            client: Client::over(pipe, "benchmark"),
            span: "server.loopback_query",
        })
    }

    pub fn counters(&self) -> ServerCounters {
        let snap = self.0.engine().metrics().snapshot();
        let (batches, batched_requests) = match snap.get("server_batch_occupancy", &[]) {
            Some(MetricValue::Histogram(h)) => (h.count, h.sum),
            _ => (0, 0),
        };
        ServerCounters {
            batches,
            batched_requests,
        }
    }
}

/// A blocking client connection.
pub struct ClientHandle {
    client: Client,
    span: &'static str,
}

impl ClientHandle {
    /// One text-query round trip.
    pub fn query(&mut self, text: &str, spans: &mut Spans) -> Result<Reply, String> {
        let (reply, _) = spans.timed(self.span, |_| self.client.query(text));
        reply.map(Reply::from_wire).map_err(|e| e.to_string())
    }
}

/// The wire codec alone, on the frames of one round trip: `Request` encode
/// and decode for `text`, `Response` encode and decode for `reply`.  Returns
/// the reply frame's body length.
pub fn probe_codec(text: &str, reply: &Reply, spans: &mut Spans) -> Result<usize, String> {
    let request = Request::QueryText {
        token: "benchmark".to_string(),
        deadline_ms: 0,
        trace_id: 0,
        collect_trace: false,
        query: text.to_string(),
    };
    let response = Response::Reply(Box::new(QueryReply {
        label: "benchmark/q0".to_string(),
        cached: reply.cached,
        trace_id: 0,
        summary: reply.summary.clone(),
        rows: reply.rows.clone(),
        trace: None,
    }));
    let (out, _) = spans.timed("server.codec", |_| -> Result<usize, String> {
        let body = request.encode().map_err(|e| e.to_string())?;
        let decoded = Request::decode(&body).map_err(|e| e.to_string())?;
        let body = response.encode().map_err(|e| e.to_string())?;
        let back = Response::decode(&body).map_err(|e| e.to_string())?;
        if decoded != request || back != response {
            return Err("codec round trip changed the message".to_string());
        }
        Ok(body.len())
    });
    out
}

// ---------------------------------------------------------------------------
// shard
// ---------------------------------------------------------------------------

/// A sharded coordinator: one engine per shard plus its full-copy gather
/// engine, per-shard result caches off.
pub struct CoordinatorHandle(Coordinator);

impl CoordinatorHandle {
    pub fn new(shards: usize, partitioned: &[&str], spans: &mut Spans) -> Self {
        let (coordinator, _) = spans.timed("shard.coordinator_new", |_| {
            Coordinator::new(ShardConfig {
                shards,
                partitioned: partitioned.iter().map(|t| t.to_string()).collect(),
                engine: EngineConfig {
                    workers: 1,
                    result_cache: false,
                    ..EngineConfig::default()
                },
                ..ShardConfig::default()
            })
        });
        CoordinatorHandle(coordinator)
    }

    /// Register a wide table: chunked over the shards if partitioned,
    /// replicated otherwise, and always copied whole to the gather engine.
    pub fn register(&self, name: &str, table: &Wide, spans: &mut Spans) -> Result<(), String> {
        let (out, _) = spans.timed("shard.register_wide_table", |_| {
            self.0.register_wide_table(name, table.0.clone())
        });
        out.map_err(|e| e.to_string())
    }

    /// Parse and execute one batch: scatter, oblivious merge, fan-out.
    pub fn execute(&self, texts: &[String], spans: &mut Spans) -> Result<Vec<Reply>, String> {
        let requests = requests(texts, spans)?;
        let (out, _) = spans.timed("shard.execute_batch", |_| self.0.execute_batch(&requests));
        let responses = out.map_err(|e| e.to_string())?;
        Ok(responses.into_iter().map(Reply::from_response).collect())
    }

    /// Cumulative `(shard_scatter_ns_total, shard_merge_ns_total)`.
    pub fn timers(&self) -> (u64, u64) {
        let snap = self.0.metrics().snapshot();
        (
            snap.counter("shard_scatter_ns_total", &[]),
            snap.counter("shard_merge_ns_total", &[]),
        )
    }
}
