//! The unified query API: one typed logical-plan IR ([`Plan`]), requests,
//! responses with a single row representation ([`Rows`]), and per-query
//! leakage summaries.
//!
//! A [`Plan`] is a schema-aware operator tree whose scan leaves are catalog
//! *names*.  Every operator — scan, filter, project, distinct, union-all,
//! join (with multi-column payload carries), semi/anti join, group- and
//! join-aggregate — works over typed wide schemas; the paper's pair shape
//! is just the degenerate two-column schema `{key: u64, value: u64}`.  The
//! planner ([`Plan::resolve`]) type-checks the tree against the catalog and
//! yields an execution tree over the wide operators, the one backend every
//! plan runs on.

use std::sync::Arc;

use obliv_join::schema::{Schema, SchemaError, Value, WideTable};
use obliv_operators::{Aggregate, JoinAggregate, WidePredicate};
use obliv_telemetry::{PhaseBreakdown, SpanNode};
use obliv_trace::OpCounters;

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::planner::{self, ResolvedPlan};

/// A typed logical query plan over named catalog tables.
///
/// Build one with the combinators ([`scan`](Plan::scan),
/// [`filter`](Plan::filter), [`join`](Plan::join), …) or parse the text
/// form ([`parse_query`](crate::parse_query)).  Resolution against a
/// [`Catalog`] type-checks every column reference and constant against the
/// (public) schemas and yields an executable [`ResolvedPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan the catalog table of this name.
    Scan(String),
    /// Oblivious selection on a named column.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Typed column predicate.
        predicate: WidePredicate,
    },
    /// Keep (and reorder) the named columns.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// The columns to keep, in output order.
        columns: Vec<String>,
    },
    /// Oblivious duplicate elimination over whole rows.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Oblivious bag union (positional, like SQL `UNION ALL`; the output
    /// wears the left schema).
    UnionAll {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// The paper's oblivious equi-join on named key columns.
    ///
    /// The carried payload columns are chosen by the planner from what the
    /// plan above the join references (everything, for a bare join);
    /// wrap the join in a [`Project`](Plan::Project) to pick them
    /// explicitly.  Column names shared by both inputs come back with
    /// `left_` / `right_` prefixes.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Left key column.
        left_key: String,
        /// Right key column.
        right_key: String,
    },
    /// Semi-join: rows of `left` whose key appears in `right`.
    SemiJoin {
        /// Probed input.
        left: Box<Plan>,
        /// Witness input.
        right: Box<Plan>,
        /// Probed key column.
        left_key: String,
        /// Witness key column.
        right_key: String,
    },
    /// Anti-join: rows of `left` whose key does not appear in `right`.
    AntiJoin {
        /// Probed input.
        left: Box<Plan>,
        /// Witness input.
        right: Box<Plan>,
        /// Probed key column.
        left_key: String,
        /// Witness key column.
        right_key: String,
    },
    /// Oblivious grouped aggregation.
    GroupAggregate {
        /// Input plan.
        input: Box<Plan>,
        /// The aggregate function.
        aggregate: Aggregate,
        /// The aggregated column (`None` for `count`).
        column: Option<String>,
        /// Explicit group column; defaults to the plan's natural key (the
        /// join key, downstream of a join).
        by: Option<String>,
    },
    /// Grouping aggregation over a join, computed without materialising
    /// the join (the paper's §7 operator).
    JoinAggregate {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Left key column.
        left_key: String,
        /// Right key column.
        right_key: String,
        /// Left `u64` value column (required by `SumLeft`/`SumProducts`).
        left_value: Option<String>,
        /// Right `u64` value column (required by `SumRight`/`SumProducts`).
        right_value: Option<String>,
        /// Aggregate over the joined pairs of each group.
        aggregate: JoinAggregate,
    },
}

impl Plan {
    /// Scan a named catalog table.
    pub fn scan(name: impl Into<String>) -> Plan {
        Plan::Scan(name.into())
    }

    /// Append an oblivious filter.
    pub fn filter(self, predicate: WidePredicate) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Keep (and reorder) the named columns.
    pub fn project<N: Into<String>>(self, columns: impl IntoIterator<Item = N>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: columns.into_iter().map(Into::into).collect(),
        }
    }

    /// Append a duplicate-elimination step.
    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }

    /// Bag-union with another plan.
    pub fn union_all(self, other: Plan) -> Plan {
        Plan::UnionAll {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Equi-join with another plan on named key columns.
    pub fn join(
        self,
        other: Plan,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(other),
            left_key: left_key.into(),
            right_key: right_key.into(),
        }
    }

    /// Semi-join against another plan on named key columns.
    pub fn semi_join(
        self,
        other: Plan,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> Plan {
        Plan::SemiJoin {
            left: Box::new(self),
            right: Box::new(other),
            left_key: left_key.into(),
            right_key: right_key.into(),
        }
    }

    /// Anti-join against another plan on named key columns.
    pub fn anti_join(
        self,
        other: Plan,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> Plan {
        Plan::AntiJoin {
            left: Box::new(self),
            right: Box::new(other),
            left_key: left_key.into(),
            right_key: right_key.into(),
        }
    }

    /// Grouped aggregation (`by: None` groups by the plan's natural key).
    pub fn group_aggregate(
        self,
        aggregate: Aggregate,
        column: Option<String>,
        by: Option<String>,
    ) -> Plan {
        Plan::GroupAggregate {
            input: Box::new(self),
            aggregate,
            column,
            by,
        }
    }

    /// Grouping aggregation over a join with another plan.
    #[allow(clippy::too_many_arguments)]
    pub fn join_aggregate(
        self,
        other: Plan,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
        left_value: Option<String>,
        right_value: Option<String>,
        aggregate: JoinAggregate,
    ) -> Plan {
        Plan::JoinAggregate {
            left: Box::new(self),
            right: Box::new(other),
            left_key: left_key.into(),
            right_key: right_key.into(),
            left_value,
            right_value,
            aggregate,
        }
    }

    /// A canonical textual key for this plan, used (together with the
    /// catalog epoch) as the engine's result-cache key and for
    /// intra-batch deduplication.
    ///
    /// Two plans have equal canonical forms iff they are structurally
    /// identical — same operator tree, same parameters, same table and
    /// column names.  The rendering is the plan's `Debug` form, which
    /// spells out every field and quotes names, so structurally different
    /// plans cannot collide.  The key contains only public information
    /// (the plan itself), so caching on it leaks nothing beyond what
    /// submitting the plan already reveals; the carried-column sets a join
    /// executes with are a pure function of `(plan, catalog schemas)`, and
    /// the epoch half of the cache key covers the schemas.
    pub fn canonical(&self) -> String {
        format!("{self:?}")
    }

    /// Every distinct table name this plan references, in first-use order.
    pub fn referenced_tables(&self) -> Vec<&str> {
        let mut names = Vec::new();
        self.collect_tables(&mut names);
        names
    }

    fn collect_tables<'a>(&'a self, names: &mut Vec<&'a str>) {
        match self {
            Plan::Scan(name) => {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::GroupAggregate { input, .. } => input.collect_tables(names),
            Plan::UnionAll { left, right }
            | Plan::Join { left, right, .. }
            | Plan::SemiJoin { left, right, .. }
            | Plan::AntiJoin { left, right, .. }
            | Plan::JoinAggregate { left, right, .. } => {
                left.collect_tables(names);
                right.collect_tables(names);
            }
        }
    }

    /// Type-check the plan against the catalog and turn it into an
    /// executable [`ResolvedPlan`] over the wide operators.  Table contents
    /// are `Arc`-cloned at resolution time, so the result is
    /// self-contained.
    pub fn resolve(&self, catalog: &Catalog) -> Result<ResolvedPlan, EngineError> {
        planner::resolve(self, catalog)
    }

    /// The plan's output schema against the current catalog (a resolution
    /// without keeping the executable form).
    pub fn output_schema(&self, catalog: &Catalog) -> Result<Arc<Schema>, EngineError> {
        Ok(self.resolve(catalog)?.schema())
    }
}

/// One query submitted to the engine.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-chosen tag, echoed back on the response (e.g. a tenant or
    /// query identifier; the engine does not interpret it).
    pub label: String,
    /// The plan to execute.  Private so it cannot be mutated after
    /// [`canonical`](QueryRequest::canonical) is memoised — a stale memo
    /// would key the result cache under the wrong plan.  Read it with
    /// [`plan`](QueryRequest::plan); to change it, build a new request.
    plan: Plan,
    /// Memoised [`Plan::canonical`] rendering, computed on first use.
    /// The executor reads the canonical form once per request per batch
    /// (cache key + intra-batch dedup); memoising it here means a
    /// re-submitted request — the warm-cache serving path — renders its
    /// plan exactly once, ever.
    canonical: std::sync::OnceLock<String>,
    /// Time a text front end spent producing this plan, attributed to the
    /// `parse` phase of the summary when the request executes fresh.  Zero
    /// for requests built directly from plans.  Not part of request
    /// equality.
    parse_cost: std::time::Duration,
    /// Absolute completion deadline.  The executor checks it at batch
    /// admission and again at job start; an expired request fails its
    /// batch with [`EngineError::DeadlineExceeded`] before any result is
    /// finalised.  `None` (the default) never expires.  Not part of
    /// request equality.
    deadline: Option<std::time::Instant>,
}

impl QueryRequest {
    /// A request with the given label and plan.
    pub fn new(label: impl Into<String>, plan: Plan) -> Self {
        QueryRequest {
            label: label.into(),
            plan,
            canonical: std::sync::OnceLock::new(),
            parse_cost: std::time::Duration::ZERO,
            deadline: None,
        }
    }

    /// Attach the wall-clock cost of parsing the text this request came
    /// from; it surfaces as the `parse` phase of the summary when this
    /// request executes fresh.
    pub fn with_parse_cost(mut self, cost: std::time::Duration) -> Self {
        self.parse_cost = cost;
        self
    }

    /// The attached parse cost (zero unless set).
    pub fn parse_cost(&self) -> std::time::Duration {
        self.parse_cost
    }

    /// Attach an absolute completion deadline: if it passes before this
    /// request's result is produced, the batch fails with a typed
    /// [`EngineError::DeadlineExceeded`].  The deadline is the caller's
    /// own public parameter, so enforcing it is content-independent.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    /// The plan this request executes.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Consume the request, yielding its plan.
    pub fn into_plan(self) -> Plan {
        self.plan
    }

    /// The plan's canonical textual key (see [`Plan::canonical`]),
    /// rendered on first call and memoised for every later one.  The memo
    /// cannot go stale: the plan is immutable for the request's lifetime.
    pub fn canonical(&self) -> &str {
        self.canonical.get_or_init(|| self.plan.canonical())
    }
}

/// Equality ignores the memo state: two requests are equal iff their label
/// and plan are.
impl PartialEq for QueryRequest {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label && self.plan == other.plan
    }
}

impl From<Plan> for QueryRequest {
    fn from(plan: Plan) -> Self {
        QueryRequest::new(String::new(), plan)
    }
}

/// The single row representation every query answers with: a typed
/// [`WideTable`] carrying the plan's output schema.
///
/// Two-`u64`-column results (every legacy pair query produces one) can be
/// read back as pairs with [`pairs`](Rows::pairs); everything else is read
/// through the schema accessors.  Cloning is an `Arc` bump.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    table: WideTable,
}

impl Rows {
    /// Wrap a wide result table.
    pub fn from_wide(table: WideTable) -> Rows {
        Rows { table }
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The underlying typed table.
    pub fn table(&self) -> &WideTable {
        &self.table
    }

    /// Consume the result, yielding the typed table.
    pub fn into_table(self) -> WideTable {
        self.table
    }

    /// The value of the named column in row `i`.
    pub fn value(&self, i: usize, column: &str) -> Result<Value, SchemaError> {
        self.table.value(i, column)
    }

    /// Decode row `i` into values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.table.row_values(i)
    }

    /// Read the rows back as `(u64, u64)` pairs, when the output schema is
    /// two `u64` columns; `None` otherwise.
    pub fn pairs(&self) -> Option<Vec<(u64, u64)>> {
        use obliv_join::schema::ColumnType;
        let cols = self.table.schema().columns();
        if cols.len() != 2 || cols.iter().any(|c| c.ty() != ColumnType::U64) {
            return None;
        }
        Some(
            (0..self.table.len())
                .map(|i| {
                    let row = self.table.row_bytes(i);
                    (
                        u64::from_le_bytes(row[..8].try_into().unwrap()),
                        u64::from_le_bytes(row[8..].try_into().unwrap()),
                    )
                })
                .collect(),
        )
    }
}

/// What one executed query revealed and spent.
///
/// The digest is the SHA-256 fingerprint of the query's whole
/// public-memory access stream (the role of the paper's §6.1 chained hash);
/// two queries with the same digest are indistinguishable to the §3.1
/// adversary.  Because every query runs on its own tracer, the digest is a
/// function of the query's public parameters only — co-scheduled queries
/// cannot perturb it (the engine's integration tests assert this) — which
/// is also why the engine's [digest memo](crate::digest_memo) may serve it
/// for a public shape it has traced before instead of hashing again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySummary {
    /// Hex rendering of the SHA-256 trace fingerprint.
    pub trace_digest: String,
    /// Number of trace events (allocations + accesses) the query emitted.
    pub trace_events: u64,
    /// Algorithm-level operation counts (comparisons, routing hops, …).
    pub counters: OpCounters,
    /// Rows in the result table (revealed by construction, like the
    /// paper's output size `m`).
    pub output_rows: usize,
    /// Bytes per result row (the output schema's width — public shape).
    pub output_row_width: usize,
    /// Widest per-side join payload carry the plan executed with, in
    /// kernel words (`0` for plans without a join) — public shape.
    pub carry_words: usize,
    /// Per-shard partition sizes a sharded coordinator scattered this
    /// query over, as `("table@shard{i}", rows)` entries — empty for a
    /// single-engine run.  Partition sizes are the JODES-style leakage of
    /// distributed oblivious execution; with balanced positional chunking
    /// they are a pure function of the (public) table size and shard
    /// count, so the field is Content-classed like
    /// [`output_rows`](QuerySummary::output_rows).
    pub shard_partitions: Vec<(String, u64)>,
    /// Per-phase wall-clock breakdown of the run that produced this
    /// payload (parse → resolve → queue-wait → execute → publish).  Timing
    /// leakage, like [`wall`](QuerySummary::wall); never part of a
    /// content-independence comparison.
    pub phases: PhaseBreakdown,
    /// In-engine latency of the run that produced this payload: batch
    /// admission to result finalisation.  Strictly contains the pipeline
    /// phases, so `phases.queue_wait + phases.execute <= wall` always holds
    /// (the engine's unit tests assert it).
    pub wall: std::time::Duration,
}

/// The engine's answer to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The request's label, echoed back.
    pub label: String,
    /// The result rows under the plan's output schema — the one row
    /// representation every plan shape shares.
    pub rows: Rows,
    /// Leakage and cost accounting for this query.
    pub summary: QuerySummary,
    /// `true` if this response was served from the engine's result cache
    /// (or deduplicated against an identical plan in the same batch)
    /// rather than freshly executed.  `rows` and `summary` are
    /// bit-identical to the original miss's — including the digest and
    /// the recorded wall time of the run that produced them.
    pub cached: bool,
    /// The operator-level span tree of the run that produced this payload:
    /// one span per plan node (nested like the plan) under a `query` root,
    /// with a synthetic `queue_wait` child for time spent waiting behind
    /// the batch's earlier jobs.  Cache hits replay the original miss's
    /// tree unchanged (its Content fields describe the payload; its Timing
    /// fields describe the run that produced it).  The tree's structure and Content fields are
    /// content-independent — see [`SpanNode::without_timing`].
    pub trace: Arc<SpanNode>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_join::schema::ColumnType;

    #[test]
    fn builders_compose_the_expected_tree() {
        let plan = Plan::scan("orders")
            .filter(WidePredicate::at_least("price", Value::U64(100)))
            .join(Plan::scan("lineitem"), "o_key", "l_key")
            .group_aggregate(Aggregate::Sum, Some("qty".into()), None);
        match &plan {
            Plan::GroupAggregate {
                input,
                aggregate: Aggregate::Sum,
                column,
                by: None,
            } => {
                assert_eq!(column.as_deref(), Some("qty"));
                assert!(matches!(**input, Plan::Join { .. }));
            }
            other => panic!("unexpected tree {other:?}"),
        }
    }

    #[test]
    fn canonical_distinguishes_structurally_different_plans() {
        let a = Plan::scan("orders").filter(WidePredicate::at_least("v", Value::U64(100)));
        let b = Plan::scan("orders").filter(WidePredicate::at_least("v", Value::U64(101)));
        let c = Plan::scan("orders2").filter(WidePredicate::at_least("v", Value::U64(100)));
        assert_eq!(a.canonical(), a.clone().canonical());
        assert_ne!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), c.canonical());
        // Operator order matters.
        let d = Plan::scan("x").union_all(Plan::scan("y"));
        let e = Plan::scan("y").union_all(Plan::scan("x"));
        assert_ne!(d.canonical(), e.canonical());
        // Projection column order matters.
        let f = Plan::scan("t").project(["a", "b"]);
        let g = Plan::scan("t").project(["b", "a"]);
        assert_ne!(f.canonical(), g.canonical());
    }

    #[test]
    fn referenced_tables_deduplicates_in_first_use_order() {
        let plan = Plan::scan("b")
            .join(Plan::scan("a"), "key", "key")
            .union_all(Plan::scan("b").project(["key", "value"]));
        assert_eq!(plan.referenced_tables(), vec!["b", "a"]);
    }

    #[test]
    fn request_canonical_is_memoised_and_stable() {
        let req = QueryRequest::new("a", Plan::scan("orders"));
        assert_eq!(req.canonical(), req.plan().canonical());
        let first = req.canonical().as_ptr();
        assert_eq!(
            req.canonical().as_ptr(),
            first,
            "later calls reuse the memo"
        );
        // Clones and equality are memo-independent.
        let fresh = QueryRequest::new("a", Plan::scan("orders"));
        assert_eq!(fresh, req);
        assert_eq!(req.clone(), fresh);
    }

    #[test]
    fn rows_wrap_pair_results_under_their_schema() {
        let pairs = obliv_join::Table::from_pairs(vec![(1, 10), (2, 20)]);
        let rows = Rows::from_wide(WideTable::from_pair(&pairs));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.schema().column_names(), vec!["key", "value"]);
        assert_eq!(rows.value(1, "value").unwrap(), Value::U64(20));
        assert_eq!(rows.pairs().unwrap(), vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn rows_pairs_refuses_non_degenerate_schemas() {
        let schema = Schema::new([("k", ColumnType::U64), ("p", ColumnType::I64)]).unwrap();
        let t =
            obliv_join::schema::WideTable::from_rows(schema, [vec![Value::U64(1), Value::I64(-1)]])
                .unwrap();
        let rows = Rows::from_wide(t);
        assert!(rows.pairs().is_none());
        assert_eq!(rows.row(0), vec![Value::U64(1), Value::I64(-1)]);
    }
}
