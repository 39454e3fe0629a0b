//! Sessions: per-tenant request queues with cumulative accounting.
//!
//! A [`Session`] is a thin convenience layer over
//! [`Engine::execute_batch`](crate::Engine::execute_batch): it queues
//! requests (text or built plans) under a tenant label, runs them as one
//! concurrent batch, and keeps running totals of what the tenant's queries
//! have revealed and spent.  Sessions hold no table data and no locks —
//! dropping one costs nothing.

use crate::error::EngineError;
use crate::executor::{Engine, QueryExecutor};
use crate::frontend::parse_query;
use crate::query::{Plan, QueryRequest, QueryResponse};

/// Cumulative accounting for one session.
///
/// Totals are summed over the *summaries returned to the tenant*: a cache
/// hit replays the original run's summary, so its trace events,
/// comparisons and output rows are counted again even though no new work
/// was performed.  This makes the totals a measure of what the tenant's
/// queries *represent*, not of fresh engine work; use
/// [`cache_hits`](SessionStats::cache_hits) (or the engine-wide
/// [`CacheStats`](crate::CacheStats)) to separate replayed from executed
/// work, e.g. when billing actual resource consumption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered so far (fresh and cached alike).
    pub queries: u64,
    /// Total trace events across the returned summaries.
    pub trace_events: u64,
    /// Total result rows returned.
    pub output_rows: u64,
    /// Total sorting-network comparisons across the returned summaries.
    pub comparisons: u64,
    /// How many of the queries were answered from the engine's result
    /// cache (or deduplicated within a batch) instead of freshly executed.
    pub cache_hits: u64,
    /// Total result bytes returned (`Σ rows × row width`), so wide and
    /// pair results are accounted at their real shape instead of row
    /// counts alone.
    pub output_bytes: u64,
    /// Widest join payload carry any of the session's queries executed
    /// with, in kernel words (`0` until a join runs).
    pub max_carry_words: u64,
    /// How many shards the bound executor answers queries with: `1` for a
    /// plain [`Engine`], the shard count for a sharded coordinator.
    /// Recorded when the session is opened (topology, not accounting).
    pub shards: u64,
}

/// A labelled queue of queries bound to an [`Engine`].
///
/// ```
/// use obliv_engine::{Engine, EngineConfig};
/// use obliv_join::Table;
///
/// let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
/// engine.register_table("orders", Table::from_pairs(vec![(1, 100), (2, 250)])).unwrap();
///
/// let mut session = engine.session("tenant-a");
/// session.queue_text("SCAN orders | AGG count").unwrap();
/// session.queue_text("SCAN orders | FILTER v>=200").unwrap();
/// let responses = session.run().unwrap();
/// assert_eq!(responses.len(), 2);
/// assert_eq!(session.stats().queries, 2);
/// ```
#[derive(Debug)]
pub struct Session<'engine> {
    engine: &'engine dyn QueryExecutor,
    tenant: String,
    pending: Vec<QueryRequest>,
    stats: SessionStats,
    /// Labels issued so far — monotonically increasing, never rewound (in
    /// particular not by [`clear_pending`](Session::clear_pending)), so a
    /// label is never reused within one session.
    issued: u64,
}

impl<'engine> Session<'engine> {
    pub(crate) fn new(engine: &'engine Engine, tenant: impl Into<String>) -> Self {
        Session::attach(engine, tenant)
    }

    /// Open a session against any [`QueryExecutor`] — a plain
    /// [`Engine`] (equivalent to [`Engine::session`]) or a sharded
    /// coordinator.  The executor's shard count is recorded in
    /// [`SessionStats::shards`].
    pub fn attach(executor: &'engine dyn QueryExecutor, tenant: impl Into<String>) -> Self {
        Session {
            engine: executor,
            tenant: tenant.into(),
            pending: Vec::new(),
            stats: SessionStats {
                shards: executor.shards() as u64,
                ..SessionStats::default()
            },
            issued: 0,
        }
    }

    /// The tenant label this session was opened with.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Label a plan as this session's next request *without* queueing it:
    /// the label is `tenant/qN`, where `N` counts every request this
    /// session has ever issued.  Callers that execute requests out of band
    /// — the network server executes each wire request as a one-request
    /// batch on its connection's handler — use `issue` +
    /// [`record`](Session::record) in place of [`queue`](Session::queue) +
    /// [`run`](Session::run).
    pub fn issue(&mut self, plan: Plan) -> QueryRequest {
        let label = format!("{}/q{}", self.tenant, self.issued);
        self.issued += 1;
        QueryRequest::new(label, plan)
    }

    /// Fold one response into the session's running totals.  Used by
    /// [`run`](Session::run) for every response it receives, and by
    /// out-of-band executors (the network server) for responses to requests
    /// this session [`issue`](Session::issue)d.
    pub fn record(&mut self, response: &QueryResponse) {
        self.stats.queries += 1;
        self.stats.trace_events += response.summary.trace_events;
        self.stats.output_rows += response.summary.output_rows as u64;
        self.stats.comparisons += response.summary.counters.comparisons;
        self.stats.cache_hits += u64::from(response.cached);
        self.stats.output_bytes +=
            (response.summary.output_rows * response.summary.output_row_width) as u64;
        self.stats.max_carry_words = self
            .stats
            .max_carry_words
            .max(response.summary.carry_words as u64);
    }

    /// Queue a built plan.  The response label is `tenant/qN`, where `N`
    /// counts every request this session has ever issued.
    pub fn queue(&mut self, plan: Plan) -> &mut Self {
        let request = self.issue(plan);
        self.pending.push(request);
        self
    }

    /// Parse and queue a text query.
    pub fn queue_text(&mut self, query: &str) -> Result<&mut Self, EngineError> {
        let plan = parse_query(query)?;
        Ok(self.queue(plan))
    }

    /// Number of queries waiting to run.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Drop every queued request (e.g. after a failed [`run`](Session::run)
    /// whose offending query cannot be fixed), returning them for
    /// inspection.  Accounted totals are untouched.
    pub fn clear_pending(&mut self) -> Vec<QueryRequest> {
        std::mem::take(&mut self.pending)
    }

    /// Execute every queued request as one concurrent batch, in queue
    /// order, and fold the responses into the session's running totals.
    pub fn run(&mut self) -> Result<Vec<QueryResponse>, EngineError> {
        let requests = std::mem::take(&mut self.pending);
        let responses = match self.engine.execute_batch(&requests) {
            Ok(responses) => responses,
            Err(e) => {
                // Failed batches leave the queue intact so the caller can
                // fix the catalog and retry, or abandon the batch with
                // [`clear_pending`](Session::clear_pending).
                self.pending = requests;
                return Err(e);
            }
        };
        for r in &responses {
            self.record(r);
        }
        Ok(responses)
    }

    /// Running totals over every query this session has executed.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::EngineConfig;
    use obliv_join::Table;

    fn engine() -> Engine {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..Default::default()
        });
        engine
            .register_table(
                "orders",
                Table::from_pairs(vec![(1, 100), (1, 250), (2, 50)]),
            )
            .unwrap();
        engine
            .register_table("customers", Table::from_pairs(vec![(1, 7), (2, 9)]))
            .unwrap();
        engine
    }

    #[test]
    fn sessions_label_and_account() {
        let engine = engine();
        let mut session = engine.session("acme");
        session.queue_text("SCAN orders | AGG sum").unwrap();
        session.queue_text("JOIN orders customers").unwrap();
        assert_eq!(session.pending(), 2);

        let responses = session.run().unwrap();
        assert_eq!(responses[0].label, "acme/q0");
        assert_eq!(responses[1].label, "acme/q1");
        assert_eq!(session.pending(), 0);

        let stats = session.stats();
        assert_eq!(stats.queries, 2);
        assert!(stats.trace_events > 0);
        assert_eq!(
            stats.output_rows,
            responses.iter().map(|r| r.rows.len() as u64).sum::<u64>()
        );
        assert_eq!(
            stats.output_bytes,
            responses
                .iter()
                .map(|r| (r.rows.len() * r.rows.schema().row_width()) as u64)
                .sum::<u64>()
        );
        assert_eq!(stats.max_carry_words, 1, "the join carries one word");

        // Labels continue from where the last batch stopped.
        session.queue_text("SCAN customers").unwrap();
        let responses = session.run().unwrap();
        assert_eq!(responses[0].label, "acme/q2");
        assert_eq!(session.stats().queries, 3);
    }

    #[test]
    fn failed_run_preserves_the_queue() {
        let engine = engine();
        let mut session = engine.session("acme");
        session.queue_text("SCAN ghost").unwrap();
        assert!(session.run().is_err());
        assert_eq!(session.pending(), 1);
        assert_eq!(
            session.stats(),
            SessionStats {
                shards: 1,
                ..SessionStats::default()
            }
        );

        // Registering the missing table makes the retry succeed.
        engine
            .register_table("ghost", Table::from_pairs(vec![(1, 1)]))
            .unwrap();
        assert_eq!(session.run().unwrap().len(), 1);
        assert_eq!(session.stats().queries, 1);
    }

    #[test]
    fn clear_pending_unwedges_a_failed_queue() {
        let engine = engine();
        let mut session = engine.session("acme");
        session.queue_text("SCAN ghost").unwrap();
        session.queue_text("SCAN orders").unwrap();
        assert!(session.run().is_err());

        // The bad request cannot be fixed; abandon the batch and move on.
        let dropped = session.clear_pending();
        assert_eq!(dropped.len(), 2);
        assert_eq!(session.pending(), 0);
        session.queue_text("SCAN orders").unwrap();
        let responses = session.run().unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(session.stats().queries, 1);
        // Labels are never rewound: the new request must not reuse the
        // labels of the abandoned ones.
        assert_eq!(responses[0].label, "acme/q2");
        assert!(dropped.iter().all(|d| d.label != responses[0].label));
    }

    #[test]
    fn session_accounts_cache_hits() {
        let engine = engine();
        let mut session = engine.session("acme");
        session.queue_text("SCAN orders | AGG sum").unwrap();
        session.queue_text("SCAN orders | AGG sum").unwrap();
        session.run().unwrap();
        // Same plan twice in one batch: one execution, one dedup hit.
        assert_eq!(session.stats().queries, 2);
        assert_eq!(session.stats().cache_hits, 1);
        // Re-running the same text later hits the cross-batch cache.
        session.queue_text("SCAN orders | AGG sum").unwrap();
        session.run().unwrap();
        assert_eq!(session.stats().cache_hits, 2);
    }

    #[test]
    fn issue_and_record_mirror_queue_and_run() {
        let engine = engine();
        let mut session = engine.session("acme");
        // Out-of-band execution: label through the session, execute through
        // the engine directly, account through `record`.
        let request = session.issue(parse_query("SCAN orders | AGG sum").unwrap());
        assert_eq!(request.label, "acme/q0");
        let responses = engine
            .execute_batch(std::slice::from_ref(&request))
            .unwrap();
        session.record(&responses[0]);
        let stats = session.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.trace_events, responses[0].summary.trace_events);
        // Labels continue after an out-of-band issue, and queue/run totals
        // fold into the same stats.
        session.queue_text("SCAN orders").unwrap();
        let responses = session.run().unwrap();
        assert_eq!(responses[0].label, "acme/q1");
        assert_eq!(session.stats().queries, 2);
    }

    #[test]
    fn independent_sessions_share_the_engine() {
        let engine = engine();
        let mut a = engine.session("a");
        let mut b = engine.session("b");
        a.queue_text("SCAN orders").unwrap();
        b.queue_text("SCAN customers").unwrap();
        assert_eq!(a.run().unwrap()[0].rows.len(), 3);
        assert_eq!(b.run().unwrap()[0].rows.len(), 2);
        assert_eq!(a.stats().queries, 1);
        assert_eq!(b.stats().queries, 1);
    }
}
