//! Hierarchical per-query span trees: operator-level tracing with the
//! same leakage discipline as the metrics registry.
//!
//! A [`SpanNode`] tree records one span per plan operator (plus synthetic
//! wrapper spans such as `queue_wait`), nested parent/child exactly like
//! the plan itself.  Every span splits its fields into the two classes
//! of [`MetricClass`](crate::MetricClass):
//!
//! * **Content fields** — operator name, detail string, revealed input
//!   row counts, output rows, output row width, and the per-span
//!   [`OpCounters`] delta.  All are functions of public parameters only;
//!   two runs over different table contents with identical public
//!   parameters produce bit-identical Content fields *and* tree shape.
//! * **Timing fields** — `total_ns` (wall time of the span including
//!   children) and `self_ns` (total minus the children's totals).  These
//!   vary run-to-run and are excluded from content-independence
//!   comparisons via [`SpanNode::without_timing`].
//!
//! Recording is cheap — one [`Instant`] pair and one
//! counters snapshot per operator, negligible next to an oblivious sort —
//! so the engine records a tree for every fresh execution and lets the
//! wire protocol decide whether to ship it.
//!
//! [`chrome_trace_json`] renders a finished tree as a `chrome://tracing`
//! JSON array with a deterministic layout derived only from the tree
//! (depth-first, children laid end-to-end inside their parent), so the
//! export is loadable in the Chrome/Perfetto trace viewer.

use std::time::Instant;

use obliv_trace::OpCounters;

use crate::audit::escape_json;

/// One finished span: an operator (or synthetic phase) with its public
/// parameters and timing, plus nested children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Operator name (`"join"`, `"filter"`, …) or synthetic phase name
    /// (`"query"`, `"queue_wait"`).  Content.
    pub name: String,
    /// Public detail — a table name, predicate text, aggregate spec.
    /// Must itself be a public parameter (never tuple bytes).  Content.
    pub detail: String,
    /// Revealed input sizes (row counts) in operator-argument order.
    /// Content.
    pub input_rows: Vec<u64>,
    /// Revealed output size (row count).  Content.
    pub output_rows: u64,
    /// Output row width in bytes (0 where no row shape applies, e.g. the
    /// synthetic `queue_wait` span).  Content.
    pub output_row_width: u64,
    /// Semantic op-counter delta attributed to this span and its
    /// children.  Content.
    pub counters: OpCounters,
    /// Wall time of the span including children, in nanoseconds.  Timing.
    pub total_ns: u64,
    /// `total_ns` minus the sum of the children's `total_ns`.  Timing.
    pub self_ns: u64,
    /// Child spans in execution order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A copy with every Timing field zeroed, recursively — the
    /// content-independence comparand: two runs over different table
    /// contents with identical public parameters must produce equal
    /// `without_timing` trees (the span-tree analogue of
    /// [`MetricsSnapshot::without_timing`](crate::MetricsSnapshot::without_timing)).
    #[must_use]
    pub fn without_timing(&self) -> SpanNode {
        SpanNode {
            name: self.name.clone(),
            detail: self.detail.clone(),
            input_rows: self.input_rows.clone(),
            output_rows: self.output_rows,
            output_row_width: self.output_row_width,
            counters: self.counters,
            total_ns: 0,
            self_ns: 0,
            children: self.children.iter().map(SpanNode::without_timing).collect(),
        }
    }

    /// Append a [`synthetic_span`] as the last child, for work measured
    /// after this span closed (e.g. the engine's `trace_audit` re-trace):
    /// `total_ns` grows by the same amount, so `self_ns` and the timing
    /// invariants are untouched.
    pub fn append_synthetic(&mut self, name: impl Into<String>, total_ns: u64) {
        self.total_ns += total_ns;
        self.children.push(synthetic_span(name, total_ns));
    }

    /// Number of spans in the tree (this node included).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// Maximum nesting depth (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanNode::depth).max().unwrap_or(0)
    }

    /// `true` iff the timing invariants hold recursively: each node's
    /// children's totals sum to at most its own total (so `self_ns` is
    /// the non-negative remainder).
    pub fn timing_is_consistent(&self) -> bool {
        let child_total: u64 = self.children.iter().map(|c| c.total_ns).sum();
        child_total <= self.total_ns
            && self.self_ns == self.total_ns - child_total
            && self.children.iter().all(SpanNode::timing_is_consistent)
    }

    /// Render the tree as indented text, one line per span — the body of
    /// `EXPLAIN ANALYZE`.  With `timing`, each line carries self/total
    /// nanoseconds; without, the rendering is a pure function of Content
    /// fields (bit-identical across content-twisted runs).
    pub fn render_text(&self, timing: bool) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, timing);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, timing: bool) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if !self.detail.is_empty() {
            out.push(' ');
            out.push_str(&self.detail);
        }
        out.push_str(&format!(
            " (in={:?} out={} width={}",
            self.input_rows, self.output_rows, self.output_row_width
        ));
        let c = &self.counters;
        if *c != OpCounters::default() {
            out.push_str(&format!(
                " cmp={} cx={} hops={} linear={}",
                c.comparisons, c.compare_exchanges, c.routing_hops, c.linear_steps
            ));
        }
        if timing {
            out.push_str(&format!(
                " self={}ns total={}ns",
                self.self_ns, self.total_ns
            ));
        }
        out.push_str(")\n");
        for child in &self.children {
            child.render_into(out, depth + 1, timing);
        }
    }
}

/// An in-progress span on the recorder stack.
#[derive(Debug)]
struct OpenSpan {
    name: String,
    detail: String,
    started: Instant,
    counters_at_start: OpCounters,
    children: Vec<SpanNode>,
}

/// Records one query's span tree during execution.
///
/// Usage is strictly stack-shaped, mirroring the recursive plan walk:
/// [`enter`](SpanRecorder::enter) when an operator starts (after its
/// inputs' sub-walks would be separate `enter`/`exit` pairs *inside* it —
/// i.e. enter before recursing), [`exit`](SpanRecorder::exit) when it
/// finishes, passing the revealed sizes and the tracer's counters at that
/// moment; the delta from the matching `enter` is attributed to the span.
/// [`finish`](SpanRecorder::finish) closes the root and returns the tree.
#[derive(Debug)]
pub struct SpanRecorder {
    stack: Vec<OpenSpan>,
    finished: Option<SpanNode>,
}

impl SpanRecorder {
    /// A recorder with an open root span named `name`.  `counters` is the
    /// tracer's counter snapshot at the start (usually zero).
    pub fn new(name: impl Into<String>, counters: OpCounters) -> SpanRecorder {
        SpanRecorder {
            stack: vec![OpenSpan {
                name: name.into(),
                detail: String::new(),
                started: Instant::now(),
                counters_at_start: counters,
                children: Vec::new(),
            }],
            finished: None,
        }
    }

    /// Open a child span under the current innermost span.
    pub fn enter(
        &mut self,
        name: impl Into<String>,
        detail: impl Into<String>,
        counters: OpCounters,
    ) {
        self.stack.push(OpenSpan {
            name: name.into(),
            detail: detail.into(),
            started: Instant::now(),
            counters_at_start: counters,
            children: Vec::new(),
        });
    }

    /// Close the innermost span, attaching its revealed sizes and the
    /// counter delta since its `enter`.
    ///
    /// # Panics
    ///
    /// Panics if called with only the root open (the root is closed by
    /// [`finish`](SpanRecorder::finish)).
    pub fn exit(
        &mut self,
        input_rows: Vec<u64>,
        output_rows: u64,
        output_row_width: u64,
        counters: OpCounters,
    ) {
        assert!(
            self.stack.len() > 1,
            "SpanRecorder::exit with no open child span"
        );
        let open = self.stack.pop().expect("stack checked non-empty");
        let node = close(open, input_rows, output_rows, output_row_width, counters);
        self.stack
            .last_mut()
            .expect("root remains open")
            .children
            .push(node);
    }

    /// Attach an already-finished child span (e.g. a `queue_wait` span
    /// synthesized from a measured duration) under the current innermost
    /// span, as the *first* child so wrapper phases precede operators.
    pub fn attach_first(&mut self, node: SpanNode) {
        let children = &mut self.stack.last_mut().expect("root remains open").children;
        children.insert(0, node);
    }

    /// Close the root span and return the finished tree.
    ///
    /// # Panics
    ///
    /// Panics if child spans are still open (unbalanced `enter`/`exit`)
    /// or if called twice.
    pub fn finish(
        mut self,
        input_rows: Vec<u64>,
        output_rows: u64,
        output_row_width: u64,
        counters: OpCounters,
    ) -> SpanNode {
        assert!(self.finished.is_none(), "SpanRecorder::finish called twice");
        assert_eq!(
            self.stack.len(),
            1,
            "unbalanced enter/exit: child spans still open"
        );
        let root = self.stack.pop().expect("root span present");
        close(root, input_rows, output_rows, output_row_width, counters)
    }
}

/// Seal an open span into a [`SpanNode`].
fn close(
    open: OpenSpan,
    input_rows: Vec<u64>,
    output_rows: u64,
    output_row_width: u64,
    counters: OpCounters,
) -> SpanNode {
    let total_ns = nanos_u64(open.started.elapsed().as_nanos());
    let child_total: u64 = open.children.iter().map(|c| c.total_ns).sum();
    // Clock skew between a parent's and its children's `Instant` reads
    // cannot produce child sums above the parent on a monotonic clock,
    // but saturate anyway so the invariant holds by construction.
    let total_ns = total_ns.max(child_total);
    SpanNode {
        name: open.name,
        detail: open.detail,
        input_rows,
        output_rows,
        output_row_width,
        counters: counters.since(&open.counters_at_start),
        total_ns,
        self_ns: total_ns - child_total,
        children: open.children,
    }
}

/// Clamp a `u128` nanosecond count into `u64` (≈584 years).
fn nanos_u64(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A synthetic already-finished span (no children) from a measured
/// duration — used for wrapper phases like queue wait, where the time was
/// measured outside the recorder's stack discipline.
pub fn synthetic_span(name: impl Into<String>, total_ns: u64) -> SpanNode {
    SpanNode {
        name: name.into(),
        detail: String::new(),
        input_rows: Vec::new(),
        output_rows: 0,
        output_row_width: 0,
        counters: OpCounters::default(),
        total_ns,
        self_ns: total_ns,
        children: Vec::new(),
    }
}

/// Render a span tree as a `chrome://tracing` / Perfetto JSON array of
/// complete (`"ph":"X"`) events.
///
/// The layout is deterministic and derived from the tree alone — no wall
/// clock: the root starts at `ts = 0`, and each child starts where its
/// previous sibling ended, so the visual nesting matches the recorded
/// parent/child containment exactly.  Timestamps and durations are in
/// microseconds (the Chrome trace unit) with three decimal places, so no
/// nanosecond is lost.  `pid` is always 1 and `tid` is the span's depth,
/// giving one timeline row per tree level with stable ids across runs.
pub fn chrome_trace_json(root: &SpanNode) -> String {
    let mut out = String::from("[");
    let mut first = true;
    emit_chrome(root, 0, 0, &mut out, &mut first);
    out.push_str("]\n");
    out
}

fn emit_chrome(node: &SpanNode, start_ns: u64, depth: u64, out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let c = &node.counters;
    out.push_str(&format!(
        "\n{{\"name\":\"{}\",\"cat\":\"operator\",\"ph\":\"X\",\
         \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\
         \"args\":{{\"detail\":\"{}\",\"input_rows\":{:?},\"output_rows\":{},\
         \"output_row_width\":{},\"comparisons\":{},\"compare_exchanges\":{},\
         \"routing_hops\":{},\"linear_steps\":{},\"self_ns\":{}}}}}",
        escape_json(&node.name),
        start_ns / 1_000,
        start_ns % 1_000,
        node.total_ns / 1_000,
        node.total_ns % 1_000,
        depth,
        escape_json(&node.detail),
        node.input_rows,
        node.output_rows,
        node.output_row_width,
        c.comparisons,
        c.compare_exchanges,
        c.routing_hops,
        c.linear_steps,
        node.self_ns,
    ));
    let mut cursor = start_ns;
    for child in &node.children {
        emit_chrome(child, cursor, depth + 1, out, first);
        cursor += child.total_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters(comparisons: u64) -> OpCounters {
        OpCounters {
            comparisons,
            compare_exchanges: comparisons / 2,
            routing_hops: 0,
            linear_steps: comparisons * 3,
        }
    }

    /// Build `scan -> filter` under a root by driving the recorder the
    /// way the planner does.
    fn sample_tree() -> SpanNode {
        let mut rec = SpanRecorder::new("query", OpCounters::default());
        rec.enter("filter", "v>=10", OpCounters::default());
        rec.enter("scan", "orders", OpCounters::default());
        rec.exit(vec![], 8, 3, sample_counters(0));
        rec.exit(vec![8], 8, 3, sample_counters(40));
        rec.finish(vec![8], 8, 3, sample_counters(40))
    }

    #[test]
    fn nesting_matches_enter_exit_order() {
        let tree = sample_tree();
        assert_eq!(tree.name, "query");
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].name, "filter");
        assert_eq!(tree.children[0].children[0].name, "scan");
        assert_eq!(tree.span_count(), 3);
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn timing_invariants_hold() {
        let tree = sample_tree();
        assert!(tree.timing_is_consistent());
        // And the counter deltas are attributed: filter saw the 40
        // comparisons, scan saw none.
        assert_eq!(tree.children[0].counters.comparisons, 40);
        assert_eq!(tree.children[0].children[0].counters.comparisons, 0);
    }

    #[test]
    fn without_timing_zeroes_only_timing_fields() {
        let tree = sample_tree();
        let stripped = tree.without_timing();
        assert_eq!(stripped.total_ns, 0);
        assert_eq!(stripped.self_ns, 0);
        assert_eq!(stripped.name, tree.name);
        assert_eq!(stripped.children[0].counters, tree.children[0].counters);
        assert_eq!(stripped.span_count(), tree.span_count());
        // Idempotent: stripping twice equals stripping once.
        assert_eq!(stripped.without_timing(), stripped);
    }

    #[test]
    fn render_text_without_timing_is_content_only() {
        let tree = sample_tree();
        let rendered = tree.render_text(false);
        assert!(rendered.contains("filter v>=10"));
        assert!(rendered.contains("scan orders"));
        assert!(!rendered.contains("ns"));
        // The content rendering is a pure function of the stripped tree.
        assert_eq!(rendered, tree.without_timing().render_text(false));
        let timed = tree.render_text(true);
        assert!(timed.contains("total="));
    }

    #[test]
    fn synthetic_spans_attach_first() {
        let mut rec = SpanRecorder::new("query", OpCounters::default());
        rec.enter("scan", "t", OpCounters::default());
        rec.exit(vec![], 4, 1, OpCounters::default());
        rec.attach_first(synthetic_span("queue_wait", 1234));
        let tree = rec.finish(vec![4], 4, 1, OpCounters::default());
        assert_eq!(tree.children[0].name, "queue_wait");
        assert_eq!(tree.children[0].total_ns, 1234);
        assert_eq!(tree.children[1].name, "scan");
        assert!(tree.timing_is_consistent());
    }

    #[test]
    fn appended_synthetic_spans_extend_the_parent() {
        let mut tree = sample_tree();
        let (total, own) = (tree.total_ns, tree.self_ns);
        tree.append_synthetic("trace_audit", 500);
        assert_eq!(tree.children.last().unwrap().name, "trace_audit");
        assert_eq!((tree.total_ns, tree.self_ns), (total + 500, own));
        assert!(tree.timing_is_consistent());
    }

    #[test]
    fn chrome_trace_layout_is_deterministic() {
        let tree = sample_tree();
        let a = chrome_trace_json(&tree);
        let b = chrome_trace_json(&tree);
        assert_eq!(a, b);
        assert!(a.starts_with('['));
        assert!(a.trim_end().ends_with(']'));
        // One event per span, nesting encoded as tid = depth.
        assert_eq!(a.matches("\"ph\":\"X\"").count(), tree.span_count());
        assert!(a.contains("\"tid\":0"));
        assert!(a.contains("\"tid\":2"));
        assert!(a.contains("\"name\":\"filter\""));
    }

    #[test]
    #[should_panic(expected = "unbalanced enter/exit")]
    fn unbalanced_finish_panics() {
        let mut rec = SpanRecorder::new("query", OpCounters::default());
        rec.enter("scan", "t", OpCounters::default());
        let _ = rec.finish(vec![], 0, 0, OpCounters::default());
    }
}
