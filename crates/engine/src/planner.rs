//! The planner: type-checking of the unified [`Plan`] IR.
//!
//! Resolution walks the plan tree once, against one catalog snapshot, and
//! produces a self-contained [`ResolvedPlan`] — an execution tree over the
//! wide operators, the engine's one backend (table contents are `Arc`
//! clones).  Two things happen on the way:
//!
//! 1. **Type-checking** — every column reference, constant, key pair and
//!    aggregate is validated against the (public) schemas, via the same
//!    validation entry points the wide operators enforce at execution
//!    time.  A resolved plan therefore cannot fail mid-execution.
//! 2. **Carry selection** — each join carries exactly the payload columns
//!    the plan above it references (everything, for a bare join; the
//!    listed columns, under a `Project`).  The carry sets — and the
//!    resulting kernel carry width — are a pure function of
//!    `(plan, catalog schemas)`, both public.
//!
//! Plans over the degenerate `{key, value}` schema (the legacy text forms
//! compile to those) are not special: they take the same path at a carry
//! width of one word.

use std::sync::Arc;

use obliv_join::schema::{Schema, WideTable};
use obliv_operators::{
    self as ops, wide_anti_join, wide_distinct, wide_filter, wide_group_aggregate, wide_join,
    wide_join_aggregate, wide_project, wide_semi_join, wide_union_all, Aggregate, JoinAggregate,
    WideError, WidePredicate,
};
use obliv_telemetry::SpanRecorder;
use obliv_trace::{TraceSink, Tracer};

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::query::{Plan, Rows};

/// An executable, fully validated plan: the output schema, the kernel
/// carry width, and the execution tree.
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    schema: Arc<Schema>,
    carry_words: usize,
    exec: WideExec,
}

impl ResolvedPlan {
    /// The plan's output schema.
    pub fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Widest per-side join payload carry the plan executes with, in
    /// kernel words (`0` when the plan has no join).
    pub fn carry_words(&self) -> usize {
        self.carry_words
    }

    /// Execute the resolved plan obliviously, tracing every public-memory
    /// access through `tracer`.
    pub fn execute<S: TraceSink>(&self, tracer: &Tracer<S>) -> Rows {
        let mut scratch = SpanRecorder::new("query", tracer.counters());
        self.execute_traced(tracer, &mut scratch)
    }

    /// [`execute`](ResolvedPlan::execute), recording one span per plan
    /// operator into `recorder` (nested under the recorder's currently
    /// open span; the caller owns the root and closes it).  Span recording
    /// never touches the tracer, so the access trace and its digest are
    /// bit-identical to an untraced run — and every recorded field is a
    /// public parameter (operator names, plan shape, revealed sizes, op
    /// counters), so the span tree obeys the same content-independence
    /// contract as the Content metrics.
    pub fn execute_traced<S: TraceSink>(
        &self,
        tracer: &Tracer<S>,
        recorder: &mut SpanRecorder,
    ) -> Rows {
        Rows::from_wide(
            self.exec
                .execute(tracer, recorder)
                .expect("resolution validated the plan; execution cannot fail"),
        )
    }
}

/// The wide-operator execution tree (resolution already validated it).
#[derive(Debug, Clone)]
enum WideExec {
    /// A catalog table (the name is kept for span labelling only).
    Scan {
        name: String,
        table: WideTable,
    },
    Filter {
        input: Box<WideExec>,
        predicate: WidePredicate,
    },
    Project {
        input: Box<WideExec>,
        columns: Vec<String>,
    },
    Distinct {
        input: Box<WideExec>,
    },
    UnionAll {
        left: Box<WideExec>,
        right: Box<WideExec>,
    },
    Join {
        left: Box<WideExec>,
        right: Box<WideExec>,
        left_key: String,
        right_key: String,
        carry_left: Vec<String>,
        carry_right: Vec<String>,
    },
    SemiJoin {
        left: Box<WideExec>,
        right: Box<WideExec>,
        left_key: String,
        right_key: String,
        keep_matching: bool,
    },
    GroupAggregate {
        input: Box<WideExec>,
        aggregate: Aggregate,
        column: Option<String>,
        by: String,
    },
    JoinAggregate {
        left: Box<WideExec>,
        right: Box<WideExec>,
        left_key: String,
        right_key: String,
        left_value: Option<String>,
        right_value: Option<String>,
        aggregate: JoinAggregate,
    },
}

impl WideExec {
    /// The span name and public detail string of this node (operator
    /// names and plan shape are public parameters).
    fn span_label(&self) -> (&'static str, String) {
        match self {
            WideExec::Scan { name, .. } => ("scan", name.clone()),
            WideExec::Filter { predicate, .. } => ("filter", format!("{predicate:?}")),
            WideExec::Project { columns, .. } => ("project", columns.join(",")),
            WideExec::Distinct { .. } => ("distinct", String::new()),
            WideExec::UnionAll { .. } => ("union_all", String::new()),
            WideExec::Join {
                left_key,
                right_key,
                ..
            } => ("join", format!("{left_key}={right_key}")),
            WideExec::SemiJoin {
                left_key,
                right_key,
                keep_matching,
                ..
            } => (
                if *keep_matching {
                    "semi_join"
                } else {
                    "anti_join"
                },
                format!("{left_key}={right_key}"),
            ),
            WideExec::GroupAggregate { aggregate, by, .. } => {
                ("group_aggregate", format!("{aggregate:?} by {by}"))
            }
            WideExec::JoinAggregate {
                aggregate,
                left_key,
                right_key,
                ..
            } => (
                "join_aggregate",
                format!("{aggregate:?} on {left_key}={right_key}"),
            ),
        }
    }

    fn execute<S: TraceSink>(
        &self,
        tracer: &Tracer<S>,
        recorder: &mut SpanRecorder,
    ) -> Result<WideTable, WideError> {
        let (name, detail) = self.span_label();
        recorder.enter(name, detail, tracer.counters());
        let mut input_rows: Vec<u64> = Vec::new();
        // Execute the children (each recording its own nested span), then
        // the operator itself; the child sub-walks' counter deltas land in
        // the children, leaving this span's `self` share.
        let result = self.run(tracer, recorder, &mut input_rows);
        match &result {
            Ok(out) => recorder.exit(
                input_rows,
                out.len() as u64,
                out.schema().row_width() as u64,
                tracer.counters(),
            ),
            // Unreachable after resolution; close the span consistently
            // anyway so the recorder stays balanced.
            Err(_) => recorder.exit(input_rows, 0, 0, tracer.counters()),
        }
        result
    }

    /// The operator body of [`execute`](WideExec::execute): runs the
    /// children through the recorder, pushes their revealed sizes into
    /// `input_rows`, and returns this node's output.
    fn run<S: TraceSink>(
        &self,
        tracer: &Tracer<S>,
        recorder: &mut SpanRecorder,
        input_rows: &mut Vec<u64>,
    ) -> Result<WideTable, WideError> {
        let child = |exec: &WideExec,
                     recorder: &mut SpanRecorder,
                     input_rows: &mut Vec<u64>|
         -> Result<WideTable, WideError> {
            let out = exec.execute(tracer, recorder)?;
            input_rows.push(out.len() as u64);
            Ok(out)
        };
        Ok(match self {
            WideExec::Scan { table, .. } => table.clone(),
            WideExec::Filter { input, predicate } => {
                wide_filter(tracer, &child(input, recorder, input_rows)?, predicate)?
            }
            WideExec::Project { input, columns } => {
                wide_project(tracer, &child(input, recorder, input_rows)?, columns)?
            }
            WideExec::Distinct { input } => {
                wide_distinct(tracer, &child(input, recorder, input_rows)?)?
            }
            WideExec::UnionAll { left, right } => {
                let l = child(left, recorder, input_rows)?;
                let r = child(right, recorder, input_rows)?;
                wide_union_all(tracer, &l, &r)?
            }
            WideExec::Join {
                left,
                right,
                left_key,
                right_key,
                carry_left,
                carry_right,
            } => {
                let l = child(left, recorder, input_rows)?;
                let r = child(right, recorder, input_rows)?;
                wide_join(tracer, &l, &r, left_key, right_key, carry_left, carry_right)?
            }
            WideExec::SemiJoin {
                left,
                right,
                left_key,
                right_key,
                keep_matching,
            } => {
                let l = child(left, recorder, input_rows)?;
                let r = child(right, recorder, input_rows)?;
                if *keep_matching {
                    wide_semi_join(tracer, &l, &r, left_key, right_key)?
                } else {
                    wide_anti_join(tracer, &l, &r, left_key, right_key)?
                }
            }
            WideExec::GroupAggregate {
                input,
                aggregate,
                column,
                by,
            } => wide_group_aggregate(
                tracer,
                &child(input, recorder, input_rows)?,
                by,
                *aggregate,
                column.as_deref(),
            )?,
            WideExec::JoinAggregate {
                left,
                right,
                left_key,
                right_key,
                left_value,
                right_value,
                aggregate,
            } => {
                let l = child(left, recorder, input_rows)?;
                let r = child(right, recorder, input_rows)?;
                wide_join_aggregate(
                    tracer,
                    &l,
                    &r,
                    left_key,
                    right_key,
                    left_value.as_deref(),
                    right_value.as_deref(),
                    *aggregate,
                )?
            }
        })
    }
}

/// What the plan above a node needs from its output: everything, or a
/// specific column set (the driver of join carry selection).
#[derive(Debug, Clone)]
enum Wanted {
    All,
    Cols(Vec<String>),
}

impl Wanted {
    fn cols<I: IntoIterator<Item = String>>(names: I) -> Wanted {
        let mut cols: Vec<String> = Vec::new();
        for name in names {
            if !cols.contains(&name) {
                cols.push(name);
            }
        }
        Wanted::Cols(cols)
    }

    fn plus(&self, extra: Option<&str>) -> Wanted {
        match self {
            Wanted::All => Wanted::All,
            Wanted::Cols(cols) => {
                let mut cols = cols.clone();
                if let Some(name) = extra {
                    if !cols.iter().any(|c| c == name) {
                        cols.push(name.to_string());
                    }
                }
                Wanted::Cols(cols)
            }
        }
    }
}

/// One checked subtree: its output schema, natural group key, execution
/// tree and the widest join carry.
struct Checked {
    schema: Schema,
    natural_key: Option<String>,
    exec: WideExec,
    carry_words: usize,
}

/// Resolve a plan against the catalog (the body of [`Plan::resolve`]).
pub(crate) fn resolve(plan: &Plan, catalog: &Catalog) -> Result<ResolvedPlan, EngineError> {
    let checked = check(plan, catalog, &Wanted::All)?;
    Ok(ResolvedPlan {
        schema: Arc::new(checked.schema),
        carry_words: checked.carry_words,
        exec: checked.exec,
    })
}

/// Assign each wanted column to the join side that owns it.
///
/// Resolution order per name: the output key column (always present,
/// never carried), then a bare match on exactly one side, then a
/// `left_` / `right_` prefix match on a name both sides share (the join's
/// own clash naming).  A bare match on both sides is a typed
/// [`EngineError::AmbiguousColumn`]; no match is a typed unknown-column
/// error listing the join's actual output namespace.
fn select_carries(
    wanted: &Wanted,
    left: &Schema,
    right: &Schema,
    left_key: &str,
    right_key: &str,
) -> Result<(Vec<String>, Vec<String>), EngineError> {
    let mut carry_left: Vec<String> = Vec::new();
    let mut carry_right: Vec<String> = Vec::new();
    let push = |side: &mut Vec<String>, name: &str| {
        if !side.iter().any(|c| c == name) {
            side.push(name.to_string());
        }
    };
    match wanted {
        Wanted::All => {
            for col in left.columns() {
                if col.name() != left_key {
                    push(&mut carry_left, col.name());
                }
            }
            for col in right.columns() {
                if col.name() != right_key {
                    push(&mut carry_right, col.name());
                }
            }
        }
        Wanted::Cols(names) => {
            for name in names {
                if name == left_key {
                    continue; // the key column is always in the output
                }
                let in_left = left.column(name).is_ok();
                let in_right = right.column(name).is_ok();
                match (in_left, in_right) {
                    (true, true) => {
                        return Err(EngineError::AmbiguousColumn {
                            name: name.clone(),
                            left: left.column_names().iter().map(|s| s.to_string()).collect(),
                            right: right.column_names().iter().map(|s| s.to_string()).collect(),
                        })
                    }
                    (true, false) => push(&mut carry_left, name),
                    (false, true) => push(&mut carry_right, name),
                    (false, false) => {
                        // `left_x` / `right_x` address a clashing column by
                        // the join's own output naming.
                        let shared =
                            |bare: &str| left.column(bare).is_ok() && right.column(bare).is_ok();
                        if let Some(bare) = name.strip_prefix("left_").filter(|b| shared(b)) {
                            push(&mut carry_left, bare);
                        } else if let Some(bare) = name.strip_prefix("right_").filter(|b| shared(b))
                        {
                            push(&mut carry_right, bare);
                        } else {
                            return Err(join_unknown_column(
                                name, left, right, left_key, right_key,
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok((carry_left, carry_right))
}

/// A typed unknown-column error listing the join's output namespace.
fn join_unknown_column(
    name: &str,
    left: &Schema,
    right: &Schema,
    left_key: &str,
    right_key: &str,
) -> EngineError {
    let mut available = vec![left_key.to_string()];
    for col in left.columns() {
        if col.name() != left_key {
            available.push(ops::join_output_name("left_", col.name(), left, right));
        }
    }
    for col in right.columns() {
        if col.name() != right_key {
            available.push(ops::join_output_name("right_", col.name(), left, right));
        }
    }
    available.dedup();
    EngineError::Wide(WideError::Schema(
        obliv_join::schema::SchemaError::UnknownColumn {
            name: name.to_string(),
            available,
        },
    ))
}

/// The recursive type-check pass.
fn check(plan: &Plan, catalog: &Catalog, wanted: &Wanted) -> Result<Checked, EngineError> {
    match plan {
        Plan::Scan(name) => {
            let table = catalog.resolve(name)?;
            ops::validate_row_width(table.schema())?;
            Ok(Checked {
                schema: table.schema().clone(),
                natural_key: None,
                exec: WideExec::Scan {
                    name: name.clone(),
                    table: table.clone(),
                },
                carry_words: 0,
            })
        }

        Plan::Filter { input, predicate } => {
            let child = check(input, catalog, &wanted.plus(predicate.column()))?;
            predicate.validate(&child.schema)?;
            Ok(Checked {
                exec: WideExec::Filter {
                    input: Box::new(child.exec),
                    predicate: predicate.clone(),
                },
                ..child
            })
        }

        Plan::Project { input, columns } => {
            let child = check(input, catalog, &Wanted::cols(columns.iter().cloned()))?;
            let schema = ops::project_output_schema(&child.schema, columns)?;
            if schema == child.schema {
                // Identity projection: nothing to execute.
                return Ok(Checked { schema, ..child });
            }
            let natural_key = child
                .natural_key
                .filter(|key| columns.iter().any(|c| c == key));
            Ok(Checked {
                schema,
                natural_key,
                exec: WideExec::Project {
                    input: Box::new(child.exec),
                    columns: columns.clone(),
                },
                carry_words: child.carry_words,
            })
        }

        Plan::Distinct { input } => {
            // Distinct deduplicates whole rows, so it is a pruning
            // barrier: everything below must keep its full width.
            let child = check(input, catalog, &Wanted::All)?;
            Ok(Checked {
                exec: WideExec::Distinct {
                    input: Box::new(child.exec),
                },
                ..child
            })
        }

        Plan::UnionAll { left, right } => {
            // Union is positional: the two sides may use different column
            // names, so a wanted set (spelled in the *output* = left-side
            // namespace) cannot be forwarded into the right child.  Both
            // sides keep their full width; a Project above the union
            // prunes the result instead.
            let l = check(left, catalog, &Wanted::All)?;
            let r = check(right, catalog, &Wanted::All)?;
            let schema = ops::union_output_schema(&l.schema, &r.schema)?;
            let natural_key = match (&l.natural_key, &r.natural_key) {
                (Some(a), Some(b)) if a == b => Some(a.clone()),
                _ => None,
            };
            Ok(Checked {
                schema,
                natural_key,
                exec: WideExec::UnionAll {
                    left: Box::new(l.exec),
                    right: Box::new(r.exec),
                },
                carry_words: l.carry_words.max(r.carry_words),
            })
        }

        Plan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = check(left, catalog, &Wanted::All)?;
            let r = check(right, catalog, &Wanted::All)?;
            let (carry_left, carry_right) =
                select_carries(wanted, &l.schema, &r.schema, left_key, right_key)?;
            let schema = ops::join_output_schema(
                &l.schema,
                &r.schema,
                left_key,
                right_key,
                &carry_left,
                &carry_right,
            )?;
            let join_words = carry_left.len().max(carry_right.len()).max(1);
            Ok(Checked {
                schema,
                natural_key: Some(left_key.clone()),
                exec: WideExec::Join {
                    left: Box::new(l.exec),
                    right: Box::new(r.exec),
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                    carry_left,
                    carry_right,
                },
                carry_words: l.carry_words.max(r.carry_words).max(join_words),
            })
        }

        Plan::SemiJoin {
            left,
            right,
            left_key,
            right_key,
        }
        | Plan::AntiJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = check(left, catalog, &wanted.plus(Some(left_key)))?;
            let r = check(right, catalog, &Wanted::cols([right_key.clone()]))?;
            ops::validate_membership_keys(&l.schema, &r.schema, left_key, right_key)?;
            Ok(Checked {
                exec: WideExec::SemiJoin {
                    left: Box::new(l.exec),
                    right: Box::new(r.exec),
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                    keep_matching: matches!(plan, Plan::SemiJoin { .. }),
                },
                schema: l.schema,
                natural_key: l.natural_key,
                carry_words: l.carry_words.max(r.carry_words),
            })
        }

        Plan::GroupAggregate {
            input,
            aggregate,
            column,
            by,
        } => {
            let child = check(
                input,
                catalog,
                &Wanted::cols(column.iter().chain(by.iter()).cloned()),
            )?;
            let key = by
                .clone()
                .or_else(|| child.natural_key.clone())
                .ok_or(EngineError::Wide(WideError::MissingGroupColumn))?;
            let schema = ops::group_aggregate_output_schema(
                &child.schema,
                &key,
                *aggregate,
                column.as_deref(),
            )?;
            let natural_key = Some(schema.columns()[0].name().to_string());
            Ok(Checked {
                schema,
                natural_key,
                exec: WideExec::GroupAggregate {
                    input: Box::new(child.exec),
                    aggregate: *aggregate,
                    column: column.clone(),
                    by: key,
                },
                carry_words: child.carry_words,
            })
        }

        Plan::JoinAggregate {
            left,
            right,
            left_key,
            right_key,
            left_value,
            right_value,
            aggregate,
        } => {
            let l = check(
                left,
                catalog,
                &Wanted::cols(std::iter::once(left_key.clone()).chain(left_value.clone())),
            )?;
            let r = check(
                right,
                catalog,
                &Wanted::cols(std::iter::once(right_key.clone()).chain(right_value.clone())),
            )?;
            let schema = ops::join_aggregate_output_schema(
                &l.schema,
                &r.schema,
                left_key,
                right_key,
                left_value.as_deref(),
                right_value.as_deref(),
                *aggregate,
            )?;
            Ok(Checked {
                schema,
                natural_key: Some(left_key.clone()),
                exec: WideExec::JoinAggregate {
                    left: Box::new(l.exec),
                    right: Box::new(r.exec),
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                    left_value: left_value.clone(),
                    right_value: right_value.clone(),
                    aggregate: *aggregate,
                },
                carry_words: l.carry_words.max(r.carry_words).max(1),
            })
        }
    }
}
