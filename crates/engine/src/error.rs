//! Engine-level error types.

use std::fmt;

use obliv_join::SchemaError;
use obliv_operators::WideError;

/// Everything that can go wrong between receiving a query and executing it.
///
/// Execution itself cannot fail — a resolved plan runs to completion on any
/// input — so almost every variant here is a submission-time error: a bad
/// query string, a reference the catalog cannot satisfy, or a plan that
/// fails schema validation.  The one exception is
/// [`DeadlineExceeded`](EngineError::DeadlineExceeded), raised when a
/// request's caller-chosen time budget runs out before (or while) its
/// batch executes.  All checks run against *public* inputs — names,
/// schemas, sizes, and the client's own deadline — so erroring early
/// leaks nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A plan referenced a table name the catalog does not contain.
    UnknownTable {
        /// The name that failed to resolve.
        name: String,
    },
    /// A table registration used an invalid name (empty, or containing
    /// whitespace or the `|` stage separator).
    InvalidTableName {
        /// The rejected name.
        name: String,
    },
    /// The text frontend could not parse a query string.
    Parse {
        /// The offending query text.
        query: String,
        /// What went wrong, with enough context to fix the query.
        message: String,
    },
    /// A plan failed schema validation (unknown column, type mismatch,
    /// non-aggregatable column, carry overflow, …).
    Wide(WideError),
    /// The request's deadline expired before its result was produced.
    /// Raised at batch admission (the queue wait alone exhausted the
    /// budget) or at job start; an expired request aborts its batch
    /// before any result is finalised, so no partial accounting escapes.
    /// The deadline is the client's own public parameter — timing out
    /// reveals scheduling, never table contents.
    DeadlineExceeded {
        /// The expired request's label.
        label: String,
    },
    /// A sharded coordinator lost one shard's execution (worker panic or
    /// coordinator fault) while scattering a decomposed plan.  Sibling
    /// shards' engines are unaffected and the coordinator remains usable;
    /// the failed batch finalises nothing.  The shard index and message
    /// describe scheduling, never table contents.
    ShardFailed {
        /// Index of the failed shard (`usize::MAX` when the coordinator
        /// itself failed before scattering).
        shard: usize,
        /// The contained panic payload or fault description.
        message: String,
    },
    /// A column reference matched a column in both join inputs, so the
    /// planner cannot tell which side to read it from.  Disambiguate with
    /// a `left_` / `right_` prefix (the join's own output naming).
    AmbiguousColumn {
        /// The ambiguous column name.
        name: String,
        /// The left input's columns.
        left: Vec<String>,
        /// The right input's columns.
        right: Vec<String>,
    },
}

impl From<WideError> for EngineError {
    fn from(e: WideError) -> Self {
        EngineError::Wide(e)
    }
}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Wide(WideError::Schema(e))
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable { name } => {
                write!(f, "unknown table `{name}` (not registered in the catalog)")
            }
            EngineError::InvalidTableName { name } => {
                write!(f, "invalid table name `{name}`")
            }
            EngineError::Parse { query, message } => {
                write!(f, "cannot parse query `{query}`: {message}")
            }
            EngineError::Wide(e) => write!(f, "{e}"),
            EngineError::DeadlineExceeded { label } => {
                write!(f, "query `{label}` exceeded its deadline before completing")
            }
            EngineError::ShardFailed { shard, message } => {
                if *shard == usize::MAX {
                    write!(f, "shard coordinator failed: {message}")
                } else {
                    write!(f, "shard {shard} failed: {message}")
                }
            }
            EngineError::AmbiguousColumn { name, left, right } => write!(
                f,
                "column `{name}` exists on both sides of the join (left: {}; right: {}); \
                 disambiguate with `left_{name}` / `right_{name}`",
                left.join(", "),
                right.join(", ")
            ),
        }
    }
}

impl std::error::Error for EngineError {}
