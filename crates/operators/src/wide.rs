//! Oblivious operators over typed wide rows.
//!
//! These operators lift the pair-shaped kernel to multi-column tables
//! ([`WideTable`]): callers select key and payload columns *by name*, and the
//! operators stage the fixed-width encoded rows through traced public memory
//! so that the observable trace is a function of the public parameters
//! `(row count, schema row width, output size)` only — never of row
//! contents.
//!
//! Execution model:
//!
//! * [`wide_filter`], [`wide_distinct`] and the semi/anti joins keep whole
//!   rows: rows are packed into fixed `[u64; W]` word records
//!   (`W = ceil(row_width / 8)`, a public schema property), marked
//!   branch-free, and obliviously compacted (mark, then compact).
//! * [`wide_project`] and [`wide_union_all`] are fixed copy passes over
//!   staged rows; they reveal nothing beyond the (public) sizes and widths.
//! * [`wide_join`] projects the named key column and **any number of
//!   carried payload columns per side (up to [`MAX_CARRY_WORDS`])** into
//!   the generic `(key word, [u64; W])` kernel record using the
//!   order-preserving codes of [`obliv_primitives::encode`], runs the
//!   paper's join kernel at that carry width, and decodes the words back
//!   into typed columns on the way out.  [`wide_group_aggregate`] and
//!   [`wide_join_aggregate`] do the same through the pair-shaped aggregate
//!   kernels.
//!
//! Composition lives one layer up: the engine's unified plan IR
//! (`obliv-engine`) type-checks operator trees against catalog schemas and
//! executes them through these functions.

use std::fmt;
use std::sync::Arc;

use obliv_join::schema::{ColumnType, Schema, SchemaError, Value, WideTable};
use obliv_join::{oblivious_join_payloads, Table};
use obliv_primitives::sort::bitonic;
use obliv_primitives::{oblivious_compact, Choice, CtSelect, Routable};
use obliv_trace::{TraceSink, Tracer, TrackedBuffer};

use crate::aggregate::{oblivious_group_aggregate, Aggregate};
use crate::join_aggregate::{oblivious_join_aggregate, JoinAggregate};

/// Maximum row width the wide operators accept, in kernel words
/// (`16 words = 128 bytes`).  Wider schemas are rejected with
/// [`WideError::RowTooWide`]; store a row identifier and late-materialise
/// instead.
pub const MAX_ROW_WORDS: usize = 16;

/// Maximum payload columns one join side can carry through the kernel
/// (each carried column travels as one `u64` word of the generic
/// `[u64; W]` kernel record).  Wider carry sets are rejected with
/// [`WideError::CarryTooWide`]; project earlier or split the query.
pub const MAX_CARRY_WORDS: usize = 8;

/// Everything that can go wrong validating a wide operator or pipeline
/// against its input schemas.  All variants are submission-time errors
/// raised against public schema metadata, never during oblivious execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WideError {
    /// A column reference or constant failed schema validation.
    Schema(SchemaError),
    /// The schema's rows exceed [`MAX_ROW_WORDS`] kernel words.
    RowTooWide {
        /// The schema's row width in bytes.
        width_bytes: usize,
        /// The row width in kernel words.
        words: usize,
    },
    /// The two join key columns have different types.
    JoinKeyTypeMismatch {
        /// Left key column name.
        left: String,
        /// Left key column type.
        left_ty: ColumnType,
        /// Right key column name.
        right: String,
        /// Right key column type.
        right_ty: ColumnType,
    },
    /// The aggregate cannot be computed over a column of this type.
    NotAggregatable {
        /// The aggregated column.
        column: String,
        /// Its type.
        ty: ColumnType,
        /// The requested aggregate.
        aggregate: Aggregate,
    },
    /// `sum`, `min` and `max` need a column argument.
    MissingAggregateColumn {
        /// The aggregate that was requested without a column.
        aggregate: Aggregate,
    },
    /// A wide aggregation needs a group column: either the plan's natural
    /// key (the join key, when downstream of a wide join) or an explicit
    /// `BY column`.
    MissingGroupColumn,
    /// A join side was asked to carry more payload columns than the kernel
    /// record holds ([`MAX_CARRY_WORDS`]).
    CarryTooWide {
        /// Which side overflowed (`"left"` or `"right"`).
        side: String,
        /// The columns that were requested from it.
        columns: Vec<String>,
    },
    /// The two inputs of a bag union have positionally different column
    /// types (union is positional, like SQL `UNION ALL`; names may differ).
    UnionTypeMismatch {
        /// Left input's column types.
        left: Vec<ColumnType>,
        /// Right input's column types.
        right: Vec<ColumnType>,
    },
    /// A join-aggregate reads a value column on this side but none was
    /// given.
    MissingJoinAggregateColumn {
        /// The requested join-aggregate.
        aggregate: JoinAggregate,
        /// Which side is missing its value column (`"left"` or `"right"`).
        side: String,
    },
}

impl From<SchemaError> for WideError {
    fn from(e: SchemaError) -> Self {
        WideError::Schema(e)
    }
}

impl fmt::Display for WideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WideError::Schema(e) => write!(f, "{e}"),
            WideError::RowTooWide { width_bytes, words } => write!(
                f,
                "rows of {width_bytes} bytes ({words} words) exceed the kernel limit of \
                 {MAX_ROW_WORDS} words; store a row id and late-materialise wide payloads"
            ),
            WideError::JoinKeyTypeMismatch {
                left,
                left_ty,
                right,
                right_ty,
            } => write!(
                f,
                "join key type mismatch: `{left}` is {left_ty} but `{right}` is {right_ty}"
            ),
            WideError::NotAggregatable {
                column,
                ty,
                aggregate,
            } => write!(
                f,
                "cannot aggregate {aggregate:?} over column `{column}` of type {ty} \
                 (sum needs u64; min/max need a key-word type; count takes no column)"
            ),
            WideError::MissingAggregateColumn { aggregate } => {
                write!(f, "{aggregate:?} needs a column argument, e.g. sum(qty)")
            }
            WideError::MissingGroupColumn => write!(
                f,
                "this aggregation has no group column: aggregate downstream of a join \
                 (grouping by the join key) or name one explicitly with `BY column`"
            ),
            WideError::CarryTooWide { side, columns } => write!(
                f,
                "the {side} join side would carry {} payload columns ({}), but the kernel \
                 record holds at most {MAX_CARRY_WORDS}; PROJECT fewer columns or split the query",
                columns.len(),
                columns.join(", ")
            ),
            WideError::UnionTypeMismatch { left, right } => {
                let tys = |v: &[ColumnType]| {
                    v.iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                write!(
                    f,
                    "UNION ALL inputs have different column types: left is ({}), right is ({})",
                    tys(left),
                    tys(right)
                )
            }
            WideError::MissingJoinAggregateColumn { aggregate, side } => write!(
                f,
                "{aggregate:?} reads the {side} side's values; name a u64 value column there"
            ),
        }
    }
}

impl std::error::Error for WideError {}

/// Comparison operator of a wide filter predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideCmp {
    /// Keep rows where the column is `>=` the constant (column order).
    AtLeast,
    /// Keep rows where the column is `<` the constant.
    Below,
    /// Keep rows where the column equals the constant.
    Equals,
}

/// A typed selection predicate over one named column of a wide table.
///
/// Comparisons happen in the column type's natural order (signed order for
/// `i64`, lexicographic for fixed-width `bytes[≤8]`), implemented by
/// comparing order-preserving kernel words.  `True` keeps every row (the
/// filter still does its full oblivious pass); `InRange` keeps rows whose
/// column lies in an inclusive range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WidePredicate {
    /// Keep every row (a full filter pass that drops nothing).
    True,
    /// Compare one column against a constant.
    Compare {
        /// The filtered column.
        column: String,
        /// The comparison.
        cmp: WideCmp,
        /// The constant compared against (must match the column's type;
        /// non-negative integer constants coerce to `i64` columns).
        constant: Value,
    },
    /// Keep rows where `lo <= column <= hi` (inclusive, column order).
    InRange {
        /// The filtered column.
        column: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
}

/// A compiled predicate test over the extracted column word.
#[derive(Debug, Clone, Copy)]
enum Matcher {
    True,
    Cmp(WideCmp, u64),
    Range(u64, u64),
}

impl Matcher {
    /// Branch-free evaluation on a column word.
    fn matches(self, word: u64) -> Choice {
        match self {
            Matcher::True => Choice::TRUE,
            Matcher::Cmp(WideCmp::AtLeast, c) => Choice::ge_u64(word, c),
            Matcher::Cmp(WideCmp::Below, c) => Choice::ge_u64(word, c).not(),
            Matcher::Cmp(WideCmp::Equals, c) => Choice::eq_u64(word, c),
            Matcher::Range(lo, hi) => Choice::ge_u64(word, lo).and(Choice::ge_u64(hi, word)),
        }
    }
}

impl WidePredicate {
    /// `column >= constant`.
    pub fn at_least(column: impl Into<String>, constant: Value) -> Self {
        WidePredicate::Compare {
            column: column.into(),
            cmp: WideCmp::AtLeast,
            constant,
        }
    }

    /// `column < constant`.
    pub fn below(column: impl Into<String>, constant: Value) -> Self {
        WidePredicate::Compare {
            column: column.into(),
            cmp: WideCmp::Below,
            constant,
        }
    }

    /// `column == constant`.
    pub fn equals(column: impl Into<String>, constant: Value) -> Self {
        WidePredicate::Compare {
            column: column.into(),
            cmp: WideCmp::Equals,
            constant,
        }
    }

    /// `lo <= column <= hi` (inclusive, in the column type's order).
    pub fn in_range(column: impl Into<String>, lo: Value, hi: Value) -> Self {
        WidePredicate::InRange {
            column: column.into(),
            lo,
            hi,
        }
    }

    /// The filtered column, if the predicate reads one.
    pub fn column(&self) -> Option<&str> {
        match self {
            WidePredicate::True => None,
            WidePredicate::Compare { column, .. } | WidePredicate::InRange { column, .. } => {
                Some(column)
            }
        }
    }

    /// Resolve the predicate against a schema: the column's index (if any)
    /// and the compiled word test.
    fn compile(&self, schema: &Schema) -> Result<(Option<usize>, Matcher), SchemaError> {
        Ok(match self {
            WidePredicate::True => (None, Matcher::True),
            WidePredicate::Compare {
                column,
                cmp,
                constant,
            } => {
                let (idx, _) = schema.key_column(column)?;
                let word = schema.value_to_word(idx, constant)?;
                (Some(idx), Matcher::Cmp(*cmp, word))
            }
            WidePredicate::InRange { column, lo, hi } => {
                let (idx, _) = schema.key_column(column)?;
                let lo = schema.value_to_word(idx, lo)?;
                let hi = schema.value_to_word(idx, hi)?;
                (Some(idx), Matcher::Range(lo, hi))
            }
        })
    }

    /// Check the predicate against a schema without executing anything.
    pub fn validate(&self, schema: &Schema) -> Result<(), WideError> {
        self.compile(schema)?;
        Ok(())
    }
}

/// A whole encoded row packed into `W` kernel words, plus the routing
/// metadata oblivious compaction needs.  `W` is a public schema property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WideRec<const W: usize> {
    words: [u64; W],
    /// Scratch word the filter compares / the set operators key on
    /// (extracted at load time).
    cmp: u64,
    /// Originating-table tag for the set operators (1 = probed, 2 =
    /// witness); unused (0) by filter and distinct.
    tag: u64,
    dest: u64,
    live: u64,
}

impl<const W: usize> Default for WideRec<W> {
    fn default() -> Self {
        WideRec {
            words: [0; W],
            cmp: 0,
            tag: 0,
            dest: 0,
            live: 0,
        }
    }
}

impl<const W: usize> CtSelect for WideRec<W> {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        WideRec {
            words: <[u64; W]>::ct_select(c, a.words, b.words),
            cmp: u64::ct_select(c, a.cmp, b.cmp),
            tag: u64::ct_select(c, a.tag, b.tag),
            dest: u64::ct_select(c, a.dest, b.dest),
            live: u64::ct_select(c, a.live, b.live),
        }
    }
}

impl<const W: usize> Routable for WideRec<W> {
    fn dest(&self) -> u64 {
        self.dest
    }

    fn set_dest(&mut self, dest: u64) {
        self.dest = dest;
    }

    fn null() -> Self {
        WideRec::default()
    }

    fn is_null(&self) -> bool {
        self.live == 0
    }

    fn set_null(&mut self) {
        self.live = 0;
        self.dest = 0;
    }
}

/// Check a schema fits the kernel word limit, returning its word count.
fn row_words_checked(schema: &Schema) -> Result<usize, WideError> {
    let words = schema.row_words();
    if words > MAX_ROW_WORDS {
        return Err(WideError::RowTooWide {
            width_bytes: schema.row_width(),
            words,
        });
    }
    Ok(words)
}

/// Stage a wide table's encoded rows through traced public memory as one
/// flat word array (`n * words` cells) and return the traced buffer.
///
/// The allocation length — and therefore the trace — encodes both the row
/// count and the schema width, both public.  The load is emitted as one
/// coalesced read run; callers that need the words use the buffer's
/// untraced `as_slice` view (the read was already accounted for here)
/// rather than copying them out.
fn stage_in<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
    words: usize,
) -> TrackedBuffer<u64, S> {
    let n = table.len();
    let mut flat: Vec<u64> = Vec::with_capacity(n * words);
    for row in table.rows() {
        let start = flat.len();
        for chunk in row.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            flat.push(u64::from_le_bytes(b));
        }
        flat.resize(start + words, 0);
    }
    let staged = tracer.alloc_from(flat);
    tracer.bump_linear_steps(n as u64);
    if !staged.is_empty() {
        let _ = staged.read_run(0, staged.len());
    }
    staged
}

/// Materialise output rows through traced public memory (`n_rows * words`
/// cells, written as one coalesced run), then rebuild the client-side
/// [`WideTable`].
fn stage_out<S: TraceSink>(
    tracer: &Tracer<S>,
    schema: Arc<Schema>,
    words: usize,
    row_word_groups: &[Vec<u64>],
) -> WideTable {
    let n = row_word_groups.len();
    let mut staged = tracer.alloc::<u64>(n * words);
    tracer.bump_linear_steps(n as u64);
    if n * words > 0 {
        let out = staged.write_run(0, n * words);
        for (i, group) in row_word_groups.iter().enumerate() {
            out[i * words..(i + 1) * words].copy_from_slice(group);
        }
    }
    let flat = staged.into_vec();
    let width = schema.row_width();
    let mut data = Vec::with_capacity(n * width);
    for i in 0..n {
        let row_bytes: Vec<u8> = flat[i * words..(i + 1) * words]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(width)
            .collect();
        data.extend_from_slice(&row_bytes);
    }
    WideTable::from_encoded(schema, data)
}

/// Monomorphic filter body for one row width `W`.
fn wide_filter_w<const W: usize, S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
    col_idx: Option<usize>,
    matcher: Matcher,
) -> WideTable {
    let schema = table.schema_handle();
    let n = table.len();
    let staged = stage_in(tracer, table, W);
    let staged_words = staged.as_slice();
    let recs: Vec<WideRec<W>> = (0..n)
        .map(|i| WideRec {
            words: staged_words[i * W..(i + 1) * W]
                .try_into()
                .expect("W words per row"),
            cmp: col_idx.map_or(0, |c| schema.word_at(table.row_bytes(i), c)),
            tag: 0,
            dest: 1,
            live: 1,
        })
        .collect();
    let mut buf: TrackedBuffer<WideRec<W>, S> = tracer.alloc_from(recs);

    // Mark non-matching rows null; every slot is read and written back.
    tracer.bump_linear_steps(n as u64);
    for slot in buf.rw_run_mut(0, n) {
        let r = *slot;
        let mut dropped = r;
        dropped.set_null();
        *slot = WideRec::ct_select(matcher.matches(r.cmp), r, dropped);
    }

    // Gather the survivors; only their count is revealed.
    let compacted = oblivious_compact(buf);
    let live = compacted.live as usize;
    let groups: Vec<Vec<u64>> = compacted.table.as_slice()[..live]
        .iter()
        .map(|r| r.words.to_vec())
        .collect();
    stage_out(tracer, schema, W, &groups)
}

/// Oblivious wide selection: keep the rows whose named column matches the
/// predicate.  Reveals only the number of surviving rows (carried by the
/// output length).
pub fn wide_filter<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
    predicate: &WidePredicate,
) -> Result<WideTable, WideError> {
    let words = row_words_checked(table.schema())?;
    let (col_idx, matcher) = predicate.compile(table.schema())?;
    macro_rules! dispatch {
        ($($w:literal),*) => {
            match words {
                $( $w => Ok(wide_filter_w::<$w, S>(tracer, table, col_idx, matcher)), )*
                other => unreachable!("row_words_checked admitted width {other}"),
            }
        };
    }
    dispatch!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

/// Output column name of an aggregate (`count`, `sum_qty`, `min_price`, …).
fn aggregate_output_name(aggregate: Aggregate, column: Option<&str>) -> String {
    match (aggregate, column) {
        (Aggregate::Count, _) => "count".to_string(),
        (Aggregate::Sum, Some(c)) => format!("sum_{c}"),
        (Aggregate::Min, Some(c)) => format!("min_{c}"),
        (Aggregate::Max, Some(c)) => format!("max_{c}"),
        _ => unreachable!("validated aggregates always carry their column"),
    }
}

/// Resolve a wide aggregation against its input schema: the group column
/// index/type, the aggregated column index (if any) and the output schema.
fn aggregate_plan(
    schema: &Schema,
    key: &str,
    aggregate: Aggregate,
    column: Option<&str>,
) -> Result<(usize, ColumnType, Option<usize>, Schema), WideError> {
    let (key_idx, key_col) = schema.key_column(key)?;
    let key_ty = key_col.ty();
    let (agg_idx, out_ty) = match aggregate {
        Aggregate::Count => {
            // An optional column is checked for existence but not read.
            let idx = column
                .map(|c| schema.column(c))
                .transpose()?
                .map(|(i, _)| i);
            (idx, ColumnType::U64)
        }
        Aggregate::Sum => {
            let name = column.ok_or(WideError::MissingAggregateColumn { aggregate })?;
            let (idx, col) = schema.column(name)?;
            if col.ty() != ColumnType::U64 {
                return Err(WideError::NotAggregatable {
                    column: name.to_string(),
                    ty: col.ty(),
                    aggregate,
                });
            }
            (Some(idx), ColumnType::U64)
        }
        Aggregate::Min | Aggregate::Max => {
            let name = column.ok_or(WideError::MissingAggregateColumn { aggregate })?;
            let (idx, col) = schema.column(name)?;
            if !col.ty().is_word_encodable() {
                return Err(WideError::NotAggregatable {
                    column: name.to_string(),
                    ty: col.ty(),
                    aggregate,
                });
            }
            (Some(idx), col.ty())
        }
    };
    let out_schema = Schema::new([
        (key.to_string(), key_ty),
        (aggregate_output_name(aggregate, column), out_ty),
    ])?;
    Ok((key_idx, key_ty, agg_idx, out_schema))
}

/// Oblivious wide `SELECT key, agg(column) … GROUP BY key`.
///
/// The named group column becomes the kernel's sort key (via its
/// order-preserving word code) and the aggregated column rides along as the
/// pair value; the pair kernel's group-aggregate does the oblivious work.
/// The result has one row per distinct group key, with schema
/// `{key, count|sum_col|min_col|max_col}`.
///
/// Type rules: `sum` needs a `u64` column; `min`/`max` need any key-word
/// type (the result decodes back to the column's type); `count` takes no
/// column (one is accepted and checked for existence).
pub fn wide_group_aggregate<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
    key: &str,
    aggregate: Aggregate,
    column: Option<&str>,
) -> Result<WideTable, WideError> {
    let words = row_words_checked(table.schema())?;
    let (key_idx, key_ty, agg_idx, out_schema) =
        aggregate_plan(table.schema(), key, aggregate, column)?;
    let out_ty = out_schema.columns()[1].ty();

    // Stage the wide rows (trace models the full-width input load), then
    // project (key word, agg word) pairs into the kernel shape.
    // Extraction is fixed-offset and data-independent.
    drop(stage_in(tracer, table, words));
    let pairs: Table = (0..table.len())
        .map(|i| {
            let row = table.row_bytes(i);
            let key_word = table.schema().word_at(row, key_idx);
            let agg_word = agg_idx.map_or(0, |idx| match aggregate {
                // Sums operate on raw u64 values (identity code).
                Aggregate::Sum => match table.schema().value_at(row, idx) {
                    Value::U64(v) => v,
                    _ => unreachable!("sum validated as u64"),
                },
                _ => table.schema().word_at(row, idx),
            });
            (key_word, agg_word)
        })
        .collect();
    let result = oblivious_group_aggregate(tracer, &pairs, aggregate);

    let out_words = out_schema.row_words();
    let out_schema = Arc::new(out_schema);
    let groups: Vec<Vec<u64>> = result
        .iter()
        .map(|e| {
            let row = out_schema
                .encode_row(&[key_ty.value_from_word(e.key), out_value(out_ty, e.value)])
                .expect("output schema encodes its own rows");
            pack_words(&row, out_words)
        })
        .collect();
    Ok(stage_out(tracer, out_schema, out_words, &groups))
}

/// Decode an aggregate result word into the output column's type (`count`
/// and `sum` are plain u64; `min`/`max` decode the order-preserving code).
fn out_value(ty: ColumnType, word: u64) -> Value {
    match ty {
        ColumnType::U64 => Value::U64(word),
        other => other.value_from_word(word),
    }
}

/// Pack encoded row bytes into `words` little-endian kernel words.
fn pack_words(row: &[u8], words: usize) -> Vec<u64> {
    let mut out = vec![0u64; words];
    for (i, chunk) in row.chunks(8).enumerate() {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        out[i] = u64::from_le_bytes(b);
    }
    out
}

/// Resolve a wide join's output schema and carried-column indices.
///
/// Output columns: the (left) key column first, then the carried left
/// columns, then the carried right columns, each in the caller-given
/// order.  A carried column whose name exists in **both** input schemas is
/// disambiguated with a `left_` / `right_` prefix (the rule is a function
/// of the two input schemas alone, so output naming is stable however the
/// carry sets are chosen).
#[allow(clippy::type_complexity)]
fn join_plan(
    left: &Schema,
    right: &Schema,
    left_key: &str,
    right_key: &str,
    carry_left: &[String],
    carry_right: &[String],
) -> Result<(usize, usize, Vec<usize>, Vec<usize>, Schema), WideError> {
    let (lk_idx, lk_col) = left.key_column(left_key)?;
    let (rk_idx, rk_col) = right.key_column(right_key)?;
    if lk_col.ty() != rk_col.ty() {
        return Err(WideError::JoinKeyTypeMismatch {
            left: left_key.to_string(),
            left_ty: lk_col.ty(),
            right: right_key.to_string(),
            right_ty: rk_col.ty(),
        });
    }
    for (side, carries) in [("left", carry_left), ("right", carry_right)] {
        if carries.len() > MAX_CARRY_WORDS {
            return Err(WideError::CarryTooWide {
                side: side.to_string(),
                columns: carries.to_vec(),
            });
        }
    }
    let mut out_cols: Vec<(String, ColumnType)> = vec![(left_key.to_string(), lk_col.ty())];
    let mut cl_idxs = Vec::with_capacity(carry_left.len());
    for name in carry_left {
        let (idx, col) = left.key_column(name)?;
        cl_idxs.push(idx);
        out_cols.push((join_output_name("left_", name, left, right), col.ty()));
    }
    let mut cr_idxs = Vec::with_capacity(carry_right.len());
    for name in carry_right {
        let (idx, col) = right.key_column(name)?;
        cr_idxs.push(idx);
        out_cols.push((join_output_name("right_", name, left, right), col.ty()));
    }
    let out_schema = Schema::new(out_cols)?;
    Ok((lk_idx, rk_idx, cl_idxs, cr_idxs, out_schema))
}

/// Output name of a carried join column: prefixed (`left_` / `right_`)
/// iff the bare name exists in both input schemas.  Exposed so planners
/// can predict join output naming without executing anything.
pub fn join_output_name(prefix: &str, name: &str, left: &Schema, right: &Schema) -> String {
    if left.column(name).is_ok() && right.column(name).is_ok() {
        format!("{prefix}{name}")
    } else {
        name.to_string()
    }
}

/// Monomorphic multi-carry join body for one carry width `W`.
#[allow(clippy::too_many_arguments)]
fn wide_join_w<const W: usize, S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
    lk_idx: usize,
    rk_idx: usize,
    cl_idxs: &[usize],
    cr_idxs: &[usize],
    out_schema: Schema,
) -> WideTable {
    let key_ty = out_schema.columns()[0].ty();
    let project = |t: &WideTable, key_idx: usize, carry_idxs: &[usize]| -> Vec<(u64, [u64; W])> {
        (0..t.len())
            .map(|i| {
                let row = t.row_bytes(i);
                let mut payload = [0u64; W];
                for (slot, &idx) in payload.iter_mut().zip(carry_idxs) {
                    *slot = t.schema().word_at(row, idx);
                }
                (t.schema().word_at(row, key_idx), payload)
            })
            .collect()
    };
    let lp = project(left, lk_idx, cl_idxs);
    let rp = project(right, rk_idx, cr_idxs);
    let result = oblivious_join_payloads(tracer, &lp, &rp);

    let carry_tys: Vec<ColumnType> = out_schema.columns()[1..].iter().map(|c| c.ty()).collect();
    let out_words = out_schema.row_words();
    let out_schema = Arc::new(out_schema);
    let groups: Vec<Vec<u64>> = result
        .keys
        .iter()
        .zip(result.rows.iter())
        .map(|(&key_word, row)| {
            let mut values = vec![key_ty.value_from_word(key_word)];
            let carried = cl_idxs
                .iter()
                .enumerate()
                .map(|(k, _)| row.left[k])
                .chain(cr_idxs.iter().enumerate().map(|(k, _)| row.right[k]));
            for (word, ty) in carried.zip(&carry_tys) {
                values.push(ty.value_from_word(word));
            }
            let encoded = out_schema
                .encode_row(&values)
                .expect("output schema encodes its own rows");
            pack_words(&encoded, out_words)
        })
        .collect();
    stage_out(tracer, out_schema, out_words, &groups)
}

/// The paper's oblivious equi-join over wide tables, keyed on named columns.
///
/// Each side carries any number of named payload columns up to
/// [`MAX_CARRY_WORDS`] through the generic `[u64; W]` kernel record
/// (`W = max(|carry_left|, |carry_right|, 1)`, a public property of the
/// plan); the output schema is `{key, carry_left…, carry_right…}` with
/// `left_` / `right_` prefixes on names the two inputs share.  The trace is
/// a function of `(n₁, w₁, n₂, w₂, m, w_out)` only — all public.
pub fn wide_join<S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
    left_key: &str,
    right_key: &str,
    carry_left: &[String],
    carry_right: &[String],
) -> Result<WideTable, WideError> {
    let lwords = row_words_checked(left.schema())?;
    let rwords = row_words_checked(right.schema())?;
    let (lk_idx, rk_idx, cl_idxs, cr_idxs, out_schema) = join_plan(
        left.schema(),
        right.schema(),
        left_key,
        right_key,
        carry_left,
        carry_right,
    )?;
    // The joined rows must themselves respect the kernel row cap, so the
    // execution path agrees with `join_output_schema`'s validation.
    row_words_checked(&out_schema)?;

    // Stage both inputs (the trace models the full-width loads; row counts
    // and widths are public), then run the generic kernel at the carry
    // width the plan needs.
    drop(stage_in(tracer, left, lwords));
    drop(stage_in(tracer, right, rwords));
    let carry_words = cl_idxs.len().max(cr_idxs.len()).max(1);
    macro_rules! dispatch {
        ($($w:literal),*) => {
            match carry_words {
                $( $w => Ok(wide_join_w::<$w, S>(
                    tracer, left, right, lk_idx, rk_idx, &cl_idxs, &cr_idxs, out_schema,
                )), )*
                other => unreachable!("join_plan admitted carry width {other}"),
            }
        };
    }
    dispatch!(1, 2, 3, 4, 5, 6, 7, 8)
}

/// Oblivious wide projection: keep (and reorder) the named columns.
///
/// Every row is rewritten with fixed-offset, fixed-width field copies, so
/// the pass is data-independent by construction; the trace reflects the
/// (public) input and output row widths and reveals nothing else.
pub fn wide_project<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
    columns: &[String],
) -> Result<WideTable, WideError> {
    let in_words = row_words_checked(table.schema())?;
    let mut out_cols: Vec<(String, ColumnType)> = Vec::with_capacity(columns.len());
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(columns.len());
    for name in columns {
        let (_, col) = table.schema().column(name)?;
        out_cols.push((col.name().to_string(), col.ty()));
        spans.push((col.offset(), col.ty().width()));
    }
    // Schema::new rejects empty and duplicated projections with typed
    // errors.
    let out_schema = Schema::new(out_cols)?;
    let out_words = row_words_checked(&out_schema)?;

    drop(stage_in(tracer, table, in_words));
    let out_schema = Arc::new(out_schema);
    let groups: Vec<Vec<u64>> = (0..table.len())
        .map(|i| {
            let row = table.row_bytes(i);
            let mut bytes = Vec::with_capacity(out_schema.row_width());
            for &(offset, width) in &spans {
                bytes.extend_from_slice(&row[offset..offset + width]);
            }
            pack_words(&bytes, out_words)
        })
        .collect();
    Ok(stage_out(tracer, out_schema, out_words, &groups))
}

/// Monomorphic distinct body for one row width `W`.
fn wide_distinct_w<const W: usize, S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
) -> WideTable {
    let schema = table.schema_handle();
    let n = table.len();
    let staged = stage_in(tracer, table, W);
    let staged_words = staged.as_slice();
    let recs: Vec<WideRec<W>> = (0..n)
        .map(|i| WideRec {
            words: staged_words[i * W..(i + 1) * W]
                .try_into()
                .expect("W words per row"),
            cmp: 0,
            tag: 0,
            dest: 1,
            live: 1,
        })
        .collect();
    let mut buf: TrackedBuffer<WideRec<W>, S> = tracer.alloc_from(recs);

    // Sort whole encoded rows so duplicates become adjacent, then mark
    // every row equal to its predecessor null in one fixed scan.
    bitonic::sort_by_key(&mut buf, |r: &WideRec<W>| r.words);
    let mut prev = [0u64; W];
    let mut have_prev = Choice::FALSE;
    tracer.bump_linear_steps(n as u64);
    for slot in buf.rw_run_mut(0, n) {
        let r = *slot;
        let mut same = Choice::TRUE;
        for (&a, &b) in r.words.iter().zip(prev.iter()) {
            same = same.and(Choice::eq_u64(a, b));
        }
        let duplicate = have_prev.and(same);
        prev = r.words;
        have_prev = Choice::TRUE;
        let mut dropped = r;
        dropped.set_null();
        *slot = WideRec::ct_select(duplicate, dropped, r);
    }

    let compacted = oblivious_compact(buf);
    let live = compacted.live as usize;
    let groups: Vec<Vec<u64>> = compacted.table.as_slice()[..live]
        .iter()
        .map(|r| r.words.to_vec())
        .collect();
    stage_out(tracer, schema, W, &groups)
}

/// Monomorphic sort body for one row width `W`.
fn wide_sort_w<const W: usize, S: TraceSink>(tracer: &Tracer<S>, table: &WideTable) -> WideTable {
    let schema = table.schema_handle();
    let n = table.len();
    let staged = stage_in(tracer, table, W);
    let staged_words = staged.as_slice();
    let recs: Vec<[u64; W]> = (0..n)
        .map(|i| {
            staged_words[i * W..(i + 1) * W]
                .try_into()
                .expect("W words per row")
        })
        .collect();
    let mut buf: TrackedBuffer<[u64; W], S> = tracer.alloc_from(recs);
    bitonic::sort_by_key(&mut buf, |r: &[u64; W]| *r);
    let groups: Vec<Vec<u64>> = buf.into_vec().iter().map(|r| r.to_vec()).collect();
    stage_out(tracer, schema, W, &groups)
}

/// Oblivious whole-row sort: the table's rows in the ascending order of
/// their packed encoded form (the same total order
/// [`wide_distinct`] leaves its output in).
///
/// A single bitonic network over the (public) row count; reveals nothing
/// beyond the input size and schema width.  This is the sorted-run merge
/// step a sharded coordinator uses to combine per-shard join/union
/// partials into one canonically ordered result: each partial is already a
/// deterministic function of its shard's public inputs, and sorting the
/// concatenation is one more data-independent network.
pub fn wide_sort<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
) -> Result<WideTable, WideError> {
    let words = row_words_checked(table.schema())?;
    macro_rules! dispatch {
        ($($w:literal),*) => {
            match words {
                $( $w => Ok(wide_sort_w::<$w, S>(tracer, table)), )*
                other => unreachable!("row_words_checked admitted width {other}"),
            }
        };
    }
    dispatch!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

/// Oblivious wide duplicate elimination over whole rows.
///
/// Sort–mark–compact over `[u64; W]` encoded rows; reveals only the number
/// of distinct rows.  Output rows come back sorted by their encoded form.
pub fn wide_distinct<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &WideTable,
) -> Result<WideTable, WideError> {
    let words = row_words_checked(table.schema())?;
    macro_rules! dispatch {
        ($($w:literal),*) => {
            match words {
                $( $w => Ok(wide_distinct_w::<$w, S>(tracer, table)), )*
                other => unreachable!("row_words_checked admitted width {other}"),
            }
        };
    }
    dispatch!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

/// Oblivious wide bag union: concatenate two tables of positionally equal
/// column types (names may differ; the output wears the left schema, like
/// SQL `UNION ALL`).
///
/// A single fixed copy pass; reveals nothing beyond the (public) input
/// sizes and widths.
pub fn wide_union_all<S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
) -> Result<WideTable, WideError> {
    // One validator serves planners and execution alike, so a plan that
    // validated cannot fail here.
    union_output_schema(left.schema(), right.schema())?;
    let words = left.schema().row_words();
    drop(stage_in(tracer, left, words));
    drop(stage_in(tracer, right, words));
    let groups: Vec<Vec<u64>> = left
        .rows()
        .chain(right.rows())
        .map(|row| pack_words(row, words))
        .collect();
    Ok(stage_out(tracer, left.schema_handle(), words, &groups))
}

/// Monomorphic semi/anti-join body for one probed row width `W`.
#[allow(clippy::too_many_arguments)]
fn wide_membership_w<const W: usize, S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
    rwords: usize,
    lk_idx: usize,
    rk_idx: usize,
    keep_matching: bool,
) -> WideTable {
    let schema = left.schema_handle();
    let n1 = left.len();
    let n2 = right.len();
    let staged = stage_in(tracer, left, W);
    let staged_words = staged.as_slice();
    drop(stage_in(tracer, right, rwords));

    // Combined buffer: witness key records (tag 2, empty rows) plus the
    // probed rows (tag 1, full width) — the analogue of the join's
    // combined table `T_C`.
    let mut recs: Vec<WideRec<W>> = Vec::with_capacity(n1 + n2);
    for i in 0..n2 {
        recs.push(WideRec {
            words: [0; W],
            cmp: right.schema().word_at(right.row_bytes(i), rk_idx),
            tag: 2,
            dest: 1,
            live: 1,
        });
    }
    for i in 0..n1 {
        recs.push(WideRec {
            words: staged_words[i * W..(i + 1) * W]
                .try_into()
                .expect("W words per row"),
            cmp: left.schema().word_at(left.row_bytes(i), lk_idx),
            tag: 1,
            dest: 1,
            live: 1,
        });
    }
    let mut buf: TrackedBuffer<WideRec<W>, S> = tracer.alloc_from(recs);

    // Witnesses (tag 2) must precede the probed rows (tag 1) within each
    // key group, so sort by (key, tag descending).
    bitonic::sort_by_key(&mut buf, |r: &WideRec<W>| (r.cmp, std::cmp::Reverse(r.tag)));

    let keep_matching = Choice::from_bool(keep_matching);
    let mut witness_key = 0u64;
    let mut have_witness = Choice::FALSE;
    let n = buf.len();
    tracer.bump_linear_steps(n as u64);
    for slot in buf.rw_run_mut(0, n) {
        let r = *slot;
        let is_witness = Choice::eq_u64(r.tag, 2);
        witness_key = u64::ct_select(is_witness, r.cmp, witness_key);
        have_witness = is_witness.or(have_witness);

        let matched = have_witness.and(Choice::eq_u64(r.cmp, witness_key));
        // Keep probed rows whose match status agrees with the requested
        // polarity; drop every witness row.
        let wanted = matched
            .and(keep_matching)
            .or(matched.not().and(keep_matching.not()));
        let keep = is_witness.not().and(wanted);
        let mut dropped = r;
        dropped.set_null();
        *slot = WideRec::ct_select(keep, r, dropped);
    }

    let compacted = oblivious_compact(buf);
    let live = compacted.live as usize;
    let groups: Vec<Vec<u64>> = compacted.table.as_slice()[..live]
        .iter()
        .map(|r| r.words.to_vec())
        .collect();
    stage_out(tracer, schema, W, &groups)
}

/// Shared validation + dispatch of the wide semi/anti-join.
fn wide_membership<S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
    left_key: &str,
    right_key: &str,
    keep_matching: bool,
) -> Result<WideTable, WideError> {
    // One validator serves planners and execution alike, so a plan that
    // validated cannot fail here.
    validate_membership_keys(left.schema(), right.schema(), left_key, right_key)?;
    let words = left.schema().row_words();
    let rwords = right.schema().row_words();
    let (lk_idx, _) = left.schema().key_column(left_key)?;
    let (rk_idx, _) = right.schema().key_column(right_key)?;
    macro_rules! dispatch {
        ($($w:literal),*) => {
            match words {
                $( $w => Ok(wide_membership_w::<$w, S>(
                    tracer, left, right, rwords, lk_idx, rk_idx, keep_matching,
                )), )*
                other => unreachable!("row_words_checked admitted width {other}"),
            }
        };
    }
    dispatch!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

/// Oblivious wide semi-join: the rows of `left` whose key appears in
/// `right`.  Keeps the full left rows; reveals only the output size.
pub fn wide_semi_join<S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
    left_key: &str,
    right_key: &str,
) -> Result<WideTable, WideError> {
    wide_membership(tracer, left, right, left_key, right_key, true)
}

/// Oblivious wide anti-join: the rows of `left` whose key does **not**
/// appear in `right`.
pub fn wide_anti_join<S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
    left_key: &str,
    right_key: &str,
) -> Result<WideTable, WideError> {
    wide_membership(tracer, left, right, left_key, right_key, false)
}

/// Resolve a wide join-aggregate: key/value column indices and the output
/// schema `{key, count|sum_…}`.
#[allow(clippy::type_complexity)]
fn join_aggregate_plan(
    left: &Schema,
    right: &Schema,
    left_key: &str,
    right_key: &str,
    left_value: Option<&str>,
    right_value: Option<&str>,
    aggregate: JoinAggregate,
) -> Result<(usize, usize, Option<usize>, Option<usize>, Schema), WideError> {
    let (lk_idx, lk_col) = left.key_column(left_key)?;
    let (rk_idx, rk_col) = right.key_column(right_key)?;
    if lk_col.ty() != rk_col.ty() {
        return Err(WideError::JoinKeyTypeMismatch {
            left: left_key.to_string(),
            left_ty: lk_col.ty(),
            right: right_key.to_string(),
            right_ty: rk_col.ty(),
        });
    }
    let value_idx = |needed: bool,
                     side: &str,
                     value: Option<&str>,
                     schema: &Schema|
     -> Result<Option<usize>, WideError> {
        match value {
            Some(name) => {
                let (idx, col) = schema.column(name)?;
                if col.ty() != ColumnType::U64 {
                    return Err(WideError::NotAggregatable {
                        column: name.to_string(),
                        ty: col.ty(),
                        aggregate: Aggregate::Sum,
                    });
                }
                Ok(Some(idx))
            }
            None if needed => Err(WideError::MissingJoinAggregateColumn {
                aggregate,
                side: side.to_string(),
            }),
            None => Ok(None),
        }
    };
    let needs_left = matches!(
        aggregate,
        JoinAggregate::SumLeft | JoinAggregate::SumProducts
    );
    let needs_right = matches!(
        aggregate,
        JoinAggregate::SumRight | JoinAggregate::SumProducts
    );
    let lv = value_idx(needs_left, "left", left_value, left)?;
    let rv = value_idx(needs_right, "right", right_value, right)?;
    let out_name = match aggregate {
        JoinAggregate::CountPairs => "count".to_string(),
        JoinAggregate::SumLeft => format!("sum_{}", left_value.expect("validated above")),
        JoinAggregate::SumRight => format!("sum_{}", right_value.expect("validated above")),
        JoinAggregate::SumProducts => "sum_products".to_string(),
    };
    let out_schema = Schema::new([
        (left_key.to_string(), lk_col.ty()),
        (out_name, ColumnType::U64),
    ])?;
    Ok((lk_idx, rk_idx, lv, rv, out_schema))
}

/// Oblivious wide grouping aggregation over a join, computed **without
/// materialising the join** (the paper's §7 future-work operator, lifted
/// to named columns).
///
/// Value columns must be `u64` (they enter sums untransformed); the output
/// has one row per join key present on both sides, with schema
/// `{key, count|sum_col|sum_products}`.
#[allow(clippy::too_many_arguments)]
pub fn wide_join_aggregate<S: TraceSink>(
    tracer: &Tracer<S>,
    left: &WideTable,
    right: &WideTable,
    left_key: &str,
    right_key: &str,
    left_value: Option<&str>,
    right_value: Option<&str>,
    aggregate: JoinAggregate,
) -> Result<WideTable, WideError> {
    let lwords = row_words_checked(left.schema())?;
    let rwords = row_words_checked(right.schema())?;
    let (lk_idx, rk_idx, lv_idx, rv_idx, out_schema) = join_aggregate_plan(
        left.schema(),
        right.schema(),
        left_key,
        right_key,
        left_value,
        right_value,
        aggregate,
    )?;
    let key_ty = out_schema.columns()[0].ty();

    drop(stage_in(tracer, left, lwords));
    drop(stage_in(tracer, right, rwords));
    let project = |t: &WideTable, key_idx: usize, value_idx: Option<usize>| -> Table {
        (0..t.len())
            .map(|i| {
                let row = t.row_bytes(i);
                let value = value_idx.map_or(0, |idx| match t.schema().value_at(row, idx) {
                    Value::U64(v) => v,
                    _ => unreachable!("join-aggregate values validated as u64"),
                });
                (t.schema().word_at(row, key_idx), value)
            })
            .collect()
    };
    let lp = project(left, lk_idx, lv_idx);
    let rp = project(right, rk_idx, rv_idx);
    let result = oblivious_join_aggregate(tracer, &lp, &rp, aggregate);

    let out_words = out_schema.row_words();
    let out_schema = Arc::new(out_schema);
    let groups: Vec<Vec<u64>> = result
        .iter()
        .map(|e| {
            let row = out_schema
                .encode_row(&[key_ty.value_from_word(e.key), Value::U64(e.value)])
                .expect("output schema encodes its own rows");
            pack_words(&row, out_words)
        })
        .collect();
    Ok(stage_out(tracer, out_schema, out_words, &groups))
}

// ---------------------------------------------------------------------------
// Submission-time validation entry points
// ---------------------------------------------------------------------------
//
// The engine's planner type-checks whole operator trees before any
// oblivious work happens.  These wrappers expose exactly the checks the
// executing operators perform, so a plan that validates here cannot fail
// at execution time.

/// Check a schema fits the kernel's row-width limit.
pub fn validate_row_width(schema: &Schema) -> Result<(), WideError> {
    row_words_checked(schema).map(|_| ())
}

/// The output schema of [`wide_project`], after full validation.
pub fn project_output_schema(schema: &Schema, columns: &[String]) -> Result<Schema, WideError> {
    row_words_checked(schema)?;
    let mut out_cols: Vec<(String, ColumnType)> = Vec::with_capacity(columns.len());
    for name in columns {
        let (_, col) = schema.column(name)?;
        out_cols.push((col.name().to_string(), col.ty()));
    }
    let out = Schema::new(out_cols)?;
    row_words_checked(&out)?;
    Ok(out)
}

/// The output schema of [`wide_union_all`], after full validation.
pub fn union_output_schema(left: &Schema, right: &Schema) -> Result<Schema, WideError> {
    row_words_checked(left)?;
    row_words_checked(right)?;
    let left_tys: Vec<ColumnType> = left.columns().iter().map(|c| c.ty()).collect();
    let right_tys: Vec<ColumnType> = right.columns().iter().map(|c| c.ty()).collect();
    if left_tys != right_tys {
        return Err(WideError::UnionTypeMismatch {
            left: left_tys,
            right: right_tys,
        });
    }
    Ok(left.clone())
}

/// The output schema of [`wide_join`], after full validation (key types,
/// carry widths, output naming).
pub fn join_output_schema(
    left: &Schema,
    right: &Schema,
    left_key: &str,
    right_key: &str,
    carry_left: &[String],
    carry_right: &[String],
) -> Result<Schema, WideError> {
    row_words_checked(left)?;
    row_words_checked(right)?;
    let (_, _, _, _, out) = join_plan(left, right, left_key, right_key, carry_left, carry_right)?;
    row_words_checked(&out)?;
    Ok(out)
}

/// Validate the key columns of a wide semi/anti join (the output schema is
/// the probed side's, unchanged).
pub fn validate_membership_keys(
    left: &Schema,
    right: &Schema,
    left_key: &str,
    right_key: &str,
) -> Result<(), WideError> {
    row_words_checked(left)?;
    row_words_checked(right)?;
    let (_, lk_col) = left.key_column(left_key)?;
    let (_, rk_col) = right.key_column(right_key)?;
    if lk_col.ty() != rk_col.ty() {
        return Err(WideError::JoinKeyTypeMismatch {
            left: left_key.to_string(),
            left_ty: lk_col.ty(),
            right: right_key.to_string(),
            right_ty: rk_col.ty(),
        });
    }
    Ok(())
}

/// The output schema of [`wide_group_aggregate`], after full validation.
pub fn group_aggregate_output_schema(
    schema: &Schema,
    key: &str,
    aggregate: Aggregate,
    column: Option<&str>,
) -> Result<Schema, WideError> {
    row_words_checked(schema)?;
    let (_, _, _, out) = aggregate_plan(schema, key, aggregate, column)?;
    Ok(out)
}

/// The output schema of [`wide_join_aggregate`], after full validation.
pub fn join_aggregate_output_schema(
    left: &Schema,
    right: &Schema,
    left_key: &str,
    right_key: &str,
    left_value: Option<&str>,
    right_value: Option<&str>,
    aggregate: JoinAggregate,
) -> Result<Schema, WideError> {
    row_words_checked(left)?;
    row_words_checked(right)?;
    let (_, _, _, _, out) = join_aggregate_plan(
        left,
        right,
        left_key,
        right_key,
        left_value,
        right_value,
        aggregate,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{CollectingSink, HashingSink, NullSink};

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    fn orders() -> WideTable {
        let schema = Schema::new([
            ("o_key", ColumnType::U64),
            ("price", ColumnType::U64),
            ("priority", ColumnType::I64),
            ("region", ColumnType::Bytes(4)),
        ])
        .unwrap();
        WideTable::from_rows(
            schema,
            [
                vec![
                    Value::U64(1),
                    Value::U64(120),
                    Value::I64(-1),
                    Value::Bytes(b"east".to_vec()),
                ],
                vec![
                    Value::U64(1),
                    Value::U64(40),
                    Value::I64(2),
                    Value::Bytes(b"west".to_vec()),
                ],
                vec![
                    Value::U64(2),
                    Value::U64(250),
                    Value::I64(0),
                    Value::Bytes(b"east".to_vec()),
                ],
                vec![
                    Value::U64(3),
                    Value::U64(99),
                    Value::I64(-5),
                    Value::Bytes(b"west".to_vec()),
                ],
            ],
        )
        .unwrap()
    }

    fn lineitem() -> WideTable {
        let schema = Schema::new([
            ("o_key", ColumnType::U64),
            ("qty", ColumnType::U64),
            ("tax", ColumnType::I64),
        ])
        .unwrap();
        WideTable::from_rows(
            schema,
            [
                vec![Value::U64(1), Value::U64(5), Value::I64(1)],
                vec![Value::U64(1), Value::U64(7), Value::I64(-1)],
                vec![Value::U64(2), Value::U64(3), Value::I64(0)],
                vec![Value::U64(9), Value::U64(8), Value::I64(4)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_selects_by_named_column() {
        let tracer = Tracer::new(NullSink);
        let out = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::at_least("price", Value::U64(100)),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, "price").unwrap(), Value::U64(120));
        assert_eq!(out.value(1, "o_key").unwrap(), Value::U64(2));
        // The full rows survive, not just the filtered column.
        assert_eq!(
            out.value(0, "region").unwrap(),
            Value::Bytes(b"east".to_vec())
        );
        assert_eq!(out.schema(), orders().schema());
    }

    #[test]
    fn filter_respects_signed_and_bytes_order() {
        let tracer = Tracer::new(NullSink);
        // priority < 0 keeps the two negative-priority rows.
        let neg = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::below("priority", Value::I64(0)),
        )
        .unwrap();
        assert_eq!(neg.len(), 2);
        assert_eq!(neg.value(1, "priority").unwrap(), Value::I64(-5));
        // Bytes equality.
        let east = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::equals("region", Value::Bytes(b"east".to_vec())),
        )
        .unwrap();
        assert_eq!(east.len(), 2);
        // Coercion: a non-negative integer constant against an i64 column.
        let coerced = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::at_least("priority", Value::U64(0)),
        )
        .unwrap();
        assert_eq!(coerced.len(), 2);
    }

    #[test]
    fn filter_true_and_range_predicates() {
        let tracer = Tracer::new(NullSink);
        // True keeps every row (after a full oblivious pass).
        let all = wide_filter(&tracer, &orders(), &WidePredicate::True).unwrap();
        assert_eq!(all.len(), orders().len());
        // Inclusive range on an unsigned column: 40 <= price <= 120.
        let mid = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::in_range("price", Value::U64(40), Value::U64(120)),
        )
        .unwrap();
        assert_eq!(mid.len(), 3);
        // Range in signed order: -1 <= priority <= 2 keeps three rows.
        let signed = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::in_range("priority", Value::I64(-1), Value::I64(2)),
        )
        .unwrap();
        assert_eq!(signed.len(), 3);
    }

    #[test]
    fn filter_typed_errors() {
        let tracer = Tracer::new(NullSink);
        let unknown = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::at_least("ghost", Value::U64(1)),
        )
        .unwrap_err();
        assert!(matches!(
            unknown,
            WideError::Schema(SchemaError::UnknownColumn { .. })
        ));
        let mismatch = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::at_least("region", Value::U64(10)),
        )
        .unwrap_err();
        assert!(matches!(
            mismatch,
            WideError::Schema(SchemaError::TypeMismatch { .. })
        ));
        // Both range bounds are typed against the column.
        let range = wide_filter(
            &tracer,
            &orders(),
            &WidePredicate::in_range("price", Value::U64(1), Value::I64(-1)),
        )
        .unwrap_err();
        assert!(matches!(
            range,
            WideError::Schema(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn group_aggregate_by_named_columns() {
        let tracer = Tracer::new(NullSink);
        let sums = wide_group_aggregate(&tracer, &lineitem(), "o_key", Aggregate::Sum, Some("qty"))
            .unwrap();
        assert_eq!(sums.schema().column_names(), vec!["o_key", "sum_qty"]);
        assert_eq!(sums.len(), 3);
        assert_eq!(sums.value(0, "sum_qty").unwrap(), Value::U64(12));
        assert_eq!(sums.value(1, "sum_qty").unwrap(), Value::U64(3));

        // min over a signed column decodes back to i64.
        let mins = wide_group_aggregate(&tracer, &lineitem(), "o_key", Aggregate::Min, Some("tax"))
            .unwrap();
        assert_eq!(mins.value(0, "min_tax").unwrap(), Value::I64(-1));

        let counts =
            wide_group_aggregate(&tracer, &orders(), "region", Aggregate::Count, None).unwrap();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts.value(0, "count").unwrap(), Value::U64(2));
        assert_eq!(
            counts.value(0, "region").unwrap(),
            Value::Bytes(b"east".to_vec())
        );
    }

    #[test]
    fn aggregate_typed_errors() {
        let tracer = Tracer::new(NullSink);
        let non_numeric =
            wide_group_aggregate(&tracer, &orders(), "o_key", Aggregate::Sum, Some("region"))
                .unwrap_err();
        assert_eq!(
            non_numeric,
            WideError::NotAggregatable {
                column: "region".into(),
                ty: ColumnType::Bytes(4),
                aggregate: Aggregate::Sum
            }
        );
        let signed_sum = wide_group_aggregate(
            &tracer,
            &orders(),
            "o_key",
            Aggregate::Sum,
            Some("priority"),
        )
        .unwrap_err();
        assert!(matches!(signed_sum, WideError::NotAggregatable { .. }));
        let missing =
            wide_group_aggregate(&tracer, &orders(), "o_key", Aggregate::Sum, None).unwrap_err();
        assert_eq!(
            missing,
            WideError::MissingAggregateColumn {
                aggregate: Aggregate::Sum
            }
        );
    }

    #[test]
    fn join_carries_named_payloads() {
        let tracer = Tracer::new(NullSink);
        let out = wide_join(
            &tracer,
            &orders(),
            &lineitem(),
            "o_key",
            "o_key",
            &cols(&["price"]),
            &cols(&["qty"]),
        )
        .unwrap();
        assert_eq!(out.schema().column_names(), vec!["o_key", "price", "qty"]);
        // Keys 1 (2×2 pairs) and 2 (1×1) match: m = 5.
        assert_eq!(out.len(), 5);
        let mut pairs: Vec<(u64, u64, u64)> = (0..out.len())
            .map(|i| {
                match (
                    out.value(i, "o_key").unwrap(),
                    out.value(i, "price").unwrap(),
                    out.value(i, "qty").unwrap(),
                ) {
                    (Value::U64(k), Value::U64(p), Value::U64(q)) => (k, p, q),
                    other => panic!("unexpected types {other:?}"),
                }
            })
            .collect();
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![
                (1, 40, 5),
                (1, 40, 7),
                (1, 120, 5),
                (1, 120, 7),
                (2, 250, 3)
            ]
        );
    }

    #[test]
    fn join_carries_multiple_columns_per_side() {
        let tracer = Tracer::new(NullSink);
        // Three carries on the left, two on the right — impossible under
        // the old one-word kernel record.
        let out = wide_join(
            &tracer,
            &orders(),
            &lineitem(),
            "o_key",
            "o_key",
            &cols(&["price", "priority", "region"]),
            &cols(&["qty", "tax"]),
        )
        .unwrap();
        assert_eq!(
            out.schema().column_names(),
            vec!["o_key", "price", "priority", "region", "qty", "tax"]
        );
        assert_eq!(out.len(), 5);
        // Typed round-trip of every carried column on one row: find the
        // (1, 120, …, 7, …) pair.
        let found = (0..out.len()).any(|i| {
            out.value(i, "o_key").unwrap() == Value::U64(1)
                && out.value(i, "price").unwrap() == Value::U64(120)
                && out.value(i, "priority").unwrap() == Value::I64(-1)
                && out.value(i, "region").unwrap() == Value::Bytes(b"east".to_vec())
                && out.value(i, "qty").unwrap() == Value::U64(7)
                && out.value(i, "tax").unwrap() == Value::I64(-1)
        });
        assert!(found, "full multi-column row survives the kernel");
    }

    #[test]
    fn join_prefixes_names_shared_by_both_sides() {
        let tracer = Tracer::new(NullSink);
        // `tax` below exists only in lineitem, but a column named `price`
        // on both sides must come back prefixed — from either side.
        let schema = Schema::new([("o_key", ColumnType::U64), ("price", ColumnType::U64)]).unwrap();
        let right = WideTable::from_rows(
            schema,
            [
                vec![Value::U64(1), Value::U64(1000)],
                vec![Value::U64(2), Value::U64(2000)],
            ],
        )
        .unwrap();
        let out = wide_join(
            &tracer,
            &orders(),
            &right,
            "o_key",
            "o_key",
            &cols(&["price"]),
            &cols(&["price"]),
        )
        .unwrap();
        assert_eq!(
            out.schema().column_names(),
            vec!["o_key", "left_price", "right_price"]
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn join_key_type_mismatch_and_carry_overflow_are_typed() {
        let tracer = Tracer::new(NullSink);
        let err = wide_join(
            &tracer,
            &orders(),
            &lineitem(),
            "priority",
            "o_key",
            &[],
            &[],
        )
        .unwrap_err();
        assert_eq!(
            err,
            WideError::JoinKeyTypeMismatch {
                left: "priority".into(),
                left_ty: ColumnType::I64,
                right: "o_key".into(),
                right_ty: ColumnType::U64
            }
        );
        // More than MAX_CARRY_WORDS carries on one side.
        let wide_cols: Vec<String> = (0..=MAX_CARRY_WORDS).map(|i| format!("c{i}")).collect();
        let schema_cols: Vec<(String, ColumnType)> = std::iter::once(("k".into(), ColumnType::U64))
            .chain(wide_cols.iter().map(|c| (c.clone(), ColumnType::U64)))
            .collect();
        let big = WideTable::new(Schema::new(schema_cols).unwrap());
        let err = wide_join(&tracer, &big, &lineitem(), "k", "o_key", &wide_cols, &[]).unwrap_err();
        assert!(matches!(err, WideError::CarryTooWide { ref side, .. } if side == "left"));
    }

    #[test]
    fn project_keeps_and_reorders_named_columns() {
        let tracer = Tracer::new(NullSink);
        let out = wide_project(&tracer, &orders(), &cols(&["region", "o_key"])).unwrap();
        assert_eq!(out.schema().column_names(), vec!["region", "o_key"]);
        assert_eq!(out.len(), orders().len());
        assert_eq!(
            out.value(0, "region").unwrap(),
            Value::Bytes(b"east".to_vec())
        );
        assert_eq!(out.value(3, "o_key").unwrap(), Value::U64(3));
        // Typed errors: unknown, duplicate and empty projections.
        assert!(matches!(
            wide_project(&tracer, &orders(), &cols(&["ghost"])).unwrap_err(),
            WideError::Schema(SchemaError::UnknownColumn { .. })
        ));
        assert!(matches!(
            wide_project(&tracer, &orders(), &cols(&["o_key", "o_key"])).unwrap_err(),
            WideError::Schema(SchemaError::DuplicateColumn { .. })
        ));
        assert!(matches!(
            wide_project(&tracer, &orders(), &[]).unwrap_err(),
            WideError::Schema(SchemaError::EmptySchema)
        ));
    }

    #[test]
    fn distinct_removes_exact_duplicate_rows_only() {
        let tracer = Tracer::new(NullSink);
        let schema = Schema::new([("k", ColumnType::U64), ("tag", ColumnType::Bytes(2))]).unwrap();
        let t = WideTable::from_rows(
            schema,
            [
                vec![Value::U64(1), Value::Bytes(b"aa".to_vec())],
                vec![Value::U64(1), Value::Bytes(b"bb".to_vec())],
                vec![Value::U64(1), Value::Bytes(b"aa".to_vec())],
                vec![Value::U64(2), Value::Bytes(b"aa".to_vec())],
                vec![Value::U64(1), Value::Bytes(b"aa".to_vec())],
            ],
        )
        .unwrap();
        let out = wide_distinct(&tracer, &t).unwrap();
        assert_eq!(out.len(), 3);
        let mut rows: Vec<Vec<Value>> = (0..out.len()).map(|i| out.row_values(i)).collect();
        rows.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(
            rows,
            vec![
                vec![Value::U64(1), Value::Bytes(b"aa".to_vec())],
                vec![Value::U64(1), Value::Bytes(b"bb".to_vec())],
                vec![Value::U64(2), Value::Bytes(b"aa".to_vec())],
            ]
        );
        // Empty input flows through.
        let empty = wide_distinct(&tracer, &WideTable::new(orders().schema().clone())).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn union_all_concatenates_positionally() {
        let tracer = Tracer::new(NullSink);
        // Same types, different names: allowed, output wears the left
        // schema (positional union, like SQL).
        let renamed = Schema::new([
            ("id", ColumnType::U64),
            ("cost", ColumnType::U64),
            ("rank", ColumnType::I64),
            ("zone", ColumnType::Bytes(4)),
        ])
        .unwrap();
        let right = WideTable::from_rows(
            renamed,
            [vec![
                Value::U64(9),
                Value::U64(1),
                Value::I64(3),
                Value::Bytes(b"nrth".to_vec()),
            ]],
        )
        .unwrap();
        let out = wide_union_all(&tracer, &orders(), &right).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out.schema(), orders().schema());
        assert_eq!(out.value(4, "o_key").unwrap(), Value::U64(9));

        // Positionally different types are a typed error.
        let err = wide_union_all(&tracer, &orders(), &lineitem()).unwrap_err();
        assert!(matches!(err, WideError::UnionTypeMismatch { .. }));
    }

    #[test]
    fn semi_and_anti_join_partition_the_probed_table() {
        let tracer = Tracer::new(NullSink);
        // lineitem keys: 1, 1, 2, 9; orders keys: 1, 1, 2, 3.
        let semi = wide_semi_join(&tracer, &orders(), &lineitem(), "o_key", "o_key").unwrap();
        let anti = wide_anti_join(&tracer, &orders(), &lineitem(), "o_key", "o_key").unwrap();
        assert_eq!(semi.len(), 3, "orders with keys 1, 1, 2 have line items");
        assert_eq!(anti.len(), 1, "order key 3 has none");
        assert_eq!(anti.value(0, "o_key").unwrap(), Value::U64(3));
        // Full rows survive, schema unchanged.
        assert_eq!(semi.schema(), orders().schema());
        assert_eq!(
            anti.value(0, "region").unwrap(),
            Value::Bytes(b"west".to_vec())
        );
        assert_eq!(semi.len() + anti.len(), orders().len());
        // Against empty witnesses: semi empty, anti everything.
        let none = WideTable::new(lineitem().schema().clone());
        assert!(wide_semi_join(&tracer, &orders(), &none, "o_key", "o_key")
            .unwrap()
            .is_empty());
        assert_eq!(
            wide_anti_join(&tracer, &orders(), &none, "o_key", "o_key")
                .unwrap()
                .len(),
            orders().len()
        );
    }

    #[test]
    fn join_aggregate_computes_without_materialising() {
        let tracer = Tracer::new(NullSink);
        let counts = wide_join_aggregate(
            &tracer,
            &orders(),
            &lineitem(),
            "o_key",
            "o_key",
            None,
            None,
            JoinAggregate::CountPairs,
        )
        .unwrap();
        assert_eq!(counts.schema().column_names(), vec!["o_key", "count"]);
        // Key 1: 2×2 pairs, key 2: 1×1.
        assert_eq!(counts.len(), 2);
        assert_eq!(counts.value(0, "count").unwrap(), Value::U64(4));
        assert_eq!(counts.value(1, "count").unwrap(), Value::U64(1));

        let sums = wide_join_aggregate(
            &tracer,
            &orders(),
            &lineitem(),
            "o_key",
            "o_key",
            None,
            Some("qty"),
            JoinAggregate::SumRight,
        )
        .unwrap();
        assert_eq!(sums.schema().column_names(), vec!["o_key", "sum_qty"]);
        // Key 1: each of 2 orders pairs with qty 5+7 = 24 total; key 2: 3.
        assert_eq!(sums.value(0, "sum_qty").unwrap(), Value::U64(24));
        assert_eq!(sums.value(1, "sum_qty").unwrap(), Value::U64(3));

        // Missing and ill-typed value columns are typed errors.
        assert!(matches!(
            wide_join_aggregate(
                &tracer,
                &orders(),
                &lineitem(),
                "o_key",
                "o_key",
                None,
                None,
                JoinAggregate::SumRight,
            )
            .unwrap_err(),
            WideError::MissingJoinAggregateColumn { ref side, .. } if side == "right"
        ));
        assert!(matches!(
            wide_join_aggregate(
                &tracer,
                &orders(),
                &lineitem(),
                "o_key",
                "o_key",
                None,
                Some("tax"),
                JoinAggregate::SumRight,
            )
            .unwrap_err(),
            WideError::NotAggregatable { .. }
        ));
    }

    #[test]
    fn wide_trace_depends_only_on_public_shape() {
        // Same schema, same row count, different contents → identical
        // traces (not just digests).
        let schema = || {
            Schema::new([
                ("k", ColumnType::U64),
                ("a", ColumnType::U64),
                ("b", ColumnType::I64),
            ])
            .unwrap()
        };
        let run = |rows: Vec<Vec<Value>>| {
            let t = WideTable::from_rows(schema(), rows).unwrap();
            let tracer = Tracer::new(CollectingSink::new());
            let _ = wide_filter(&tracer, &t, &WidePredicate::at_least("a", Value::U64(50)));
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Both inputs keep exactly two rows, so even the revealed output
        // size coincides.
        let a = run(vec![
            vec![Value::U64(1), Value::U64(60), Value::I64(-4)],
            vec![Value::U64(2), Value::U64(10), Value::I64(4)],
            vec![Value::U64(3), Value::U64(70), Value::I64(0)],
        ]);
        let b = run(vec![
            vec![Value::U64(9), Value::U64(55), Value::I64(12)],
            vec![Value::U64(8), Value::U64(51), Value::I64(-2)],
            vec![Value::U64(7), Value::U64(49), Value::I64(3)],
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn new_operator_traces_depend_only_on_public_shape() {
        // Distinct, semi-join and the multi-carry join: same shapes,
        // different contents → identical digests.
        let run = |seed: u64| {
            let schema = Schema::new([
                ("k", ColumnType::U64),
                ("v", ColumnType::U64),
                ("w", ColumnType::U64),
            ])
            .unwrap();
            // 4 distinct probed rows, 2 witnesses; semi output 2 both
            // times, join m = 2, distinct output 4.
            let t = WideTable::from_rows(
                schema.clone(),
                (0..4u64).map(|i| {
                    vec![
                        Value::U64(i + seed * 10),
                        Value::U64(i * 7 + seed),
                        Value::U64(i ^ seed),
                    ]
                }),
            )
            .unwrap();
            let witnesses = WideTable::from_rows(
                schema,
                (0..2u64).map(|i| {
                    vec![
                        Value::U64(i + seed * 10),
                        Value::U64(seed),
                        Value::U64(seed),
                    ]
                }),
            )
            .unwrap();
            let tracer = Tracer::new(HashingSink::new());
            let _ = wide_distinct(&tracer, &t).unwrap();
            let _ = wide_semi_join(&tracer, &t, &witnesses, "k", "k").unwrap();
            let _ = wide_join(
                &tracer,
                &t,
                &witnesses,
                "k",
                "k",
                &cols(&["v", "w"]),
                &cols(&["v"]),
            )
            .unwrap();
            let _ = wide_union_all(&tracer, &t, &witnesses).unwrap();
            let _ = wide_project(&tracer, &t, &cols(&["w", "k"])).unwrap();
            tracer.with_sink(|s| s.digest_hex())
        };
        assert_eq!(run(1), run(5));
    }

    #[test]
    fn carry_width_is_visible_in_the_join_digest() {
        // Same input shapes and output size, different carry sets: the
        // output row width differs, and the digest must reflect it.
        let digest = |carries: &[String]| {
            let tracer = Tracer::new(HashingSink::new());
            let _ = wide_join(
                &tracer,
                &orders(),
                &lineitem(),
                "o_key",
                "o_key",
                carries,
                &[],
            )
            .unwrap();
            tracer.with_sink(|s| s.digest_hex())
        };
        assert_ne!(
            digest(&cols(&["price"])),
            digest(&cols(&["price", "priority"])),
            "carry width is public shape and must be traced"
        );
    }

    #[test]
    fn wider_schemas_change_the_digest_but_not_per_content() {
        let narrow = || Schema::new([("k", ColumnType::U64), ("v", ColumnType::U64)]).unwrap();
        let wide = || {
            Schema::new([
                ("k", ColumnType::U64),
                ("v", ColumnType::U64),
                ("pad", ColumnType::Bytes(16)),
            ])
            .unwrap()
        };
        let digest = |t: &WideTable| {
            let tracer = Tracer::new(HashingSink::new());
            let _ = wide_filter(&tracer, t, &WidePredicate::at_least("v", Value::U64(0)));
            tracer.with_sink(|s| s.digest_hex())
        };
        let narrow_t = WideTable::from_rows(
            narrow(),
            [
                vec![Value::U64(1), Value::U64(2)],
                vec![Value::U64(3), Value::U64(4)],
            ],
        )
        .unwrap();
        let wide_t = WideTable::from_rows(
            wide(),
            [
                vec![Value::U64(1), Value::U64(2), Value::Bytes(vec![0; 16])],
                vec![Value::U64(3), Value::U64(4), Value::Bytes(vec![9; 16])],
            ],
        )
        .unwrap();
        assert_ne!(digest(&narrow_t), digest(&wide_t), "row width is traced");
    }

    #[test]
    fn too_wide_rows_are_rejected() {
        let schema =
            Schema::new([("k", ColumnType::U64), ("blob", ColumnType::Bytes(200))]).unwrap();
        let t = WideTable::new(schema);
        let tracer = Tracer::new(NullSink);
        let err =
            wide_filter(&tracer, &t, &WidePredicate::at_least("k", Value::U64(0))).unwrap_err();
        assert!(matches!(err, WideError::RowTooWide { .. }));
        assert!(matches!(
            wide_distinct(&tracer, &t).unwrap_err(),
            WideError::RowTooWide { .. }
        ));
    }

    #[test]
    fn empty_tables_flow_through() {
        let tracer = Tracer::new(NullSink);
        let empty = WideTable::new(orders().schema().clone());
        let filtered = wide_filter(
            &tracer,
            &empty,
            &WidePredicate::at_least("price", Value::U64(0)),
        )
        .unwrap();
        assert!(filtered.is_empty());
        let joined = wide_join(
            &tracer,
            &empty,
            &lineitem(),
            "o_key",
            "o_key",
            &[],
            &cols(&["qty"]),
        )
        .unwrap();
        assert!(joined.is_empty());
        assert_eq!(joined.schema().column_names(), vec!["o_key", "qty"]);
    }
}
