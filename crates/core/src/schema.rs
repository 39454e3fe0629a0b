//! Typed schemas and fixed-width row encodings for wide tables.
//!
//! The paper defines the join over general relations, but the oblivious
//! kernel moves *fixed-width* records: obliviousness rests on every row of a
//! table having the same serialized size, so that copying a row between
//! public and local memory is a constant-time operation whose trace depends
//! only on public sizes.  This module supplies that contract for multi-column
//! tables:
//!
//! * [`ColumnType`] — the supported fixed-width column types (`U64`, `I64`,
//!   `Bool`, and fixed-width `Bytes(n)`),
//! * [`Schema`] — an ordered list of named, typed columns with a fixed
//!   serialized row width,
//! * [`Value`] — one dynamically-typed column value,
//! * [`WideTable`] — a table of schema-conforming rows stored as one flat,
//!   fixed-stride byte buffer.
//!
//! The legacy `(u64 key, u64 value)` [`Table`] is exactly the
//! degenerate two-column schema [`Schema::pair`]; [`WideTable::from_pair`]
//! and [`WideTable::project_pair`] convert between the two shapes.
//!
//! ```
//! use obliv_join::schema::{ColumnType, Schema, Value, WideTable};
//!
//! let schema = Schema::new([
//!     ("o_key", ColumnType::U64),
//!     ("price", ColumnType::U64),
//!     ("priority", ColumnType::I64),
//!     ("region", ColumnType::Bytes(4)),
//! ])
//! .unwrap();
//! assert_eq!(schema.row_width(), 8 + 8 + 8 + 4);
//!
//! let mut orders = WideTable::new(schema);
//! orders
//!     .push(&[
//!         Value::U64(1),
//!         Value::U64(120),
//!         Value::I64(-2),
//!         Value::Bytes(b"east".to_vec()),
//!     ])
//!     .unwrap();
//! assert_eq!(orders.len(), 1);
//! assert_eq!(orders.value(0, "priority").unwrap(), Value::I64(-2));
//! ```

use std::fmt;
use std::sync::Arc;

use obliv_primitives::encode;

use crate::table::Table;

/// The type of one column.  Every type has a fixed serialized width, so a
/// schema's rows all encode to the same number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Unsigned 64-bit integer (8 bytes).
    U64,
    /// Signed 64-bit integer (8 bytes).
    I64,
    /// Boolean (1 byte).
    Bool,
    /// A byte string of exactly this many bytes.
    Bytes(usize),
}

impl ColumnType {
    /// Serialized width of one value of this type, in bytes.
    pub fn width(self) -> usize {
        match self {
            ColumnType::U64 | ColumnType::I64 => 8,
            ColumnType::Bool => 1,
            ColumnType::Bytes(n) => n,
        }
    }

    /// `true` iff values of this type fit the kernel's `u64` word domain
    /// under an order-preserving code, making the column usable as a join
    /// key, sort key, filter operand or group key.  `Bytes` columns qualify
    /// up to [`encode::MAX_BYTES_WORD`] bytes; hash or dictionary-encode
    /// wider strings before joining on them.
    pub fn is_word_encodable(self) -> bool {
        match self {
            ColumnType::U64 | ColumnType::I64 | ColumnType::Bool => true,
            ColumnType::Bytes(n) => n <= encode::MAX_BYTES_WORD,
        }
    }

    /// Decode an order-preserving word (produced by the matching
    /// `encode_*` primitive) back into a typed [`Value`].
    ///
    /// ```
    /// use obliv_join::schema::{ColumnType, Value};
    /// use obliv_primitives::encode_i64;
    ///
    /// let word = encode_i64(-3);
    /// assert_eq!(ColumnType::I64.value_from_word(word), Value::I64(-3));
    /// ```
    pub fn value_from_word(self, word: u64) -> Value {
        match self {
            ColumnType::U64 => Value::U64(encode::decode_u64(word)),
            ColumnType::I64 => Value::I64(encode::decode_i64(word)),
            ColumnType::Bool => Value::Bool(encode::decode_bool(word)),
            ColumnType::Bytes(n) => {
                Value::Bytes(encode::decode_bytes_be(word, n.min(encode::MAX_BYTES_WORD)))
            }
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::U64 => write!(f, "u64"),
            ColumnType::I64 => write!(f, "i64"),
            ColumnType::Bool => write!(f, "bool"),
            ColumnType::Bytes(n) => write!(f, "bytes[{n}]"),
        }
    }
}

/// One dynamically-typed column value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An unsigned 64-bit integer.
    U64(u64),
    /// A signed 64-bit integer.
    I64(i64),
    /// A boolean.
    Bool(bool),
    /// A byte string (must match the column's declared width exactly).
    Bytes(Vec<u8>),
}

impl Value {
    /// The column type this value conforms to (`Bytes` values report their
    /// actual length).
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::U64(_) => ColumnType::U64,
            Value::I64(_) => ColumnType::I64,
            Value::Bool(_) => ColumnType::Bool,
            Value::Bytes(b) => ColumnType::Bytes(b.len()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Bytes(b) => match std::str::from_utf8(b) {
                Ok(s) => write!(f, "{s:?}"),
                Err(_) => write!(
                    f,
                    "0x{}",
                    b.iter().fold(String::new(), |mut s, byte| {
                        use fmt::Write;
                        let _ = write!(s, "{byte:02x}");
                        s
                    })
                ),
            },
        }
    }
}

/// Everything that can go wrong constructing a schema or encoding, decoding
/// and selecting typed rows.  All variants are *submission-time* errors:
/// they are raised while validating client input against public schema
/// metadata, never during oblivious execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A schema must have at least one column.
    EmptySchema,
    /// Two columns share a name.
    DuplicateColumn {
        /// The repeated name.
        name: String,
    },
    /// A column name is unusable (empty, or containing whitespace or one of
    /// the frontend's structural characters `| ( ) , =`).
    InvalidColumnName {
        /// The rejected name.
        name: String,
    },
    /// A `Bytes` column declared width zero.
    ZeroWidthBytes {
        /// The offending column.
        name: String,
    },
    /// A referenced column does not exist in the schema.
    UnknownColumn {
        /// The missing name.
        name: String,
        /// The columns the schema actually has.
        available: Vec<String>,
    },
    /// A value (or constant) did not match the column's declared type.
    TypeMismatch {
        /// The column being written or compared.
        column: String,
        /// The column's declared type.
        expected: ColumnType,
        /// The type actually supplied.
        found: ColumnType,
    },
    /// A row had the wrong number of values for the schema.
    WrongArity {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// The column's type does not fit the kernel's one-word key domain, so
    /// it cannot serve as a join key, filter operand or group key.
    NotWordEncodable {
        /// The column.
        column: String,
        /// Its type.
        ty: ColumnType,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::EmptySchema => write!(f, "a schema needs at least one column"),
            SchemaError::DuplicateColumn { name } => {
                write!(f, "duplicate column name `{name}`")
            }
            SchemaError::InvalidColumnName { name } => {
                write!(f, "invalid column name `{name}`")
            }
            SchemaError::ZeroWidthBytes { name } => {
                write!(f, "column `{name}`: bytes columns need a non-zero width")
            }
            SchemaError::UnknownColumn { name, available } => {
                write!(
                    f,
                    "unknown column `{name}` (available: {})",
                    available.join(", ")
                )
            }
            SchemaError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(
                f,
                "column `{column}` has type {expected}, got a {found} value"
            ),
            SchemaError::WrongArity { expected, found } => {
                write!(
                    f,
                    "row has {found} values but the schema has {expected} columns"
                )
            }
            SchemaError::NotWordEncodable { column, ty } => write!(
                f,
                "column `{column}` of type {ty} cannot be used as a key/filter/group column \
                 (only u64, i64, bool and bytes[≤8] fit one key word; hash or \
                 dictionary-encode wider strings first)"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// One named, typed column at a fixed byte offset within its schema's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    name: String,
    ty: ColumnType,
    offset: usize,
}

impl Column {
    /// The column's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The column's type.
    pub fn ty(&self) -> ColumnType {
        self.ty
    }

    /// Byte offset of this column within each encoded row.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

/// `true` iff `name` can be used as a column name in the text frontend.
fn column_name_is_valid(name: &str) -> bool {
    !name.is_empty()
        && !name.contains(|c: char| c.is_whitespace() || matches!(c, '|' | '(' | ')' | ',' | '='))
}

/// An ordered list of named, typed columns.
///
/// A schema fixes the serialized layout of its rows: column `i` occupies
/// `columns()[i].width()` bytes at `columns()[i].offset()`, and every row
/// encodes to exactly [`row_width`](Schema::row_width) bytes.  Schema
/// contents (names, types, widths) are public metadata, like table sizes.
///
/// ```
/// use obliv_join::schema::{ColumnType, Schema};
///
/// let s = Schema::new([("k", ColumnType::U64), ("flag", ColumnType::Bool)]).unwrap();
/// assert_eq!(s.row_width(), 9);
/// assert_eq!(s.column("flag").unwrap().1.ty(), ColumnType::Bool);
/// assert!(s.column("ghost").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    row_width: usize,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// Fails on an empty column list, duplicate or invalid names, and
    /// zero-width `Bytes` columns.
    pub fn new<N, I>(columns: I) -> Result<Schema, SchemaError>
    where
        N: Into<String>,
        I: IntoIterator<Item = (N, ColumnType)>,
    {
        let mut cols: Vec<Column> = Vec::new();
        let mut offset = 0usize;
        for (name, ty) in columns {
            let name = name.into();
            if !column_name_is_valid(&name) {
                return Err(SchemaError::InvalidColumnName { name });
            }
            if cols.iter().any(|c| c.name == name) {
                return Err(SchemaError::DuplicateColumn { name });
            }
            if ty == ColumnType::Bytes(0) {
                return Err(SchemaError::ZeroWidthBytes { name });
            }
            let width = ty.width();
            cols.push(Column { name, ty, offset });
            offset += width;
        }
        if cols.is_empty() {
            return Err(SchemaError::EmptySchema);
        }
        Ok(Schema {
            columns: cols,
            row_width: offset,
        })
    }

    /// The degenerate two-column schema of the legacy pair-shaped
    /// [`Table`]: `{key: u64, value: u64}`.
    pub fn pair() -> Schema {
        Schema::pair_named("key", "value").expect("static names are valid")
    }

    /// A pair schema with caller-chosen column names.
    pub fn pair_named(
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<Schema, SchemaError> {
        Schema::new([
            (key.into(), ColumnType::U64),
            (value.into(), ColumnType::U64),
        ])
    }

    /// The columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `false` always — schemas are non-empty by construction; present for
    /// clippy-idiomatic pairing with [`len`](Schema::len).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column names, in declaration order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Serialized width of one row, in bytes.  A `WideTable` with `n` rows
    /// stores exactly `n * row_width()` bytes; both factors are public.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Number of `u64` words one row occupies when staged into the
    /// oblivious kernel (`ceil(row_width / 8)`).
    pub fn row_words(&self) -> usize {
        self.row_width.div_ceil(8)
    }

    /// Look up a column by name, returning its index and descriptor.
    pub fn column(&self, name: &str) -> Result<(usize, &Column), SchemaError> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.name == name)
            .ok_or_else(|| SchemaError::UnknownColumn {
                name: name.to_string(),
                available: self.columns.iter().map(|c| c.name.clone()).collect(),
            })
    }

    /// Like [`column`](Schema::column), but additionally requiring the
    /// column to fit the kernel's one-word key domain.
    pub fn key_column(&self, name: &str) -> Result<(usize, &Column), SchemaError> {
        let (idx, col) = self.column(name)?;
        if !col.ty.is_word_encodable() {
            return Err(SchemaError::NotWordEncodable {
                column: name.to_string(),
                ty: col.ty,
            });
        }
        Ok((idx, col))
    }

    /// Encode one row of values into its fixed-width byte representation.
    ///
    /// ```
    /// use obliv_join::schema::{ColumnType, Schema, Value};
    ///
    /// let s = Schema::new([("k", ColumnType::U64), ("b", ColumnType::Bool)]).unwrap();
    /// let row = s.encode_row(&[Value::U64(7), Value::Bool(true)]).unwrap();
    /// assert_eq!(row.len(), s.row_width());
    /// assert_eq!(s.decode_row(&row), vec![Value::U64(7), Value::Bool(true)]);
    /// ```
    pub fn encode_row(&self, values: &[Value]) -> Result<Vec<u8>, SchemaError> {
        let mut bytes = Vec::with_capacity(self.row_width);
        self.encode_row_into(values, &mut bytes)?;
        Ok(bytes)
    }

    /// Append the encoding of one row to `out`; on error `out` is left as
    /// it was.  What [`WideTable`] builds its row storage with, one
    /// allocation per table instead of one per row.
    fn encode_row_into(&self, values: &[Value], out: &mut Vec<u8>) -> Result<(), SchemaError> {
        if values.len() != self.columns.len() {
            return Err(SchemaError::WrongArity {
                expected: self.columns.len(),
                found: values.len(),
            });
        }
        let start = out.len();
        for (col, value) in self.columns.iter().zip(values) {
            match (col.ty, value) {
                (ColumnType::U64, Value::U64(v)) => out.extend_from_slice(&v.to_le_bytes()),
                (ColumnType::I64, Value::I64(v)) => out.extend_from_slice(&v.to_le_bytes()),
                (ColumnType::Bool, Value::Bool(v)) => out.push(*v as u8),
                (ColumnType::Bytes(n), Value::Bytes(b)) if b.len() == n => out.extend_from_slice(b),
                _ => {
                    out.truncate(start);
                    return Err(SchemaError::TypeMismatch {
                        column: col.name.clone(),
                        expected: col.ty,
                        found: value.column_type(),
                    });
                }
            }
        }
        debug_assert_eq!(out.len() - start, self.row_width);
        Ok(())
    }

    /// Decode the value of column `idx` from an encoded row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly [`row_width`](Schema::row_width)
    /// bytes or `idx` is out of range — both are programming errors, not
    /// data-dependent conditions.
    pub fn value_at(&self, row: &[u8], idx: usize) -> Value {
        assert_eq!(row.len(), self.row_width, "row width mismatch");
        let col = &self.columns[idx];
        let field = &row[col.offset..col.offset + col.ty.width()];
        match col.ty {
            ColumnType::U64 => Value::U64(u64::from_le_bytes(field.try_into().unwrap())),
            ColumnType::I64 => Value::I64(i64::from_le_bytes(field.try_into().unwrap())),
            ColumnType::Bool => Value::Bool(field[0] != 0),
            ColumnType::Bytes(_) => Value::Bytes(field.to_vec()),
        }
    }

    /// Decode a whole encoded row back into values.
    pub fn decode_row(&self, row: &[u8]) -> Vec<Value> {
        (0..self.columns.len())
            .map(|i| self.value_at(row, i))
            .collect()
    }

    /// Extract column `idx` of an encoded row as its order-preserving
    /// kernel word (see [`obliv_primitives::encode`]).
    ///
    /// The extraction is a fixed-offset, fixed-width read — data-independent
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if the column is not word-encodable; validate with
    /// [`key_column`](Schema::key_column) first.
    pub fn word_at(&self, row: &[u8], idx: usize) -> u64 {
        let col = &self.columns[idx];
        assert!(
            col.ty.is_word_encodable(),
            "column `{}` is not word-encodable; callers must validate first",
            col.name
        );
        match self.value_at(row, idx) {
            Value::U64(v) => encode::encode_u64(v),
            Value::I64(v) => encode::encode_i64(v),
            Value::Bool(v) => encode::encode_bool(v),
            Value::Bytes(b) => encode::encode_bytes_be(&b),
        }
    }

    /// Encode one [`Value`] into its order-preserving kernel word, checking
    /// it against this column's declared type (used to type filter
    /// constants).
    pub fn value_to_word(&self, idx: usize, value: &Value) -> Result<u64, SchemaError> {
        let col = &self.columns[idx];
        if !col.ty.is_word_encodable() {
            return Err(SchemaError::NotWordEncodable {
                column: col.name.clone(),
                ty: col.ty,
            });
        }
        match (col.ty, value) {
            (ColumnType::U64, Value::U64(v)) => Ok(encode::encode_u64(*v)),
            (ColumnType::I64, Value::I64(v)) => Ok(encode::encode_i64(*v)),
            // Frontend convenience: a non-negative integer constant compares
            // fine against a signed column.
            (ColumnType::I64, Value::U64(v)) if *v <= i64::MAX as u64 => {
                Ok(encode::encode_i64(*v as i64))
            }
            (ColumnType::Bool, Value::Bool(v)) => Ok(encode::encode_bool(*v)),
            (ColumnType::Bytes(n), Value::Bytes(b)) if b.len() == n => {
                Ok(encode::encode_bytes_be(b))
            }
            _ => Err(SchemaError::TypeMismatch {
                column: col.name.clone(),
                expected: col.ty,
                found: value.column_type(),
            }),
        }
    }
}

/// A table of fixed-width, schema-conforming rows.
///
/// Rows are stored as one flat byte buffer with stride
/// [`Schema::row_width`]; like the pair-shaped [`Table`], the buffer is
/// `Arc`-backed, so cloning a `WideTable` (e.g. when the engine snapshots
/// the catalog) is a reference-count bump and mutation is copy-on-write.
///
/// A `WideTable` is the *client-side* representation: constructing and
/// inspecting it happens before data is handed to the oblivious operators,
/// so none of these methods trace.  What **is** public by construction is
/// the pair `(schema, row count)` — the same stance the paper takes on
/// input sizes.
///
/// ```
/// use obliv_join::schema::{ColumnType, Schema, Value, WideTable};
///
/// let schema = Schema::new([("id", ColumnType::U64), ("qty", ColumnType::U64)]).unwrap();
/// let t = WideTable::from_rows(
///     schema,
///     [
///         vec![Value::U64(1), Value::U64(10)],
///         vec![Value::U64(2), Value::U64(20)],
///     ],
/// )
/// .unwrap();
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.value(1, "qty").unwrap(), Value::U64(20));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideTable {
    schema: Arc<Schema>,
    data: Arc<Vec<u8>>,
}

impl WideTable {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> WideTable {
        WideTable::with_schema(Arc::new(schema))
    }

    /// An empty table sharing an existing schema handle.
    pub fn with_schema(schema: Arc<Schema>) -> WideTable {
        WideTable {
            schema,
            data: Arc::new(Vec::new()),
        }
    }

    /// Build a table from rows of values.
    pub fn from_rows<I>(schema: Schema, rows: I) -> Result<WideTable, SchemaError>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let rows = rows.into_iter();
        let mut data = Vec::with_capacity(rows.size_hint().0 * schema.row_width());
        for row in rows {
            schema.encode_row_into(&row, &mut data)?;
        }
        Ok(WideTable::from_encoded(Arc::new(schema), data))
    }

    /// Build a table directly from pre-encoded row bytes (used by the wide
    /// operators to rebuild their outputs).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of rows.
    pub fn from_encoded(schema: Arc<Schema>, data: Vec<u8>) -> WideTable {
        assert_eq!(
            data.len() % schema.row_width(),
            0,
            "encoded data must be a whole number of rows"
        );
        WideTable {
            schema,
            data: Arc::new(data),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A shareable handle to the schema.
    pub fn schema_handle(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.schema.row_width()
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append one row (copy-on-write if the row storage is shared).
    pub fn push(&mut self, values: &[Value]) -> Result<(), SchemaError> {
        self.schema
            .encode_row_into(values, Arc::make_mut(&mut self.data))
    }

    /// The encoded bytes of row `i`.
    pub fn row_bytes(&self, i: usize) -> &[u8] {
        let w = self.schema.row_width();
        &self.data[i * w..(i + 1) * w]
    }

    /// Iterate over the encoded rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(self.schema.row_width())
    }

    /// Decode row `i` into values.
    pub fn row_values(&self, i: usize) -> Vec<Value> {
        self.schema.decode_row(self.row_bytes(i))
    }

    /// The value of the named column in row `i`.
    pub fn value(&self, i: usize, column: &str) -> Result<Value, SchemaError> {
        let (idx, _) = self.schema.column(column)?;
        Ok(self.schema.value_at(self.row_bytes(i), idx))
    }

    /// True if this table shares its row storage with another clone
    /// (diagnostic; mirrors [`Table::shares_rows_with`]).
    pub fn shares_rows_with(&self, other: &WideTable) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Wrap a pair-shaped [`Table`] as a wide table with the degenerate
    /// [`Schema::pair`] schema (`{key: u64, value: u64}`).
    pub fn from_pair(table: &Table) -> WideTable {
        WideTable::from_pair_named(table, "key", "value").expect("static names are valid")
    }

    /// Like [`from_pair`](WideTable::from_pair) with caller-chosen column
    /// names.
    pub fn from_pair_named(
        table: &Table,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<WideTable, SchemaError> {
        let schema = Schema::pair_named(key, value)?;
        let mut data = Vec::with_capacity(table.len() * schema.row_width());
        for e in table.iter() {
            data.extend_from_slice(&e.key.to_le_bytes());
            data.extend_from_slice(&e.value.to_le_bytes());
        }
        Ok(WideTable::from_encoded(Arc::new(schema), data))
    }

    /// Project two word-encodable columns into a pair-shaped [`Table`] of
    /// `(key word, value word)` rows — the shape the oblivious kernel
    /// consumes.  Values travel as their order-preserving kernel words; use
    /// [`ColumnType::value_from_word`] to decode them on the way back out.
    pub fn project_pair(&self, key: &str, value: &str) -> Result<Table, SchemaError> {
        let (key_idx, _) = self.schema.key_column(key)?;
        let (val_idx, _) = self.schema.key_column(value)?;
        Ok(self
            .rows()
            .map(|row| {
                (
                    self.schema.word_at(row, key_idx),
                    self.schema.word_at(row, val_idx),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders_schema() -> Schema {
        Schema::new([
            ("o_key", ColumnType::U64),
            ("price", ColumnType::U64),
            ("priority", ColumnType::I64),
            ("flag", ColumnType::Bool),
            ("region", ColumnType::Bytes(4)),
        ])
        .unwrap()
    }

    #[test]
    fn schema_layout_is_fixed_and_public() {
        let s = orders_schema();
        assert_eq!(s.row_width(), 8 + 8 + 8 + 1 + 4);
        assert_eq!(s.row_words(), 4); // ceil(29 / 8)
        assert_eq!(s.len(), 5);
        let (idx, col) = s.column("flag").unwrap();
        assert_eq!(idx, 3);
        assert_eq!(col.offset(), 24);
        assert_eq!(col.ty(), ColumnType::Bool);
        assert_eq!(
            s.column_names(),
            vec!["o_key", "price", "priority", "flag", "region"]
        );
    }

    #[test]
    fn schema_construction_errors() {
        assert_eq!(
            Schema::new(Vec::<(String, ColumnType)>::new()).unwrap_err(),
            SchemaError::EmptySchema
        );
        assert_eq!(
            Schema::new([("a", ColumnType::U64), ("a", ColumnType::Bool)]).unwrap_err(),
            SchemaError::DuplicateColumn { name: "a".into() }
        );
        for bad in ["", "two words", "pipe|col", "sum(x)", "a=b", "a,b"] {
            assert_eq!(
                Schema::new([(bad, ColumnType::U64)]).unwrap_err(),
                SchemaError::InvalidColumnName { name: bad.into() },
                "{bad}"
            );
        }
        assert_eq!(
            Schema::new([("b", ColumnType::Bytes(0))]).unwrap_err(),
            SchemaError::ZeroWidthBytes { name: "b".into() }
        );
    }

    #[test]
    fn row_roundtrip_all_types() {
        let s = orders_schema();
        let values = vec![
            Value::U64(42),
            Value::U64(999),
            Value::I64(-17),
            Value::Bool(true),
            Value::Bytes(b"east".to_vec()),
        ];
        let row = s.encode_row(&values).unwrap();
        assert_eq!(row.len(), s.row_width());
        assert_eq!(s.decode_row(&row), values);
        assert_eq!(s.value_at(&row, 2), Value::I64(-17));
    }

    #[test]
    fn encode_row_reports_typed_errors() {
        let s = orders_schema();
        assert_eq!(
            s.encode_row(&[Value::U64(1)]).unwrap_err(),
            SchemaError::WrongArity {
                expected: 5,
                found: 1
            }
        );
        let mut values = vec![
            Value::U64(42),
            Value::U64(999),
            Value::I64(-17),
            Value::Bool(true),
            Value::Bytes(b"east".to_vec()),
        ];
        values[2] = Value::U64(17);
        assert_eq!(
            s.encode_row(&values).unwrap_err(),
            SchemaError::TypeMismatch {
                column: "priority".into(),
                expected: ColumnType::I64,
                found: ColumnType::U64
            }
        );
        values[2] = Value::I64(-17);
        values[4] = Value::Bytes(b"toolong".to_vec());
        assert_eq!(
            s.encode_row(&values).unwrap_err(),
            SchemaError::TypeMismatch {
                column: "region".into(),
                expected: ColumnType::Bytes(4),
                found: ColumnType::Bytes(7)
            }
        );
    }

    #[test]
    fn words_are_order_preserving_per_type() {
        let s = Schema::new([("p", ColumnType::I64)]).unwrap();
        let rows: Vec<Vec<u8>> = [-9i64, -1, 0, 5]
            .iter()
            .map(|&v| s.encode_row(&[Value::I64(v)]).unwrap())
            .collect();
        let words: Vec<u64> = rows.iter().map(|r| s.word_at(r, 0)).collect();
        assert!(words.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ColumnType::I64.value_from_word(words[0]), Value::I64(-9));
    }

    #[test]
    fn key_column_rejects_wide_bytes() {
        let s = Schema::new([("blob", ColumnType::Bytes(16))]).unwrap();
        assert_eq!(
            s.key_column("blob").unwrap_err(),
            SchemaError::NotWordEncodable {
                column: "blob".into(),
                ty: ColumnType::Bytes(16)
            }
        );
        assert!(!ColumnType::Bytes(16).is_word_encodable());
        assert!(ColumnType::Bytes(8).is_word_encodable());
    }

    #[test]
    fn wide_table_push_and_lookup() {
        let mut t = WideTable::new(orders_schema());
        assert!(t.is_empty());
        t.push(&[
            Value::U64(1),
            Value::U64(120),
            Value::I64(-2),
            Value::Bool(false),
            Value::Bytes(b"east".to_vec()),
        ])
        .unwrap();
        t.push(&[
            Value::U64(2),
            Value::U64(80),
            Value::I64(3),
            Value::Bool(true),
            Value::Bytes(b"west".to_vec()),
        ])
        .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.value(0, "region").unwrap(),
            Value::Bytes(b"east".to_vec())
        );
        assert_eq!(t.value(1, "priority").unwrap(), Value::I64(3));
        assert_eq!(
            t.value(0, "ghost").unwrap_err(),
            SchemaError::UnknownColumn {
                name: "ghost".into(),
                available: vec![
                    "o_key".into(),
                    "price".into(),
                    "priority".into(),
                    "flag".into(),
                    "region".into()
                ]
            }
        );
    }

    #[test]
    fn failed_push_leaves_the_table_unchanged() {
        // The type error is in the last column: the row is encoded in place,
        // so the columns before it must be taken back out.
        let good = [Value::U64(1), Value::U64(10)];
        let bad = [Value::U64(2), Value::Bool(true)];
        let mut t = WideTable::new(Schema::pair());
        t.push(&good).unwrap();
        let before = t.clone();
        assert!(matches!(
            t.push(&bad),
            Err(SchemaError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.push(&good[..1]),
            Err(SchemaError::WrongArity { .. })
        ));
        assert_eq!(t, before);
        t.push(&good).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_values(1), good);

        let rows = [good.to_vec(), bad.to_vec()];
        assert!(WideTable::from_rows(Schema::pair(), rows).is_err());
    }

    #[test]
    fn wide_table_clone_is_cow() {
        let mut t = WideTable::new(Schema::pair());
        t.push(&[Value::U64(1), Value::U64(10)]).unwrap();
        let snapshot = t.clone();
        assert!(t.shares_rows_with(&snapshot));
        t.push(&[Value::U64(2), Value::U64(20)]).unwrap();
        assert!(!t.shares_rows_with(&snapshot));
        assert_eq!(snapshot.len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pair_conversions_roundtrip() {
        let pair = Table::from_pairs(vec![(1, 10), (2, 20), (3, 30)]);
        let wide = WideTable::from_pair(&pair);
        assert_eq!(wide.schema().column_names(), vec!["key", "value"]);
        assert_eq!(wide.len(), 3);
        assert_eq!(wide.value(1, "value").unwrap(), Value::U64(20));
        let back = wide.project_pair("key", "value").unwrap();
        assert_eq!(back, pair);
        // Projection can also re-key by any word-encodable column.
        let swapped = wide.project_pair("value", "key").unwrap();
        assert_eq!(swapped.rows()[0], (10, 1).into());
    }

    #[test]
    fn project_pair_encodes_typed_columns_order_preservingly() {
        let schema = Schema::new([("id", ColumnType::U64), ("delta", ColumnType::I64)]).unwrap();
        let t = WideTable::from_rows(
            schema,
            [
                vec![Value::U64(1), Value::I64(-5)],
                vec![Value::U64(2), Value::I64(7)],
            ],
        )
        .unwrap();
        let pair = t.project_pair("id", "delta").unwrap();
        assert!(
            pair.rows()[0].value < pair.rows()[1].value,
            "order preserved"
        );
        assert_eq!(
            ColumnType::I64.value_from_word(pair.rows()[0].value),
            Value::I64(-5)
        );
    }

    #[test]
    fn value_display_forms() {
        assert_eq!(Value::U64(7).to_string(), "7");
        assert_eq!(Value::I64(-7).to_string(), "-7");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Bytes(b"ab".to_vec()).to_string(), "\"ab\"");
        assert_eq!(Value::Bytes(vec![0xff, 0x00]).to_string(), "0xff00");
        assert_eq!(ColumnType::Bytes(4).to_string(), "bytes[4]");
    }
}
