//! The table catalog: named registered tables with public-size metadata.
//!
//! The engine's security model matches the paper's: table *sizes* are public
//! inputs (the adversary sees every array allocation), table *contents* are
//! protected.  The catalog therefore exposes sizes freely through
//! [`TableMeta`] while handing contents only to the executor.

use std::collections::BTreeMap;
use std::sync::Arc;

use obliv_join::schema::{Schema, WideTable};
use obliv_join::Table;

use crate::error::EngineError;

/// Public metadata of one registered table.
///
/// Everything here is information the paper's adversary already observes
/// (array identities, lengths and record widths), so listing it leaks
/// nothing new.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// The registered name.
    pub name: String,
    /// Number of rows — public by the paper's definition of the input sizes
    /// `n₁`, `n₂`.
    pub rows: usize,
    /// The table's schema (`{key: u64, value: u64}` for a table registered
    /// from a pair-shaped [`Table`]).
    pub schema: Arc<Schema>,
}

/// A registry of named tables that query plans reference by name.
///
/// The catalog stores one kind of table, the typed [`WideTable`].
/// [`register`](Catalog::register) is constructor sugar for the paper's
/// `(key, value)` shape: it encodes the [`Table`] once, under the
/// degenerate [`Schema::pair`] schema, and stores the result like any
/// other wide table.
///
/// ```
/// use obliv_engine::Catalog;
/// use obliv_join::Table;
///
/// let mut catalog = Catalog::new();
/// catalog.register("orders", Table::from_pairs(vec![(1, 100), (2, 250)])).unwrap();
/// assert_eq!(catalog.meta("orders").unwrap().rows, 2);
/// assert!(catalog.get("lineitem").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, WideTable>,
    /// Monotone content-version counter: bumped by every mutation that
    /// changes the registered tables (every registration and every
    /// successful [`deregister`](Catalog::deregister)).  Result caches key
    /// on `(plan, epoch)`, so any catalog change invalidates every cached
    /// result at once — coarse, but cheap and obviously correct.
    epoch: u64,
}

/// `true` iff `name` is usable as a table name in the text frontend:
/// non-empty, no whitespace, and none of the frontend's structural
/// characters (`|` separates stages).
fn name_is_valid(name: &str) -> bool {
    !name.is_empty() && !name.contains(|c: char| c.is_whitespace() || c == '|')
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a pair-shaped `table` under `name` (encoded once, here,
    /// under [`Schema::pair`]), replacing and returning any previous table
    /// of that name.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        table: Table,
    ) -> Result<Option<WideTable>, EngineError> {
        self.register_wide(name, WideTable::from_pair(&table))
    }

    /// Register `table` under `name`, replacing and returning any previous
    /// table of that name.
    pub fn register_wide(
        &mut self,
        name: impl Into<String>,
        table: WideTable,
    ) -> Result<Option<WideTable>, EngineError> {
        let name = name.into();
        if !name_is_valid(&name) {
            return Err(EngineError::InvalidTableName { name });
        }
        self.epoch += 1;
        Ok(self.tables.insert(name, table))
    }

    /// Remove and return the table registered under `name`; `None` (and no
    /// epoch bump) iff no such table was registered.
    pub fn deregister(&mut self, name: &str) -> Option<WideTable> {
        let removed = self.tables.remove(name);
        if removed.is_some() {
            self.epoch += 1;
        }
        removed
    }

    /// The catalog's current epoch: a counter bumped by every content
    /// mutation.  Two reads returning the same epoch saw identical
    /// registered tables.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The table registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&WideTable> {
        self.tables.get(name)
    }

    /// Like [`get`](Catalog::get), but an unknown name is the engine's
    /// typed [`EngineError::UnknownTable`].
    pub fn resolve(&self, name: &str) -> Result<&WideTable, EngineError> {
        self.get(name).ok_or_else(|| EngineError::UnknownTable {
            name: name.to_string(),
        })
    }

    /// Public metadata for `name`, if registered.
    pub fn meta(&self, name: &str) -> Option<TableMeta> {
        self.tables.get(name).map(|t| TableMeta {
            name: name.to_string(),
            rows: t.len(),
            schema: t.schema_handle(),
        })
    }

    /// Public metadata for every registered table, in name order.
    pub fn list(&self) -> Vec<TableMeta> {
        self.tables
            .keys()
            .map(|name| self.meta(name).expect("listed names are registered"))
            .collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` iff no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> Table {
        Table::from_pairs((0..n).map(|i| (i, i)))
    }

    #[test]
    fn register_get_meta_roundtrip() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        assert_eq!(c.register("orders", t(3)).unwrap(), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("orders").unwrap().len(), 3);
        assert_eq!(
            c.meta("orders"),
            Some(TableMeta {
                name: "orders".into(),
                rows: 3,
                schema: Arc::new(Schema::pair()),
            })
        );
        assert_eq!(c.meta("lineitem"), None);
    }

    #[test]
    fn register_replaces_and_returns_previous() {
        let mut c = Catalog::new();
        c.register("x", t(2)).unwrap();
        let old = c.register("x", t(5)).unwrap();
        assert_eq!(old.unwrap().len(), 2);
        assert_eq!(c.get("x").unwrap().len(), 5);
    }

    #[test]
    fn invalid_names_are_rejected() {
        let mut c = Catalog::new();
        for bad in ["", "two words", "pipe|name", "tab\tname"] {
            assert_eq!(
                c.register(bad, t(1)),
                Err(EngineError::InvalidTableName { name: bad.into() })
            );
        }
    }

    #[test]
    fn list_is_name_ordered_and_public_sizes_only() {
        let mut c = Catalog::new();
        c.register("zeta", t(1)).unwrap();
        c.register("alpha", t(4)).unwrap();
        let metas = c.list();
        assert_eq!(
            metas
                .iter()
                .map(|m| (m.name.as_str(), m.rows))
                .collect::<Vec<_>>(),
            vec![("alpha", 4), ("zeta", 1)]
        );
    }

    fn wide(n: u64) -> WideTable {
        use obliv_join::schema::{ColumnType, Value};
        let schema = Schema::new([("id", ColumnType::U64), ("p", ColumnType::I64)]).unwrap();
        WideTable::from_rows(
            schema,
            (0..n).map(|i| vec![Value::U64(i), Value::I64(-(i as i64))]),
        )
        .unwrap()
    }

    #[test]
    fn wide_tables_register_with_schema_metadata() {
        let mut c = Catalog::new();
        c.register_wide("orders", wide(3)).unwrap();
        let meta = c.meta("orders").unwrap();
        assert_eq!(meta.rows, 3);
        assert_eq!(meta.schema.column_names(), vec!["id", "p"]);
        assert_eq!(c.get("orders").unwrap().len(), 3);
        assert_eq!(c.resolve("orders").unwrap().len(), 3);
    }

    #[test]
    fn pair_tables_resolve_wide_through_degenerate_schema() {
        let mut c = Catalog::new();
        c.register("orders", t(2)).unwrap();
        let stored = c.resolve("orders").unwrap();
        assert_eq!(stored, &WideTable::from_pair(&t(2)));
        assert_eq!(stored.schema().column_names(), vec!["key", "value"]);
        assert_eq!(c.meta("orders").unwrap().schema.row_width(), 16);
    }

    #[test]
    fn replacing_across_shapes_bumps_epoch_and_changes_shape() {
        let mut c = Catalog::new();
        c.register("x", t(2)).unwrap();
        let epoch = c.epoch();
        // A pair-registered table replaced by a wider one: the previous
        // table comes back, whichever way it was registered.
        let previous = c.register_wide("x", wide(4)).unwrap();
        assert_eq!(previous, Some(WideTable::from_pair(&t(2))));
        assert_eq!(c.epoch(), epoch + 1);
        assert_eq!(c.get("x").unwrap().schema().column_names(), vec!["id", "p"]);
        assert_eq!(c.deregister("x"), Some(wide(4)));
        assert!(c.get("x").is_none());
        assert_eq!(c.epoch(), epoch + 2);
    }

    #[test]
    fn resolve_reports_unknown_tables() {
        let c = Catalog::new();
        assert_eq!(
            c.resolve("ghost").unwrap_err(),
            EngineError::UnknownTable {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn deregister_removes() {
        let mut c = Catalog::new();
        c.register("x", t(2)).unwrap();
        assert_eq!(c.deregister("x").unwrap().len(), 2);
        assert!(c.get("x").is_none());
        assert!(c.deregister("x").is_none());
    }

    #[test]
    fn epoch_tracks_content_mutations_only() {
        let mut c = Catalog::new();
        assert_eq!(c.epoch(), 0);
        c.register("x", t(2)).unwrap();
        assert_eq!(c.epoch(), 1);
        c.register("x", t(5)).unwrap(); // replacement counts
        assert_eq!(c.epoch(), 2);
        assert!(c.register("bad name", t(1)).is_err());
        assert_eq!(c.epoch(), 2, "rejected registration leaves epoch alone");
        assert!(c.deregister("ghost").is_none());
        assert_eq!(c.epoch(), 2, "no-op deregister leaves epoch alone");
        c.deregister("x");
        assert_eq!(c.epoch(), 3);
        // Reads never bump.
        let _ = c.meta("x");
        let _ = c.list();
        assert_eq!(c.epoch(), 3);
    }
}
