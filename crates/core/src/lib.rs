//! # obliv-join — efficient oblivious database joins
//!
//! A from-scratch Rust implementation of the oblivious binary equi-join of
//! *Efficient Oblivious Database Joins* (Krastnikov, Kerschbaum, Stebila;
//! VLDB 2020).  The join runs in `O(n log² n + m log m)` time (`n` = total
//! input size, `m` = output size) and its sequence of public-memory accesses
//! is a function of `(n₁, n₂, m)` only — it leaks nothing about the join
//! structure of the inputs beyond the output size, which it reveals by
//! construction (§3.2 of the paper).
//!
//! ## Quick start
//!
//! ```
//! use obliv_join::{oblivious_join, Table};
//!
//! let employees = Table::from_pairs(vec![
//!     // (department id, employee id)
//!     (10, 1), (10, 2), (20, 3),
//! ]);
//! let departments = Table::from_pairs(vec![
//!     // (department id, location id)
//!     (10, 700), (20, 800), (30, 900),
//! ]);
//!
//! let result = oblivious_join(&employees, &departments);
//! assert_eq!(result.len(), 3); // employees 1, 2 match 700; employee 3 matches 800
//! ```
//!
//! ## Recording the access pattern
//!
//! Every intermediate table lives in [`obliv_trace`] tracked buffers; pass a
//! tracer to [`oblivious_join_with_tracer`] to log, hash or count the
//! accesses (that is how the obliviousness experiments of the paper's §6.1
//! are reproduced in this workspace):
//!
//! ```
//! use obliv_join::{oblivious_join_with_tracer, Table};
//! use obliv_trace::{HashingSink, Tracer};
//!
//! let t1 = Table::from_pairs(vec![(1, 10), (2, 20)]);
//! let t2 = Table::from_pairs(vec![(1, 30), (1, 40)]);
//! let tracer = Tracer::new(HashingSink::new());
//! let result = oblivious_join_with_tracer(&tracer, &t1, &t2);
//! let fingerprint = tracer.with_sink(|s| s.digest_hex());
//! assert_eq!(result.len(), 2);
//! assert_eq!(fingerprint.len(), 64);
//! ```
//!
//! ## Module map
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`table`] | §4.1 | client-side input tables |
//! | [`schema`] | §4.1 | typed schemas / fixed-width wide rows |
//! | [`record`] | §5 | fixed-width entry / augmented-record types |
//! | [`augment`] | Algorithm 2 | group dimensions α₁, α₂ and output size |
//! | [`align`] | Algorithm 5 | alignment of `S₂` with `S₁` |
//! | [`join`] | Algorithm 1 | the full pipeline and its result type |
//! | [`stats`] | Table 3 | per-phase operation counts and timings |
//! | [`cost`] | Table 3 | exact analytical cost model |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod augment;
pub mod cost;
pub mod join;
pub mod record;
pub mod schema;
pub mod stats;
pub mod table;

pub use join::{
    oblivious_join, oblivious_join_payloads, oblivious_join_with_tracer, reference_join,
    sorted_rows, JoinResult,
};
pub use record::{
    AlignRecord, AugRecord, AugmentRecord, DataValue, Entry, JoinKey, JoinRow, Payload, TableId,
};
pub use schema::{Column, ColumnType, Schema, SchemaError, Value, WideTable};
pub use stats::{JoinStats, Phase, PhaseStats};
pub use table::Table;
