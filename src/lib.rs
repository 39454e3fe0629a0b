//! # obliv-join-suite — workspace facade
//!
//! One-stop re-export of the public API of the *Efficient Oblivious Database
//! Joins* reproduction.  Depend on this crate to get the join, its
//! primitives, the traced-memory substrate, the baselines, the workload
//! generators, the obliviousness type system, the enclave simulator, the
//! concurrent query engine, the sharded multi-engine coordinator and the
//! network front door (server + client)
//! under a single name; or depend on the individual crates (`obliv-join`,
//! `obliv-primitives`, …) if you only need a part.
//!
//! ```
//! use obliv_join_suite::prelude::*;
//!
//! let left = Table::from_pairs(vec![(1, 10), (1, 11), (2, 20)]);
//! let right = Table::from_pairs(vec![(1, 30), (2, 40), (2, 41)]);
//! let result = oblivious_join(&left, &right);
//! assert_eq!(result.len(), 2 + 2);
//! ```
//!
//! The crate also hosts the workspace's runnable examples (`examples/`) and
//! cross-crate integration tests (`tests/`).  The repository's top-level
//! `README.md` maps the layout, and `ARCHITECTURE.md` walks the crate
//! stack, the life of a query through the engine, and where the
//! obliviousness guarantees live.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use obliv_baselines as baselines;
pub use obliv_enclave_sim as enclave_sim;
pub use obliv_engine as engine;
pub use obliv_join as join;
pub use obliv_operators as operators;
pub use obliv_primitives as primitives;
pub use obliv_server as server;
pub use obliv_shard as shard;
pub use obliv_telemetry as telemetry;
pub use obliv_trace as trace;
pub use obliv_verify as verify;
pub use obliv_workloads as workloads;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use obliv_baselines::{hash_join, nested_loop_join, opaque_pkfk_join, sort_merge_join};
    pub use obliv_enclave_sim::{EnclaveSimulator, EpcConfig};
    pub use obliv_engine::{
        parse_query, CacheStats, Catalog, Engine, EngineConfig, EngineError, Plan, QueryRequest,
        QueryResponse, QuerySummary, ResolvedPlan, Rows, Session, SessionStats, TableMeta,
    };
    pub use obliv_join::{
        oblivious_join, oblivious_join_with_tracer, ColumnType, JoinResult, JoinRow, Phase, Schema,
        SchemaError, Table, Value, WideTable,
    };
    pub use obliv_operators::{
        oblivious_group_aggregate, oblivious_join_aggregate, wide_anti_join, wide_distinct,
        wide_filter, wide_group_aggregate, wide_join, wide_join_aggregate, wide_project,
        wide_semi_join, wide_union_all, Aggregate, JoinAggregate, WideError, WidePredicate,
    };
    pub use obliv_primitives::{
        oblivious_compact, oblivious_distribute, oblivious_expand, Keyed, Routable,
    };
    pub use obliv_server::{Client, ClientError, QueryReply, Server, ServerConfig};
    pub use obliv_shard::{chunk_bounds, Coordinator, ShardConfig};
    pub use obliv_trace::{
        CollectingSink, CountingSink, HashingSink, NullSink, Tracer, TrackedBuffer,
    };
    pub use obliv_workloads::{
        balanced_unique_keys, correctness_suite, orders_lineitem, pk_fk, power_law, single_group,
        trace_classes, wide_orders_lineitem,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let w = balanced_unique_keys(32, 1);
        let result = oblivious_join(&w.left, &w.right);
        assert_eq!(result.len() as u64, w.output_size);
    }
}
