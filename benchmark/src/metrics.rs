//! The metrics the benchmark reports, by name, with their units.  The same
//! names, units and directions are declared in `BENCHMARK.json` (a unit test
//! keeps the two in step); the bounds and the run length live only there,
//! and the binary reads them from the copy it was built with.

use std::collections::BTreeMap;

use crate::json::Json;

/// `BENCHMARK.json` of the commit this binary was built from.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

fn declared() -> Json {
    Json::parse(DECLARED).expect("BENCHMARK.json is valid JSON")
}

/// `run_seconds`: how long one run measures.
pub fn run_seconds() -> u64 {
    let seconds = declared().get("run_seconds").and_then(Json::as_f64);
    seconds.expect("BENCHMARK.json declares run_seconds") as u64
}

/// The bound of every end-to-end metric, by name.
pub fn bounds() -> BTreeMap<String, f64> {
    let declared = declared();
    let list = declared.get("end_to_end").and_then(Json::as_array);
    list.expect("BENCHMARK.json declares end_to_end")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics: what a user of the system sees.  Reported for every
/// workload with tracing off.  Each has a bound, taken as a share of the
/// parent's median, so none may ever be 0: `failed_share`, which must stay
/// 0, is declared among the unbounded metrics below, and every run also
/// reports `failed` out of `attempted` and fails if any op did.
pub const END_TO_END: [MetricDef; 6] = [
    lower("op_p50_ms", "ms"),
    lower("op_tail_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("cpu_ms_per_op", "ms"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced pass.  A layer the workload
/// never calls reads 0.
pub const PER_LAYER: [MetricDef; 47] = [
    // trace: the sink's share of the operator pipeline.
    lower("trace.sink_share", "ratio"),
    lower("trace.hash_ns_per_event", "ns"),
    lower("trace.events_per_op", "count"),
    // primitives, at the workload's n and m.
    lower("primitives.sort_ms", "ms"),
    lower("primitives.sort_ns_per_cmp", "ns"),
    lower("primitives.expand_ms", "ms"),
    lower("primitives.compact_ms", "ms"),
    lower("primitives.distribute_ms", "ms"),
    // core: the paper's Table 3 split and the exact cost model.
    lower("core.phase_augment_ms", "ms"),
    lower("core.phase_expand_ms", "ms"),
    lower("core.phase_align_ms", "ms"),
    lower("core.phase_zip_ms", "ms"),
    lower("core.ns_per_gate", "ns"),
    lower("core.comparisons", "count"),
    lower("core.routing_hops", "count"),
    lower("core.cost_drift", "count"),
    // operators: direct wide_* calls under NullSink.
    lower("operators.join_ms", "ms"),
    lower("operators.filter_ms", "ms"),
    lower("operators.group_aggregate_ms", "ms"),
    lower("operators.join_aggregate_ms", "ms"),
    lower("operators.staging_ratio", "ratio"),
    // engine.
    lower("engine.parse_us", "us"),
    lower("engine.phase_resolve_us", "us"),
    lower("engine.phase_queue_wait_ms", "ms"),
    lower("engine.phase_execute_ms", "ms"),
    lower("engine.phase_publish_us", "us"),
    lower("engine.self_ms", "ms"),
    lower("engine.cache_hit_us", "us"),
    higher("engine.cache_hit_ratio", "ratio"),
    lower("engine.cache_evictions", "count"),
    lower("engine.register_ms", "ms"),
    // server.
    lower("server.tcp_rtt_us", "us"),
    lower("server.loopback_rtt_us", "us"),
    lower("server.net_self_us", "us"),
    lower("server.codec_us", "us"),
    lower("server.handoff_self_us", "us"),
    lower("server.bytes_per_reply", "count"),
    higher("server.batch_occupancy", "ratio"),
    // shard.
    lower("shard.scatter_ms", "ms"),
    lower("shard.merge_ms", "ms"),
    lower("shard.coord_self_ms", "ms"),
    higher("shard.speedup_vs_single", "ratio"),
    lower("shard.register_ms", "ms"),
    lower("shard.partition_rows", "count"),
    // the benchmark itself.
    lower("bench.tracing_overhead_pct", "%"),
    lower("bench.first_op_ms", "ms"),
    // (errors + oracle mismatches + digest mismatches) ÷ ops attempted.
    lower("failed_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    /// `BENCHMARK.json` must declare exactly the workloads and metrics the
    /// binary emits, with the same units and directions.
    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let declared = declared();
        let list = |key: &str| declared.get(key).and_then(Json::as_array).unwrap().to_vec();
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let emitted: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        match d.better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        }
                        .to_string(),
                    )
                })
                .collect();
            assert_eq!(declared, emitted, "{key}");
        }
    }
}
