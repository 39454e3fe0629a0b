//! Golden frames: the checked-in protocol-v6 body of one message per wire
//! variant — every request opcode, every plan node, predicate, value,
//! column type, aggregate and join aggregate, a reply with and without a
//! span tree, stats, an error frame per error kind, and metrics.
//!
//! The round-trip suites cannot see a format change made the same way in
//! the encoder and the decoder; this test can.  Each message must encode
//! to exactly its checked-in bytes, and those bytes must decode back to
//! the message.  A deliberate format change edits these constants and
//! bumps `PROTOCOL_VERSION`.

use std::time::Duration;

use obliv_engine::{CacheStats, Plan, QuerySummary, Rows, SessionStats, SpanNode};
use obliv_join::schema::{ColumnType, Schema, Value, WideTable};
use obliv_operators::{Aggregate, JoinAggregate, WideCmp, WidePredicate};
use obliv_server::proto::{ErrorKind, QueryReply, Request, Response, StatsReply, WireError};
use obliv_telemetry::{
    HistogramSnapshot, MetricClass, MetricSample, MetricValue, MetricsSnapshot, PhaseBreakdown,
};
use obliv_trace::OpCounters;

fn scan(name: &str) -> Box<Plan> {
    Box::new(Plan::Scan(name.into()))
}

fn plan_request(plan: Plan) -> Request {
    Request::QueryPlan {
        token: "t".into(),
        deadline_ms: 0,
        trace_id: 1,
        collect_trace: false,
        plan,
    }
}

fn filter(predicate: WidePredicate) -> Request {
    plan_request(Plan::Filter {
        input: scan("t"),
        predicate,
    })
}

fn compare(column: &str, cmp: WideCmp, constant: Value) -> Request {
    filter(WidePredicate::Compare {
        column: column.into(),
        cmp,
        constant,
    })
}

fn group(aggregate: Aggregate, column: Option<&str>, by: Option<&str>) -> Request {
    plan_request(Plan::GroupAggregate {
        input: scan("t"),
        aggregate,
        column: column.map(Into::into),
        by: by.map(Into::into),
    })
}

fn join_aggregate(aggregate: JoinAggregate, left: Option<&str>, right: Option<&str>) -> Request {
    plan_request(Plan::JoinAggregate {
        left: scan("a"),
        right: scan("b"),
        left_key: "k".into(),
        right_key: "j".into(),
        left_value: left.map(Into::into),
        right_value: right.map(Into::into),
        aggregate,
    })
}

/// One request per opcode, plan node, predicate, value, aggregate and join
/// aggregate, in `GOLDEN_REQUESTS` order.
fn requests() -> Vec<Request> {
    vec![
        Request::QueryText {
            token: "acme".into(),
            deadline_ms: 250,
            trace_id: 0x0102_0304_0506_0708,
            collect_trace: true,
            query: "SCAN t".into(),
        },
        Request::Stats {
            token: "acme".into(),
        },
        Request::Metrics {
            token: "acme".into(),
        },
        plan_request(Plan::Scan("orders".into())),
        filter(WidePredicate::True),
        compare("k", WideCmp::AtLeast, Value::U64(7)),
        compare("p", WideCmp::Below, Value::I64(-2)),
        compare("u", WideCmp::Equals, Value::Bool(true)),
        compare("tag", WideCmp::Equals, Value::Bytes(b"east".to_vec())),
        filter(WidePredicate::InRange {
            column: "k".into(),
            lo: Value::I64(-3),
            hi: Value::Bool(false),
        }),
        plan_request(Plan::Project {
            input: scan("t"),
            columns: vec!["a".into(), "bc".into()],
        }),
        plan_request(Plan::Distinct { input: scan("t") }),
        plan_request(Plan::UnionAll {
            left: scan("a"),
            right: scan("b"),
        }),
        plan_request(Plan::Join {
            left: scan("a"),
            right: scan("b"),
            left_key: "k".into(),
            right_key: "j".into(),
        }),
        plan_request(Plan::SemiJoin {
            left: scan("a"),
            right: scan("b"),
            left_key: "k".into(),
            right_key: "j".into(),
        }),
        plan_request(Plan::AntiJoin {
            left: scan("a"),
            right: scan("b"),
            left_key: "k".into(),
            right_key: "j".into(),
        }),
        group(Aggregate::Count, None, None),
        group(Aggregate::Sum, Some("q"), Some("k")),
        group(Aggregate::Min, Some("q"), None),
        group(Aggregate::Max, None, Some("k")),
        join_aggregate(JoinAggregate::CountPairs, None, None),
        join_aggregate(JoinAggregate::SumLeft, Some("v"), None),
        join_aggregate(JoinAggregate::SumRight, None, Some("w")),
        join_aggregate(JoinAggregate::SumProducts, Some("v"), Some("w")),
        plan_request(Plan::Distinct {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Join {
                    left: scan("a"),
                    right: Box::new(Plan::Distinct { input: scan("b") }),
                    left_key: "k".into(),
                    right_key: "k".into(),
                }),
                predicate: WidePredicate::True,
            }),
        }),
    ]
}

fn summary(shards: bool) -> QuerySummary {
    QuerySummary {
        trace_digest: "d1".into(),
        trace_events: 0x1234,
        counters: OpCounters {
            comparisons: 1,
            compare_exchanges: 2,
            routing_hops: 3,
            linear_steps: 4,
        },
        output_rows: 2,
        output_row_width: 29,
        carry_words: 5,
        shard_partitions: if shards {
            vec![("t@shard0".into(), 6), ("t@shard1".into(), 7)]
        } else {
            vec![]
        },
        phases: PhaseBreakdown {
            parse: Duration::from_nanos(11),
            resolve: Duration::from_nanos(22),
            queue_wait: Duration::from_nanos(33),
            execute: Duration::from_nanos(44),
            publish: Duration::from_nanos(55),
        },
        wall: Duration::from_nanos(300),
    }
}

fn every_type_rows() -> Rows {
    let schema = Schema::new([
        ("k", ColumnType::U64),
        ("p", ColumnType::I64),
        ("u", ColumnType::Bool),
        ("tag", ColumnType::Bytes(4)),
    ])
    .unwrap();
    let table = WideTable::from_rows(
        schema,
        [
            vec![
                Value::U64(1),
                Value::I64(-5),
                Value::Bool(true),
                Value::Bytes(b"east".to_vec()),
            ],
            vec![
                Value::U64(2),
                Value::I64(7),
                Value::Bool(false),
                Value::Bytes(b"west".to_vec()),
            ],
        ],
    )
    .unwrap();
    Rows::from_wide(table)
}

fn span_tree() -> SpanNode {
    let scan = SpanNode {
        name: "scan".into(),
        detail: "t".into(),
        input_rows: vec![],
        output_rows: 3,
        output_row_width: 16,
        counters: OpCounters::default(),
        total_ns: 100,
        self_ns: 100,
        children: vec![],
    };
    SpanNode {
        name: "query".into(),
        detail: String::new(),
        input_rows: vec![3, 4],
        output_rows: 2,
        output_row_width: 16,
        counters: OpCounters {
            comparisons: 9,
            compare_exchanges: 8,
            routing_hops: 7,
            linear_steps: 6,
        },
        total_ns: 500,
        self_ns: 400,
        children: vec![scan],
    }
}

/// Both reply shapes, stats, metrics and an error frame per kind, in
/// `GOLDEN_RESPONSES` order.
fn responses() -> Vec<Response> {
    let pair = Rows::from_wide(
        WideTable::from_rows(Schema::pair(), [vec![Value::U64(1), Value::U64(10)]]).unwrap(),
    );
    let mut frames = vec![
        Response::Reply(Box::new(QueryReply {
            label: "acme/q0".into(),
            cached: true,
            trace_id: 99,
            summary: summary(true),
            rows: every_type_rows(),
            trace: None,
        })),
        Response::Reply(Box::new(QueryReply {
            label: "acme/q1".into(),
            cached: false,
            trace_id: u64::MAX,
            summary: summary(false),
            rows: pair,
            trace: Some(span_tree()),
        })),
        Response::Stats(StatsReply {
            session: SessionStats {
                queries: 1,
                trace_events: 2,
                output_rows: 3,
                comparisons: 4,
                cache_hits: 5,
                output_bytes: 6,
                max_carry_words: 7,
                shards: 2,
            },
            cache: CacheStats {
                hits: 8,
                misses: 9,
                evictions: 10,
                entries: 11,
                bytes: 12,
            },
            build: "0.1.0".into(),
            uptime_secs: 86_401,
            shard_cache_hits: vec![13, 14],
        }),
        Response::Metrics(MetricsSnapshot::default()),
        Response::Metrics(MetricsSnapshot {
            samples: vec![
                MetricSample {
                    name: "q".into(),
                    labels: vec![("r".into(), "x".into())],
                    class: MetricClass::Content,
                    value: MetricValue::Counter(42),
                },
                MetricSample {
                    name: "g".into(),
                    labels: vec![],
                    class: MetricClass::Content,
                    value: MetricValue::Gauge(-7),
                },
                MetricSample {
                    name: "h".into(),
                    labels: vec![],
                    class: MetricClass::Timing,
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 9,
                        sum: 31,
                        buckets: vec![(0, 1), (2, 3), (64, 5)],
                    }),
                },
            ],
        }),
    ];
    for (kind, retry_after_ms) in [
        (ErrorKind::Protocol, 0),
        (ErrorKind::FrameTooLarge, 0),
        (ErrorKind::UnsupportedVersion, 0),
        (ErrorKind::AuthMismatch, 0),
        (ErrorKind::Query, 0),
        (ErrorKind::Shutdown, 0),
        (ErrorKind::Internal, 0),
        (ErrorKind::DeadlineExceeded, 0),
        (ErrorKind::Overloaded, 0x0102_0304),
    ] {
        let error = WireError::new(kind, "no").with_retry_after_ms(retry_after_ms);
        frames.push(Response::Error(error));
    }
    frames
}

/// The v6 body of every message of [`requests`], in order: one line per
/// frame, its name and then its hex body, continued on indented lines.
const GOLDEN_REQUESTS: &str = "
query_text                0601000461636d65000000fa01020304050607080100065343414e2074
stats                     0603000461636d65
metrics                   0604000461636d65
plan_scan                 0602000174000000000000000000000001000000066f7264657273
filter_true               060200017400000000000000000000000100010000000174
filter_at_least_u64       060200017400000000000000000000000100010100016b000000000000000000
                          0700000174
filter_below_i64          06020001740000000000000000000000010001010001700101ffffffffffffff
                          fe00000174
filter_equals_bool        060200017400000000000000000000000100010100017502020100000174
filter_equals_bytes       0602000174000000000000000000000001000101000374616702030004656173
                          7400000174
filter_in_range           060200017400000000000000000000000100010200016b01fffffffffffffffd
                          020000000174
plan_project              0602000174000000000000000000000001000200020001610002626300000174
plan_distinct             0602000174000000000000000000000001000300000174
plan_union_all            060200017400000000000000000000000100040000016100000162
plan_join                 0602000174000000000000000000000001000500016b00016a00000161000001
                          62
plan_semi_join            0602000174000000000000000000000001000600016b00016a00000161000001
                          62
plan_anti_join            0602000174000000000000000000000001000700016b00016a00000161000001
                          62
group_count               0602000174000000000000000000000001000800000000000174
group_sum_by              0602000174000000000000000000000001000801010001710100016b00000174
group_min                 0602000174000000000000000000000001000802010001710000000174
group_max_by              0602000174000000000000000000000001000803000100016b00000174
join_agg_count_pairs      060200017400000000000000000000000100090000016b00016a000000000161
                          00000162
join_agg_sum_left         060200017400000000000000000000000100090100016b00016a010001760000
                          00016100000162
join_agg_sum_right        060200017400000000000000000000000100090200016b00016a000100017700
                          00016100000162
join_agg_sum_products     060200017400000000000000000000000100090300016b00016a010001760100
                          01770000016100000162
nested_plan               0602000174000000000000000000000001000301000500016b00016b00000161
                          0300000162
";

/// The v6 body of every message of [`responses`], as in `GOLDEN_REQUESTS`.
const GOLDEN_RESPONSES: &str = "
reply_without_trace       0600000761636d652f7130010000000000000063000264310000000000001234
                          0000000000000001000000000000000200000000000000030000000000000004
                          0000000000000002000000000000001d00000000000000050002000874407368
                          6172643000000000000000060008744073686172643100000000000000070000
                          00000000000b00000000000000160000000000000021000000000000002c0000
                          000000000037000000000000012c000400016b00000170010001750200037461
                          67030004000000020100000000000000fbffffffffffffff0165617374020000
                          00000000000700000000000000007765737400
reply_with_trace          0600000761636d652f713100ffffffffffffffff000264310000000000001234
                          0000000000000001000000000000000200000000000000030000000000000004
                          0000000000000002000000000000001d00000000000000050000000000000000
                          000b00000000000000160000000000000021000000000000002c000000000000
                          0037000000000000012c000200036b657900000576616c756500000000010100
                          0000000000000a00000000000000010005717565727900000002000000000000
                          0003000000000000000400000000000000020000000000000010000000000000
                          0009000000000000000800000000000000070000000000000006000000000000
                          01f40000000000000190000100047363616e0001740000000000000000000300
                          0000000000001000000000000000000000000000000000000000000000000000
                          00000000000000000000000000006400000000000000640000
stats                     0602000000000000000100000000000000020000000000000003000000000000
                          0004000000000000000500000000000000060000000000000007000000000000
                          000200000000000000080000000000000009000000000000000a000000000000
                          000b000000000000000c0005302e312e30000000000001518100020000000000
                          00000d000000000000000e
metrics_empty             060400000000
metrics                   06040000000300017100000100017200017800000000000000002a0001670000
                          0001fffffffffffffff900016801000002000000000000000900000000000000
                          1f0003000000000000000001020000000000000003400000000000000005
error_protocol            0603000000000000026e6f
error_frame_too_large     0603010000000000026e6f
error_unsupported_version 0603020000000000026e6f
error_auth_mismatch       0603030000000000026e6f
error_query               0603040000000000026e6f
error_shutdown            0603050000000000026e6f
error_internal            0603060000000000026e6f
error_deadline_exceeded   0603070000000000026e6f
error_overloaded          0603080102030400026e6f
";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(name, hex body)` per frame of a golden table.
fn parse(table: &str) -> Vec<(&str, String)> {
    let mut frames: Vec<(&str, String)> = Vec::new();
    for line in table.lines().filter(|line| !line.is_empty()) {
        match line.strip_prefix(' ') {
            Some(more) => frames.last_mut().expect("a named frame first").1 += more.trim(),
            None => {
                let (name, body) = line.split_once(' ').expect("a name, then the body");
                frames.push((name, body.trim().to_string()));
            }
        }
    }
    frames
}

/// Every message must encode to its golden body, and every golden body
/// must decode back to its message.  On a mismatch the actual table is
/// printed in the golden format, so a deliberate change is easy to review.
fn check<M: PartialEq + std::fmt::Debug>(
    messages: &[M],
    table: &str,
    encode: impl Fn(&M) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> M,
) {
    let golden = parse(table);
    let actual: Vec<String> = messages.iter().map(|m| hex(&encode(m))).collect();
    let expected: Vec<&str> = golden.iter().map(|(_, body)| body.as_str()).collect();
    if actual != expected {
        let mut rendered = String::new();
        for (i, body) in actual.iter().enumerate() {
            let name = golden.get(i).map_or("?", |(name, _)| name);
            for (j, chunk) in body.as_bytes().chunks(64).enumerate() {
                let label = if j == 0 { name } else { "" };
                let chunk = std::str::from_utf8(chunk).unwrap();
                rendered += &format!("{label:26}{chunk}\n");
            }
        }
        panic!("frames differ from the goldens; actual:\n{rendered}");
    }
    for (message, (name, body)) in messages.iter().zip(&golden) {
        let bytes: Vec<u8> = (0..body.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&body[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(&decode(&bytes), message, "frame {name}");
    }
}

#[test]
fn request_frames_match_the_goldens() {
    check(
        &requests(),
        GOLDEN_REQUESTS,
        |m| m.encode().unwrap(),
        |b| Request::decode(b).unwrap(),
    );
}

#[test]
fn response_frames_match_the_goldens() {
    check(
        &responses(),
        GOLDEN_RESPONSES,
        |m| m.encode().unwrap(),
        |b| Response::decode(b).unwrap(),
    );
}
