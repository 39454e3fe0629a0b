//! Fault injection at the coordinator and inside shard engines: every
//! contained crash must surface as exactly one typed
//! [`EngineError::ShardFailed`], sibling shards must be unaffected, and the
//! coordinator must stay fully usable afterwards — same answers from every
//! engine.
//!
//! Requires the `inject` feature of `obliv-chaos` (a dev-dependency of this
//! crate), so the injection points compiled into the coordinator and the
//! engines are live here.

use obliv_chaos::{points, Fault, FaultPlan};
use obliv_engine::{EngineConfig, EngineError, Plan, QueryRequest};
use obliv_join::Table;
use obliv_operators::Aggregate;
use obliv_shard::{Coordinator, ShardConfig};

fn register(c: &Coordinator) {
    c.register_table(
        "facts",
        Table::from_pairs(vec![(1, 10), (2, 20), (1, 30), (3, 40), (2, 50)]),
    )
    .unwrap();
    c.register_table("dims", Table::from_pairs(vec![(1, 7), (2, 9)]))
        .unwrap();
}

/// A scatter-routed request: runs on every shard engine, then merges.
fn scatter_request() -> QueryRequest {
    QueryRequest::new(
        "agg",
        Plan::scan("facts").group_aggregate(
            Aggregate::Sum,
            Some("value".into()),
            Some("key".into()),
        ),
    )
}

/// What a healthy 2-shard coordinator answers, for comparing recovery runs.
fn healthy_answer() -> Vec<(u64, u64)> {
    let c = Coordinator::new(ShardConfig {
        shards: 2,
        partitioned: vec!["facts".into()],
        ..ShardConfig::default()
    });
    register(&c);
    let r = c.execute_batch(&[scatter_request()]).unwrap();
    r[0].rows.pairs().unwrap()
}

#[test]
fn coordinator_panic_is_one_typed_error_and_the_next_batch_succeeds() {
    let c = Coordinator::new(ShardConfig {
        shards: 2,
        partitioned: vec!["facts".into()],
        faults: FaultPlan::new()
            .seed(7)
            .once(points::SHARD_COORDINATOR, Fault::Panic)
            .build(),
        ..ShardConfig::default()
    });
    register(&c);

    let err = c.execute_batch(&[scatter_request()]).unwrap_err();
    match err {
        EngineError::ShardFailed { shard, ref message } => {
            assert_eq!(shard, usize::MAX, "coordinator failures carry usize::MAX");
            assert!(
                message.contains("injected"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }

    // `once` has fired; the same coordinator now answers correctly — the
    // failed batch finalised nothing and no shard engine was harmed.
    let r = c.execute_batch(&[scatter_request()]).unwrap();
    assert!(!r[0].cached, "failed batch must not have populated caches");
    assert_eq!(r[0].rows.pairs().unwrap(), healthy_answer());
}

#[test]
fn one_shard_worker_panic_fails_the_batch_with_that_shard_index() {
    // The engine template's fault handle is cloned into every shard engine
    // (and the full-copy engine); clones share trigger state, so `once`
    // fires in exactly ONE shard's worker during the scatter.
    let c = Coordinator::new(ShardConfig {
        shards: 4,
        partitioned: vec!["facts".into()],
        engine: EngineConfig {
            workers: 1,
            faults: FaultPlan::new()
                .seed(11)
                .once(points::ENGINE_WORKER, Fault::Panic)
                .build(),
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    });
    register(&c);

    let err = c.execute_batch(&[scatter_request()]).unwrap_err();
    match err {
        EngineError::ShardFailed { shard, ref message } => {
            assert!(
                shard < 4,
                "a shard-engine failure names a real shard, got {shard}"
            );
            assert!(
                message.contains("injected"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }

    // Sibling shards ran to completion and every engine — including the
    // one whose job panicked — still answers directly.
    for i in 0..4 {
        let direct = c
            .shard_engine(i)
            .execute_batch(&[QueryRequest::new("probe", Plan::scan("facts"))])
            .unwrap();
        assert_eq!(direct.len(), 1);
    }

    // And the coordinator as a whole recovers with the right answer.
    let r = c.execute_batch(&[scatter_request()]).unwrap();
    assert_eq!(r[0].rows.pairs().unwrap(), healthy_answer());
}

#[test]
fn shard_failure_leaves_other_requests_of_the_batch_unfinalised() {
    // Batch semantics mirror the engine: one failing request fails the
    // whole batch and nothing is finalised — the retry executes fresh.
    let c = Coordinator::new(ShardConfig {
        shards: 2,
        partitioned: vec!["facts".into()],
        engine: EngineConfig {
            workers: 1,
            faults: FaultPlan::new()
                .seed(3)
                .once(points::ENGINE_WORKER, Fault::Panic)
                .build(),
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    });
    register(&c);

    let batch = [
        scatter_request(),
        QueryRequest::new("scan", Plan::scan("facts")),
    ];
    assert!(matches!(
        c.execute_batch(&batch),
        Err(EngineError::ShardFailed { .. })
    ));
    let retry = c.execute_batch(&batch).unwrap();
    assert_eq!(retry[0].rows.pairs().unwrap(), healthy_answer());
    assert_eq!(retry[1].rows.pairs().unwrap().len(), 5);
}

#[test]
fn coordinator_delay_is_benign() {
    // A slow decomposition delays the batch but changes nothing about the
    // results or their accounting.
    let delayed = Coordinator::new(ShardConfig {
        shards: 2,
        partitioned: vec!["facts".into()],
        faults: FaultPlan::new()
            .seed(5)
            .once(
                points::SHARD_COORDINATOR,
                Fault::Delay(std::time::Duration::from_millis(25)),
            )
            .build(),
        ..ShardConfig::default()
    });
    register(&delayed);
    let calm = Coordinator::new(ShardConfig {
        shards: 2,
        partitioned: vec!["facts".into()],
        ..ShardConfig::default()
    });
    register(&calm);

    let slow = delayed.execute_batch(&[scatter_request()]).unwrap();
    let fast = calm.execute_batch(&[scatter_request()]).unwrap();
    assert_eq!(slow[0].rows, fast[0].rows);
    assert_eq!(slow[0].summary.trace_digest, fast[0].summary.trace_digest);
    assert_eq!(
        slow[0].summary.shard_partitions,
        fast[0].summary.shard_partitions
    );
}
