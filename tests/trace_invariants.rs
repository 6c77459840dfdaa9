//! Property tests of the structured trace recorder: for random queries
//! and policy combinations (cache × pool × batch × dispatch mode), every
//! event stream a run produces must be *well-formed* — spans strictly
//! nest, model timestamps are monotone per node, every spawn/acquire has
//! exactly one terminal park/kill/join — and the per-node dispatched call
//! counts replayed from the trace must equal the process tree's `calls`
//! counters exactly. Every event is attributed to the process that
//! recorded it: a node of the run's tree, at that node's level; a child's
//! call-path events carry the plan function it runs, and each child
//! answers exactly the parameters it was sent.

use proptest::prelude::*;

use wsmed::core::{
    obs, paper, AdaptiveConfig, BatchPolicy, CachePolicy, ExecutionReport, TraceEventKind,
    TracePolicy,
};
use wsmed::services::DatasetConfig;

fn dataset(seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        atlanta_state_count: 6,
        min_neighbors: 1,
        max_neighbors: 3,
        zips_per_state: 2,
        ..DatasetConfig::tiny()
    }
}

/// Validates a traced report and cross-checks trace-replayed per-node
/// call counts against the tree snapshot.
///
/// Park terminals of sub-coordinator levels are emitted by child threads
/// *after* `run_*` returns (parking a warm tree is asynchronous), so the
/// stream is re-read until it is quiescent before the hard assertions.
fn assert_trace_faithful(report: &ExecutionReport, label: &str) -> Result<(), TestCaseError> {
    let trace = report.trace.as_ref().expect("tracing enabled");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut events = trace.events();
    let mut violations = obs::validate(&events);
    while !violations.is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
        events = trace.events();
        violations = obs::validate(&events);
    }
    prop_assert!(!events.is_empty(), "{label}: empty trace");
    prop_assert_eq!(trace.dropped(), 0, "{label}: trace overflowed");
    prop_assert!(
        violations.is_empty(),
        "{label}: invariant violations: {violations:?}"
    );

    // Per-node call counts: the sum of `call_dispatched` params per node
    // must equal `TreeNode::calls` for every node in the final snapshot.
    let mut traced_calls: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for e in &events {
        if let TraceEventKind::CallDispatched { params } = e.kind {
            *traced_calls.entry(e.node).or_insert(0) += params;
        }
    }
    for node in &report.tree.nodes {
        prop_assert_eq!(
            traced_calls.get(&node.id).copied().unwrap_or(0),
            node.calls,
            "{}: node {} call counts diverge (trace vs tree)",
            label,
            node.id
        );
    }
    // And no phantom nodes: every dispatch target exists in the snapshot.
    for id in traced_calls.keys() {
        prop_assert!(
            report.tree.nodes.iter().any(|n| n.id == *id),
            "{label}: trace dispatches to unknown node {id}"
        );
    }

    // Attribution: an event of a child names a node of the tree at the
    // level it was recorded at, and the call-path events a child records
    // deep inside its evaluation carry the plan function it runs. Each
    // section of the paper's queries calls one OWF, so every parameter a
    // child is sent is answered by exactly one web-service call or cache
    // hit recorded at that very child.
    let mut answered: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for e in events.iter().filter(|e| e.node != 0) {
        if matches!(
            e.kind,
            TraceEventKind::WsCall { .. } | TraceEventKind::CacheHit { .. }
        ) {
            *answered.entry(e.node).or_insert(0) += 1;
        }
        prop_assert!(
            report
                .tree
                .nodes
                .iter()
                .any(|n| n.id == e.node && n.level == e.level),
            "{label}: event attributed to no tree node at its level: {e:?}"
        );
        let call_path = matches!(
            e.kind,
            TraceEventKind::WsCall { .. }
                | TraceEventKind::CacheHit { .. }
                | TraceEventKind::CacheMiss { .. }
                | TraceEventKind::RetryAttempt { .. }
        );
        prop_assert!(
            !call_path || !e.pf.is_empty(),
            "{label}: a child's call-path event carries no plan function: {e:?}"
        );
    }
    for node in report.tree.nodes.iter().filter(|n| n.id != 0) {
        prop_assert_eq!(
            answered.get(&node.id).copied().unwrap_or(0),
            node.calls,
            "{}: node {} answered a different number of parameters than it was sent",
            label,
            node.id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn prop_trace_streams_are_well_formed(
        seed in 0u64..500,
        cache in any::<bool>(),
        pool in any::<bool>(),
        batch in 1usize..9,
        adaptive in any::<bool>(),
        query2 in any::<bool>(),
    ) {
        let mut setup = paper::setup(0.0, dataset(seed));
        let sql = if query2 { paper::QUERY2_SQL } else { paper::QUERY1_SQL };
        setup.wsmed.set_trace_policy(TracePolicy::enabled());
        setup.wsmed.set_cache_policy(cache.then(CachePolicy::default));
        setup.wsmed.enable_process_pool(pool);
        setup.wsmed.set_batch_policy(BatchPolicy::uniform(batch));

        let label = format!(
            "seed {seed} cache {cache} pool {pool} batch {batch} adaptive {adaptive} q2 {query2}"
        );
        let run = |s: &paper::PaperSetup| {
            if adaptive {
                s.wsmed.run_adaptive(sql, &AdaptiveConfig::default())
            } else {
                s.wsmed.run_parallel(sql, &vec![2, 2])
            }
        };

        let first = run(&setup).expect("first run");
        assert_trace_faithful(&first, &format!("{label} run1"))?;

        // With a warm pool, a rerun re-acquires parked children; its trace
        // must record warm spawns and still satisfy every invariant.
        if pool {
            let second = run(&setup).expect("second run");
            assert_trace_faithful(&second, &format!("{label} run2"))?;
            let events = second.trace.as_ref().unwrap().events();
            let warm = events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::ChildSpawn { warm: true }));
            prop_assert!(warm, "{label}: pooled rerun recorded no warm acquire");
        }
    }
}

#[test]
fn disabled_policy_records_nothing() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    // Default policy: tracing off — the report must not carry a trace.
    let report = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("untraced run");
    assert!(report.trace.is_none());
}
